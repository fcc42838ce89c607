package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"robustscale/internal/timeseries"
)

func TestGenerateDeterministic(t *testing.T) {
	a1, err := Generate(AlibabaStyle(42))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Generate(AlibabaStyle(42))
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := a1.Series(CPU)
	s2, _ := a2.Series(CPU)
	if s1.Len() != s2.Len() {
		t.Fatalf("lengths differ: %d vs %d", s1.Len(), s2.Len())
	}
	for i := 0; i < s1.Len(); i++ {
		if s1.At(i) != s2.At(i) {
			t.Fatalf("values differ at %d: %v vs %v", i, s1.At(i), s2.At(i))
		}
	}
	a3, err := Generate(AlibabaStyle(43))
	if err != nil {
		t.Fatal(err)
	}
	s3, _ := a3.Series(CPU)
	same := true
	for i := 0; i < s1.Len(); i++ {
		if s1.At(i) != s3.At(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := AlibabaStyle(1)
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepsPerDay := int(24 * time.Hour / cfg.Step)
	wantLen := cfg.Days * stepsPerDay
	for _, res := range cfg.Resources {
		s, err := tr.Series(res)
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != wantLen {
			t.Errorf("%s: len = %d, want %d", res, s.Len(), wantLen)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", res, err)
		}
		if s.Min() < 0 {
			t.Errorf("%s: negative usage %v", res, s.Min())
		}
	}
}

func TestSeriesMissingResource(t *testing.T) {
	tr, err := Generate(GoogleStyle(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Series(Disk); err == nil {
		t.Error("Google trace should not carry disk usage")
	}
}

// TestGenerateValidation: a configuration whose trace would be NaN, whose
// ramp sharpness leaves ramp's domain, whose Step does not divide a day
// or whose length overflows an int is refused with an error naming the
// field; every archetype and the range edges pass.
func TestGenerateValidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edit  func(*Config)
		field string // in the error; "" for a config that must pass
	}{
		{"zero units", func(c *Config) { c.Units = 0 }, "unit"},
		{"zero days", func(c *Config) { c.Days = 0 }, "day"},
		{"NoisePhi 1.5", func(c *Config) { c.NoisePhi = 1.5 }, "NoisePhi"},
		{"NoisePhi 1", func(c *Config) { c.NoisePhi = 1 }, "NoisePhi"},
		{"NoisePhi -0.1", func(c *Config) { c.NoisePhi = -0.1 }, "NoisePhi"},
		{"RampSharpness NaN", func(c *Config) { c.RampSharpness = math.NaN() }, "RampSharpness"},
		{"RampSharpness -0.5", func(c *Config) { c.RampSharpness = -0.5 }, "RampSharpness"},
		{"RampSharpness 1.5", func(c *Config) { c.RampSharpness = 1.5 }, "RampSharpness"},
		{"BaseLoad +Inf", func(c *Config) { c.BaseLoad = math.Inf(1) }, "BaseLoad"},
		{"TrendPerDay -Inf", func(c *Config) { c.TrendPerDay = math.Inf(-1) }, "TrendPerDay"},
		{"SharedNoiseFrac NaN", func(c *Config) { c.SharedNoiseFrac = math.NaN() }, "SharedNoiseFrac"},
		{"SpikeProb 1.1", func(c *Config) { c.SpikeProb = 1.1 }, "SpikeProb"},
		{"SpikeProb -0.1", func(c *Config) { c.SpikeProb = -0.1 }, "SpikeProb"},
		{"RegimeProb 2", func(c *Config) { c.RegimeProb = 2 }, "RegimeProb"},
		{"Step 25h", func(c *Config) { c.Step = 25 * time.Hour }, "Step"},
		{"Step 48h", func(c *Config) { c.Step = 48 * time.Hour }, "Step"},
		{"Step 7m", func(c *Config) { c.Step = 7 * time.Minute }, "Step"},
		{"Days overflow", func(c *Config) { c.Days = math.MaxInt/144 + 1 }, "Days"},
		{"Days overflow at 1s", func(c *Config) { c.Step, c.Days = time.Second, math.MaxInt/86400+1 }, "Days"},
		{"Step 1h", func(c *Config) { c.Step = time.Hour }, ""},
		{"Step 24h", func(c *Config) { c.Step = 24 * time.Hour }, ""},
		{"edges", func(c *Config) { c.NoisePhi, c.SpikeProb, c.RegimeProb, c.RampSharpness = 0.999, 1, 1, 1 }, ""},
		{"default sharpness", func(c *Config) { c.RampSharpness = 0 }, ""},
	} {
		cfg := fleetShape(AlibabaStyle, 1)
		tc.edit(&cfg)
		tr, err := Generate(cfg)
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.field == "":
			if s, _ := tr.Series(CPU); s.Validate() != nil {
				t.Errorf("%s: %v", tc.name, s.Validate())
			}
		case err == nil:
			t.Errorf("%s: Generate accepted it", tc.name)
		case !strings.Contains(err.Error(), tc.field):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.field)
		}
	}
	for _, style := range []func(int64) Config{AlibabaStyle, GoogleStyle, ServerlessStyle, DecayingStyle} {
		if _, err := Generate(fleetShape(style, 1)); err != nil {
			t.Error(err)
		}
	}
}

func TestGenerateDefaults(t *testing.T) {
	cfg := Config{Name: "min", Seed: 1, Units: 2, Days: 1, BaseLoad: 10}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tr.Series(CPU)
	if err != nil {
		t.Fatalf("default resources should include CPU: %v", err)
	}
	if s.Step != timeseries.DefaultStep {
		t.Errorf("step = %v, want default", s.Step)
	}
}

// autocorrelation at lag k of a demeaned series.
func autocorr(values []float64, lag int) float64 {
	n := len(values)
	mean := 0.0
	for _, v := range values {
		mean += v
	}
	mean /= float64(n)
	num, den := 0.0, 0.0
	for i := 0; i < n; i++ {
		d := values[i] - mean
		den += d * d
		if i+lag < n {
			num += d * (values[i+lag] - mean)
		}
	}
	return num / den
}

func TestAlibabaHasStrongDailyCycle(t *testing.T) {
	tr, err := Generate(AlibabaStyle(7))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := tr.Series(CPU)
	daily := autocorr(s.Values, 144) // 24h at 10-minute steps
	if daily < 0.5 {
		t.Errorf("daily autocorrelation = %v, want strong (>0.5)", daily)
	}
}

func TestGoogleIsHarderThanAlibaba(t *testing.T) {
	ali, err := Generate(AlibabaStyle(7))
	if err != nil {
		t.Fatal(err)
	}
	goo, err := Generate(GoogleStyle(7))
	if err != nil {
		t.Fatal(err)
	}
	sa, _ := ali.Series(CPU)
	sg, _ := goo.Series(CPU)

	// Compare the coefficient of variation of the residual after removing
	// the daily pattern: Google should be substantially noisier.
	cvResidual := func(s *timeseries.Series) float64 {
		dec, err := timeseries.DecomposeAdditive(s, 144)
		if err != nil {
			t.Fatal(err)
		}
		ss, n := 0.0, 0
		for _, r := range dec.Residual {
			if math.IsNaN(r) {
				continue
			}
			ss += r * r
			n++
		}
		return math.Sqrt(ss/float64(n)) / s.Mean()
	}
	ca, cg := cvResidual(sa), cvResidual(sg)
	if cg < 2*ca {
		t.Errorf("google residual CV %v should be >> alibaba %v", cg, ca)
	}
	// Google seasonality should be weaker.
	if autocorr(sg.Values, 144) > autocorr(sa.Values, 144) {
		t.Error("google trace should have weaker daily autocorrelation than alibaba")
	}
}

func TestGoogleHasSpikes(t *testing.T) {
	tr, err := Generate(GoogleStyle(11))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := tr.Series(CPU)
	mean, std := s.Mean(), s.Std()
	spikes := 0
	for _, v := range s.Values {
		if v > mean+3*std {
			spikes++
		}
	}
	if spikes == 0 {
		t.Error("google trace should contain >3-sigma spikes")
	}
}

func TestResourceDifferentiation(t *testing.T) {
	tr, err := Generate(AlibabaStyle(3))
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := tr.Series(CPU)
	mem, _ := tr.Series(Memory)
	// Memory should run at a higher level and be smoother than CPU.
	if mem.Mean() < cpu.Mean() {
		t.Errorf("memory mean %v should exceed cpu mean %v", mem.Mean(), cpu.Mean())
	}
	cvCPU := cpu.Std() / cpu.Mean()
	cvMem := mem.Std() / mem.Mean()
	if cvMem > cvCPU {
		t.Errorf("memory CV %v should be below cpu CV %v", cvMem, cvCPU)
	}
}

// sustainedDiurnal is the diurnal shape at dayFrac days, one step at a
// time, with the power taken by math.Pow itself: the reference that
// diurnal's blocks are held to (FuzzDiurnalBlock).
func sustainedDiurnal(dayFrac, sharpness float64) float64 {
	return rampRef(math.Sin(2*math.Pi*(dayFrac-0.3)), sharpness)
}

// rampRef is what ramp makes of one s: Copysign(Pow(|s|, y), s).
func rampRef(s, y float64) float64 {
	return math.Copysign(math.Pow(math.Abs(s), y), s)
}

// diurnalDays is diurnal over steps [0, n) of stepsPerDay steps a day,
// block by block as addUnit computes it.
func diurnalDays(n int, stepsPerDay, sharpness float64) []float64 {
	d := make([]float64, n)
	for i0 := 0; i0 < n; i0 += diurnalBlock {
		diurnal(d[i0:min(i0+diurnalBlock, n)], i0, stepsPerDay, 0, sharpness)
	}
	return d
}

func TestSustainedDiurnalRange(t *testing.T) {
	for _, sharp := range []float64{0.35, 0.7, 1} {
		for i, v := range diurnalDays(200, 100, sharp) {
			if v < -1.0001 || v > 1.0001 {
				t.Fatalf("diurnal at day %v, sharpness %v = %v out of range", float64(i)/100, sharp, v)
			}
		}
	}
}

// rampExponents are the exponents ramp is held to math.Pow on: the four
// archetypes' sharpness, the default's, and the edges of its branches.
var rampExponents = []float64{0.3, 0.35, 0.5, 0.7, 1, 0.49, 0.51, 0.999, 1e-9}

// rampOne is ramp of a one-step block holding x.
func rampOne(x, y float64) float64 {
	v := []float64{x}
	ramp(v, y)
	return v[0]
}

// TestRampPowMatchesPow compares ramp's bits with math.Pow's on the ends
// of [0, 1], both sides of the subnormal boundary, and a dense sample:
// uniform values, and uniform bit patterns, which reach every exponent,
// subnormals included — in whole blocks, and each sign.
func TestRampPowMatchesPow(t *testing.T) {
	xs := []float64{0, 1, math.SmallestNonzeroFloat64, math.Float64frombits(1<<52 - 1), 0x1p-1022, math.Nextafter(1, 0)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		xs = append(xs, rng.Float64(), math.Float64frombits(rng.Uint64()%(math.Float64bits(1)+1)))
	}
	for _, y := range rampExponents {
		for _, sign := range []float64{1, -1} {
			for i0 := 0; i0 < len(xs); i0 += diurnalBlock {
				in := xs[i0:min(i0+diurnalBlock, len(xs))]
				v := make([]float64, len(in))
				for k, x := range in {
					v[k] = sign * x
				}
				ramp(v, y)
				for k, x := range in {
					if want := rampRef(sign*x, y); math.Float64bits(v[k]) != math.Float64bits(want) {
						t.Fatalf("ramp of %v at y %v = %v, math.Pow = %v", sign*x, y, v[k], want)
					}
				}
			}
		}
	}
}

// FuzzRampPow holds ramp to math.Pow bit for bit on any x in [0, 1] and
// y in (0, 1]: inputs outside fold in as |v| or 1/|v|. The first seed is
// where a·x, taken for a subnormal x, rounds differently.
func FuzzRampPow(f *testing.F) {
	f.Add(2.2690396541722e-309, 0.999)
	for _, y := range rampExponents {
		f.Add(0.5, y)
		f.Add(math.SmallestNonzeroFloat64, y)
	}
	f.Fuzz(func(t *testing.T, x, y float64) {
		x, y = fold(x), fold(y)
		if math.IsNaN(x) || math.IsNaN(y) || y == 0 {
			return
		}
		if got, want := rampOne(x, y), math.Pow(x, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ramp of %v at y %v = %v, math.Pow = %v", x, y, got, want)
		}
	})
}

// fold maps v into [0, 1] as |v| or 1/|v|.
func fold(v float64) float64 {
	if v = math.Abs(v); v > 1 {
		return 1 / v
	}
	return v
}

// FuzzDiurnalBlock holds a block of diurnal, of any length up to
// diurnalBlock, from any start index, to sustainedDiurnal step by step,
// bit for bit; stepsPerDay is in [1, 1440], dayOffset in [0, 0.15) as
// addUnit's phase gives it, and y in (0, 1]. Then it plants s at step at
// of a block of sines and holds ramp to rampRef there, which reaches
// what no sine of a step does: a subnormal |s|. Seeds cover y 0.5 and 1,
// a subnormal |s|, and |s| 0 and 1 both planted and as sines (3/10 days
// is a sine of 0; 11/20 days one of 1).
func FuzzDiurnalBlock(f *testing.F) {
	f.Add(uint16(0), uint8(63), uint16(143), 0.0, 0.35, 0.25, uint8(0))
	f.Add(uint16(2291), uint8(12), uint16(143), 0.149, 0.7, -0.75, uint8(7))
	f.Add(uint16(0), uint8(9), uint16(9), 0.0, 0.7, 0.0, uint8(3))
	f.Add(uint16(11), uint8(0), uint16(19), 0.0, 0.7, 1.0, uint8(0))
	f.Add(uint16(100), uint8(40), uint16(143), 0.07, 0.5, 1.0, uint8(1))
	f.Add(uint16(7), uint8(63), uint16(287), 0.1, 1.0, math.SmallestNonzeroFloat64, uint8(2))
	f.Add(uint16(64), uint8(5), uint16(143), 0.02, 0.999, 2.2690396541722e-309, uint8(4))
	f.Add(uint16(64), uint8(5), uint16(143), 0.02, 0.3, -math.SmallestNonzeroFloat64, uint8(4))
	f.Fuzz(func(t *testing.T, i0 uint16, n uint8, stepsPerDay uint16, dayOffset, y, s float64, at uint8) {
		y = fold(y)
		if math.IsNaN(y) || y == 0 || math.IsNaN(dayOffset) || math.IsInf(dayOffset, 0) || math.IsNaN(s) {
			return
		}
		dayOffset = math.Mod(math.Abs(dayOffset), 0.15)
		steps := int(n)%diurnalBlock + 1
		perDay := float64(int(stepsPerDay)%1440 + 1)
		dayFrac := func(k int) float64 { return float64(int(i0)+k)/perDay + dayOffset }

		var d [diurnalBlock]float64
		diurnal(d[:steps], int(i0), perDay, dayOffset, y)
		for k, got := range d[:steps] {
			if want := sustainedDiurnal(dayFrac(k), y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("diurnal step %d+%d of %v a day, offset %v, y %v = %v, sustainedDiurnal = %v",
					i0, k, perDay, dayOffset, y, got, want)
			}
		}

		var in, v [diurnalBlock]float64
		for k := range in[:steps] {
			in[k] = math.Sin(2 * math.Pi * (dayFrac(k) - 0.3))
		}
		in[int(at)%steps] = math.Copysign(fold(s), s)
		v = in
		ramp(v[:steps], y)
		for k, x := range in[:steps] {
			if got, want := v[k], rampRef(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("ramp of %v at y %v = %v, Copysign(Pow) = %v", x, y, got, want)
			}
		}
	})
}

func TestSharperRampTransitionsFaster(t *testing.T) {
	// A squarer wave spends more time near its extremes: the mean
	// absolute value grows as sharpness shrinks.
	meanAbs := func(sharp float64) float64 {
		sum := 0.0
		d := diurnalDays(1000, 1000, sharp)
		for _, v := range d {
			sum += math.Abs(v)
		}
		return sum / float64(len(d))
	}
	if meanAbs(0.35) <= meanAbs(1.0) {
		t.Error("sharper waveform should be squarer")
	}
}

// fleetShape is a style at the shape every fleet tenant generates: three
// units, CPU only.
func fleetShape(style func(int64) Config, days int) Config {
	cfg := style(42)
	cfg.Units, cfg.Days, cfg.Resources = 3, days, []Resource{CPU}
	return cfg
}

// TestGenerateGolden pins the generator's output bits — FNV-64a over the
// Float64bits of an aggregate series — for all four archetypes at the
// fleet's shape (CPU), and for the Alibaba and Google styles at their full
// shape (64 units, every resource, 28 days: what the experiments and
// tracegen generate), and at lengths and a unit count that no block of
// steps divides evenly, so a speed-up of Generate is proven against bits
// recorded before it, and a change that does move them is told to bump
// Revision.
func TestGenerateGolden(t *testing.T) {
	golden := map[string]uint64{
		"alibaba/4":     0x2d4c36b5d91eee2f,
		"alibaba/16":    0x74776db9d5af382e,
		"google/4":      0x3c90b2b50035a15a,
		"google/16":     0xb89b13c0a1514571,
		"serverless/4":  0xa6a725672a7ed4df,
		"serverless/16": 0x4853618564d9107f,
		"decaying/4":    0xa99161b0c52fbc30,
		"decaying/16":   0xf9e86d5dfb15b77f,

		"alibaba/full/cpu":    0x3be2e6e20e6c2f06,
		"alibaba/full/memory": 0xf2baadbd78a53417,
		"alibaba/full/disk":   0xad0a95fea9b7e2fc,
		"google/full/cpu":     0xa4c374d37df0bb4c,
		"google/full/memory":  0x9302ab9950b11351,

		// Lengths that no block of 32 or more steps divides (144·d for
		// d = 1, 3, 5, 21; 21 days is paper-pipeline's trace), and a unit
		// count other than the fleet's three.
		"alibaba/1":        0xfc4add23dea35bef,
		"alibaba/3":        0x94211f5536c768ae,
		"alibaba/21":       0x5bd265959b006e5f,
		"google/1":         0x3d1037198fe1aa34,
		"google/3":         0xe3fecbcb37f1462b,
		"google/21":        0x43c1811d795e8fc4,
		"serverless/1":     0x8338cb09e3acac00,
		"serverless/3":     0xfdb30c12be5c90f6,
		"serverless/21":    0xaf063785abbd98c7,
		"decaying/1":       0x8c7db385a434e3fd,
		"decaying/3":       0x2af0c0935f7e4a5e,
		"decaying/21":      0xa625011333313561,
		"google/5/units=1": 0xbf16a3db329c1e9c,
	}
	check := func(name string, tr *Trace, res Resource) {
		t.Helper()
		s, err := tr.Series(res)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, v := range s.Values {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != golden[name] {
			t.Errorf("%s: series hash %#016x, want %#016x — Generate's output bits moved; "+
				"if that is intended, bump trace.Revision and re-record", name, got, golden[name])
		}
	}
	for _, style := range []func(int64) Config{AlibabaStyle, GoogleStyle, ServerlessStyle, DecayingStyle} {
		for _, days := range []int{4, 16, 1, 3, 21} {
			cfg := fleetShape(style, days)
			tr, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s/%d", cfg.Name, days), tr, CPU)
		}
	}
	oneUnit := fleetShape(GoogleStyle, 5)
	oneUnit.Units = 1
	tr, err := Generate(oneUnit)
	if err != nil {
		t.Fatal(err)
	}
	check("google/5/units=1", tr, CPU)
	for _, cfg := range []Config{AlibabaStyle(42), GoogleStyle(42)} {
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range cfg.Resources {
			check(fmt.Sprintf("%s/full/%s", cfg.Name, res), tr, res)
		}
	}
}

// TestKeyCoversEveryField changes every field of Config in turn, by
// reflection, and requires the key to change with it — so a field added
// to Config but not to AppendKey fails here instead of letting two
// different traces share a cached series.
func TestKeyCoversEveryField(t *testing.T) {
	base := AlibabaStyle(42)
	baseKey := base.AppendKey(nil)
	if again := AlibabaStyle(42).AppendKey(nil); !bytes.Equal(again, baseKey) {
		t.Fatal("equal configurations, different keys")
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		cfg := base
		f := reflect.ValueOf(&cfg).Elem().Field(i)
		switch v := f.Interface().(type) {
		case string:
			f.SetString(v + "x")
		case int, int64, time.Duration:
			f.SetInt(f.Int() + 1)
		case float64:
			f.SetFloat(v + 0.125)
		case time.Time:
			f.Set(reflect.ValueOf(v.Add(time.Second)))
		case []Resource:
			f.Set(reflect.ValueOf(v[:len(v)-1]))
		default:
			t.Fatalf("Config grew a %s field (%s) the key does not know", f.Type(), typ.Field(i).Name)
		}
		if bytes.Equal(cfg.AppendKey(nil), baseKey) {
			t.Errorf("changing Config.%s does not change the key", typ.Field(i).Name)
		}
	}
	renamed := base
	renamed.Resources = []Resource{CPU, Disk, Memory}
	if bytes.Equal(renamed.AppendKey(nil), baseKey) {
		t.Error("reordering Resources does not change the key")
	}
}

// TestAggregatedMatchesGenerate: values kept from a Generate come back,
// through Aggregated, as the series Generate returned — including under
// a zero Step, which both default alike.
func TestAggregatedMatchesGenerate(t *testing.T) {
	cfg := fleetShape(GoogleStyle, 4)
	cfg.Step = 0
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tr.Series(CPU)
	if want.Len() != cfg.Len() {
		t.Fatalf("Len() = %d, Generate produced %d", cfg.Len(), want.Len())
	}
	if got := cfg.Aggregated(CPU, want.Values); !reflect.DeepEqual(got, want) {
		t.Errorf("Aggregated = %+v, want Generate's %+v", got, want)
	}
}

// BenchmarkGenerateFleetTenant is what one tenant of a cold fleet build
// pays for its trace at the benchmark's shape.
func BenchmarkGenerateFleetTenant(b *testing.B) {
	for _, style := range []func(int64) Config{AlibabaStyle, GoogleStyle, ServerlessStyle, DecayingStyle} {
		cfg := fleetShape(style, 16)
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
