// Package trace generates synthetic cluster resource-usage traces that
// stand in for the Alibaba and Google cluster traces used in the paper's
// evaluation (the originals are multi-terabyte downloads; this repository
// must be self-contained and offline).
//
// The generators reproduce the statistical features that the paper's
// methods rely on and are stressed by:
//
//   - Alibaba-style traces: machine-level resource usage with a strong
//     diurnal cycle, a weekly modulation, autocorrelated noise and
//     occasional load spikes. Aggregating a sampled subset of machines at
//     10-minute intervals yields a fairly predictable cluster trace — the
//     paper's "easy" dataset.
//   - Google-style traces: task-level usage with weak seasonality, bursty
//     arrivals, regime shifts and heavy-tailed spikes. The aggregate is
//     far harder to forecast — Table I shows roughly an order of magnitude
//     higher quantile loss, and the generator is tuned to reproduce that
//     difficulty gap.
//
// Generation is fully deterministic given a seed.
package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"robustscale/internal/timeseries"
	"robustscale/internal/wire"
)

// Resource identifies a resource-usage dimension of a trace.
type Resource string

// Resources present in the synthetic traces; the paper's experiments scale
// on CPU utilization.
const (
	CPU    Resource = "cpu"
	Memory Resource = "memory"
	Disk   Resource = "disk"
)

// Trace is a generated cluster trace: one aggregated series per resource.
type Trace struct {
	// Name identifies the trace ("alibaba" or "google").
	Name string
	// Aggregated maps each resource to the cluster-level series obtained
	// by sampling units and summing their usage, aggregated at the
	// configured step.
	Aggregated map[Resource]*timeseries.Series
}

// Series returns the aggregated series for a resource, or an error if the
// trace does not carry it.
func (t *Trace) Series(r Resource) (*timeseries.Series, error) {
	s, ok := t.Aggregated[r]
	if !ok {
		return nil, fmt.Errorf("trace: %s trace has no %s series", t.Name, r)
	}
	return s, nil
}

// Config controls synthetic trace generation.
type Config struct {
	// Name labels the generated trace.
	Name string
	// Seed makes generation deterministic.
	Seed int64
	// Units is the number of machines (Alibaba) or tasks (Google) to
	// sample and aggregate.
	Units int
	// Days is the trace length in days.
	Days int
	// Step is the aggregation interval, a divisor of 24 hours; defaults to
	// 10 minutes.
	Step time.Duration
	// Start is the timestamp of the first observation.
	Start time.Time
	// Resources lists the usage dimensions to generate.
	Resources []Resource

	// BaseLoad is the per-unit mean utilization level (arbitrary units,
	// e.g. CPU percentage points of one machine).
	BaseLoad float64
	// DailyAmp is the amplitude of the diurnal cycle relative to BaseLoad
	// (0 disables seasonality).
	DailyAmp float64
	// WeeklyAmp is the amplitude of the weekly modulation relative to
	// BaseLoad.
	WeeklyAmp float64
	// NoiseStd is the standard deviation of the AR(1) noise relative to
	// BaseLoad.
	NoiseStd float64
	// NoisePhi is the AR(1) coefficient of the noise process, in [0, 1).
	NoisePhi float64
	// SharedNoiseFrac is the fraction of NoiseStd realized as a single
	// cluster-wide AR(1) demand fluctuation that all units experience
	// together. Per-unit noise averages away under aggregation; the
	// shared component is what keeps the aggregated trace stochastic,
	// as real cluster traces are (common user demand).
	SharedNoiseFrac float64
	// SpikeProb, in [0, 1], is the per-step chance a unit starts a spike.
	SpikeProb float64
	// SpikeScale is the mean spike magnitude relative to BaseLoad.
	SpikeScale float64
	// SpikeDecay is the per-step multiplicative decay of an active spike.
	SpikeDecay float64
	// RegimeProb is the per-step probability of a persistent level shift
	// (Google-style workload migration between clusters), in [0, 1].
	RegimeProb float64
	// RegimeScale is the magnitude of level shifts relative to BaseLoad.
	RegimeScale float64
	// TrendPerDay is the linear drift per day relative to BaseLoad.
	TrendPerDay float64
	// RampSharpness shapes the diurnal waveform: 1 is a pure sinusoid;
	// smaller values square the wave, concentrating the morning surge and
	// evening drop into sharper ramps (production traces transition in
	// one to two hours, which is what defeats lagging reactive scalers).
	// In [0, 1]; 0 means the default, 0.7.
	RampSharpness float64
}

// AlibabaStyle returns the configuration of the Alibaba-like trace: strong
// daily seasonality, mild noise, rare small spikes. Forecasters find this
// trace easy, matching Table I.
func AlibabaStyle(seed int64) Config {
	return Config{
		Name:            "alibaba",
		Seed:            seed,
		Units:           64,
		Days:            28,
		Step:            timeseries.DefaultStep,
		Start:           time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC),
		Resources:       []Resource{CPU, Memory, Disk},
		BaseLoad:        40,
		DailyAmp:        0.55,
		WeeklyAmp:       0.12,
		NoiseStd:        0.05,
		NoisePhi:        0.8,
		SharedNoiseFrac: 0.5,
		SpikeProb:       0.002,
		SpikeScale:      0.5,
		SpikeDecay:      0.6,
		RegimeProb:      0,
		RegimeScale:     0,
		TrendPerDay:     0.004,
		RampSharpness:   0.35,
	}
}

// GoogleStyle returns the configuration of the Google-like trace: weak
// seasonality, bursty heavy-tailed spikes and regime shifts. Forecasters
// find this trace roughly an order of magnitude harder, matching Table I.
func GoogleStyle(seed int64) Config {
	return Config{
		Name:            "google",
		Seed:            seed,
		Units:           64,
		Days:            28,
		Step:            timeseries.DefaultStep,
		Start:           time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC),
		Resources:       []Resource{CPU, Memory},
		BaseLoad:        30,
		DailyAmp:        0.15,
		WeeklyAmp:       0.05,
		NoiseStd:        0.22,
		NoisePhi:        0.55,
		SharedNoiseFrac: 0.7,
		SpikeProb:       0.015,
		SpikeScale:      1.4,
		SpikeDecay:      0.75,
		RegimeProb:      0.0015,
		RegimeScale:     0.35,
		TrendPerDay:     0,
	}
}

// ServerlessStyle returns the configuration of a serverless-tenant trace:
// a small base load with a deep diurnal cycle whose troughs clamp to zero
// (overnight the tenant is genuinely idle), punctuated by sharp
// burst-wake spikes — the flash crowd that hits a parked tenant cold.
// This is the archetype that exercises scale-to-zero: long idle stretches
// reward parking, and the spike trains punish slow or failed wakes.
func ServerlessStyle(seed int64) Config {
	return Config{
		Name:            "serverless",
		Seed:            seed,
		Units:           8,
		Days:            28,
		Step:            timeseries.DefaultStep,
		Start:           time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC),
		Resources:       []Resource{CPU},
		BaseLoad:        1.2,
		DailyAmp:        1.7,
		WeeklyAmp:       0.1,
		NoiseStd:        0.1,
		NoisePhi:        0.6,
		SharedNoiseFrac: 0.6,
		SpikeProb:       0.0015,
		SpikeScale:      8,
		SpikeDecay:      0.7,
		RampSharpness:   0.3,
	}
}

// DecayingStyle returns the configuration of a sunsetting tenant: a
// moderate load with a steady negative drift that clamps to zero in the
// final week. It exercises the permanent-park path — a tenant that goes
// idle and, absent a wake storm, never comes back.
func DecayingStyle(seed int64) Config {
	return Config{
		Name:            "decaying",
		Seed:            seed,
		Units:           16,
		Days:            28,
		Step:            timeseries.DefaultStep,
		Start:           time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC),
		Resources:       []Resource{CPU},
		BaseLoad:        20,
		DailyAmp:        0.3,
		WeeklyAmp:       0.05,
		NoiseStd:        0.08,
		NoisePhi:        0.7,
		SharedNoiseFrac: 0.5,
		SpikeProb:       0.001,
		SpikeScale:      0.4,
		SpikeDecay:      0.6,
		TrendPerDay:     -0.05,
		RampSharpness:   0.5,
	}
}

// Revision identifies the bits Generate produces for a given Config.
// Bump it when output bits change (TestGenerateGolden says when): series
// cached on disk under an older revision are then regenerated instead of
// read back.
const Revision = 1

// stepsPerDay is the number of observations in a day at the configured
// step (the default step when unset).
func (cfg Config) stepsPerDay() int {
	step := cfg.Step
	if step <= 0 {
		step = timeseries.DefaultStep
	}
	return int(24 * time.Hour / step)
}

// Len is the length of every series Generate produces for cfg.
func (cfg Config) Len() int { return cfg.Days * cfg.stepsPerDay() }

// Aggregated wraps values as the aggregated series of a resource exactly
// as Generate labels it, for a caller that kept the values of an earlier
// Generate(cfg) and wants the series back without regenerating.
func (cfg Config) Aggregated(res Resource, values []float64) *timeseries.Series {
	return timeseries.New(cfg.Name+"/"+string(res), cfg.Start, cfg.Step, values)
}

// AppendKey appends an encoding of every field of cfg, in declaration
// order: two configurations with equal keys generate identical traces
// (at one Revision), and any field changing changes the key.
// TestKeyCoversEveryField fails when a field is added to Config and not
// here.
func (cfg Config) AppendKey(b []byte) []byte {
	b = wire.AppendSection(b, cfg.Name)
	b = wire.AppendVarints(b, cfg.Seed, int64(cfg.Units), int64(cfg.Days), int64(cfg.Step), cfg.Start.UnixNano())
	b = binary.AppendUvarint(b, uint64(len(cfg.Resources)))
	for _, r := range cfg.Resources {
		b = wire.AppendSection(b, string(r))
	}
	for _, f := range cfg.floats() {
		b = wire.AppendFloat(b, f.v)
	}
	return b
}

// floatField is a float field of Config with the upper end of the range
// [0, hi] that keeps the trace finite and ramp in its domain (hi 0: any).
type floatField struct {
	name  string
	v, hi float64
}

// floats lists every float field of cfg, in declaration order.
func (cfg Config) floats() [13]floatField {
	return [...]floatField{
		{"BaseLoad", cfg.BaseLoad, 0}, {"DailyAmp", cfg.DailyAmp, 0}, {"WeeklyAmp", cfg.WeeklyAmp, 0},
		{"NoiseStd", cfg.NoiseStd, 0}, {"NoisePhi", cfg.NoisePhi, math.Nextafter(1, 0)},
		{"SharedNoiseFrac", cfg.SharedNoiseFrac, 0}, {"SpikeProb", cfg.SpikeProb, 1},
		{"SpikeScale", cfg.SpikeScale, 0}, {"SpikeDecay", cfg.SpikeDecay, 0}, {"RegimeProb", cfg.RegimeProb, 1},
		{"RegimeScale", cfg.RegimeScale, 0}, {"TrendPerDay", cfg.TrendPerDay, 0}, {"RampSharpness", cfg.RampSharpness, 1},
	}
}

// Generate produces a trace from the configuration.
func Generate(cfg Config) (*Trace, error) {
	if cfg.Units <= 0 {
		return nil, fmt.Errorf("trace: %s config needs at least one unit", cfg.Name)
	}
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("trace: %s config needs at least one day", cfg.Name)
	}
	for _, f := range cfg.floats() {
		switch {
		case math.IsNaN(f.v) || math.IsInf(f.v, 0):
			return nil, fmt.Errorf("trace: %s config has %s %v, want a finite value", cfg.Name, f.name, f.v)
		case f.hi > 0 && (f.v < 0 || f.v > f.hi):
			return nil, fmt.Errorf("trace: %s config has %s %v, want it in [0, %v]", cfg.Name, f.name, f.v, f.hi)
		}
	}
	if cfg.Step <= 0 {
		cfg.Step = timeseries.DefaultStep
	}
	if day := 24 * time.Hour; day%cfg.Step != 0 {
		return nil, fmt.Errorf("trace: %s config has Step %v, want a divisor of %v", cfg.Name, cfg.Step, day)
	}
	if perDay := cfg.stepsPerDay(); cfg.Days > math.MaxInt/perDay {
		return nil, fmt.Errorf("trace: %s config has Days %d, want at most %d at Step %v", cfg.Name, cfg.Days, math.MaxInt/perDay, cfg.Step)
	}
	if len(cfg.Resources) == 0 {
		cfg.Resources = []Resource{CPU}
	}
	if cfg.RampSharpness == 0 {
		cfg.RampSharpness = 0.7
	}
	n := cfg.Len()
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	if cap(sc.weekly) < n {
		sc.weekly, sc.shared = make([]float64, n), make([]float64, n)
	}
	weekly, shared, rng := sc.weekly[:n], sc.shared[:n], sc.rng
	rng.Seed(cfg.Seed) // restarts the stream rand.New(rand.NewSource(cfg.Seed)) draws
	// The weekly modulation's waveform is the same for every unit and
	// resource; units only scale it.
	for i, weekSteps := 0, 7*float64(cfg.stepsPerDay()); i < n; i++ {
		weekly[i] = math.Sin(2 * math.Pi * float64(i) / weekSteps)
	}

	t := &Trace{Name: cfg.Name, Aggregated: make(map[Resource]*timeseries.Series, len(cfg.Resources))}
	for _, res := range cfg.Resources {
		generateSharedEvents(shared, cfg, rng)
		agg := make([]float64, n) // 0 + v₀ + v₁ + …, summed in unit order
		for u := 0; u < cfg.Units; u++ {
			addUnit(agg, cfg, res, shared, weekly, rng)
		}
		t.Aggregated[res] = cfg.Aggregated(res, agg)
	}
	return t, nil
}

// scratch is what a Generate call works in besides the trace it returns:
// the weekly wave and the shared events, n each, and the RNG.
type scratch struct {
	weekly, shared []float64
	rng            *rand.Rand
}

// scratches hands scratch between Generate calls. A sync.Pool, not a
// free list: a list would keep one scratch per peak concurrent caller
// live for good, where the GC frees a Pool's once generation stops.
var scratches = sync.Pool{New: func() any { return &scratch{rng: rand.New(rand.NewSource(1))} }}

// resourceScale differentiates the resource dimensions: memory moves more
// slowly than CPU, disk is flatter still.
func resourceScale(r Resource) (level, seasonality, noise float64) {
	switch r {
	case Memory:
		return 1.4, 0.5, 0.45
	case Disk:
		return 0.8, 0.25, 0.3
	default: // CPU
		return 1, 1, 1
	}
}

// generateSharedEvents produces cluster-wide burst and regime paths that
// every unit experiences together. Real production incidents (flash sales,
// batch jobs, failovers) hit the whole cluster at once, and without this
// correlated component aggregation over many units would average the
// per-unit spikes away. It overwrites every element of shared.
func generateSharedEvents(shared []float64, cfg Config, rng *rand.Rand) {
	spike := 0.0
	regime := 0.0
	ar := 0.0
	arStd := cfg.NoiseStd * cfg.SharedNoiseFrac
	arInnov := arStd * math.Sqrt(1-cfg.NoisePhi*cfg.NoisePhi)
	for i := range shared {
		if rng.Float64() < cfg.SpikeProb {
			spike += cfg.SpikeScale * rng.ExpFloat64()
		}
		spike *= cfg.SpikeDecay
		if cfg.RegimeProb > 0 && rng.Float64() < cfg.RegimeProb {
			regime = cfg.RegimeScale * (2*rng.Float64() - 1)
		}
		ar = cfg.NoisePhi*ar + rng.NormFloat64()*arInnov
		shared[i] = spike + regime + ar
	}
}

// addUnit generates one unit's usage of res and adds it into agg.
func addUnit(agg []float64, cfg Config, res Resource, shared, weeklyWave []float64, rng *rand.Rand) {
	levelMul, seasonMul, noiseMul := resourceScale(res)
	base := cfg.BaseLoad * levelMul * (0.7 + 0.6*rng.Float64())
	phase := rng.Float64() * 2 * math.Pi * 0.15 // mild phase dispersion across units
	dailyAmp := cfg.DailyAmp * seasonMul * base * (0.8 + 0.4*rng.Float64())
	weeklyAmp := cfg.WeeklyAmp * seasonMul * base
	noiseStd := cfg.NoiseStd * noiseMul * base
	innovScale := math.Sqrt(1 - cfg.NoisePhi*cfg.NoisePhi)
	stepsPerDay := float64(cfg.stepsPerDay())
	dayOffset := phase / (2 * math.Pi)
	trendBase := cfg.TrendPerDay * base

	ar, spike := 0.0, 0.0
	var shape [diurnalBlock]float64
	for i0 := 0; i0 < len(agg); i0 += diurnalBlock {
		block := agg[i0:min(i0+diurnalBlock, len(agg))]
		diurnal(shape[:len(block)], i0, stepsPerDay, dayOffset, cfg.RampSharpness)
		for k := range block {
			i := i0 + k
			daily := dailyAmp * shape[k]
			weekly := weeklyAmp * weeklyWave[i]
			trend := trendBase * float64(i) / stepsPerDay

			ar = cfg.NoisePhi*ar + rng.NormFloat64()*noiseStd*innovScale

			// Per-unit spikes on top of the cluster-wide shared events.
			if rng.Float64() < cfg.SpikeProb {
				spike += cfg.SpikeScale * base * rng.ExpFloat64()
			}
			spike *= cfg.SpikeDecay

			v := base + daily + weekly + trend + ar + spike + shared[i]*base
			if v < 0 {
				v = 0
			}
			block[k] += v
		}
	}
}

// diurnalBlock is how many steps' diurnal shape addUnit computes at a
// time, into an array on its stack.
const diurnalBlock = 64

// diurnal sets d[k] to the daily cycle's shape at step i0+k: a
// sharpened sinusoid with a plateau during business hours, closer to
// production traces than a pure sine. The time in days of step i is
// i/stepsPerDay + dayOffset; sharpness < 1 squares the wave. Every value
// is in [-1, 1]. len(d) is at most diurnalBlock.
func diurnal(d []float64, i0 int, stepsPerDay, dayOffset, sharpness float64) {
	for k := range d {
		dayFrac := float64(i0+k)/stepsPerDay + dayOffset
		d[k] = math.Sin(2 * math.Pi * (dayFrac - 0.3))
	}
	ramp(d, sharpness)
}

// ramp replaces every s in v, len(v) at most diurnalBlock, with
// Copysign(Pow(|s|, y), s), bit for bit, for s ∈ [-1, 1] and y ∈ (0, 1]:
// the portable math.Pow's operations minus needless case analysis, each
// transcendental in a pass of its own, so that consecutive steps'
// evaluations are independent and overlap.
func ramp(v []float64, y float64) {
	switch y {
	case 1:
		return // Copysign(|s|, s) is s
	case 0.5:
		for k, s := range v {
			v[k] = math.Copysign(math.Sqrt(math.Abs(s)), s)
		}
		return
	}
	// For y > 0.5 Pow takes x^(y-1) · x¹; below, x^y directly. Log(1) is
	// 0, so |s| = 1 comes out 1 on either path.
	e := y
	if y > 0.5 {
		e = y - 1
	}
	var a [diurnalBlock]float64
	av := a[:len(v)]
	for k, s := range v {
		av[k] = math.Log(math.Abs(s))
	}
	for k, l := range av {
		av[k] = math.Exp(e * l)
	}
	for k, s := range v {
		switch x := math.Abs(s); {
		case x == 0:
			// v[k] stays ±0: Log(0) is -Inf, and for y > 0.5 a·x would be ∞·0.
		case y < 0.5:
			v[k] = math.Copysign(av[k], s)
		case x >= 0x1p-1022:
			// Pow's Frexp/Ldexp product is a·x exactly for a normal x
			// (a ≥ 1); a subnormal x rounds twice there.
			v[k] = math.Copysign(av[k]*x, s)
		default:
			frac, exp := math.Frexp(x)
			v[k] = math.Copysign(math.Ldexp(av[k]*frac, exp), s)
		}
	}
}
