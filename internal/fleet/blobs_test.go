package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"robustscale/internal/cluster"
	"robustscale/internal/forecast"
	"robustscale/internal/obs"
	"robustscale/internal/persist"
	"robustscale/internal/scaler"
	"robustscale/internal/timeseries"
)

// blobCase is one component a fleet tenant saves at every checkpoint.
// populated builds it through its public API with every saved field off
// its zero value and returns its Save; fresh builds a receiver in some
// other valid state and returns its Load and Save. golden is the hex of
// what populated saves: a layout drift fails TestComponentBlobs until the
// golden and persist.SegmentVersion move together.
type blobCase struct {
	name      string
	golden    string
	populated func(t testing.TB) func(io.Writer) error
	fresh     func(t testing.TB) (load func(io.Reader) error, save func(io.Writer) error)
}

func blobSeries(values ...float64) *timeseries.Series {
	return timeseries.New("blob", time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC), 10*time.Minute, values)
}

// fanThenFail plans one round with a fan, then fails: it walks a guard
// to its last-known-good rung.
type fanThenFail struct{ calls int }

func (*fanThenFail) Name() string { return "fan-then-fail" }

func (s *fanThenFail) PlanInto(_ *timeseries.Series, h int, dst []int) (scaler.Round, error) {
	if s.calls++; s.calls > 1 {
		return scaler.Round{}, errors.New("boom")
	}
	fan := &forecast.QuantileForecast{Levels: []float64{0.5, 0.9}}
	for i := 0; i < h; i++ {
		fan.Mean = append(fan.Mean, 3+float64(i))
		fan.Values = append(fan.Values, []float64{3 + float64(i), 4.5 + float64(i)})
		dst = append(dst[:i], 2)
	}
	return scaler.Round{Nodes: dst[:h], Fan: fan}, nil
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

var blobCases = []blobCase{
	{
		name:   "seasonal-naive",
		golden: "040a040000000000000840000000000000144000000000000020400000000000002240",
		populated: func(t testing.TB) func(io.Writer) error {
			s := &forecast.SeasonalNaive{Period: 2, MaxResiduals: 5}
			must(t, s.Fit(blobSeries(1, 2, 4, 7, 12, 16)))
			return s.Save
		},
		fresh: func(t testing.TB) (func(io.Reader) error, func(io.Writer) error) {
			s := forecast.NewSeasonalNaive(3)
			must(t, s.Fit(blobSeries(1, 2, 3, 5, 8)))
			return s.Load, s.Save
		},
	},
	{
		name:   "naive",
		golden: "020e03000000000000f03f000000000000004000000000000008400300000000000018c000000000000008400000000000001440",
		populated: func(t testing.TB) func(io.Writer) error {
			n := forecast.NewNaive(2)
			n.MaxResiduals = 7
			must(t, n.Fit(blobSeries(1, 2, 4, 7, -2)))
			return n.Save
		},
		fresh: func(t testing.TB) (func(io.Reader) error, func(io.Writer) error) {
			n := forecast.NewNaive(1)
			must(t, n.Fit(blobSeries(5, 3, 4)))
			return n.Load, n.Save
		},
	},
	{
		name: "calibration",
		// Five observations through a three-step window of one-step
		// buckets: the bucket ring wraps, so both of its runs are in the
		// blob after the window's record.
		golden: "02000000000000e03fcdccccccccccec3f05011800000000000008400000000000804340000000000000f03f000000000000004000000000000004400000000000000040000000000000f03f00000000000028400000000000000000000000000000f03f000000000000e03f989999999999b93f000000000000f03f0000000000002a40000000000000f03f0000000000000000000000000000e03fcdccccccccccfc3f000000000000f03f0000000000002c400000000000000000000000000000f03f000000000000f83f989999999999b93f",
		populated: func(t testing.TB) func(io.Writer) error {
			return observedCalibration(t, []float64{0.5, 0.9}, 3).Save
		},
		fresh: func(t testing.TB) (func(io.Reader) error, func(io.Writer) error) {
			cal := observedCalibration(t, []float64{0.8}, 2)
			return func(r io.Reader) error {
				loaded := new(cluster.Calibration)
				err := loaded.Load(r)
				if err == nil {
					cal = loaded
				}
				return err
			}, func(w io.Writer) error { return cal.Save(w) }
		},
	},
	{
		name:   "guard",
		golden: "0416666f7265636173746572206572726f723a20626f6f6d0202000000000000e03fcdccccccccccec3f02000000000000084000000000000010400202000000000000084000000000000012400200000000000010400000000000001640",
		populated: func(t testing.TB) func(io.Writer) error {
			g := &scaler.Guard{Inner: &fanThenFail{}, Config: scaler.GuardConfig{Theta: 5}}
			hist := blobSeries(3, 4, 3, 4)
			for round := 0; round < 2; round++ {
				if _, err := g.PlanInto(hist, 2, nil); err != nil {
					t.Fatal(err)
				}
			}
			if g.Mode() != scaler.ModeLastKnownGood {
				t.Fatalf("guard in mode %v, want last-known-good", g.Mode())
			}
			return g.Save
		},
		fresh: func(testing.TB) (func(io.Reader) error, func(io.Writer) error) {
			g := &scaler.Guard{Inner: &fanThenFail{}, Config: scaler.GuardConfig{Theta: 5}}
			return g.Load, g.Save
		},
	},
	{
		name:   "breaker",
		golden: "02060604",
		populated: func(testing.TB) func(io.Writer) error {
			b := &scaler.Breaker{Cooldown: 4}
			trip := func() {
				for range scaler.BreakerThreshold {
					b.Failure() // the last one opens it
				}
			}
			trip()
			for i := 0; i < 4; i++ {
				b.Tick() // the last tick ends the cooldown: half-open
			}
			b.Success() // the probe succeeds: closed
			trip()
			b.Tick()
			return b.Save
		},
		fresh: func(testing.TB) (func(io.Reader) error, func(io.Writer) error) {
			b := &scaler.Breaker{}
			return b.Load, b.Save
		},
	},
	{
		name:   "wake-guard",
		golden: "0000000402060a02020204",
		populated: func(testing.TB) func(io.Writer) error {
			g := &scaler.WakeGuard{}
			g.Shape([]int{0}, true)
			g.Shape([]int{0}, true)
			g.Shape([]int{0}, true) // parked
			g.Shape([]int{3}, false)
			g.OnWakeResult(false)
			g.OnWakeResult(false)
			g.OnWakeResult(false) // breaker open
			g.Shape([]int{0}, true)
			return g.Save
		},
		fresh: func(testing.TB) (func(io.Reader) error, func(io.Writer) error) {
			g := &scaler.WakeGuard{}
			g.Shape([]int{0}, true)
			return g.Load, g.Save
		},
	},
	{
		name:   "serverless-plant",
		golden: "0000010000000000209c400000000000c0924004020200",
		populated: func(t testing.TB) func(io.Writer) error {
			s := blobPlant(t)
			var out cluster.WakeOutcome
			for _, step := range []struct {
				demand int
				fault  cluster.WakeFault
			}{{3, cluster.WakeFault{}}, {0, cluster.WakeFault{}}, {5, cluster.WakeFault{Fail: true}}, {5, cluster.WakeFault{StallSeconds: 900}}} {
				out = s.Step(step.demand, step.fault)
			}
			if out.Nodes != 0 || out.Parked {
				t.Fatal("the script should leave a wake in flight")
			}
			return s.Save
		},
		fresh: func(t testing.TB) (func(io.Reader) error, func(io.Writer) error) {
			s := blobPlant(t)
			s.Step(2, cluster.WakeFault{})
			return s.Load, s.Save
		},
	},
	{
		name:   "wake-latency-sketch",
		golden: "7b14ae47e17a843f040000000000c04f40000000000000f0bf000000000000504001024301a00301010001",
		populated: func(testing.TB) func(io.Writer) error {
			s := obs.NewSketch(obs.DefaultSketchAlpha)
			for _, v := range []float64{0, 64, -1, 0.5} {
				s.Observe(v)
			}
			return s.Save
		},
		fresh: func(testing.TB) (func(io.Reader) error, func(io.Writer) error) {
			s := obs.NewSketch(obs.DefaultSketchAlpha)
			s.Observe(7)
			return s.Load, s.Save
		},
	},
	{
		name:   "loop-extra",
		golden: "ffffffffffffffffff01ffffffffffffffff7f130b01710177017002736b15",
		populated: func(testing.TB) func(io.Writer) error {
			ex := loopExtra{
				AllocHash: ^uint64(0), Cost: -1 << 62, ShedNodes: -10,
				ClippedRounds: -6, Quarantine: []byte("q"),
				Wake: []byte("w"), Plant: []byte("p"), WakeLat: []byte("sk"), ParkedSteps: -11,
			}
			return func(w io.Writer) error { return encodeExtra(w, ex) }
		},
		fresh: func(testing.TB) (func(io.Reader) error, func(io.Writer) error) {
			ex := loopExtra{Cost: 5}
			return func(r io.Reader) error {
				blob, _ := io.ReadAll(r) // a bytes.Reader does not fail
				decoded, err := decodeExtra(blob)
				if err == nil {
					ex = decoded
				}
				return err
			}, func(w io.Writer) error { return encodeExtra(w, ex) }
		},
	},
	{
		name:   "slo-tracker",
		golden: "000000000000d03f06020470616765000000000000004004020103067469636b6574000000000000f83f06040102060f18040304040004040404067469636b6574010f010000000edd7313d800000000ffff02000000000000f83f000000000000f83f0470616765010f010000000edd73163000000000ffff030000000000000c4000000000000010400470616765000f010000000edd731ae000000000ffff05000000000000004000000000000000000470616765010f010000000edd731d3800000000ffff0600000000000000400000000000001040",
		populated: func(testing.TB) func(io.Writer) error {
			return observedSLO([]uint64{0, 3, 4, 4, 0, 4}).Save
		},
		fresh: func(testing.TB) (func(io.Reader) error, func(io.Writer) error) {
			s := observedSLO([]uint64{1})
			return s.Load, s.Save
		},
	},
	{
		name:   "journal",
		golden: "0302020f010000000edd7311bc00000000ffff027437056661756c740b6576656e74206661756c740401610000000065cdcd41046275726e000000000000e0bf056e6f6465730000000000001040047a657461000000000000f07f030f010000000edd7311f800000000ffff02743705616c6572740b6576656e7420616c6572740401610000000065cdcd41046275726e000000000000e0bf056e6f6465730000000000001440047a657461000000000000f07f",
		populated: func(testing.TB) func(io.Writer) error {
			j := obs.NewJournal(2)
			for i, kind := range []string{"scale", "fault", "alert"} {
				j.RecordTenantAt(blobTime.Add(time.Duration(i)*time.Minute), "t7", kind, "event "+kind,
					map[string]float64{"nodes": float64(i + 3), "burn": -0.5, "a": 1e9, "zeta": math.Inf(1)})
			}
			return j.Save
		},
		fresh: func(testing.TB) (func(io.Reader) error, func(io.Writer) error) {
			j := obs.NewJournal(2)
			j.RecordTenantAt(blobTime, "", "scale", "", nil)
			return j.Load, j.Save
		},
	},
	{
		name:   "decisions",
		golden: "0201020f010000000edd731f9000000000ffff0274370861646170746976651804000000000000184008020a0102029a9999999999c93f9a9999999999d93f02000000000000e03fcdccccccccccec3f000000000000e03fcdccccccccccec3f333333333333d33f020000000000003b400000000000003f40020664656d616e6405666c6f6f720672657061697204626f6f6d040e706f6f6c2d657868617573746564",
		populated: func(testing.TB) func(io.Writer) error {
			s := obs.NewDecisionStore(1)
			for i := 0; i < 2; i++ {
				s.Record(obs.Decision{
					Time: blobTime.Add(time.Duration(i) * time.Hour), Tenant: "t7", Strategy: "adaptive",
					Step: 12 * i, Horizon: 2, Theta: 6, PrevNodes: 4, Nodes: []int{5, -1}, Delta: 1,
					U: []float64{0.2, 0.4}, Tau: []float64{0.5, 0.9}, Tau1: 0.5, Tau2: 0.9, Rho: 0.3,
					Quantile: []float64{27, 31}, Binding: []string{obs.BindingDemand, obs.BindingFloor},
					Degraded: "repair", DegradedReason: "boom", Shed: 2, ShedReason: "pool-exhausted",
				})
			}
			return s.Save
		},
		fresh: func(testing.TB) (func(io.Reader) error, func(io.Writer) error) {
			s := obs.NewDecisionStore(1)
			s.Record(obs.Decision{Strategy: "robust", Nodes: []int{1}})
			return s.Load, s.Save
		},
	},
}

var blobTime = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

// observedSLO is a tracker over a three-tick window observed for one tick
// per entry of bad, each out of 4: its window wraps, and for the
// populated row both rules fire and one resolves and fires again.
func observedSLO(bad []uint64) *obs.SLOTracker {
	s := obs.NewSLOTracker(obs.SLOConfig{Target: 0.25, Window: 3, Rules: []obs.BurnRule{
		{Name: "page", Factor: 2, Long: 2, Short: 1}, {Name: "ticket", Factor: 1.5, Long: 3, Short: 2},
	}})
	for i, b := range bad {
		s.ObserveAt(blobTime.Add(time.Duration(i)*10*time.Minute), b, 4)
	}
	return s
}

func observedCalibration(t testing.TB, levels []float64, window int) *cluster.Calibration {
	cal, err := cluster.NewCalibration(levels, window)
	must(t, err)
	row := make([]float64, len(levels))
	for i := 0; i < 5; i++ {
		for j := range row {
			row[j] = 11 + float64((i*(j+3))%6)
		}
		must(t, cal.Observe(10+float64(i), row))
	}
	row[0] = math.Inf(1) // refused and counted, so the blob's skipped count is not zero
	must(t, cal.Observe(1, row))
	return cal
}

func blobPlant(t testing.TB) *cluster.Serverless {
	s, err := cluster.NewServerless(cluster.ServerlessConfig{WakeSeconds: 1500, StepSeconds: 600})
	must(t, err)
	return s
}

func saved(t testing.TB, save func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	must(t, save(&buf))
	return buf.Bytes()
}

// TestComponentBlobs pins every converted component's bytes and its
// decoder's manners: the populated component saves exactly the golden
// blob; a receiver in another state that loads it saves it back byte for
// byte; and the blob cut at any offset, or with a byte past its last
// field, is an error that leaves the receiver as it was.
func TestComponentBlobs(t *testing.T) {
	for _, c := range blobCases {
		t.Run(c.name, func(t *testing.T) {
			got := saved(t, c.populated(t))
			if hex.EncodeToString(got) != c.golden {
				t.Fatalf("blob layout drifted — bump persist.SegmentVersion, then update the golden:\n got %x\nwant %s", got, c.golden)
			}
			load, save := c.fresh(t)
			before := saved(t, save)
			if bytes.Equal(before, got) {
				t.Fatal("the fresh receiver already holds the populated state; the test would prove nothing")
			}
			for cut := 0; cut <= len(got); cut++ {
				damaged := got[:cut:cut]
				if cut == len(got) {
					damaged = append(damaged, 0)
				}
				if err := load(bytes.NewReader(damaged)); err == nil {
					t.Fatalf("blob cut at %d of %d (one byte added at the end) loaded", cut, len(got))
				}
				if after := saved(t, save); !bytes.Equal(after, before) {
					t.Fatalf("a failed load of the blob cut at %d changed the receiver:\n got %x\nwant %x", cut, after, before)
				}
			}
			must(t, load(bytes.NewReader(got)))
			if again := saved(t, save); !bytes.Equal(again, got) {
				t.Fatalf("Save → Load → Save is not the identity:\n got %x\nwant %x", again, got)
			}
		})
	}
}

// TestWakeGuardLoadsParentBlob: the wake-guard golden of the layout's
// previous writer, whose third byte held the since-wake count the guard
// no longer keeps, still loads, and the guard saves it back as today's
// golden: that slot written 0, every other byte kept.
func TestWakeGuardLoadsParentBlob(t *testing.T) {
	parent, err := hex.DecodeString("0000020402060a02020204")
	must(t, err)
	g := &scaler.WakeGuard{}
	must(t, g.Load(bytes.NewReader(parent)))
	for _, c := range blobCases {
		if c.name == "wake-guard" {
			if got := hex.EncodeToString(saved(t, g.Save)); got != c.golden {
				t.Fatalf("the parent blob saves back as %s, want %s", got, c.golden)
			}
			return
		}
	}
	t.Fatal("no wake-guard blob case")
}

// TestExtraCodecCoversEveryField fails when a field is added to loopExtra
// and not to appendExtra and decodeExtra.
func TestExtraCodecCoversEveryField(t *testing.T) {
	var want loopExtra
	v := reflect.ValueOf(&want).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(1000 + i))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(-1000 * (i + 1)))
		case reflect.Slice:
			f.SetBytes([]byte(fmt.Sprintf("section-%d", i)))
		default:
			t.Fatalf("loopExtra grew a %s field the Extra codec does not know", f.Kind())
		}
	}
	got, err := decodeExtra(appendExtra(nil, &want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip lost a field:\n got %+v\nwant %+v", got, want)
	}
}

// FuzzLoadComponent feeds arbitrary bytes to every converted Load — the
// first byte picks the component: it loads or it errors, it never panics,
// and it never allocates more than a small multiple of its input plus the
// one structure a valid blob may size by a field rather than by its bytes
// (a calibration's bucket records, capped at 8 MiB).
func FuzzLoadComponent(f *testing.F) {
	for i, c := range blobCases {
		blob, err := hex.DecodeString(c.golden)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{byte(i)}, blob...))
		f.Add(append([]byte{byte(i)}, blob[:len(blob)/2]...))
		if c.name == "wake-latency-sketch" {
			// Its count (the byte after the 8-byte α) patched from 4 to
			// 50: a blob whose count disagrees with its buckets.
			patched := append([]byte{byte(i)}, blob...)
			patched[1+8] = 50
			f.Add(patched)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		load, _ := blobCases[int(data[0])%len(blobCases)].fresh(t)
		blob := data[1:]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = load(bytes.NewReader(blob)) // an error is a fine outcome
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(blob)+(17<<20)); grew > limit {
			t.Fatalf("loading %d bytes allocated %d, limit %d", len(blob), grew, limit)
		}
	})
}

// TestParentBuildRootColdStarts: a root the previous build wrote — same
// framing, version 1 in every segment header, gob component blobs inside
// — is refused whole, not half-read: every tenant cold-starts with a
// version-skew reason and the run ends on the uninterrupted hash.
func TestParentBuildRootColdStarts(t *testing.T) {
	cfg := testConfig(4)
	uninterrupted := runFleet(t, cfg)

	cfg.StateDir = t.TempDir()
	phase1 := cfg
	phase1.MaxRounds = 3
	runFleet(t, phase1)
	for _, seg := range segments(t, cfg.StateDir) {
		raw, err := os.ReadFile(seg)
		must(t, err)
		binary.LittleEndian.PutUint32(raw[4:8], 1) // the header's version field; no CRC covers it
		must(t, os.WriteFile(seg, raw, 0o644))
	}

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range c.Tenants() {
		if _, reason := tn.Recovery(); tn.warm || !strings.Contains(reason, persist.ErrVersionSkew.Error()) {
			t.Errorf("%s: warm = %v, cold reason %q, want a version-skew cold start", tn.ID, tn.warm, reason)
		}
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.WarmStarts != 0 || rep.ColdStarts != cfg.Tenants {
		t.Errorf("warm/cold = %d/%d, want 0/%d", rep.WarmStarts, rep.ColdStarts, cfg.Tenants)
	}
	if rep.FleetHash != uninterrupted.FleetHash {
		t.Errorf("fleet hash %s != uninterrupted %s", rep.FleetHash, uninterrupted.FleetHash)
	}
}
