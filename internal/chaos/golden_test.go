package chaos

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"
)

// presetNames lists every profile Preset knows.
var presetNames = []string{
	"none", "forecast", "telemetry", "apply", "node-kill", "all", "smoke",
	"wake", "wake-storm", "zone-outage", "pool-collapse", "admission-reject", "fleet",
}

// goldenHash writes ints and floats into an FNV-64a hash, eight bytes each.
type goldenHash struct{ hash.Hash64 }

func (h goldenHash) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func (h goldenHash) float(v float64) { h.ints(int(math.Float64bits(v))) }

func (h goldenHash) bool(v bool) {
	if v {
		h.ints(1)
	} else {
		h.ints(0)
	}
}

func (h goldenHash) event(e Event) {
	h.ints(e.Step, len(e.Class))
	h.Write([]byte(e.Class))
	h.ints(e.Size)
	h.float(e.Value)
}

// TestScheduleGolden pins the bits of every preset's tenant schedules,
// zone-outage translations included: the events in order, ActiveAt of
// every class and KillsAt on every step (and a few outside the replay),
// and Window.Fill over two grids of round windows. A change to how a
// schedule stores or builds its events must leave the hash alone.
func TestScheduleGolden(t *testing.T) {
	const steps, zones, tenants, round = 600, 3, 5, 12
	h := goldenHash{fnv.New64a()}
	w := Window{Steps: make([]StepFaults, round)}
	for _, name := range presetNames {
		p, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		p.Seed, p.Steps = 20240917, steps
		fs, err := NewFleetSchedule(p, zones)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range fs.FleetEvents() {
			h.event(e)
		}
		for i := 0; i < tenants; i++ {
			s, err := fs.TenantSchedule(i, fmt.Sprintf("tenant-%03d", i))
			if err != nil {
				t.Fatal(err)
			}
			h.ints(s.Len())
			for _, e := range s.Events() {
				h.event(e)
			}
			for step := -3; step < steps+3; step++ {
				for _, c := range Classes {
					e, ok := s.ActiveAt(step, c)
					h.bool(ok)
					h.event(e)
				}
				h.ints(s.KillsAt(step))
			}
			for _, phase := range []int{0, 5} {
				for from := phase - round; from < steps+round; from += round {
					w.Fill(s, from)
					h.ints(w.From)
					for _, f := range w.Steps {
						h.ints(f.Kills)
						h.float(f.StallSeconds)
						h.float(f.TimeoutSeconds)
						h.bool(f.WakeFail)
						h.bool(f.PartialProvision)
						h.bool(f.Reject)
						h.bool(f.Timeout)
						h.bool(f.Partial)
					}
				}
			}
		}
	}
	const want uint64 = 0xda970e46f3eaa2fa
	if got := h.Sum64(); got != want {
		t.Errorf("schedule hash = %#016x, want %#016x", got, want)
	}
}
