package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"
)

// FuzzRing drives a ring through a fuzzer-chosen script of pushes,
// restores and resets beside an unbounded slice: the ring must retain
// the newest min(n, capacity) records oldest first, count every push in
// Total, and hand push the slot of the record it overwrites.
func FuzzRing(f *testing.F) {
	f.Add(uint8(1), []byte{0, 0, 0})
	f.Add(uint8(3), []byte{0, 1, 0, 0, 2, 5, 7, 0, 3, 0, 1})
	f.Add(uint8(4), []byte{2, 9, 0, 0, 0, 3, 2, 1, 4, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, capacity uint8, script []byte) {
		r := newRing[int](int(capacity) % 17)
		var model []int // what the ring would hold were it unbounded
		var total uint64
		value := 0
		for pc := 0; pc < len(script); pc++ {
			arg := func() int {
				if pc+1 < len(script) {
					pc++
					return int(script[pc])
				}
				return 0
			}
			switch script[pc] % 4 {
			case 0, 1:
				value++
				full := len(model) >= r.capacity
				slot := r.push()
				if full && *slot != model[len(model)-r.capacity] {
					t.Fatalf("push overwrote %d, want the oldest %d", *slot, model[len(model)-r.capacity])
				}
				*slot = value
				model, total = append(model, value), total+1
			case 2:
				n, extra := arg()%(2*r.capacity+2), uint64(arg())
				recs := make([]int, n)
				for i := range recs {
					value++
					recs[i] = value
				}
				total = uint64(n) + extra
				r.restore(total, recs)
				model = recs
			case 3:
				r.Reset()
				model, total = nil, 0
			}
			want := model[max(0, len(model)-r.capacity):]
			stats, got := r.snapshot(nil, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("after op %d: retained %v, want %v", pc, got, want)
			}
			if r.Len() != len(want) || r.Total() != total || r.Dropped() != total-uint64(len(want)) ||
				stats != (ringStats{r.Cap(), r.Total(), r.Dropped()}) {
				t.Fatalf("after op %d: len/total/dropped = %d/%d/%d, stats %+v, want %d/%d/%d",
					pc, r.Len(), r.Total(), r.Dropped(), stats, len(want), total, total-uint64(len(want)))
			}
			_, odd := r.snapshot(func(v *int) bool { return *v%2 == 1 }, func(v int) int { return -v })
			var wantOdd []int
			for _, v := range want {
				if v%2 == 1 {
					wantOdd = append(wantOdd, -v)
				}
			}
			if !slices.Equal(odd, wantOdd) {
				t.Fatalf("after op %d: kept and cloned %v, want %v", pc, odd, wantOdd)
			}
		}
	})
}

// TestHandlersServeOneSnapshot requests /journal and /decisions while a
// goroutine records into both full rings: every body's drop accounting
// must describe the records it carries.
func TestHandlersServeOneSnapshot(t *testing.T) {
	j, s := NewJournal(8), NewDecisionStore(8)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			j.RecordTenantAt(time.Time{}, "", "scale", "", nil)
			s.Record(Decision{Strategy: "reactive", Nodes: []int{1}})
		}
	}()
	defer func() { close(done); wg.Wait() }()
	for i := 0; i < 300; i++ {
		for name, h := range map[string]http.Handler{"journal": j.Handler(), "decisions": s.Handler()} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
			var body struct {
				Total, Dropped uint64
				Events         []json.RawMessage
				Decisions      []json.RawMessage
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if n := len(body.Events) + len(body.Decisions); body.Total-body.Dropped != uint64(n) {
				t.Fatalf("%s request %d: total %d - dropped %d != %d records", name, i, body.Total, body.Dropped, n)
			}
		}
	}
}
