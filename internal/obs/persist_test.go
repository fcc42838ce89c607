package obs

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func TestJournalSaveLoadRoundTrip(t *testing.T) {
	j := NewJournal(8)
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 12; i++ { // overflow the ring so seq > count
		j.RecordTenantAt(base.Add(time.Duration(i)*time.Minute), "", "scale", "event", map[string]float64{"i": float64(i)})
	}
	var buf bytes.Buffer
	if err := j.Save(&buf); err != nil {
		t.Fatal(err)
	}
	j2 := NewJournal(8)
	if err := j2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if j2.Total() != j.Total() || j2.Dropped() != j.Dropped() {
		t.Fatalf("totals: got (%d, %d), want (%d, %d)", j2.Total(), j2.Dropped(), j.Total(), j.Dropped())
	}
	_, got := j2.Events("", "", 0)
	if _, want := j.Events("", "", 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("events differ:\n got %+v\nwant %+v", got, want)
	}
	// The restored ring keeps rotating correctly.
	j2.RecordTenantAt(base.Add(time.Hour), "", "scale", "after", nil)
	_, events := j2.Events("", "", 0)
	if events[len(events)-1].Seq != 13 {
		t.Fatalf("post-restore seq = %d, want 13", events[len(events)-1].Seq)
	}
}

func TestJournalLoadTrimsToCapacity(t *testing.T) {
	j := NewJournal(16)
	for i := 0; i < 10; i++ {
		j.RecordTenantAt(time.Now(), "", "k", "e", nil)
	}
	var buf bytes.Buffer
	if err := j.Save(&buf); err != nil {
		t.Fatal(err)
	}
	small := NewJournal(4)
	if err := small.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if small.Len() != 4 || small.Total() != 10 {
		t.Fatalf("trimmed journal: len=%d total=%d, want 4/10", small.Len(), small.Total())
	}
	_, events := small.Events("", "", 0)
	if events[0].Seq != 7 || events[3].Seq != 10 {
		t.Fatalf("trimmed to wrong tail: %+v", events)
	}
}

func TestDecisionStoreSaveLoadRoundTrip(t *testing.T) {
	s := NewDecisionStore(4)
	for i := 0; i < 6; i++ { // overflow the ring
		s.Record(Decision{
			Strategy: "robust", Step: i * 12, Horizon: 12, Theta: 6,
			PrevNodes: i, Nodes: []int{i + 1, i + 2},
			Tau: []float64{0.9, 0.9}, Binding: []string{BindingDemand, BindingFloor},
		})
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewDecisionStore(4)
	if err := s2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Total() != s.Total() || s2.Len() != s.Len() {
		t.Fatalf("counters: got (%d, %d), want (%d, %d)", s2.Total(), s2.Len(), s.Total(), s.Len())
	}
	if !reflect.DeepEqual(s2.Decisions(), s.Decisions()) {
		t.Fatalf("decisions differ:\n got %+v\nwant %+v", s2.Decisions(), s.Decisions())
	}
	// Sequence numbering continues where the checkpointed process left
	// off, and the query surface works on restored records.
	if seq := s2.Record(Decision{Strategy: "robust", Step: 72, Nodes: []int{9}}); seq != 7 {
		t.Fatalf("post-restore seq = %d, want 7", seq)
	}
	if d, ok := s2.At(60); !ok || d.PrevNodes != 5 {
		t.Fatalf("At(60) = (%+v, %v)", d, ok)
	}
}

func TestDecisionStoreLoadRejectsGarbage(t *testing.T) {
	if err := NewDecisionStore(4).Load(bytes.NewBufferString("junk")); err == nil {
		t.Error("garbage should fail")
	}
	if err := NewJournal(4).Load(bytes.NewBufferString("junk")); err == nil {
		t.Error("garbage should fail")
	}
}
