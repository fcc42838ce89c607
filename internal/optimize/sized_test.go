package optimize

import "testing"

func ladder() []NodeSize {
	return []NodeSize{
		{Name: "small", Capacity: 1, Cost: 2},
		{Name: "medium", Capacity: 2, Cost: 3},
		{Name: "large", Capacity: 4, Cost: 5},
	}
}

func TestSizeDemandPicksCheapestMix(t *testing.T) {
	sizes := ladder()
	cases := []struct {
		units     int
		count, sz int
	}{
		{0, 0, 0},  // scale-to-zero
		{-3, 0, 0}, // negative demand is empty, never negative nodes
		{1, 1, 0},  // one small (cost 2) beats one medium (3) and large (5)
		{2, 1, 1},  // one medium (3) beats two small (4)
		{3, 1, 2},  // one large (5) beats small*3 (6) and medium*2 (6)
		{4, 1, 2},  // one large at full utilization
		{5, 3, 1},  // three medium (9) beat five small (10) and two large (10)
		{8, 2, 2},  // two large (10) beat four medium (12)
	}
	for _, c := range cases {
		got, err := SizeDemand(c.units, sizes)
		if err != nil {
			t.Fatalf("SizeDemand(%d): %v", c.units, err)
		}
		if got.Count != c.count || got.Size != c.sz {
			t.Errorf("SizeDemand(%d) = {%d, %d}, want {%d, %d}",
				c.units, got.Count, got.Size, c.count, c.sz)
		}
		if float64(got.Count)*sizes[got.Size].Capacity < float64(c.units) {
			t.Errorf("SizeDemand(%d) = %+v under demand", c.units, got)
		}
	}
}

func TestSizeDemandTieBreaksFewerNodes(t *testing.T) {
	// Equal-cost options: 2 small (cost 4) vs 1 double (cost 4): fewer
	// nodes must win, and at equal count the smaller index wins.
	sizes := []NodeSize{{Capacity: 1, Cost: 2}, {Capacity: 2, Cost: 4}}
	got, err := SizeDemand(2, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != 1 || got.Size != 1 {
		t.Fatalf("SizeDemand(2) = %+v, want one double node", got)
	}
}

func TestSizeDemandRejectsBadLadders(t *testing.T) {
	if _, err := SizeDemand(3, nil); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := SizeDemand(3, []NodeSize{{Capacity: 0, Cost: 1}}); err == nil {
		t.Error("zero-capacity size accepted")
	}
}
