package qos

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"robustscale/internal/dist"
)

// SimResult is the outcome of a discrete-event simulation of one node: the
// observed response-time distribution.
type SimResult struct {
	Served      int
	MeanSec     float64
	P50, P95    float64
	P99         float64
	Utilization float64
}

// Simulate runs a discrete-event simulation of one compute node as an
// M/M/c station: Poisson arrivals at arrivalRate, exponential service at
// the node's rate per worker, FIFO queueing across the node's workers.
// It is the test oracle for the analytic Erlang-C formulas in this
// package: the tests below assert the two agree.
func Simulate(n Node, arrivalRate float64, queries int, seed int64) (*SimResult, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if arrivalRate <= 0 {
		return nil, fmt.Errorf("qos: non-positive arrival rate %v", arrivalRate)
	}
	if queries < 1 {
		return nil, fmt.Errorf("qos: need at least one query, got %d", queries)
	}
	rng := rand.New(rand.NewSource(seed))

	// free[w] is when worker w next idles; the earliest-free worker
	// serves the head of the FIFO queue.
	free := make([]float64, n.Workers)

	latencies := make([]float64, 0, queries)
	arrival := 0.0
	busy := 0.0
	var lastDeparture float64
	for i := 0; i < queries; i++ {
		arrival += rng.ExpFloat64() / arrivalRate
		w := 0
		for j, f := range free {
			if f < free[w] {
				w = j
			}
		}
		// The query starts when both it has arrived and a worker is free.
		start := arrival
		if free[w] > start {
			start = free[w]
		}
		service := rng.ExpFloat64() / n.ServiceRate
		finish := start + service
		free[w] = finish

		latencies = append(latencies, finish-arrival)
		busy += service
		if finish > lastDeparture {
			lastDeparture = finish
		}
	}

	sorted := dist.SortInPlace(latencies)
	return &SimResult{
		Served:      queries,
		MeanSec:     dist.SortedMean(sorted),
		P50:         dist.SortedQuantile(sorted, 0.50),
		P95:         dist.SortedQuantile(sorted, 0.95),
		P99:         dist.SortedQuantile(sorted, 0.99),
		Utilization: busy / (lastDeparture * float64(n.Workers)),
	}, nil
}

func TestSimulateMatchesAnalyticMM1(t *testing.T) {
	// M/M/1 at rho = 0.5: mean = 1/(mu - lambda), and the response-time
	// distribution is exponential, so p99 = ln(100) * mean.
	n := Node{ServiceRate: 100, Workers: 1}
	res, err := Simulate(n, 50, 200000, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantMean := 1.0 / 50
	if math.Abs(res.MeanSec-wantMean)/wantMean > 0.05 {
		t.Errorf("sim mean %v vs analytic %v", res.MeanSec, wantMean)
	}
	wantP99 := math.Log(100) / 50
	if math.Abs(res.P99-wantP99)/wantP99 > 0.1 {
		t.Errorf("sim p99 %v vs analytic %v", res.P99, wantP99)
	}
	if math.Abs(res.Utilization-0.5) > 0.05 {
		t.Errorf("sim utilization %v, want ~0.5", res.Utilization)
	}
}

func TestSimulateMatchesAnalyticMMC(t *testing.T) {
	// The discrete-event simulation and the Erlang-C formulas must agree
	// across loads — the empirical cross-check of the analytic model.
	n := Node{ServiceRate: 100, Workers: 8}
	for _, rate := range []float64{200, 500, 700} {
		analytic, err := NodeLatency(n, rate)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := Simulate(n, rate, 300000, 2)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(sim.MeanSec-analytic.Mean.Seconds()) / analytic.Mean.Seconds(); rel > 0.08 {
			t.Errorf("rate %v: sim mean %v vs analytic %v (rel %v)",
				rate, sim.MeanSec, analytic.Mean.Seconds(), rel)
		}
		if rel := math.Abs(sim.P99-analytic.P99.Seconds()) / analytic.P99.Seconds(); rel > 0.12 {
			t.Errorf("rate %v: sim p99 %v vs analytic %v (rel %v)",
				rate, sim.P99, analytic.P99.Seconds(), rel)
		}
	}
}

func TestSimulateDeterministicPerSeed(t *testing.T) {
	n := Node{ServiceRate: 50, Workers: 2}
	a, err := Simulate(n, 60, 5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(n, 60, 5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.P99 != b.P99 || a.MeanSec != b.MeanSec {
		t.Error("same seed should reproduce exactly")
	}
	c, err := Simulate(n, 60, 5000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.P99 == a.P99 {
		t.Error("different seeds should differ")
	}
}

func TestSimulateValidation(t *testing.T) {
	n := Node{ServiceRate: 50, Workers: 2}
	if _, err := Simulate(Node{}, 10, 100, 1); err == nil {
		t.Error("bad node should fail")
	}
	if _, err := Simulate(n, 0, 100, 1); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := Simulate(n, 10, 0, 1); err == nil {
		t.Error("zero queries should fail")
	}
}

func TestSimulateOrderedPercentiles(t *testing.T) {
	n := Node{ServiceRate: 100, Workers: 4}
	res, err := Simulate(n, 250, 50000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.P50 <= res.P95 && res.P95 <= res.P99) {
		t.Errorf("percentiles out of order: %v %v %v", res.P50, res.P95, res.P99)
	}
	if res.Served != 50000 {
		t.Errorf("served = %d", res.Served)
	}
}
