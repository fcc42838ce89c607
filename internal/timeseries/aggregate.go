package timeseries

import "fmt"

// Aggregate sums several aligned series element-wise, as when combining the
// resource usage of a sampled subset of machines into one cluster-level
// trace. All series must share step and length; the earliest start wins.
func Aggregate(name string, series []*Series) (*Series, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("timeseries: nothing to aggregate for %q", name)
	}
	step := series[0].Step
	n := series[0].Len()
	start := series[0].Start
	for _, s := range series[1:] {
		if s.Step != step {
			return nil, fmt.Errorf("timeseries: step mismatch aggregating %q: %v vs %v", name, s.Step, step)
		}
		if s.Len() != n {
			return nil, fmt.Errorf("timeseries: length mismatch aggregating %q: %d vs %d", name, s.Len(), n)
		}
		if s.Start.Before(start) {
			start = s.Start
		}
	}
	values := make([]float64, n)
	for _, s := range series {
		for i, v := range s.Values {
			values[i] += v
		}
	}
	return New(name, start, step, values), nil
}
