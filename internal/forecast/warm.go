package forecast

import "robustscale/internal/timeseries"

// This file holds the warm-state fast-path contract shared by the
// incremental forecasters (DeepAR, TFT, Naive, SeasonalNaive, ARIMA,
// QB5000) and the Conformal wrapper.
//
// The control loop re-plans at a cadence of one-to-a-few observations, so
// successive predict calls see histories that are append-extensions of
// each other. The warm path exploits that: instead of re-encoding the
// whole conditioning window from scratch, a forecaster keeps the state it
// computed last round and advances it over just the newly appended
// observations. The contract is strict:
//
//   - Bit-identical: PredictQuantilesWarm must return exactly the floats
//     PredictQuantiles would, for every history. The warm path is a cache,
//     never an approximation.
//   - Self-invalidating: the cached state remembers which history it was
//     built from (backing array identity + start/step + a tail tripwire,
//     see timeseries.Ref). Any discontinuity — a cloned/sanitized history, a
//     shrunk series, a restored checkpoint — silently falls back to the
//     cold computation, which also rebuilds the cache.
//   - Rebuildable, never persisted: warm state is derived entirely from
//     weights + history, so Save never writes it and Load always drops it.
//   - Scratch-owned output: the returned *QuantileForecast is a buffer
//     owned by the forecaster, valid until its next predict call (the same
//     contract as scaler.Round). Callers that retain a fan across rounds
//     must copy it.
//   - Single-goroutine: warm calls on one forecaster must not race. The
//     cold PredictQuantiles path keeps per-call allocation and stays safe
//     for concurrent use.

// IncrementalForecaster is a QuantileForecaster with a warm-state fast
// path. Advancing over newly appended observations is implicit in
// PredictQuantilesWarm: the forecaster detects how far the history grew
// since its cached state and consumes exactly the new suffix.
type IncrementalForecaster interface {
	QuantileForecaster
	// PredictQuantilesWarm is PredictQuantiles on the warm path. Results
	// are bit-identical to the cold path; the returned forecast is a
	// scratch owned by the forecaster, valid until the next predict.
	PredictQuantilesWarm(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error)
	// WarmReset drops all cached warm state; the next warm predict pays
	// one cold rebuild. Used by the guard on degradation and by Load.
	WarmReset()
}

// IncrementalPointForecaster is the point-forecast counterpart of
// IncrementalForecaster (QB5000 implements it).
type IncrementalPointForecaster interface {
	Forecaster
	// PredictWarm is Predict on the warm path; the returned slice is a
	// scratch owned by the forecaster, valid until the next predict.
	PredictWarm(history *timeseries.Series, h int) ([]float64, error)
	// WarmReset drops all cached warm state.
	WarmReset()
}

// warmAnchor returns the start index of the anchored conditioning window
// for a history of length n and context length ctx (n >= ctx > 0): the
// largest multiple of ctx that leaves at least ctx observations, giving a
// window length in [ctx, 2*ctx). Anchoring the window to a fixed grid —
// instead of always taking the last ctx values — makes the conditioning
// start a pure function of the history length, which is what lets an
// incrementally advanced recurrent state stay bit-identical to a cold
// rebuild at every origin: both walk the same inputs from the same zero
// state.
func warmAnchor(n, ctx int) int {
	return ((n - ctx) / ctx) * ctx
}

// levelsCache skips normalizeLevels' copy+sort when the requested levels
// are unchanged between rounds — the steady-state case, since strategies
// pass a fixed levels slice.
type levelsCache struct {
	in   []float64
	norm []float64
}

// get returns the normalized form of levels, reusing the cached copy when
// the request is element-wise identical to the previous one.
func (c *levelsCache) get(levels []float64) ([]float64, error) {
	if len(c.in) == len(levels) && len(levels) > 0 {
		same := true
		for i, l := range levels {
			if c.in[i] != l {
				same = false
				break
			}
		}
		if same {
			return c.norm, nil
		}
	}
	norm, err := normalizeLevels(levels)
	if err != nil {
		return nil, err
	}
	c.in = append(c.in[:0], levels...)
	c.norm = norm
	return norm, nil
}

// reuseFan shapes a cached fan for (h, levels) without allocating when the
// shape is unchanged. The forecast remains owned by the forecaster.
func reuseFan(f *QuantileForecast, h int, levels []float64) *QuantileForecast {
	if f == nil {
		f = &QuantileForecast{}
	}
	f.Levels = levels
	f.Values = resize(f.Values, h)
	for t := range f.Values {
		f.Values[t] = resize(f.Values[t], len(levels))
	}
	f.Mean = resize(f.Mean, h)
	return f
}

// resize returns a slice of length n, reusing dst's capacity.
func resize[E any](dst []E, n int) []E {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]E, n)
}

// resizeFloats is resize for float64 slices.
func resizeFloats(dst []float64, n int) []float64 { return resize(dst, n) }

// warmResetAll forwards WarmReset to any forecaster that has one; it is
// the hook wrappers and strategies use without caring which concrete
// forecaster they hold.
func warmResetAll(f any) {
	type warmResetter interface{ WarmReset() }
	if wr, ok := f.(warmResetter); ok {
		wr.WarmReset()
	}
}
