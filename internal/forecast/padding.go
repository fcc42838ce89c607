package forecast

import (
	"math"
	"sort"

	"robustscale/internal/timeseries"
)

// Padded wraps a point Forecaster with the CloudScale-style padding
// enhancement (Shen et al., SoCC'11) the paper compares against: a small
// additional value derived from recent under-estimation errors is added to
// every prediction, mitigating (but, as the paper shows, not eliminating)
// under-provisioning. The padding learns from realized load on its own:
// each Predict first observes the previous prediction against the steps
// of its history that have been realized since.
type Padded struct {
	// Base is the wrapped point forecaster.
	Base Forecaster
	// MaxHistory bounds the number of remembered error observations.
	MaxHistory int
	// Percentile selects how aggressive the padding is: the padding added
	// equals this percentile of the recent relative under-estimation
	// errors (0.8 by default).
	Percentile float64

	errs []float64 // relative under-estimation errors, most recent last
	// sorted is Pad's scratch: errs in ascending order, rebuilt per call.
	sorted []float64
	// prev is the last prediction, made from a history of prevAt values.
	prev   []float64
	prevAt int
}

// NewPadded wraps base with default settings.
func NewPadded(base Forecaster) *Padded {
	return &Padded{Base: base, MaxHistory: 64, Percentile: 0.8}
}

// Name implements Forecaster.
func (p *Padded) Name() string { return p.Base.Name() + "-padding" }

// Fit trains the wrapped forecaster and clears the error history.
func (p *Padded) Fit(train *timeseries.Series) error {
	p.errs, p.prev = p.errs[:0], nil
	return p.Base.Fit(train)
}

// Observe records the realized outcome of a past prediction so future
// forecasts can be padded by the observed under-estimation. Only
// under-estimation contributes, matching CloudScale's one-sided padding.
func (p *Padded) Observe(actual, predicted []float64) {
	n := len(actual)
	if len(predicted) < n {
		n = len(predicted)
	}
	for i := 0; i < n; i++ {
		if predicted[i] <= 0 {
			continue
		}
		rel := (actual[i] - predicted[i]) / predicted[i]
		if rel < 0 {
			rel = 0
		}
		p.errs = append(p.errs, rel)
	}
	if p.MaxHistory > 0 && len(p.errs) > p.MaxHistory {
		p.errs = append(p.errs[:0], p.errs[len(p.errs)-p.MaxHistory:]...)
	}
}

// Bootstrap seeds the error history by backtesting the wrapped forecaster
// on the last windows*h observations of the history, so the first padded
// prediction is already informed.
func (p *Padded) Bootstrap(history *timeseries.Series, h, windows int) error {
	for k := windows; k >= 1; k-- {
		cut := history.Len() - k*h
		if cut <= 0 {
			continue
		}
		pred, err := p.Base.Predict(history.Slice(0, cut), h)
		if err != nil {
			return err
		}
		end := cut + h
		if end > history.Len() {
			end = history.Len()
		}
		p.Observe(history.Values[cut:end], pred)
	}
	return nil
}

// Pad returns the current padding fraction.
func (p *Padded) Pad() float64 {
	if len(p.errs) == 0 {
		return 0
	}
	p.sorted = append(p.sorted[:0], p.errs...)
	sort.Float64s(p.sorted)
	return timeseries.InterpolatedQuantile(p.sorted, p.Percentile)
}

// Predict implements Forecaster: the base prediction scaled up by the
// padding fraction, after the previous prediction is observed against
// the values history holds past the one it was made from.
func (p *Padded) Predict(history *timeseries.Series, h int) ([]float64, error) {
	if n := history.Len(); p.prev != nil && n > p.prevAt {
		p.Observe(history.Values[p.prevAt:min(n, p.prevAt+len(p.prev))], p.prev)
	}
	p.prev = nil
	base, err := p.Base.Predict(history, h)
	if err != nil {
		return nil, err
	}
	pad := p.Pad()
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = v * (1 + pad)
		if math.IsNaN(out[i]) {
			out[i] = v
		}
	}
	p.prev, p.prevAt = out, history.Len()
	return out, nil
}

var _ Forecaster = (*Padded)(nil)
