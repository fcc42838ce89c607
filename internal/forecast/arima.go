package forecast

import (
	"fmt"
	"math"

	"robustscale/internal/dist"
	"robustscale/internal/timeseries"
)

// ARIMA is a classic ARIMA(p, d, q) forecaster. Coefficients are estimated
// by the Hannan-Rissanen two-stage procedure: a long autoregression
// estimates innovations, then AR and MA coefficients are fitted jointly by
// ridge-regularized least squares. Quantile forecasts come from the
// Gaussian forecast distribution whose per-horizon variance accumulates the
// psi weights of the fitted model, exactly the "incorporate residuals"
// construction the paper describes for the ARIMA baseline.
type ARIMA struct {
	// P, D, Q are the autoregressive order, differencing order and
	// moving-average order.
	P, D, Q int
	// SeasonalPeriod, when positive, applies one round of seasonal
	// differencing at that lag before the regular differencing —
	// essential for workload traces with a daily cycle (e.g. 144 at
	// 10-minute sampling).
	SeasonalPeriod int

	fitted   bool
	phi      []float64 // AR coefficients
	theta    []float64 // MA coefficients
	constant float64
	sigma2   float64 // innovation variance

	warm arimaWarm
}

// arimaWarm caches the differenced working series and the innovation
// recursion across predict calls. Both are pure left-to-right functions of
// the raw history, so when the history is an append-extension of the
// cached one the warm path extends them with O(new observations) work
// instead of re-deriving O(N) arrays — and the extended arrays are
// bit-identical to what a cold call would compute, because every appended
// element is produced by exactly the operations the cold recursions would
// apply at that index.
type arimaWarm struct {
	ref   timeseries.Ref
	valid bool
	n     int       // raw observations consumed into w/eps
	w     []float64 // differenced working series of values[:n]
	eps   []float64 // innovations under the fitted model, aligned with w

	levels       levelsCache
	psi          []float64 // psi weights are h-prefix-stable; cache the longest
	pTail, qTail []float64
	meansDiff    []float64
	varDiff      []float64
	means        []float64
	variances    []float64
	diffBuf      []float64
	fan          *QuantileForecast
}

// NewSeasonalARIMA returns an ARIMA(p, d, q) with one round of seasonal
// differencing at the given period.
func NewSeasonalARIMA(p, d, q, period int) *ARIMA {
	return &ARIMA{P: p, D: d, Q: q, SeasonalPeriod: period}
}

// Name implements Forecaster.
func (a *ARIMA) Name() string {
	if a.SeasonalPeriod > 0 {
		return fmt.Sprintf("arima(%d,%d,%d)s%d", a.P, a.D, a.Q, a.SeasonalPeriod)
	}
	return fmt.Sprintf("arima(%d,%d,%d)", a.P, a.D, a.Q)
}

// transform applies the seasonal then regular differencing to raw values,
// returning the working series for fitting/forecasting.
func (a *ARIMA) transform(values []float64) ([]float64, error) {
	sd := values
	if a.SeasonalPeriod > 0 {
		if len(values) <= a.SeasonalPeriod {
			return nil, fmt.Errorf("forecast: %s needs more than %d observations for seasonal differencing", a.Name(), a.SeasonalPeriod)
		}
		sd = make([]float64, len(values)-a.SeasonalPeriod)
		for i := range sd {
			sd[i] = values[i+a.SeasonalPeriod] - values[i]
		}
	}
	for k := 0; k < a.D; k++ {
		if len(sd) < 2 {
			return nil, fmt.Errorf("forecast: %s ran out of observations while differencing", a.Name())
		}
		next := make([]float64, len(sd)-1)
		for i := 1; i < len(sd); i++ {
			next[i-1] = sd[i] - sd[i-1]
		}
		sd = next
	}
	return sd, nil
}

// seasonalBase returns the seasonally differenced history (before regular
// differencing), needed as integration constants when undoing the regular
// differencing.
func (a *ARIMA) seasonalBase(values []float64) []float64 {
	if a.SeasonalPeriod <= 0 {
		return values
	}
	sd := make([]float64, len(values)-a.SeasonalPeriod)
	for i := range sd {
		sd[i] = values[i+a.SeasonalPeriod] - values[i]
	}
	return sd
}

// Fit estimates the model from the training series.
func (a *ARIMA) Fit(train *timeseries.Series) error {
	if a.P < 0 || a.D < 0 || a.Q < 0 {
		return fmt.Errorf("forecast: invalid ARIMA order (%d,%d,%d)", a.P, a.D, a.Q)
	}
	a.warm = arimaWarm{} // new coefficients invalidate the cached recursions
	w, err := a.transform(train.Values)
	if err != nil {
		return err
	}
	minLen := 3 * (a.P + a.Q + 10)
	if len(w) < minLen {
		return fmt.Errorf("forecast: %s needs at least %d observations after differencing, have %d", a.Name(), minLen, len(w))
	}

	// Stage 1: long AR to estimate innovations.
	longOrder := a.P + a.Q + 5
	longPhi, longC, err := fitAR(w, longOrder)
	if err != nil {
		return err
	}
	resid := make([]float64, len(w))
	for t := longOrder; t < len(w); t++ {
		pred := longC
		for j := 0; j < longOrder; j++ {
			pred += longPhi[j] * w[t-1-j]
		}
		resid[t] = w[t] - pred
	}

	// Stage 2: regress w_t on its own lags and innovation lags.
	start := longOrder + a.Q
	if a.P > start {
		start = a.P
	}
	rows := len(w) - start
	cols := a.P + a.Q + 1
	x := make([][]float64, rows)
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		t := start + i
		row := make([]float64, cols)
		row[0] = 1
		for j := 0; j < a.P; j++ {
			row[1+j] = w[t-1-j]
		}
		for j := 0; j < a.Q; j++ {
			row[1+a.P+j] = resid[t-1-j]
		}
		x[i] = row
		y[i] = w[t]
	}
	coef, err := ridgeSolve(x, y, 1e-6)
	if err != nil {
		return err
	}
	a.constant = coef[0]
	a.phi = coef[1 : 1+a.P]
	a.theta = coef[1+a.P:]
	a.stabilize()

	// Final innovations under the fitted model for sigma^2.
	eps := make([]float64, len(w))
	ss, n := 0.0, 0
	for t := start; t < len(w); t++ {
		pred := a.constant
		for j := 0; j < a.P; j++ {
			pred += a.phi[j] * w[t-1-j]
		}
		for j := 0; j < a.Q; j++ {
			pred += a.theta[j] * eps[t-1-j]
		}
		eps[t] = w[t] - pred
		ss += eps[t] * eps[t]
		n++
	}
	a.sigma2 = ss / float64(n)
	a.fitted = true
	return nil
}

// Predict implements Forecaster: the mean forecast.
func (a *ARIMA) Predict(history *timeseries.Series, h int) ([]float64, error) {
	f, err := a.PredictQuantiles(history, h, []float64{0.5})
	if err != nil {
		return nil, err
	}
	return f.Mean, nil
}

// PredictQuantiles implements QuantileForecaster using the Gaussian
// forecast distribution.
func (a *ARIMA) PredictQuantiles(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	if !a.fitted {
		return nil, ErrNotFitted
	}
	levels, err := normalizeLevels(levels)
	if err != nil {
		return nil, err
	}
	if h <= 0 {
		return nil, fmt.Errorf("forecast: non-positive horizon %d", h)
	}
	w, err := a.transform(history.Values)
	if err != nil {
		return nil, err
	}
	need := a.P + a.Q + 1
	if len(w) < need {
		return nil, ErrShortHistory
	}

	// Reconstruct recent innovations to seed the MA part.
	eps := make([]float64, len(w))
	warm := a.P
	if a.Q > warm {
		warm = a.Q
	}
	for t := warm; t < len(w); t++ {
		pred := a.constant
		for j := 0; j < a.P; j++ {
			pred += a.phi[j] * w[t-1-j]
		}
		for j := 0; j < a.Q; j++ {
			pred += a.theta[j] * eps[t-1-j]
		}
		eps[t] = w[t] - pred
	}

	// Recursive mean forecast on the differenced scale; future innovations
	// are zero in expectation.
	ext := append([]float64{}, w...)
	extEps := append([]float64{}, eps...)
	meansDiff := make([]float64, h)
	for k := 0; k < h; k++ {
		t := len(ext)
		pred := a.constant
		for j := 0; j < a.P; j++ {
			pred += a.phi[j] * ext[t-1-j]
		}
		for j := 0; j < a.Q; j++ {
			pred += a.theta[j] * extEps[t-1-j]
		}
		meansDiff[k] = pred
		ext = append(ext, pred)
		extEps = append(extEps, 0)
	}

	// Forecast variance accumulates psi-weights on the differenced scale;
	// integrate both mean and variance back through the differencing.
	psi := a.psiWeights(h)
	varDiff := make([]float64, h)
	acc := 0.0
	for k := 0; k < h; k++ {
		acc += psi[k] * psi[k]
		varDiff[k] = a.sigma2 * acc
	}

	// Undo the regular differencing against the seasonally differenced
	// history, then undo the seasonal differencing against the raw
	// history.
	base := a.seasonalBase(history.Values)
	means := integrate(base, meansDiff, a.D)
	variances := integrateVariance(varDiff, a.D)
	if s := a.SeasonalPeriod; s > 0 {
		raw := history.Values
		for k := 0; k < h; k++ {
			idx := len(raw) - s + k
			if idx >= 0 && idx < len(raw) {
				means[k] += raw[idx]
			} else if k-s >= 0 {
				means[k] += means[k-s]
				variances[k] += variances[k-s]
			}
		}
	}

	out := &QuantileForecast{
		Levels: levels,
		Values: make([][]float64, h),
		Mean:   means,
	}
	for k := 0; k < h; k++ {
		n := dist.NewNormal(means[k], math.Sqrt(variances[k]))
		row := make([]float64, len(levels))
		for i, tau := range levels {
			row[i] = n.Quantile(tau)
		}
		out.Values[k] = row
	}
	return out, nil
}

// baseLen returns the length of the seasonally differenced base of a raw
// history of length n.
func (a *ARIMA) baseLen(n int) int {
	if a.SeasonalPeriod > 0 {
		return n - a.SeasonalPeriod
	}
	return n
}

// baseAt returns the seasonally differenced base value at base index j.
func (a *ARIMA) baseAt(values []float64, j int) float64 {
	if a.SeasonalPeriod <= 0 {
		return values[j]
	}
	return values[j+a.SeasonalPeriod] - values[j]
}

// diffEndAt computes the k-th regular difference of the seasonal base
// ending at base index j, from the last k+1 base values only. Each
// difference level's element depends on exactly two adjacent elements of
// the level below, so this windowed computation applies the same
// subtractions to the same operands as the cold full-array differencing —
// the result is bit-identical to transform(values)[j-k] (and, at the final
// index, to lastOfDiff(seasonalBase(values), k)).
func (a *ARIMA) diffEndAt(values []float64, j, k int) float64 {
	buf := a.warm.diffBuf
	if cap(buf) < k+1 {
		buf = make([]float64, k+1)
		a.warm.diffBuf = buf
	}
	buf = buf[:k+1]
	for i := 0; i <= k; i++ {
		buf[i] = a.baseAt(values, j-k+i)
	}
	for r := 0; r < k; r++ {
		for i := 0; i < k-r; i++ {
			buf[i] = buf[i+1] - buf[i]
		}
	}
	return buf[0]
}

// PredictQuantilesWarm implements IncrementalForecaster. The differencing
// pipeline and the innovation recursion are extended over just the newly
// appended observations (O(1) per round at a fixed cadence) instead of
// being re-derived over the whole history; on any discontinuity the cache
// is rebuilt cold. Results are bit-identical to PredictQuantiles; the
// returned fan is a scratch owned by the forecaster, valid until the next
// predict (see warm.go).
func (a *ARIMA) PredictQuantilesWarm(history *timeseries.Series, h int, levels []float64) (*QuantileForecast, error) {
	if !a.fitted {
		return nil, ErrNotFitted
	}
	lv, err := a.warm.levels.get(levels)
	if err != nil {
		return nil, err
	}
	if h <= 0 {
		return nil, fmt.Errorf("forecast: non-positive horizon %d", h)
	}
	aw := &a.warm
	values := history.Values
	n := len(values)
	s := a.SeasonalPeriod
	if !aw.valid || aw.n > n || !aw.ref.Extends(history) {
		aw.valid = false
		w, err := a.transform(values)
		if err != nil {
			return nil, err
		}
		aw.w = w
		aw.eps = aw.eps[:0]
		aw.n = n
	} else if aw.n < n {
		// Each new raw observation completes at most one differencing
		// window; append its working-series element.
		for r := aw.n; r < n; r++ {
			if j := r - s; j >= a.D {
				aw.w = append(aw.w, a.diffEndAt(values, j, a.D))
			}
		}
		aw.n = n
	}
	wl := len(aw.w)
	if wl < a.P+a.Q+1 {
		return nil, ErrShortHistory
	}
	// Extend the innovation recursion over the new tail of w; the zero
	// warm-start prefix and the forward recursion replicate the cold
	// reconstruction exactly.
	warmIdx := a.P
	if a.Q > warmIdx {
		warmIdx = a.Q
	}
	for t := len(aw.eps); t < wl; t++ {
		if t < warmIdx {
			aw.eps = append(aw.eps, 0)
			continue
		}
		pred := a.constant
		for j := 0; j < a.P; j++ {
			pred += a.phi[j] * aw.w[t-1-j]
		}
		for j := 0; j < a.Q; j++ {
			pred += a.theta[j] * aw.eps[t-1-j]
		}
		aw.eps = append(aw.eps, aw.w[t]-pred)
	}
	aw.ref.Record(history)
	aw.valid = true

	// The forecast recursion reads only the last P values of
	// (w ++ predictions) and the last Q of (eps ++ zeros); run it on small
	// reused tails instead of cloning the full arrays.
	aw.pTail = append(aw.pTail[:0], aw.w[wl-a.P:]...)
	aw.qTail = append(aw.qTail[:0], aw.eps[wl-a.Q:]...)
	aw.meansDiff = resize(aw.meansDiff, h)
	for k := 0; k < h; k++ {
		pred := a.constant
		np, nq := len(aw.pTail), len(aw.qTail)
		for j := 0; j < a.P; j++ {
			pred += a.phi[j] * aw.pTail[np-1-j]
		}
		for j := 0; j < a.Q; j++ {
			pred += a.theta[j] * aw.qTail[nq-1-j]
		}
		aw.meansDiff[k] = pred
		aw.pTail = append(aw.pTail, pred)
		aw.qTail = append(aw.qTail, 0)
	}

	// Psi weights are a prefix-stable recursion: cache the longest run.
	if len(aw.psi) < h {
		aw.psi = a.psiWeights(h)
	}
	psi := aw.psi[:h]
	aw.varDiff = resize(aw.varDiff, h)
	acc := 0.0
	for k := 0; k < h; k++ {
		acc += psi[k] * psi[k]
		aw.varDiff[k] = a.sigma2 * acc
	}

	// Integration constants come from the base tail (diffEndAt), not a full
	// lastOfDiff pass; the cumulative sums mirror integrate and
	// integrateVariance.
	aw.means = append(aw.means[:0], aw.meansDiff...)
	for k := a.D; k >= 1; k-- {
		level := a.diffEndAt(values, a.baseLen(n)-1, k-1)
		for i := range aw.means {
			level += aw.means[i]
			aw.means[i] = level
		}
	}
	aw.variances = append(aw.variances[:0], aw.varDiff...)
	for k := 0; k < a.D; k++ {
		vacc := 0.0
		for i := range aw.variances {
			vacc += aw.variances[i]
			aw.variances[i] = vacc
		}
	}
	if s > 0 {
		for k := 0; k < h; k++ {
			idx := n - s + k
			if idx >= 0 && idx < n {
				aw.means[k] += values[idx]
			} else if k-s >= 0 {
				aw.means[k] += aw.means[k-s]
				aw.variances[k] += aw.variances[k-s]
			}
		}
	}

	out := reuseFan(aw.fan, h, lv)
	aw.fan = out
	copy(out.Mean, aw.means)
	for k := 0; k < h; k++ {
		nd := dist.NewNormal(aw.means[k], math.Sqrt(aw.variances[k]))
		row := out.Values[k]
		for i, tau := range lv {
			row[i] = nd.Quantile(tau)
		}
	}
	return out, nil
}

// stabilize enforces stationarity of the fitted AR polynomial: if the
// companion matrix has spectral radius >= 1 (an explosive model whose
// recursive forecasts diverge), the AR coefficients phi_j are damped by
// c^j, which contracts every root by the factor c. The least-squares
// Hannan-Rissanen fit does not constrain the roots, so this guard is
// needed for high AR orders on strongly seasonal data.
func (a *ARIMA) stabilize() {
	dampRoots(a.phi) // stationarity of the AR part

	// Invertibility of the MA part governs the eps recursion
	// eps[t] = ... - theta_j eps[t-j], whose lag-polynomial coefficients
	// are the negated thetas.
	neg := make([]float64, len(a.theta))
	for j, th := range a.theta {
		neg[j] = -th
	}
	dampRoots(neg)
	for j := range a.theta {
		a.theta[j] = -neg[j]
	}
}

// dampRoots contracts the roots of the lag polynomial 1 - c1 z - c2 z^2 ...
// to lie strictly inside the unit circle by scaling coefficient j by c^j.
func dampRoots(coef []float64) {
	if len(coef) == 0 {
		return
	}
	const target = 0.98
	radius := companionSpectralRadius(coef)
	if radius < target {
		return
	}
	c := target / radius
	f := c
	for j := range coef {
		coef[j] *= f
		f *= c
	}
}

// companionSpectralRadius estimates the dominant eigenvalue magnitude of
// the AR companion matrix by power iteration. Because seasonal AR models
// have complex-conjugate dominant roots, the per-step growth oscillates;
// the geometric mean of the step norms after a burn-in converges to the
// modulus regardless.
func companionSpectralRadius(phi []float64) float64 {
	p := len(phi)
	v := make([]float64, p)
	v[0] = 1
	const burnIn, measured = 100, 200
	logSum := 0.0
	for iter := 0; iter < burnIn+measured; iter++ {
		next := make([]float64, p)
		for j := 0; j < p; j++ {
			next[0] += phi[j] * v[j]
		}
		copy(next[1:], v[:p-1])
		norm := 0.0
		for _, x := range next {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm < 1e-30 {
			return 0
		}
		for j := range next {
			next[j] /= norm
		}
		v = next
		if iter >= burnIn {
			logSum += math.Log(norm)
		}
	}
	return math.Exp(logSum / measured)
}

// psiWeights expands the ARMA model into its MA(inf) psi weights up to h
// terms; psi[0] = 1.
func (a *ARIMA) psiWeights(h int) []float64 {
	psi := make([]float64, h)
	if h == 0 {
		return psi
	}
	psi[0] = 1
	for k := 1; k < h; k++ {
		v := 0.0
		if k-1 < len(a.theta) {
			v += a.theta[k-1]
		}
		for j := 0; j < a.P && j < k; j++ {
			v += a.phi[j] * psi[k-1-j]
		}
		psi[k] = v
	}
	return psi
}

// integrate undoes d rounds of differencing for a forecast path, using the
// tail of the raw history as integration constants.
func integrate(history []float64, forecastDiff []float64, d int) []float64 {
	out := append([]float64{}, forecastDiff...)
	for k := d; k >= 1; k-- {
		// Level of the (k-1)-differenced series at the end of history.
		level := lastOfDiff(history, k-1)
		for i := range out {
			level += out[i]
			out[i] = level
		}
	}
	return out
}

// integrateVariance propagates forecast variances through d integrations.
// Each integration turns the variance sequence into cumulative sums of the
// underlying psi weights; we approximate by cumulative summation of
// variances, which is exact for d=0 and conservative for d>=1.
func integrateVariance(varDiff []float64, d int) []float64 {
	out := append([]float64{}, varDiff...)
	for k := 0; k < d; k++ {
		acc := 0.0
		for i := range out {
			acc += out[i]
			out[i] = acc
		}
	}
	return out
}

// lastOfDiff returns the final value of the k-th difference of values.
func lastOfDiff(values []float64, k int) float64 {
	v := append([]float64{}, values...)
	for i := 0; i < k; i++ {
		next := make([]float64, len(v)-1)
		for j := 1; j < len(v); j++ {
			next[j-1] = v[j] - v[j-1]
		}
		v = next
	}
	return v[len(v)-1]
}

// fitAR fits an AR(p) model with intercept by ridge-regularized least
// squares, returning coefficients and the intercept.
func fitAR(w []float64, p int) (phi []float64, c float64, err error) {
	if len(w) <= p+1 {
		return nil, 0, fmt.Errorf("forecast: AR(%d) needs more than %d observations", p, p+1)
	}
	rows := len(w) - p
	x := make([][]float64, rows)
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		t := p + i
		row := make([]float64, p+1)
		row[0] = 1
		for j := 0; j < p; j++ {
			row[1+j] = w[t-1-j]
		}
		x[i] = row
		y[i] = w[t]
	}
	coef, err := ridgeSolve(x, y, 1e-6)
	if err != nil {
		return nil, 0, err
	}
	return coef[1:], coef[0], nil
}

// ridgeSolve solves min ||X b - y||^2 + lambda ||b||^2 via the normal
// equations with Gaussian elimination (partial pivoting).
func ridgeSolve(x [][]float64, y []float64, lambda float64) ([]float64, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("forecast: empty design matrix")
	}
	cols := len(x[0])
	// Normal equations: (X^T X + lambda I) b = X^T y.
	ata := make([][]float64, cols)
	for i := range ata {
		ata[i] = make([]float64, cols+1)
	}
	for _, row := range x {
		for i := 0; i < cols; i++ {
			for j := 0; j < cols; j++ {
				ata[i][j] += row[i] * row[j]
			}
		}
	}
	for i, row := range x {
		for j := 0; j < cols; j++ {
			ata[j][cols] += row[j] * y[i]
		}
	}
	for i := 0; i < cols; i++ {
		ata[i][i] += lambda
	}
	return gaussSolve(ata)
}

// gaussSolve solves the augmented system [A | b] in place with partial
// pivoting.
func gaussSolve(aug [][]float64) ([]float64, error) {
	n := len(aug)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(aug[r][col]) > math.Abs(aug[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(aug[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("forecast: singular system at column %d", col)
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		// Eliminate.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := aug[r][col] / aug[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				aug[r][c] -= f * aug[col][c]
			}
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = aug[i][n] / aug[i][i]
	}
	return out, nil
}

var (
	_ QuantileForecaster    = (*ARIMA)(nil)
	_ IncrementalForecaster = (*ARIMA)(nil)
)
