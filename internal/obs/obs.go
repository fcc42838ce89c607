// Package obs is the production observability layer of the repo: a
// stdlib-only metrics subsystem (counters, gauges, fixed-bucket
// histograms) with Prometheus text-format exposition, plus a bounded
// structured event journal (journal.go).
//
// Design goals, in order:
//
//   - Lock-cheap hot paths. Counter.Add, Gauge.Set and Histogram.Observe
//     are a handful of atomic operations — no mutex, no allocation — so
//     they can sit inside training loops and per-step control loops
//     without perturbing what they measure.
//   - One registry, registered once. Instruments live in package-level
//     vars registered against Default at init time. Registration is
//     idempotent by metric name, so two packages may name the same
//     family (e.g. the shared stage-latency histogram) and share it.
//   - Deterministic exposition. Families are emitted sorted by name and
//     children sorted by label value, so the text format is stable and
//     golden-testable.
//
// Instruments optionally carry a single label dimension (a *Vec type);
// callers cache the child returned by With to keep the hot path free of
// map lookups.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the Prometheus exposition type of a metric family.
type Kind string

// Supported metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// LatencyBuckets is the default histogram grid for stage latencies,
// spanning 100µs to 10s — wide enough for both a reactive window scan and
// a full DeepAR Monte-Carlo forecast.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Default is the process-wide registry. Library packages register their
// instruments here; the daemon exposes it at /metrics.
var Default = NewRegistry()

// DefaultLabelLimit is the per-family label cardinality cap a new
// Registry starts with. Generous enough that every series a few hundred
// tenants produce stays individually labelled, small enough that a
// 10k-tenant fleet cannot grow an unbounded exposition.
const DefaultLabelLimit = 1024

// OverflowLabel is the label value that absorbs observations for label
// values beyond a family's cardinality cap.
const OverflowLabel = "other"

// overflowMetricName counts With() lookups routed to OverflowLabel,
// labelled by the overflowing metric family. The family itself is
// exempt from the cap (its cardinality is bounded by the number of
// registered families).
const overflowMetricName = "robustscale_metric_label_overflow_total"

// atomicFloat is a float64 updated with compare-and-swap on its bit
// pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value. Whole-number increments
// are one atomic integer add, so workers bumping a shared counter never
// loop on a compare-and-swap; a fractional Add keeps a float of its own.
type Counter struct {
	n    atomic.Uint64
	frac atomicFloat
}

// maxWhole bounds the deltas Add counts as integers: every whole float64
// up to 2⁵³ converts exactly.
const maxWhole = 1 << 53

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add increases the counter; negative deltas are a programming error.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter decreased")
	}
	if v <= maxWhole && v == math.Trunc(v) {
		c.n.Add(uint64(v))
		return
	}
	c.frac.Add(v)
}

// Value returns the current total.
func (c *Counter) Value() float64 { return float64(c.n.Load()) + c.frac.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Buckets follow the
// Prometheus convention: bucket i counts observations <= bounds[i], with
// an implicit +Inf bucket. Observe is wait-free per bucket; a concurrent
// scrape may see a sum slightly ahead of the counts (and vice versa),
// which Prometheus tolerates by design.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.sum.Add(v)
}

// snapshot returns cumulative bucket counts, the total count and the sum.
func (h *Histogram) snapshot() ([]uint64, uint64, float64) {
	cum := make([]uint64, len(h.bounds))
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
		if i < len(h.bounds) {
			cum[i] = total
		}
	}
	return cum, total, h.sum.Load()
}

// Mono reads the monotonic clock alone, as the time since process start
// (time.Now also reads the wall clock); two readings subtract to the
// elapsed time between them.
func Mono() time.Duration { return time.Since(processStart) }

var processStart = time.Now()

// family is one named metric with its (possibly labelled) children.
type family struct {
	name   string
	help   string
	kind   Kind
	label  string    // label key; "" for unlabelled instruments
	bounds []float64 // histogram bucket bounds
	reg    *Registry

	mu       sync.Mutex
	children map[string]interface{} // label value -> *Counter | *Gauge | *Histogram
}

// child returns the instrument for a label value, creating it with mk
// on first use. When creating a new labelled child would exceed the
// family's cardinality cap, the lookup is routed to the OverflowLabel
// series instead (created on demand, always admitted) and the overflow
// counter is incremented. The cap is checked under f.mu, so the number
// of real children never exceeds the limit even under concurrent
// first-use races.
func (f *family) child(value string, mk func() interface{}) interface{} {
	f.mu.Lock()
	if c, ok := f.children[value]; ok {
		f.mu.Unlock()
		return c
	}
	if f.label != "" && value != OverflowLabel && f.name != overflowMetricName {
		if limit := f.reg.labelLimit.Load(); limit > 0 && int64(len(f.children)) >= limit {
			f.mu.Unlock()
			f.reg.noteOverflow(f.name)
			return f.child(OverflowLabel, mk)
		}
	}
	c := mk()
	f.children[value] = c
	f.mu.Unlock()
	return c
}

func (f *family) counter(value string) *Counter {
	return f.child(value, func() interface{} { return &Counter{} }).(*Counter)
}

func (f *family) gauge(value string) *Gauge {
	return f.child(value, func() interface{} { return &Gauge{} }).(*Gauge)
}

func (f *family) histogram(value string) *Histogram {
	return f.child(value, func() interface{} { return newHistogram(f.bounds) }).(*Histogram)
}

// CounterVec is a counter family with one label dimension.
type CounterVec struct{ f *family }

// With returns the counter for the given label value, creating it on
// first use. Cache the result on hot paths.
func (v *CounterVec) With(value string) *Counter { return v.f.counter(value) }

// GaugeVec is a gauge family with one label dimension.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label value.
func (v *GaugeVec) With(value string) *Gauge { return v.f.gauge(value) }

// HistogramVec is a histogram family with one label dimension.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label value.
func (v *HistogramVec) With(value string) *Histogram { return v.f.histogram(value) }

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	labelLimit atomic.Int64 // per-family cap; <= 0 = unlimited
}

// NewRegistry returns an empty registry with the default per-family
// label cardinality cap.
func NewRegistry() *Registry {
	r := &Registry{families: map[string]*family{}}
	r.labelLimit.Store(DefaultLabelLimit)
	return r
}

// SetLabelLimit replaces the registry-wide per-family label cardinality
// cap. n <= 0 removes the cap.
func (r *Registry) SetLabelLimit(n int) {
	if n <= 0 {
		n = 0
	}
	r.labelLimit.Store(int64(n))
}

// noteOverflow counts one With() lookup that was routed to the
// overflow series of the named family. Called with no family lock held.
func (r *Registry) noteOverflow(metric string) {
	r.CounterVec(overflowMetricName,
		"Metric lookups routed to the 'other' series because the per-family label cardinality cap was reached.",
		"metric").With(metric).Inc()
}

// family registers or retrieves a metric family. Registration is
// idempotent: asking again for the same name returns the existing family,
// but a kind or label mismatch panics — that is two packages fighting
// over one name, a programming error worth failing loudly on.
func (r *Registry) family(name, help string, kind Kind, label string, bounds []float64) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.label != label {
			panic(fmt.Sprintf("obs: metric %s already registered as %s with label %q", name, f.kind, f.label))
		}
		return f
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: metric %s buckets not strictly increasing: %v", name, bounds))
		}
	}
	f := &family{
		name: name, help: help, kind: kind, label: label,
		bounds:   append([]float64(nil), bounds...),
		reg:      r,
		children: map[string]interface{}{},
	}
	r.families[name] = f
	return f
}

// Counter registers (or retrieves) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, KindCounter, "", nil).counter("")
}

// CounterVec registers (or retrieves) a counter family with one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{r.family(name, help, KindCounter, label, nil)}
}

// Gauge registers (or retrieves) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, KindGauge, "", nil).gauge("")
}

// GaugeVec registers (or retrieves) a gauge family with one label.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{r.family(name, help, KindGauge, label, nil)}
}

// Histogram registers (or retrieves) an unlabelled histogram. Nil or
// empty buckets default to LatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = LatencyBuckets
	}
	return r.family(name, help, KindHistogram, "", buckets).histogram("")
}

// HistogramVec registers (or retrieves) a histogram family with one label.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	if len(buckets) == 0 {
		buckets = LatencyBuckets
	}
	return &HistogramVec{r.family(name, help, KindHistogram, label, buckets)}
}

// WritePrometheus renders every family in Prometheus text format
// (version 0.0.4), families sorted by name and children by label value.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format.
func (r *Registry) Handler() http.Handler {
	return getOnly("text/plain; version=0.0.4", func(w io.Writer, _ url.Values) error {
		return r.WritePrometheus(w)
	})
}

// badQuery marks an error getOnly answers with 400 instead of 500.
type badQuery struct{ error }

// getOnly returns the handler every obs endpoint is: anything but GET is
// answered 405, and a GET gets contentType and what write writes from
// the query. An error write returns is answered 400 when it is a
// badQuery and 500 otherwise.
func getOnly(contentType string, write func(w io.Writer, q url.Values) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", contentType)
		if err := write(w, req.URL.Query()); err != nil {
			code := http.StatusInternalServerError
			if _, ok := err.(badQuery); ok {
				code = http.StatusBadRequest
			}
			http.Error(w, err.Error(), code)
		}
	})
}

func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	vals := make([]string, 0, len(f.children))
	for v := range f.children {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	children := make([]interface{}, len(vals))
	for i, v := range vals {
		children[i] = f.children[v]
	}
	f.mu.Unlock()
	if len(vals) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
	for i, v := range vals {
		switch c := children[i].(type) {
		case *Counter:
			writeSample(b, f.name, f.label, v, c.Value())
		case *Gauge:
			writeSample(b, f.name, f.label, v, c.Value())
		case *Histogram:
			cum, count, sum := c.snapshot()
			for j, le := range c.bounds {
				writeBucket(b, f.name, f.label, v, formatFloat(le), cum[j])
			}
			writeBucket(b, f.name, f.label, v, "+Inf", count)
			writeSample(b, f.name+"_sum", f.label, v, sum)
			writeSample(b, f.name+"_count", f.label, v, float64(count))
		}
	}
}

func writeSample(b *strings.Builder, name, labelKey, labelVal string, value float64) {
	b.WriteString(name)
	if labelKey != "" {
		b.WriteByte('{')
		b.WriteString(labelKey)
		b.WriteString(`="`)
		escapeLabel(b, labelVal)
		b.WriteString(`"}`)
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(value))
	b.WriteByte('\n')
}

func writeBucket(b *strings.Builder, name, labelKey, labelVal, le string, count uint64) {
	b.WriteString(name)
	b.WriteString("_bucket{")
	if labelKey != "" {
		b.WriteString(labelKey)
		b.WriteString(`="`)
		escapeLabel(b, labelVal)
		b.WriteString(`",`)
	}
	fmt.Fprintf(b, "le=%q} ", le)
	b.WriteString(strconv.FormatUint(count, 10))
	b.WriteByte('\n')
}

// escapeLabel writes a label value per the Prometheus text format 0.0.4:
// backslash, double-quote and line feed are escaped; every other byte
// (including tabs and multi-byte UTF-8) passes through raw. Go's %q
// would over-escape and produce scrape-visible differences.
func escapeLabel(b *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
