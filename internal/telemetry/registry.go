// Package telemetry is the observability substrate of the middleware:
// a concurrency-safe metrics registry (counters, gauges, histograms
// with fixed buckets) with Prometheus-text and JSON exposition, a
// query-lifecycle span tracer, and an instrumented iterator that
// measures every physical operator (rows, Next calls, bytes, wall
// time) for EXPLAIN ANALYZE and the adaptive cost loop.
//
// All entry points are nil-safe: a nil *Registry (or nil metric, or
// nil *Span) is an always-on no-op, so instrumented code paths never
// need to guard against disabled telemetry.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attach dimensions to a metric series ({op="TAggr",loc="MW"}).
type Labels map[string]string

// labelKey renders labels deterministically (sorted by key). This is
// the registry's internal identity key, not the exposition format —
// %q is unambiguous, which is all a map key needs.
func labelKey(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format: backslash, double quote, and newline — and
// nothing else (Go's %q would emit \xNN and \t escapes that
// Prometheus parsers reject).
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// promLabels renders labels for the Prometheus exposition (sorted,
// values escaped per the text format).
func promLabels(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// metricKind discriminates the series types.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one registered (name, labels) pair.
type series struct {
	name   string
	labels Labels
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// Registry is a concurrency-safe collection of metric series.
// The zero value is not usable; use NewRegistry. A nil *Registry is a
// no-op sink.
type Registry struct {
	mu     sync.RWMutex //tango:lock-order metrics latch
	series map[string]*series
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: map[string]*series{}}
}

// get returns the series, creating it — and running init on it, still
// under the lock, so no other caller can see it half-built — when it
// does not exist yet.
func (r *Registry) get(name string, labels Labels, kind metricKind, init func(*series)) *series {
	key := name + labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %v (was %v)", key, kind, s.kind))
		}
		return s
	}
	cp := Labels{}
	for k, v := range labels {
		cp[k] = v
	}
	s := &series{name: name, labels: cp, kind: kind}
	init(s)
	r.series[key] = s
	return s
}

// Counter returns (creating if needed) the counter series.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, labels, kindCounter, func(s *series) { s.counter = &Counter{} }).counter
}

// Gauge returns (creating if needed) the gauge series.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, labels, kindGauge, func(s *series) { s.gauge = &Gauge{} }).gauge
}

// GaugeFunc registers (or replaces) a gauge whose value is computed at
// collection time — used for ratios and externally owned counters.
func (r *Registry) GaugeFunc(name string, labels Labels, fn func() float64) {
	if r == nil {
		return
	}
	s := r.get(name, labels, kindGaugeFunc, func(*series) {})
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// Histogram returns (creating if needed) the histogram series with the
// given upper bucket bounds (ascending; +Inf is implicit). Bounds are
// fixed at first registration.
func (r *Registry) Histogram(name string, labels Labels, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, labels, kindHistogram, func(s *series) { s.hist = newHistogram(buckets) }).hist
}

// NumSeries returns the number of distinct registered series.
func (r *Registry) NumSeries() int {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.series)
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increases the counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge value.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets.
type Histogram struct {
	bounds  []float64 // ascending upper bounds
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64

	// exemplars pin one representative observation per bucket (e.g.
	// the trace that produced the worst Q-error landing there), so a
	// reader of the histogram can jump straight to a concrete trace.
	exMu      sync.Mutex  //tango:lock-order exemplar latch
	exemplars []*Exemplar // lazily allocated, len(buckets) when present
}

// Exemplar links one observed value to the trace that produced it.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
	// Label is a short annotation, e.g. the offending operator.
	Label string `json:"label,omitempty"`
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// SetExemplar pins v's trace as the exemplar of the bucket v lands in,
// replacing any previous exemplar there, WITHOUT observing it — for
// callers that already Observed the value and later learn which trace
// best represents it (e.g. the worst Q-error operator of a query).
func (h *Histogram) SetExemplar(v float64, traceID, label string) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exMu.Lock()
	if h.exemplars == nil {
		h.exemplars = make([]*Exemplar, len(h.buckets))
	}
	h.exemplars[i] = &Exemplar{Value: v, TraceID: traceID, Label: label}
	h.exMu.Unlock()
}

// Exemplars returns the per-bucket exemplars (nil when none were ever
// recorded; entries may be nil).
func (h *Histogram) Exemplars() []*Exemplar {
	if h == nil {
		return nil
	}
	h.exMu.Lock()
	defer h.exMu.Unlock()
	if h.exemplars == nil {
		return nil
	}
	return append([]*Exemplar(nil), h.exemplars...)
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation within the bucket the rank falls into — the same
// estimate Prometheus's histogram_quantile computes. Observations in
// the +Inf bucket clamp to the highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := make([]int64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return quantileFromBuckets(h.bounds, counts, q)
}

// quantileFromBuckets is the shared quantile estimator over raw
// (non-cumulative) bucket counts.
func quantileFromBuckets(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		fc := float64(c)
		if cum+fc >= rank && fc > 0 {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			frac := (rank - cum) / fc
			return lo + (bounds[i]-lo)*frac
		}
		cum += fc
	}
	return bounds[len(bounds)-1]
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DurationBuckets are the default bounds (seconds) for operator and
// query timing histograms: 1µs … 10s.
var DurationBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}

// CountBuckets are the default bounds for row/byte-count histograms.
var CountBuckets = []float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7}

// QErrorBuckets are the default bounds for Q-error (estimated vs.
// observed cardinality drift) histograms: exact=1 up to 1000×.
var QErrorBuckets = []float64{1, 1.5, 2, 4, 8, 16, 64, 256, 1000}

// ExpBuckets generates n exponentially spaced bounds start, start×f,
// start×f², … — the stdlib-only stand-in for HDR histograms: constant
// relative error (factor 2 → ≤100% bucket width) across the range.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, 0, n)
	v := start
	for i := 0; i < n; i++ {
		out = append(out, v)
		v *= factor
	}
	return out
}

// LatencyBuckets are log-scale bounds (seconds) for per-op and
// end-to-end latency histograms: 1µs doubling up to ~16.8s, 25
// buckets — fine enough that p999 interpolation stays within a factor
// of two of the true value anywhere in the range.
var LatencyBuckets = ExpBuckets(1e-6, 2, 25)

// SeriesSnapshot is one collected series, used by both expositions.
type SeriesSnapshot struct {
	Name   string
	Labels Labels
	Kind   string
	// Value is set for counters and gauges.
	Value float64
	// Histogram data (Kind == "histogram").
	Bounds       []float64
	BucketCounts []int64 // len(Bounds)+1; last is the +Inf bucket
	Count        int64
	Sum          float64
	// Exemplars holds per-bucket exemplars (nil when none recorded).
	Exemplars []*Exemplar
}

// Quantile estimates a quantile from the snapshot's buckets.
func (s SeriesSnapshot) Quantile(q float64) float64 {
	return quantileFromBuckets(s.Bounds, s.BucketCounts, q)
}

// Snapshot collects every series, sorted by name then labels.
func (r *Registry) Snapshot() []SeriesSnapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	all := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		all = append(all, s)
	}
	r.mu.RUnlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].name != all[j].name {
			return all[i].name < all[j].name
		}
		return labelKey(all[i].labels) < labelKey(all[j].labels)
	})
	out := make([]SeriesSnapshot, 0, len(all))
	for _, s := range all {
		snap := SeriesSnapshot{Name: s.name, Labels: s.labels, Kind: s.kind.String()}
		switch s.kind {
		case kindCounter:
			snap.Value = float64(s.counter.Value())
		case kindGauge:
			snap.Value = s.gauge.Value()
		case kindGaugeFunc:
			r.mu.RLock()
			fn := s.fn
			r.mu.RUnlock()
			if fn != nil {
				snap.Value = fn()
			}
		case kindHistogram:
			snap.Bounds = s.hist.bounds
			snap.BucketCounts = make([]int64, len(s.hist.buckets))
			for i := range s.hist.buckets {
				snap.BucketCounts[i] = s.hist.buckets[i].Load()
			}
			snap.Count = s.hist.Count()
			snap.Sum = s.hist.Sum()
			snap.Exemplars = s.hist.Exemplars()
		}
		out = append(out, snap)
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	lastName := ""
	for _, s := range r.Snapshot() {
		if s.Name != lastName {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, promKind(s.Kind)); err != nil {
				return err
			}
			lastName = s.Name
		}
		lbl := promLabels(s.Labels)
		switch s.Kind {
		case "histogram":
			cum := int64(0)
			for i, c := range s.BucketCounts {
				cum += c
				le := "+Inf"
				if i < len(s.Bounds) {
					le = formatFloat(s.Bounds[i])
				}
				line := fmt.Sprintf("%s_bucket%s %d", s.Name, mergeLabel(s.Labels, "le", le), cum)
				// OpenMetrics-style exemplar suffix on the bucket line.
				if i < len(s.Exemplars) && s.Exemplars[i] != nil {
					ex := s.Exemplars[i]
					line += fmt.Sprintf(" # {trace_id=\"%s\",label=\"%s\"} %s",
						escapeLabelValue(ex.TraceID), escapeLabelValue(ex.Label), formatFloat(ex.Value))
				}
				if _, err := fmt.Fprintln(w, line); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, lbl, formatFloat(s.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name, lbl, s.Count); err != nil {
				return err
			}
			if s.Count > 0 {
				for _, q := range [...]struct {
					suffix string
					q      float64
				}{{"p50", 0.50}, {"p99", 0.99}, {"p999", 0.999}} {
					if _, err := fmt.Fprintf(w, "%s_%s%s %s\n", s.Name, q.suffix, lbl, formatFloat(s.Quantile(q.q))); err != nil {
						return err
					}
				}
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, lbl, formatFloat(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func promKind(k string) string {
	if k == "counter" || k == "gauge" || k == "histogram" {
		return k
	}
	return "gauge"
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// mergeLabel renders labels with one extra pair appended (the
// histogram "le" bound), escaped for the exposition format.
func mergeLabel(l Labels, k, v string) string {
	m := Labels{k: v}
	for kk, vv := range l {
		m[kk] = vv
	}
	return promLabels(m)
}

// WriteJSON renders the registry as a JSON object keyed by
// name{labels}; histograms become objects with count/sum/buckets.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := map[string]interface{}{}
	for _, s := range r.Snapshot() {
		key := s.Name + labelKey(s.Labels)
		switch s.Kind {
		case "histogram":
			buckets := map[string]int64{}
			cum := int64(0)
			for i, c := range s.BucketCounts {
				cum += c
				le := "+Inf"
				if i < len(s.Bounds) {
					le = formatFloat(s.Bounds[i])
				}
				buckets[le] = cum
			}
			h := map[string]interface{}{
				"count": s.Count, "sum": s.Sum, "buckets": buckets,
			}
			if s.Count > 0 {
				h["p50"] = s.Quantile(0.50)
				h["p99"] = s.Quantile(0.99)
				h["p999"] = s.Quantile(0.999)
			}
			if exs := nonNilExemplars(s.Exemplars); len(exs) > 0 {
				h["exemplars"] = exs
			}
			out[key] = h
		default:
			out[key] = s.Value
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// nonNilExemplars filters the per-bucket exemplar slice down to the
// recorded ones.
func nonNilExemplars(exs []*Exemplar) []*Exemplar {
	var out []*Exemplar
	for _, e := range exs {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}
