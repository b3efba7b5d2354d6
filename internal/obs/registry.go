package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. Lookup (Counter, Gauge, Histogram) takes a
// read lock and allocates nothing for a metric that exists, so a request
// path may look its instruments up by name and labels each time; recording
// is plain atomics. A tight loop still keeps the returned instrument, to
// stay off the lock.
//
// A nil *Registry is a valid "observability off" registry: it returns nil
// instruments whose methods no-op.
type Registry struct {
	mu      sync.RWMutex
	metrics map[metricKey]any // *Counter | *Gauge | *Histogram
}

type metricKey struct {
	name   string
	labels string
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[metricKey]any)}
}

// appendLabels canonicalizes "k,v,k,v" pairs into `k="v",k="v"`.
func appendLabels(b []byte, pairs []string) []byte {
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, pairs[i]...)
		b = append(b, `="`...)
		b = append(b, pairs[i+1]...)
		b = append(b, '"')
	}
	return b
}

// lookup returns the metric under (name, labels), creating it with mk on
// first use. A metric name must keep one kind; a kind clash panics, which
// surfaces the programming error at the recording site.
func (r *Registry) lookup(name string, labels []string, mk func(key metricKey) any) any {
	// Rendered on the stack, and the compiler does not materialize a string
	// converted inside a map index: only creating a metric allocates its key.
	var buf [128]byte
	text := appendLabels(buf[:0], labels)
	r.mu.RLock()
	m, ok := r.metrics[metricKey{name: name, labels: string(text)}]
	r.mu.RUnlock()
	if ok {
		return m
	}
	key := metricKey{name: name, labels: string(text)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok = r.metrics[key]; !ok {
		m = mk(key)
		r.metrics[key] = m
	}
	return m
}

// Counter returns the counter under name and optional "k,v" label pairs,
// creating it on first use. Returns nil on a nil registry.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, func(key metricKey) any {
		return &Counter{key: key}
	}).(*Counter)
}

// Gauge returns the gauge under name and optional "k,v" label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, func(key metricKey) any {
		return &Gauge{key: key}
	}).(*Gauge)
}

// Histogram returns the histogram under name and optional "k,v" label
// pairs, creating it with the given ascending bucket upper bounds on first
// use (an implicit +Inf bucket is always appended). Later calls may pass
// nil bounds to address the existing histogram.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, func(key metricKey) any {
		b := append([]float64(nil), bounds...)
		return &Histogram{key: key, bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	}).(*Histogram)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	key metricKey
	v   atomic.Int64
}

// Add increases the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value (or high-water) instrument.
type Gauge struct {
	key metricKey
	v   atomic.Int64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetMax raises the gauge to v if v is larger (lock-free high-water mark).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current gauge value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with atomic bucket counts and a
// lock-free float sum. Bounds are upper bounds (≤) in ascending order; an
// implicit +Inf bucket catches the rest.
type Histogram struct {
	key     metricKey
	bounds  []float64
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the p-quantile (p in [0,1]) of the observed values by
// linear interpolation within the bucket holding the target rank — the
// same estimate Prometheus's histogram_quantile computes server-side. NaN
// on a nil or empty histogram.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return math.NaN()
	}
	snap := HistSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts))}
	for i := range h.counts {
		c := h.counts[i].Load()
		snap.Counts[i] = c
		snap.Count += c
	}
	return snap.Quantile(p)
}

// Default bucket sets for the pipeline's two recurring shapes.
var (
	// DurationBucketsMS spans sub-millisecond shell interactions up to the
	// paper's hundreds-of-seconds exact searches.
	DurationBucketsMS = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 60000}
	// QErrorBuckets grades estimator accuracy: a q-error of 1 is a perfect
	// estimate, ≤ 2 is good company for a System-R style model, ≥ 100 means
	// the estimate is useless for that query.
	QErrorBuckets = []float64{1, 1.1, 1.25, 1.5, 2, 3, 5, 10, 25, 100, 1000}
	// SizeBuckets covers result cardinalities.
	SizeBuckets = []float64{0, 1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 100000}
)

// MetricSnapshot is the frozen state of one metric.
type MetricSnapshot struct {
	Name   string
	Labels string // canonical `k="v",...` form, "" when unlabeled
	Kind   string // "counter" | "gauge" | "histogram"
	Value  int64  // counters and gauges
	Hist   *HistSnapshot
}

// HistSnapshot freezes a histogram: cumulative semantics are left to the
// exporters; Counts[i] is the count in bucket i (≤ Bounds[i], last +Inf).
type HistSnapshot struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Quantile estimates the p-quantile of a frozen histogram by linear
// interpolation within the bucket holding the target rank. The bucket's
// lower edge is the previous bound (0 for the first bucket — every
// recorded quantity here is non-negative); values landing in the +Inf
// bucket report the highest finite bound, the tightest claim the bucket
// data supports. p is clamped to [0,1]; NaN on an empty snapshot.
func (h *HistSnapshot) Quantile(p float64) float64 {
	if h == nil || h.Count == 0 {
		return math.NaN()
	}
	p = math.Min(math.Max(p, 0), 1)
	rank := p * float64(h.Count)
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i >= len(h.Bounds) {
			// +Inf bucket: no finite upper edge to interpolate toward.
			if len(h.Bounds) == 0 {
				return math.NaN()
			}
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + (h.Bounds[i]-lo)*frac
	}
	return math.NaN()
}

// Snapshot freezes all metrics, sorted by name then labels. Nil registries
// yield nil.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]MetricSnapshot, 0, len(r.metrics))
	for _, m := range r.metrics {
		switch m := m.(type) {
		case *Counter:
			out = append(out, MetricSnapshot{Name: m.key.name, Labels: m.key.labels, Kind: "counter", Value: m.Value()})
		case *Gauge:
			out = append(out, MetricSnapshot{Name: m.key.name, Labels: m.key.labels, Kind: "gauge", Value: m.Value()})
		case *Histogram:
			hs := &HistSnapshot{
				Bounds: m.bounds,
				Counts: make([]int64, len(m.counts)),
				Count:  m.Count(),
				Sum:    m.Sum(),
			}
			for i := range m.counts {
				hs.Counts[i] = m.counts[i].Load()
			}
			out = append(out, MetricSnapshot{Name: m.key.name, Labels: m.key.labels, Kind: "histogram", Hist: hs})
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}
