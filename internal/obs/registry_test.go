package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reads_total", "table", "MOVIE")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if c2 := r.Counter("reads_total", "table", "MOVIE"); c2 != c {
		t.Fatal("same name+labels must return the same counter")
	}
	if c3 := r.Counter("reads_total", "table", "GENRE"); c3 == c {
		t.Fatal("different labels must return a different counter")
	}

	g := r.Gauge("queue_high_water")
	g.Set(10)
	g.SetMax(7)
	if got := g.Value(); got != 10 {
		t.Fatalf("SetMax lowered the gauge: %d", got)
	}
	g.SetMax(42)
	if got := g.Value(); got != 42 {
		t.Fatalf("SetMax = %d, want 42", got)
	}

	h := r.Histogram("lat_ms", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 99, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("hist count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-1105.5) > 1e-9 {
		t.Fatalf("hist sum = %g, want 1105.5", h.Sum())
	}
	snap := r.Snapshot()
	var hs *HistSnapshot
	for _, m := range snap {
		if m.Name == "lat_ms" {
			hs = m.Hist
		}
	}
	if hs == nil {
		t.Fatal("histogram missing from snapshot")
	}
	// Buckets: ≤1 → {0.5, 1}, ≤10 → {5}, ≤100 → {99}, +Inf → {1000}.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Fatal("nil registry must return nil instruments")
	}
	// All of these must be harmless no-ops.
	r.Counter("x").Add(1)
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Gauge("x").SetMax(1)
	r.Gauge("x").Add(1)
	r.Histogram("x", nil).Observe(1)
	if r.Counter("x").Value() != 0 || r.Gauge("x").Value() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if s := r.Render(); !strings.Contains(s, "no metrics") {
		t.Fatalf("nil render = %q", s)
	}
	var acc *Accuracy
	acc.Record(1, 2, 3, 4)
	if acc.Summary().Queries != 0 {
		t.Fatal("nil accuracy must report zero queries")
	}
	var sp *Span
	sp.End()
	var lp Laps
	if sp.StartChild("c") != nil || sp.AddChild("c", 0, Attr{Key: "k", Value: "1"}) != nil || lp.Lap("c", Attr{Key: "k", Value: "1"}) != nil || sp.Tree() != "" {
		t.Fatal("nil span must stay nil and render empty")
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines — the
// shape of request workers recording search metrics — and is the test the
// CI race detector watches.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const iters = 2000
	var wg sync.WaitGroup
	names := []string{"a_total", "b_total", "c_total"}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter(names[i%len(names)]).Inc()
				r.Counter("labeled_total", "worker", names[g%len(names)]).Inc()
				r.Gauge("hw").SetMax(int64(i))
				r.Histogram("h", []float64{10, 100}).Observe(float64(i % 150))
				if i%100 == 0 {
					r.Snapshot() // concurrent readers must be safe too
				}
			}
		}(g)
	}
	wg.Wait()

	var total int64
	for _, n := range names {
		total += r.Counter(n).Value()
	}
	if want := int64(goroutines * iters); total != want {
		t.Fatalf("counter total = %d, want %d", total, want)
	}
	if got := r.Counter("labeled_total", "worker", "a_total").Value() +
		r.Counter("labeled_total", "worker", "b_total").Value() +
		r.Counter("labeled_total", "worker", "c_total").Value(); got != int64(goroutines*iters) {
		t.Fatalf("labeled total = %d, want %d", got, goroutines*iters)
	}
	if got := r.Gauge("hw").Value(); got != iters-1 {
		t.Fatalf("high-water = %d, want %d", got, iters-1)
	}
	if got := r.Histogram("h", nil).Count(); got != int64(goroutines*iters) {
		t.Fatalf("hist count = %d, want %d", got, goroutines*iters)
	}
}

func TestPrometheusAndExpvar(t *testing.T) {
	r := NewRegistry()
	r.Counter("reads_total", "table", "MOVIE").Add(7)
	r.Counter("reads_total", "table", "GENRE").Add(2)
	r.Gauge("depth").Set(3)
	r.Histogram("ms", []float64{1, 10}).Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE reads_total counter",
		`reads_total{table="MOVIE"} 7`,
		"# TYPE depth gauge",
		"depth 3",
		`ms_bucket{le="1"} 0`,
		`ms_bucket{le="10"} 1`,
		`ms_bucket{le="+Inf"} 1`,
		"ms_sum 5",
		"ms_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// TYPE must appear once per family even with several labeled series.
	if n := strings.Count(out, "# TYPE reads_total counter"); n != 1 {
		t.Fatalf("reads_total announced %d times:\n%s", n, out)
	}
	if !strings.Contains(out, `reads_total{table="GENRE"} 2`) {
		t.Fatalf("second series missing:\n%s", out)
	}

	ev := r.Expvar().(map[string]any)
	if ev[`reads_total{table="MOVIE"}`] != int64(7) {
		t.Fatalf("expvar counter = %v", ev[`reads_total{table="MOVIE"}`])
	}
	r.PublishExpvar("obs_test_registry")
	r.PublishExpvar("obs_test_registry") // second publish must not panic
}

// TestRegistryLookupAllocs: looking up a metric that exists allocates
// nothing — the label text is rendered on the stack and only a new metric
// keeps a copy — whatever the text's length, and the rendered output is what
// it was when every lookup built the string (the golden strings below were
// recorded at the commit before the change).
func TestRegistryLookupAllocs(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain_total").Add(3)
	r.Counter("server_requests_total", "endpoint", "personalize", "code", "200").Add(7)
	r.Counter("server_requests_total", "endpoint", "execute", "code", "400").Inc()
	r.Gauge("server_queue_depth").Set(2)
	r.Gauge("coalesce_inflight", "endpoint", "topk").Set(-1)
	h := r.Histogram("server_phase_ms", []float64{0.1, 1, 10}, "endpoint", "personalize", "phase", "parse")
	for _, v := range []float64{0.05, 0.5, 0.7, 20} {
		h.Observe(v)
	}
	r.Histogram("empty_ms", []float64{1}).Observe(0.25)

	const wantRender = "coalesce_inflight{endpoint=\"topk\"}                        -1\nempty_ms                                                  count 1  mean 0.25  p50 0.5  p99 0.99  ≤1:1\nplain_total                                               3\nserver_phase_ms{endpoint=\"personalize\",phase=\"parse\"}     count 4  mean 5.31  p50 0.55  p99 10  ≤0.1:1 ≤1:2 ≤inf:1\nserver_queue_depth                                        2\nserver_requests_total{endpoint=\"execute\",code=\"400\"}      1\nserver_requests_total{endpoint=\"personalize\",code=\"200\"}  7\n"
	const wantProm = "# TYPE coalesce_inflight gauge\ncoalesce_inflight{endpoint=\"topk\"} -1\n# TYPE empty_ms histogram\nempty_ms_bucket{le=\"1\"} 1\nempty_ms_bucket{le=\"+Inf\"} 1\nempty_ms_sum 0.25\nempty_ms_count 1\n# TYPE plain_total counter\nplain_total 3\n# TYPE server_phase_ms histogram\nserver_phase_ms_bucket{endpoint=\"personalize\",phase=\"parse\",le=\"0.1\"} 1\nserver_phase_ms_bucket{endpoint=\"personalize\",phase=\"parse\",le=\"1\"} 3\nserver_phase_ms_bucket{endpoint=\"personalize\",phase=\"parse\",le=\"10\"} 3\nserver_phase_ms_bucket{endpoint=\"personalize\",phase=\"parse\",le=\"+Inf\"} 4\nserver_phase_ms_sum{endpoint=\"personalize\",phase=\"parse\"} 21.25\nserver_phase_ms_count{endpoint=\"personalize\",phase=\"parse\"} 4\n# TYPE server_queue_depth gauge\nserver_queue_depth 2\n# TYPE server_requests_total counter\nserver_requests_total{endpoint=\"execute\",code=\"400\"} 1\nserver_requests_total{endpoint=\"personalize\",code=\"200\"} 7\n"
	if got := r.Render(); got != wantRender {
		t.Errorf("Render drifted:\n got %q\nwant %q", got, wantRender)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != wantProm {
		t.Errorf("WritePrometheus drifted:\n got %q\nwant %q", got, wantProm)
	}

	// Label text longer than lookup's stack buffer: same instrument back.
	long := strings.Repeat("x", 300)
	lc := r.Counter("long_total", "text", long, "n", "1")
	lc.Add(9)
	if again := r.Counter("long_total", "text", long, "n", "1"); again != lc || again.Value() != 9 {
		t.Fatalf("long label text: got counter %p (value %d), want %p (9)", again, again.Value(), lc)
	}
	if other := r.Counter("long_total", "text", long[:299]+"y", "n", "1"); other == lc {
		t.Fatal("label texts that differ past the stack buffer share a counter")
	}
	for name, lookup := range map[string]func(){
		"counter": func() {
			r.Counter("server_requests_total", "endpoint", "personalize", "code", "200").Inc()
		},
		"gauge": func() { r.Gauge("coalesce_inflight", "endpoint", "topk").Add(1) },
		"histogram": func() {
			r.Histogram("server_phase_ms", DurationBucketsMS, "endpoint", "personalize", "phase", "parse").Observe(1)
		},
	} {
		if n := testing.AllocsPerRun(100, lookup); n != 0 {
			t.Errorf("%s lookup: %v allocations per call, want 0", name, n)
		}
	}
}

// BenchmarkDisabledInstruments measures the observability-off hot path: a
// nil counter/gauge/histogram touch per operation must be a nil check.
func BenchmarkDisabledInstruments(b *testing.B) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		g.SetMax(int64(i))
		h.Observe(1)
	}
}

// BenchmarkEnabledCounter measures the enabled fast path (cached
// instrument, one atomic add).
func BenchmarkEnabledCounter(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
