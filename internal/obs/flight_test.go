package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q", []float64{10, 20, 40})
	// 100 observations uniformly filling the 0–10 bucket.
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	if got := h.Quantile(0.5); got != 5 {
		t.Fatalf("p50 of a single full bucket = %g, want 5 (midpoint interpolation)", got)
	}
	if got := h.Quantile(1); got != 10 {
		t.Fatalf("p100 = %g, want the bucket's upper bound 10", got)
	}

	// Second histogram: 50 in (10,20], 50 in (20,40].
	h2 := reg.Histogram("q2", []float64{10, 20, 40})
	for i := 0; i < 50; i++ {
		h2.Observe(15)
		h2.Observe(30)
	}
	if got := h2.Quantile(0.5); got != 20 {
		t.Fatalf("p50 = %g, want 20 (end of the first occupied bucket)", got)
	}
	if got := h2.Quantile(0.75); got != 30 {
		t.Fatalf("p75 = %g, want 30 (midpoint of the second occupied bucket)", got)
	}
	// Rank interpolates linearly inside a bucket.
	if got := h2.Quantile(0.25); got != 15 {
		t.Fatalf("p25 = %g, want 15", got)
	}

	// +Inf bucket clamps to the last finite bound.
	h3 := reg.Histogram("q3", []float64{10})
	h3.Observe(1e9)
	if got := h3.Quantile(0.99); got != 10 {
		t.Fatalf("+Inf-bucket quantile = %g, want last finite bound 10", got)
	}

	// Empty and nil histograms report NaN.
	h4 := reg.Histogram("q4", []float64{10})
	if got := h4.Quantile(0.5); got == got {
		t.Fatalf("empty histogram quantile = %g, want NaN", got)
	}
	var hn *Histogram
	if got := hn.Quantile(0.5); got == got {
		t.Fatalf("nil histogram quantile = %g, want NaN", got)
	}

	// Clamping: out-of-range p behaves as 0 and 1.
	if got := h2.Quantile(-3); got != h2.Quantile(0) {
		t.Fatalf("p=-3 (%g) should clamp to p=0 (%g)", got, h2.Quantile(0))
	}
	if got := h2.Quantile(7); got != h2.Quantile(1) {
		t.Fatalf("p=7 (%g) should clamp to p=1 (%g)", got, h2.Quantile(1))
	}
}

func TestRenderShowsQuantiles(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < 10; i++ {
		reg.Histogram("render_ms", DurationBucketsMS).Observe(3)
	}
	out := reg.Render()
	if !strings.Contains(out, "p50") || !strings.Contains(out, "p99") {
		t.Fatalf("Render() lacks p50/p99:\n%s", out)
	}
}

func TestSanitizeRequestID(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
	}{
		{"abc-123_XYZ", "abc-123_XYZ"},
		{"", ""},
		{strings.Repeat("a", MaxRequestIDLen), strings.Repeat("a", MaxRequestIDLen)},
		{strings.Repeat("a", MaxRequestIDLen+1), ""}, // oversized
		{"has space", ""},        // space
		{"tab\there", ""},        // control char
		{"new\nline", ""},        // log injection
		{"carriage\rreturn", ""}, // header smuggling
		{"unicode-é", ""},        // non-ASCII
		{"del\x7f", ""},
	} {
		if got := SanitizeRequestID(tc.in); got != tc.want {
			t.Errorf("SanitizeRequestID(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	if id := NewRequestID(); SanitizeRequestID(id) != id {
		t.Fatalf("NewRequestID() = %q does not pass its own sanitizer", id)
	}
	if NewRequestID() == NewRequestID() {
		t.Fatal("NewRequestID() returned the same ID twice")
	}
}

func TestRequestAttribution(t *testing.T) {
	r := NewRequest("personalize", "req-1")
	r.AddPhase(PhaseParse, 2*time.Millisecond)
	r.AddPhase(PhaseQueue, 1*time.Millisecond)
	r.AddPhase(PhaseSearch, 5*time.Millisecond)
	id, total, phases := r.Attribution()
	if id != "req-1" {
		t.Fatalf("id = %q", id)
	}
	if phases[PhaseParse] != 2*time.Millisecond || phases[PhaseSearch] != 5*time.Millisecond {
		t.Fatalf("phases = %v", phases)
	}
	// 8 ms charged inside a shorter wall time: nothing is left over, and
	// the named phases alone cover the total.
	if phases[PhaseOther] != 0 {
		t.Fatalf("other = %v with 8ms charged in %v", phases[PhaseOther], total)
	}
	var sum time.Duration
	for name, d := range phases {
		if name != PhaseOther {
			sum += d
		}
	}
	if sum < total*9/10 {
		t.Fatalf("named phases cover %v of %v wall (< 90%%)", sum, total)
	}

	r.Finish(200, "")
	snap := r.Snapshot()
	if snap.Status != 200 || snap.PhasesUS[PhaseSearch] != 5000 || snap.PhasesUS[PhaseOther] != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	var snapSum int64
	for name, us := range snap.PhasesUS {
		if name != PhaseOther {
			snapSum += us
		}
	}
	if snapSum < snap.TotalUS*9/10 {
		t.Fatalf("sealed named phases cover %dus of %dus wall", snapSum, snap.TotalUS)
	}
}

// TestLapsContiguous: each lap charges the record exactly the duration of
// the span it hangs, the spans follow one another with no gap, and the laps
// add up to the clock's whole run. A clock over the record alone hangs
// nothing, and an inert clock charges nothing.
func TestLapsContiguous(t *testing.T) {
	r := NewRequest("personalize", "req-1")
	tr := r.Trace()
	ctx := ContextWithRequest(context.Background(), r)
	begin := time.Now()
	lp := StartLaps(ctx)
	phases := []string{PhasePrefspace, PhaseSearch, PhaseConstruct}
	var spans []*Span
	for i, phase := range phases {
		time.Sleep(time.Duration(i+1) * time.Millisecond)
		s := lp.Lap(phase, Attr{Key: "i", Value: fmt.Sprint(i)})
		if s == nil {
			t.Fatalf("lap %q under a span returned no span", phase)
		}
		spans = append(spans, s)
	}
	run := time.Since(begin)
	if got := tr.Children(); len(got) != len(phases) {
		t.Fatalf("trace has %d children, want %d:\n%s", len(got), len(phases), tr.Tree())
	}
	_, _, charged := r.Attribution()
	var sum time.Duration
	for i, s := range spans {
		if s.Name() != phases[i] || charged[phases[i]] != s.Duration() {
			t.Fatalf("lap %q charged %v, its span %q lasts %v", phases[i], charged[phases[i]], s.Name(), s.Duration())
		}
		if a := s.Attrs(); len(a) != 1 || a[0].Value != fmt.Sprint(i) {
			t.Fatalf("lap %q attrs = %v", phases[i], a)
		}
		if i > 0 && !s.start.Equal(spans[i-1].start.Add(spans[i-1].Duration())) {
			t.Fatalf("lap %q does not start where %q ended", phases[i], phases[i-1])
		}
		sum += s.Duration()
	}
	if sum <= 0 || sum > run {
		t.Fatalf("laps sum to %v over a %v run", sum, run)
	}

	shell := NewRequest("execute", "req-2")
	slp := shell.Laps()
	time.Sleep(time.Millisecond)
	if s := slp.Lap(PhaseParse); s != nil {
		t.Fatal("a record-only clock hung a span")
	}
	if snap := shell.Snapshot(); snap.PhasesUS[PhaseParse] < 1000 {
		t.Fatalf("record-only lap charged %dus since the record's birth, want ≥ 1000", snap.PhasesUS[PhaseParse])
	}
	var inert Laps
	if inert.Lap(PhaseParse) != nil {
		t.Fatal("an inert clock hung a span")
	}
	var nilRec *Request
	idle := nilRec.Laps()
	if idle.Lap(PhaseParse) != nil {
		t.Fatal("a nil record's clock hung a span")
	}
}

func TestRequestTruncation(t *testing.T) {
	r := NewRequest("personalize", strings.Repeat("x", 500))
	r.SetProfile(strings.Repeat("p", 5000))
	r.Finish(500, strings.Repeat("e", 1<<20))
	snap := r.Snapshot()
	if len(snap.ID) > MaxRequestIDLen {
		t.Fatalf("ID not truncated: %d bytes", len(snap.ID))
	}
	if len(snap.Profile) > maxProfileLen {
		t.Fatalf("profile not truncated: %d bytes", len(snap.Profile))
	}
	if len(snap.Error) > maxErrLen {
		t.Fatalf("error not truncated: %d bytes", len(snap.Error))
	}
}

func TestFlightWraparound(t *testing.T) {
	f := NewFlight(8)
	for i := 0; i < 20; i++ {
		r := NewRequest("personalize", fmt.Sprintf("id-%02d", i))
		r.Finish(200, "")
		f.Add(r)
	}
	got := f.Snapshot(Filter{})
	// The ring holds the last 8; the slow tail may retain earlier ones but
	// never more than its cap, and the union is bounded.
	if len(got) > 8+slowestCap+erroredCap {
		t.Fatalf("retained %d records, beyond every bound", len(got))
	}
	if _, _, ok := f.Get("id-19"); !ok {
		t.Fatal("newest record evicted")
	}
	if f.Count() != 20 {
		t.Fatalf("Count() = %d, want 20", f.Count())
	}
	// Disabled recorder retains nothing.
	off := NewFlight(0)
	r := NewRequest("personalize", "id")
	r.Finish(200, "")
	off.Add(r)
	if got := off.Snapshot(Filter{}); len(got) != 0 {
		t.Fatalf("disabled recorder retained %d records", len(got))
	}
}

func TestFlightTailRetainsErrored(t *testing.T) {
	f := NewFlight(4)
	bad := NewRequest("personalize", "errored-one")
	bad.Finish(500, "injected")
	f.Add(bad)
	deg := NewRequest("personalize", "degraded-one")
	deg.SetRung("stale")
	deg.Finish(200, "")
	f.Add(deg)
	// Flood the ring with healthy fast requests.
	for i := 0; i < 100; i++ {
		r := NewRequest("personalize", fmt.Sprintf("ok-%d", i))
		r.Finish(200, "")
		f.Add(r)
	}
	if _, _, ok := f.Get("errored-one"); !ok {
		t.Fatal("errored request evicted despite tail sampling")
	}
	snap, _, ok := f.Get("degraded-one")
	if !ok {
		t.Fatal("degraded request evicted despite tail sampling")
	}
	if snap.Rung != "stale" {
		t.Fatalf("rung = %q, want stale", snap.Rung)
	}
}

func TestFlightFilters(t *testing.T) {
	f := NewFlight(32)
	for i := 0; i < 10; i++ {
		r := NewRequest("personalize", fmt.Sprintf("p-%d", i))
		r.Finish(200, "")
		f.Add(r)
	}
	r := NewRequest("front", "f-1")
	r.Finish(503, "exhausted")
	f.Add(r)
	if got := f.Snapshot(Filter{Endpoint: "front"}); len(got) != 1 || got[0].ID != "f-1" {
		t.Fatalf("endpoint filter: %+v", got)
	}
	if got := f.Snapshot(Filter{Status: 503}); len(got) != 1 {
		t.Fatalf("status filter: %+v", got)
	}
	if got := f.Snapshot(Filter{Limit: 3}); len(got) != 3 {
		t.Fatalf("limit: %d", len(got))
	}
	if got := f.Snapshot(Filter{MinTotal: time.Hour}); len(got) != 0 {
		t.Fatalf("min-latency filter: %+v", got)
	}
	all := f.Snapshot(Filter{})
	for i := 1; i < len(all); i++ {
		if all[i].Start.After(all[i-1].Start) {
			t.Fatal("snapshot not sorted newest-first")
		}
	}
}

// TestFlightConcurrency exercises concurrent writers against concurrent
// /debug/requests-shaped readers under -race: Add, Snapshot, and Get must
// be safe together, and the retained set must stay bounded.
func TestFlightConcurrency(t *testing.T) {
	f := NewFlight(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r := NewRequest("personalize", fmt.Sprintf("w%d-%d", w, i))
				r.AddPhase(PhaseSearch, time.Duration(i)*time.Microsecond)
				status := 200
				if i%17 == 0 {
					status = 500
				}
				r.Finish(status, "")
				f.Add(r)
			}
		}(w)
	}
	for rdr := 0; rdr < 3; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snaps := f.Snapshot(Filter{Limit: 16})
				if len(snaps) > 0 {
					f.Get(snaps[0].ID)
				}
			}
		}()
	}
	// Writers finish first, then release the readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done
	if got := len(f.Snapshot(Filter{})); got > 64+slowestCap+erroredCap {
		t.Fatalf("retained %d records, beyond every bound", got)
	}
}

func TestSpanJSON(t *testing.T) {
	tr := NewTrace("personalize")
	p := tr.StartChild("personalize")
	p.AddChild(PhasePrefspace, 3*time.Millisecond, Attr{Key: "k", Value: "20"})
	p.AddChild(PhaseSearch, 7*time.Millisecond)
	p.End()
	tr.AddChild(PhaseExecute, 2*time.Millisecond)
	tr.End()

	js := tr.JSON()
	if js == nil || js.Name != "personalize" || len(js.Children) != 2 {
		t.Fatalf("JSON() = %+v", js)
	}
	if js.Children[0].Children[0].Name != PhasePrefspace || js.Children[0].Children[0].Attrs[0].Key != "k" {
		t.Fatalf("JSON() children = %+v", js.Children[0])
	}
	var np *Span
	if np.JSON() != nil {
		t.Fatal("nil span JSON not nil")
	}
}

func TestSLOReport(t *testing.T) {
	s := NewSLO(6, 10*time.Second, nil)
	now := time.Unix(1000, 0)
	s.now = func() time.Time { return now }
	for i := 0; i < 98; i++ {
		s.Record("personalize", 2*time.Millisecond, 200, "leader", "")
	}
	s.Record("personalize", 80*time.Millisecond, 500, "solo", "")
	s.Record("personalize", 30*time.Millisecond, 200, "follower", "stale")
	s.Record("topk", time.Millisecond, 200, "hit", "")

	rep := s.Report()
	p := rep["personalize"]
	if p.Count != 100 {
		t.Fatalf("count = %d", p.Count)
	}
	if p.ErrorRate != 0.01 || p.DegradedRate != 0.01 || p.CoalesceHitRatio != 0.01 {
		t.Fatalf("rates = %+v", p)
	}
	if !(p.P50MS > 0 && p.P50MS <= 2.5) {
		t.Fatalf("p50 = %g, want within the 2ms bucket", p.P50MS)
	}
	if p.P999MS < p.P50MS || p.P99MS < p.P50MS {
		t.Fatalf("quantiles not monotone: %+v", p)
	}
	if rep["topk"].CacheHitRatio != 1 {
		t.Fatalf("topk hit ratio = %g", rep["topk"].CacheHitRatio)
	}

	// Advance beyond the window: old slots fall out of the report.
	now = now.Add(2 * time.Minute)
	if rep := s.Report(); len(rep) != 0 {
		t.Fatalf("expired window still reports: %+v", rep)
	}
	// New traffic starts a fresh window.
	s.Record("personalize", time.Millisecond, 200, "solo", "")
	if rep := s.Report(); rep["personalize"].Count != 1 {
		t.Fatalf("fresh window: %+v", rep)
	}
}
