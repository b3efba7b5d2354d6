package cqp

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cqp/internal/obs"
)

// TestTracedPipeline drives one personalization and execution under a trace
// and checks that every Figure-2 phase appears in the span tree with a
// duration.
func TestTracedPipeline(t *testing.T) {
	db := paperDB(t)
	p := NewPersonalizer(db)
	profile, err := ParseProfile(figure1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(db.Schema(), "select title from MOVIE")
	if err != nil {
		t.Fatal(err)
	}

	ctx, tr := StartTrace(context.Background(), "personalize-request")
	res, err := p.PersonalizeContext(ctx, q, profile, Problem2(10000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.ExecuteContext(ctx); err != nil {
		t.Fatal(err)
	}
	tr.End()

	for _, phase := range []string{"personalize", "prefspace", "estimate", "search", "construct", "execute"} {
		sp := tr.Find(phase)
		if sp == nil {
			t.Fatalf("span tree missing phase %q:\n%s", phase, tr.Tree())
		}
		if sp.Duration() < 0 {
			t.Errorf("phase %q has negative duration", phase)
		}
	}
	// Execution spawns one child span per sub-query.
	exe := tr.Find("execute")
	if got := len(exe.Children()); got != 2 {
		t.Errorf("execute span has %d sub-query children, want 2:\n%s", got, tr.Tree())
	}
	// A first execution fills B and computes the row marks its bitmaps read.
	attrs := make(map[string]string)
	for _, a := range exe.Attrs() {
		attrs[a.Key] = a.Value
	}
	if attrs["base"] != "fill" || attrs["marks_hit"] != "0" || attrs["marks_built"] == "" || attrs["marks_built"] == "0" {
		t.Errorf("execute span attributes %v: want a fill whose marks were all built", attrs)
	}
	tree := tr.Tree()
	for _, want := range []string{"personalize-request", "  personalize", "subquery[0]", "subquery[1]"} {
		if !strings.Contains(tree, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, tree)
		}
	}
}

// TestTracedFront: a traced frontier enumeration laps the same three phases
// as a personalization, each a child of the trace it runs under, with the
// build's estimator calls under prefspace.
func TestTracedFront(t *testing.T) {
	db := paperDB(t)
	p := NewPersonalizer(db)
	profile, err := ParseProfile(figure1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(db.Schema(), "select title from MOVIE")
	if err != nil {
		t.Fatal(err)
	}
	ctx, tr := StartTrace(context.Background(), "front")
	if _, err := p.PersonalizeFrontContext(ctx, q, profile, 10000, 0, 0, 4); err != nil {
		t.Fatal(err)
	}
	tr.End()
	var names []string
	for _, c := range tr.Children() {
		names = append(names, c.Name())
	}
	if strings.Join(names, " ") != "prefspace search construct" {
		t.Fatalf("front trace children %v, want prefspace search construct:\n%s", names, tr.Tree())
	}
	if ps := tr.Find("prefspace"); len(ps.Children()) != 1 || ps.Children()[0].Name() != "estimate" {
		t.Fatalf("prefspace lacks its estimate child:\n%s", tr.Tree())
	}
}

// TestObservedPipelineMetrics attaches a registry and checks that every
// layer — search, storage, executor, estimator accuracy — records into it.
func TestObservedPipelineMetrics(t *testing.T) {
	db := paperDB(t)
	p := NewPersonalizer(db)
	reg := NewMetrics()
	p.Observe(reg)
	profile, _ := ParseProfile(figure1)
	q, _ := ParseQuery(db.Schema(), "select title from MOVIE")

	res, err := p.Personalize(q, profile, Problem2(10000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Execute(); err != nil {
		t.Fatal(err)
	}

	names := make(map[string]bool)
	for _, m := range reg.Snapshot() {
		names[m.Name] = true
	}
	for _, want := range []string{
		"personalize_total", "personalize_ms",
		"search_solves_total", "search_states_visited_total", "search_ms",
		"storage_scans_total", "storage_block_reads_total", "storage_rows_scanned_total",
		"exec_unions_total", "exec_subquery_ms", "exec_block_reads_total",
		"exec_base_cache_mark_hits_total", "exec_base_cache_mark_misses_total",
		"estimator_qerror_cost", "estimator_qerror_size",
	} {
		if !names[want] {
			t.Errorf("registry missing series %q (have %v)", want, names)
		}
	}
	if v := reg.Counter("personalize_total").Value(); v != 1 {
		t.Errorf("personalize_total = %d, want 1", v)
	}
	acc := p.EstimatorAccuracy()
	if acc.Queries != 1 {
		t.Fatalf("accuracy queries = %d, want 1", acc.Queries)
	}
	if acc.MeanCostQErr < 1 || acc.MeanSizeQErr < 1 {
		t.Errorf("q-errors below 1: %+v", acc)
	}
	// The all-match answer is 1 row against an independence estimate — the
	// recorded actuals must match the execution.
	if acc.Last.ActRows != 1 {
		t.Errorf("actual rows = %v, want 1", acc.Last.ActRows)
	}

	// Detaching stops recording.
	p.Observe(nil)
	if _, err := p.Personalize(q, profile, Problem2(10000)); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("personalize_total").Value(); v != 1 {
		t.Errorf("detached personalizer still recorded: personalize_total = %d", v)
	}
}

// TestDisabledObservabilityIsInert verifies the default path stays free of
// observability artifacts: no registry, no trace, nil accuracy.
func TestDisabledObservabilityIsInert(t *testing.T) {
	db := paperDB(t)
	p := NewPersonalizer(db)
	if p.Metrics() != nil {
		t.Error("fresh personalizer has a registry")
	}
	profile, _ := ParseProfile(figure1)
	q, _ := ParseQuery(db.Schema(), "select title from MOVIE")
	res, err := p.Personalize(q, profile, Problem2(10000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Execute(); err != nil {
		t.Fatal(err)
	}
	if s := p.EstimatorAccuracy(); s.Queries != 0 {
		t.Errorf("accuracy recorded without a registry: %+v", s)
	}
	if got := obs.FromContext(context.Background()); got != nil {
		t.Errorf("background context carries a span: %v", got)
	}
}

// TestRefreshKeepsObservability checks that rebuilding statistics does not
// silently drop estimator timing or the registry wiring.
func TestRefreshKeepsObservability(t *testing.T) {
	db := paperDB(t)
	p := NewPersonalizer(db)
	reg := NewMetrics()
	p.Observe(reg)
	p.Refresh()
	profile, _ := ParseProfile(figure1)
	q, _ := ParseQuery(db.Schema(), "select title from MOVIE")

	ctx, tr := StartTrace(context.Background(), "req")
	if _, err := p.PersonalizeContext(ctx, q, profile, Problem2(10000)); err != nil {
		t.Fatal(err)
	}
	tr.End()
	if tr.Find("estimate") == nil {
		t.Errorf("estimate span lost after Refresh:\n%s", tr.Tree())
	}
	if p.Metrics() != reg {
		t.Error("registry lost after Refresh")
	}
}

// TestEstimateSpanPerRequest: the "estimate" child of a request's prefspace
// span is that request's own — the calls its build made and the time it
// spent in them — however many other requests share the estimator. With the
// memo off every run makes the same calls, so each of 400 concurrent traces
// must report exactly what a run alone reports, and no child may outlast
// the span it hangs under.
func TestEstimateSpanPerRequest(t *testing.T) {
	db := SyntheticMovieDB(300, 1)
	p := NewPersonalizer(db)
	p.Observe(NewMetrics()) // as cqpd runs it
	p.SetEstimateMemo(false)
	u := SyntheticProfile(60, 3)
	q, err := ParseQuery(db.Schema(), "SELECT title FROM MOVIE WHERE year >= 1950")
	if err != nil {
		t.Fatal(err)
	}
	cost, _, _ := p.EstimateQuery(q)
	// estimateOf runs one traced personalization and returns its estimate
	// child's calls attribute, or what is wrong with the tree.
	estimateOf := func() (string, error) {
		ctx, tr := StartTrace(context.Background(), "req")
		if _, err := p.PersonalizeContext(ctx, q, u, Problem2(cost*8)); err != nil {
			return "", err
		}
		tr.End()
		ps := tr.Find("prefspace")
		if ps == nil {
			return "", fmt.Errorf("no prefspace span:\n%s", tr.Tree())
		}
		for _, c := range ps.Children() {
			if c.Name() != "estimate" {
				continue
			}
			if c.Duration() <= 0 || c.Duration() > ps.Duration() {
				return "", fmt.Errorf("estimate took %v inside a prefspace span of %v", c.Duration(), ps.Duration())
			}
			for _, a := range c.Attrs() {
				if a.Key == "calls" {
					return a.Value, nil
				}
			}
		}
		return "", fmt.Errorf("no estimate child with a calls attribute under prefspace:\n%s", tr.Tree())
	}
	solo, err := estimateOf()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := strconv.Atoi(solo); n < 2+2*20 {
		t.Fatalf("a memo-off K = 20 build reports %s estimator calls, want at least 42", solo)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if calls, err := estimateOf(); err != nil {
					t.Error(err)
					return
				} else if calls != solo {
					t.Errorf("a concurrent request was billed %s estimator calls, %s alone", calls, solo)
					return
				}
			}
		}()
	}
	wg.Wait()
}
