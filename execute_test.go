package cqp

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestExecuteTopKTraced: a traced top-k execution carries the same
// per-sub-query spans as a full one (both are one helper), and reports the
// size of the whole answer — in the span's rows attribute and to the
// accuracy tracker — as the full execution does, not the k rows it kept.
func TestExecuteTopKTraced(t *testing.T) {
	db := paperDB(t)
	p := NewPersonalizer(db)
	p.Observe(NewMetrics())
	profile, _ := ParseProfile(figure1)
	q, _ := ParseQuery(db.Schema(), "select title from MOVIE")
	res, err := p.Personalize(q, profile, Problem2(10000), WithAnyMatch())
	if err != nil {
		t.Fatal(err)
	}
	full, err := res.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) < 2 || full.Total != len(full.Rows) {
		t.Fatalf("full execution: %d rows, Total %d; want at least 2, and equal", len(full.Rows), full.Total)
	}
	ctx, tr := StartTrace(context.Background(), "req")
	top, err := res.ExecuteTopKContext(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.End()
	if len(top.Rows) != 1 || top.Total != full.Total {
		t.Errorf("top-1 execution: %d rows, Total %d; want 1 and %d", len(top.Rows), top.Total, full.Total)
	}
	if got := p.EstimatorAccuracy().Last.ActRows; got != float64(full.Total) {
		t.Errorf("accuracy tracker recorded %v rows for the top-1 execution, want the whole answer's %d", got, full.Total)
	}
	exe := tr.Find("execute")
	if exe == nil || len(exe.Children()) != len(res.Preferences) {
		t.Fatalf("top-k execute span lacks its %d sub-query children:\n%s", len(res.Preferences), tr.Tree())
	}
	for _, a := range exe.Attrs() {
		if a.Key == "rows" && a.Value != fmt.Sprint(full.Total) {
			t.Errorf("execute span rows=%s, want the whole answer's %d", a.Value, full.Total)
		}
	}
	tree := tr.Tree()
	for _, want := range []string{"subquery[0]", "subquery[1]", "base=", "rank=", fmt.Sprintf("rows=%d", full.Total)} {
		if !strings.Contains(tree, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, tree)
		}
	}
}

// TestConstraintViolationCounter: an all-match execution is held against
// the problem's own bounds. A cost bound the chosen query's estimate exactly
// meets is exceeded by the real cost (the same blocks plus the CPU time the
// model ignores), a loose one is not; the paper's one-row answer, estimated
// at half a row, overshoots a size window of [0.1, 0.9] and sits inside
// [0.1, 5]. An any-match answer is not the constrained answer and is never
// counted. A top-k execution is accounted by the size of the whole answer
// (UnionResult.Total), not by the k rows it keeps, so an all-match one counts
// exactly as its full execution does: bounds that the answer breaks are
// broken however few of its rows a caller asks for.
func TestConstraintViolationCounter(t *testing.T) {
	db := paperDB(t)
	p := NewPersonalizer(db)
	reg := NewMetrics()
	p.Observe(reg)
	profile, _ := ParseProfile(figure1)
	q, _ := ParseQuery(db.Schema(), "select title from MOVIE")
	violations := func(param string) int64 {
		return reg.Counter("cqp_constraint_violation_total", "param", param).Value()
	}
	execute := func(prob Problem, opts ...Option) *Result {
		t.Helper()
		res, err := p.Personalize(q, profile, prob, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.Execute(); err != nil {
			t.Fatal(err)
		}
		return res
	}

	loose := execute(Problem2(10000))
	if len(loose.Solution.Set) != 2 || violations("cost") != 0 || violations("size") != 0 {
		t.Fatalf("loose bound: %d preferences chosen, %d cost and %d size violations, want 2, 0, 0",
			len(loose.Solution.Set), violations("cost"), violations("size"))
	}
	binding := execute(Problem2(loose.Solution.Cost))
	if len(binding.Solution.Set) != 2 || violations("cost") != 1 {
		t.Fatalf("binding bound %.3f ms: %d preferences chosen, %d cost violations, want 2 and 1",
			loose.Solution.Cost, len(binding.Solution.Set), violations("cost"))
	}
	// Both preferences together are estimated at half a row; one row matches.
	execute(Problem1(0.1, 5))
	if violations("size") != 0 {
		t.Errorf("one row inside [0.1, 5] counted as a size violation")
	}
	execute(Problem1(0.1, 0.9))
	if violations("size") != 1 {
		t.Errorf("one row above [0.1, 0.9]: %d size violations, want 1", violations("size"))
	}
	execute(Problem3(loose.Solution.Cost, 0.1, 0.9), WithAnyMatch())
	if violations("cost") != 1 || violations("size") != 1 {
		t.Errorf("any-match execution was held against the bounds: %d cost, %d size violations",
			violations("cost"), violations("size"))
	}
	// A top-k execution is accounted by the size of the whole answer
	// (UnionResult.Total), not by the k rows it keeps, so an all-match one is
	// held against the bounds exactly as its full execution is.
	res := execute(Problem3(loose.Solution.Cost, 0.1, 0.9))
	if violations("cost") != 2 || violations("size") != 2 {
		t.Fatalf("all-match execution under a binding cmax and [0.1, 0.9]: %d cost, %d size violations, want 2 and 2",
			violations("cost"), violations("size"))
	}
	if _, err := res.ExecuteTopKContext(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if violations("cost") != 3 || violations("size") != 3 {
		t.Errorf("all-match top-1 execution did not count as its full execution did: %d cost, %d size violations, want 3 and 3",
			violations("cost"), violations("size"))
	}
}
