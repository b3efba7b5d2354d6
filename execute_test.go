package cqp

import (
	"context"
	"strings"
	"testing"
)

// TestExecuteTopKTraced: a traced top-k execution carries the same
// per-sub-query spans as a full one (both are one helper).
func TestExecuteTopKTraced(t *testing.T) {
	db := paperDB(t)
	p := NewPersonalizer(db)
	profile, _ := ParseProfile(figure1)
	q, _ := ParseQuery(db.Schema(), "select title from MOVIE")
	res, err := p.Personalize(q, profile, Problem2(10000), WithAnyMatch())
	if err != nil {
		t.Fatal(err)
	}
	ctx, tr := StartTrace(context.Background(), "req")
	if _, err := res.ExecuteTopKContext(ctx, 2); err != nil {
		t.Fatal(err)
	}
	tr.End()
	exe := tr.Find("execute")
	if exe == nil || len(exe.Children()) != len(res.Preferences) {
		t.Fatalf("top-k execute span lacks its %d sub-query children:\n%s", len(res.Preferences), tr.Tree())
	}
	tree := tr.Tree()
	for _, want := range []string{"subquery[0]", "subquery[1]", "base=", "rank="} {
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
// [0.1, 5]; top-k and any-match answers are not the constrained answer and
// are never counted.
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
	res, err := p.Personalize(q, profile, Problem3(loose.Solution.Cost, 0.1, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.ExecuteTopKContext(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if violations("cost") != 1 || violations("size") != 1 {
		t.Errorf("any-match or top-k execution was held against the bounds: %d cost, %d size violations",
			violations("cost"), violations("size"))
	}
}
