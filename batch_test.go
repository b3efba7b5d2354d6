package cqp

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func batchSetup(t *testing.T) (*Personalizer, *Query, *Profile, float64) {
	t.Helper()
	db := SyntheticMovieDB(300, 1)
	p := NewPersonalizer(db)
	u := SyntheticProfile(30, 2)
	q, err := ParseQuery(db.Schema(), "SELECT title FROM MOVIE")
	if err != nil {
		t.Fatal(err)
	}
	cost, _, _ := p.EstimateQuery(q)
	return p, q, u, cost
}

// TestPersonalizeBatch: duplicates coalesce onto one pipeline run, a
// malformed item fails alone, and results stay aligned with input order.
func TestPersonalizeBatch(t *testing.T) {
	p, q, u, cost := batchSetup(t)
	reg := NewMetrics()
	p.Observe(reg)
	q2, err := ParseQuery(p.db.Schema(), "SELECT title FROM MOVIE WHERE year >= 1990")
	if err != nil {
		t.Fatal(err)
	}
	prob := Problem2(cost * 20)
	items := []BatchItem{
		{Query: q, Profile: u, Problem: prob},                                             // 0: leader
		{Query: q2, Profile: u, Problem: prob},                                            // 1: distinct
		{Query: q, Profile: u, Problem: prob},                                             // 2: dup of 0
		{Query: nil, Profile: u, Problem: prob},                                           // 3: malformed
		{Query: q, Profile: u, Problem: prob},                                             // 4: dup of 0
		{Query: q, Profile: u, Problem: Problem2(cost * 20), Opts: []Option{WithMaxK(5)}}, // 5: distinct opts
	}
	res := p.PersonalizeBatch(context.Background(), items, 4)
	if len(res) != len(items) {
		t.Fatalf("got %d results for %d items", len(res), len(items))
	}
	for _, i := range []int{0, 1, 2, 4, 5} {
		if res[i].Err != nil {
			t.Fatalf("item %d: %v", i, res[i].Err)
		}
		if res[i].Result == nil {
			t.Fatalf("item %d: nil result", i)
		}
	}
	if res[3].Err == nil || !strings.Contains(res[3].Err.Error(), "item 3") {
		t.Errorf("malformed item error = %v, want per-item error naming index 3", res[3].Err)
	}
	if res[3].Result != nil {
		t.Error("malformed item must not carry a result")
	}
	// Duplicates share the leader's outcome without a second run.
	if !res[2].Duplicate || !res[4].Duplicate {
		t.Errorf("items 2 and 4 should be marked duplicates: %+v %+v", res[2], res[4])
	}
	if res[2].Result != res[0].Result || res[4].Result != res[0].Result {
		t.Error("duplicates must share the leader's result")
	}
	if res[0].Duplicate || res[1].Duplicate || res[5].Duplicate {
		t.Error("leaders must not be marked duplicates")
	}
	// Order preservation: each result answers its own query.
	if res[1].Result.SQL == res[0].Result.SQL {
		t.Error("distinct queries produced identical SQL — results misaligned?")
	}
	// Exactly one pipeline run per distinct item: 0, 1, 5.
	if got := reg.Counter("personalize_total").Value(); got != 3 {
		t.Errorf("personalize_total = %d, want 3 (deduplicated runs)", got)
	}
}

// TestBatchDistinctNotDuplicate: a query and its DISTINCT form share a
// fingerprint but not a batch run, as for a profile with no preference on
// the query each answers with its own text.
func TestBatchDistinctNotDuplicate(t *testing.T) {
	p, q, _, cost := batchSetup(t)
	dq, err := ParseQuery(p.db.Schema(), "SELECT DISTINCT title FROM MOVIE")
	if err != nil {
		t.Fatal(err)
	}
	u, err := ParseProfile("doi(DIRECTOR.name = 'nobody') = 0.5\n")
	if err != nil {
		t.Fatal(err)
	}
	res := p.PersonalizeBatch(context.Background(), []BatchItem{
		{Query: q, Profile: u, Problem: Problem2(cost * 20)},
		{Query: dq, Profile: u, Problem: Problem2(cost * 20)},
	}, 2)
	for i, want := range []string{q.SQL(), dq.SQL()} {
		if r := res[i]; r.Err != nil || r.Duplicate || r.Result.SQL != want {
			t.Errorf("item %d: %+v, want its own answer %q", i, r, want)
		}
	}
}

// TestPersonalizeBatchCancelled: a dead context fails every distinct item
// with its error rather than hanging or panicking.
func TestPersonalizeBatchCancelled(t *testing.T) {
	p, q, u, cost := batchSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := p.PersonalizeBatch(ctx, []BatchItem{{Query: q, Profile: u, Problem: Problem2(cost * 20)}}, 0)
	if !errors.Is(res[0].Err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", res[0].Err)
	}
}

// TestMergeAnyMatchRejectedUpFront pins the option-validation fix: the
// incompatible WithMergedSubQueries+WithAnyMatch combination must be
// rejected before the prefspace build, so the estimator does no work — not
// even a memo lookup, which every extracted preference costs.
func TestMergeAnyMatchRejectedUpFront(t *testing.T) {
	p, q, u, cost := batchSetup(t)
	hits0, misses0 := p.EstimateMemoCounts()
	_, err := p.Personalize(q, u, Problem2(cost*20), WithMergedSubQueries(), WithAnyMatch())
	if err == nil || !strings.Contains(err.Error(), "all-match") {
		t.Fatalf("err = %v, want merged/any-match incompatibility", err)
	}
	if hits1, misses1 := p.EstimateMemoCounts(); hits1 != hits0 || misses1 != misses0 {
		t.Errorf("estimator answered %d memo lookups for an invalid option combo, want 0",
			hits1-hits0+misses1-misses0)
	}
	// The counter does see a build: the same request without the conflict.
	if _, err := p.Personalize(q, u, Problem2(cost*20), WithMergedSubQueries()); err != nil {
		t.Fatal(err)
	}
	if hits1, misses1 := p.EstimateMemoCounts(); hits1+misses1 == hits0+misses0 {
		t.Error("a valid personalization left the memo counters untouched")
	}
}

// TestTopKOptsNoAliasing pins the slice-aliasing fix: PersonalizeTopK must
// not write WithAnyMatch into the caller's backing array when the passed
// opts slice has spare capacity.
func TestTopKOptsNoAliasing(t *testing.T) {
	p, q, u, cost := batchSetup(t)
	backing := make([]Option, 1, 4)
	backing[0] = WithMaxK(8)
	// mine shares backing's array; the old in-place append would overwrite
	// its second element with WithAnyMatch.
	mine := append(backing, WithStateBudget(123456))
	if _, err := p.PersonalizeTopK(q, u, cost*20, 3, backing...); err != nil {
		t.Fatal(err)
	}
	var o options
	for _, fn := range mine {
		fn(&o)
	}
	if o.budget != 123456 {
		t.Errorf("caller's option slice was clobbered: budget = %d, want 123456", o.budget)
	}
	if o.anyMatch {
		t.Error("WithAnyMatch leaked into the caller's backing array")
	}
}
