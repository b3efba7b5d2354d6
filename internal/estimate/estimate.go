// Package estimate implements CQP's Parameter Estimation module
// (Sections 4.3 and 7.1 of the paper): approximate cost, result-size and
// degree-of-interest estimates for personalized queries.
//
// Cost model (Formulas 6 and 11): the cost of the personalized query
// Qx = Q ∧ Px rewritten as a union of sub-queries qi is Σ cost(qi), and
// cost(qi) = b × Σ blocks(Rij) over the relations of the sub-query —
// I/O only, no indexes, memory-resident intermediates, negligible
// group-by/having. b defaults to 1 ms per block as in the paper.
//
// Size model: standard System-R style independence estimates. Each
// preference contributes a multiplicative shrink factor ≤ 1 to the base
// query's cardinality, which keeps Formula 8's partial order
// (Px ⊆ Py ⇒ size(Q∧Px) ≥ size(Q∧Py)) valid by construction.
package estimate

import (
	"fmt"
	"sync/atomic"

	"cqp/internal/catalog"
	"cqp/internal/fault"
	"cqp/internal/prefs"
	"cqp/internal/query"
)

// DefaultBlockMillis is b, the per-block read time in milliseconds
// (Section 7.1 of the paper).
const DefaultBlockMillis = 1.0

// Estimator estimates personalized-query parameters from catalog
// statistics.
//
// An Estimator is safe for concurrent use: the estimation entry points
// (QueryCost, QuerySize, SubQueryCost, Shrink) only read the catalog —
// whose maps and histograms are immutable after catalog.Build.
// prefspace.Build leans on this to fan its per-candidate estimations across
// a worker group; a statistics refresh swaps in a whole new Estimator rather
// than mutating this one.
type Estimator struct {
	cat *catalog.Catalog
	// BlockMillis is b, the milliseconds charged per block read.
	BlockMillis float64

	// memo caches per-preference (SubQueryCost, Shrink) pairs across calls
	// and across requests (see memo.go). It lives and dies with this
	// Estimator: a statistics refresh swaps in a new Estimator and the old
	// memo goes with it, so entries never outlive the catalog they were
	// computed from. Atomic so DisableMemo cannot race in-flight builds.
	memo atomic.Pointer[prefMemo]
}

// New returns an estimator over the catalog. bMillis ≤ 0 selects the
// paper's default of 1 ms.
func New(cat *catalog.Catalog, bMillis float64) *Estimator {
	if bMillis <= 0 {
		bMillis = DefaultBlockMillis
	}
	e := &Estimator{cat: cat, BlockMillis: bMillis}
	e.memo.Store(newPrefMemo())
	return e
}

// Catalog exposes the underlying statistics.
func (e *Estimator) Catalog() *catalog.Catalog { return e.cat }

// CheckFault surfaces an injected estimate.histogram fault. The estimation
// entry points return bare float64s by design (they sit inside tight search
// loops), so they cannot fail in-band; callers that can propagate an error —
// prefspace.Build polls it at its estimation sites — call this instead,
// standing in for the stale-statistics and catalog-read failures a real
// optimizer would hit. One atomic load when the harness is disarmed, and
// safe to poll from concurrent estimation workers (the fault harness's
// decisions are atomic, though which worker draws a count-capped fault is
// scheduling-dependent).
func (e *Estimator) CheckFault() error {
	if err := fault.Inject(fault.EstimateHistogram); err != nil {
		return fmt.Errorf("estimate: histogram read: %w", err)
	}
	return nil
}

// QueryCost estimates the execution cost of a conjunctive query in
// milliseconds: b × Σ blocks over its FROM relations (Formula 11).
func (e *Estimator) QueryCost(q *query.Query) float64 {
	var blocks int64
	for _, r := range q.From {
		blocks += e.cat.Blocks(r)
	}
	return float64(blocks) * e.BlockMillis
}

// QuerySize estimates the result cardinality of a conjunctive query under
// the independence assumption: Π |R| × Π joinSel × Π selectionSel.
func (e *Estimator) QuerySize(q *query.Query) float64 {
	size := 1.0
	for _, r := range q.From {
		size *= float64(e.cat.RowCount(r))
	}
	for _, j := range q.Joins {
		size *= e.cat.JoinSelectivity(j.Left, j.Right)
	}
	for _, s := range q.Selections {
		size *= e.cat.Selectivity(s.Attr, s.Op.CatalogOp(), s.Value)
	}
	return size
}

// SubQueryCost estimates cost(Q ∧ p) in milliseconds for one preference:
// b × Σ blocks over Q's relations plus the relations the preference's join
// path introduces. Relations already in Q are not double-charged within
// the one sub-query.
func (e *Estimator) SubQueryCost(q *query.Query, p prefs.Implicit) float64 {
	var blocks int64
	seen := make(map[string]bool, len(q.From)+len(p.Path))
	for _, r := range q.From {
		seen[r] = true
		blocks += e.cat.Blocks(r)
	}
	charge := func(r string) {
		if !seen[r] {
			seen[r] = true
			blocks += e.cat.Blocks(r)
		}
	}
	charge(p.Anchor())
	for _, j := range p.Path {
		charge(j.Right.Relation)
	}
	return float64(blocks) * e.BlockMillis
}

// Shrink estimates the multiplicative factor by which conjoining the
// preference reduces the base query's result cardinality. The raw
// independence estimate is clamped to [0, 1] so that Formula 8 holds in the
// model (a conjunct can never enlarge a result under set semantics).
func (e *Estimator) Shrink(q *query.Query, p prefs.Implicit) float64 {
	f := 1.0
	seen := make(map[string]bool, len(q.From))
	for _, r := range q.From {
		seen[r] = true
	}
	for _, j := range p.Path {
		// Joining in a new relation multiplies cardinality by
		// |R_new| × joinSel; for key/foreign-key joins this is ≈ 1.
		if !seen[j.Right.Relation] {
			f *= float64(e.cat.RowCount(j.Right.Relation))
			seen[j.Right.Relation] = true
		}
		f *= e.cat.JoinSelectivity(j.Left, j.Right)
	}
	f *= e.cat.Selectivity(p.Sel.Attr, p.Sel.Op.CatalogOp(), p.Sel.Value)
	if f > 1 {
		f = 1
	}
	if f < 0 {
		f = 0
	}
	return f
}
