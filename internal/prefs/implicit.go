package prefs

import (
	"fmt"
	"strings"
)

// Implicit is an implicit selection preference (Section 3): a directed
// acyclic path of join preferences through the personalization graph ending
// in an atomic selection preference. Its doi composes the constituent
// atomic dois with f⊗ (Compose).
//
// Example (the paper's p3 ∧ p4):
//
//	MOVIE.did = DIRECTOR.did AND DIRECTOR.name = 'W. Allen'    doi = 1.0 × 0.8
type Implicit struct {
	// Path holds the join conditions in traversal order; empty for an
	// atomic selection preference.
	Path []JoinCond
	// Sel is the terminal selection condition.
	Sel SelectionCond
	// Doi is the composed degree of interest.
	Doi float64

	// cond is Condition() as NewImplicit joined it from the atoms' texts, and
	// selAt where the terminal selection starts in it. An Implicit is not
	// modified once built; a literal carries no text and renders on demand.
	cond  string
	selAt int
}

// NewImplicit composes a path of join atoms with a terminal selection atom,
// computing the doi with f⊗ and verifying acyclicity (no relation visited
// twice).
func NewImplicit(path []Atomic, sel Atomic) (Implicit, error) {
	if !sel.IsSelection() {
		return Implicit{}, fmt.Errorf("prefs: terminal preference %s is not a selection", sel)
	}
	imp := Implicit{Sel: *sel.Sel, Doi: sel.Doi, cond: sel.Condition()}
	if len(path) == 0 {
		return imp, nil
	}
	imp.Path = make([]JoinCond, 0, len(path))
	size := len(imp.cond)
	for i, a := range path {
		if a.IsSelection() {
			return Implicit{}, fmt.Errorf("prefs: path element %s is not a join", a)
		}
		j := *a.Join
		if i > 0 && path[i-1].Join.Right.Relation != j.Left.Relation {
			return Implicit{}, fmt.Errorf("prefs: path is not connected at %s", j)
		}
		// A path is a handful of hops: scanning it beats a set.
		revisits := path[0].Join.Left.Relation == j.Right.Relation
		for _, before := range imp.Path {
			revisits = revisits || before.Right.Relation == j.Right.Relation
		}
		if revisits {
			return Implicit{}, fmt.Errorf("prefs: path revisits relation %s (cyclic)", j.Right.Relation)
		}
		imp.Path = append(imp.Path, j)
		imp.Doi = Compose(imp.Doi, a.Doi)
		size += len(a.Condition()) + len(" AND ")
	}
	if last := imp.Path[len(imp.Path)-1]; last.Right.Relation != imp.Sel.Attr.Relation {
		return Implicit{}, fmt.Errorf("prefs: selection %s not attached to path end %s",
			imp.Sel, last.Right.Relation)
	}
	var cond strings.Builder
	cond.Grow(size)
	for _, a := range path {
		cond.WriteString(a.Condition())
		cond.WriteString(" AND ")
	}
	imp.selAt = cond.Len()
	cond.WriteString(imp.cond)
	imp.cond = cond.String()
	return imp, nil
}

// Anchor returns the relation at which the preference attaches to a query:
// the first join's left relation, or the selection's own relation for an
// atomic selection preference.
func (i Implicit) Anchor() string {
	if len(i.Path) > 0 {
		return i.Path[0].Left.Relation
	}
	return i.Sel.Attr.Relation
}

// text returns the full conjunction in SQL syntax and the offset at which
// its terminal selection starts.
func (i Implicit) text() (string, int) {
	if i.cond != "" {
		return i.cond, i.selAt
	}
	var b strings.Builder
	for _, j := range i.Path {
		b.WriteString(j.String())
		b.WriteString(" AND ")
	}
	at := b.Len()
	b.WriteString(i.Sel.String())
	return b.String(), at
}

// Condition renders the full conjunction in SQL syntax. It is the
// preference's identity wherever one is needed as text: the estimate memo's
// key, a response's preferences, Explain.
func (i Implicit) Condition() string {
	cond, _ := i.text()
	return cond
}

// Split returns Condition in its two parts: the join path's ("" for an
// atomic selection preference; equal for two preferences exactly when their
// paths are) and the terminal selection's.
func (i Implicit) Split() (path, selection string) {
	cond, at := i.text()
	return cond[:at], cond[at:]
}

// String renders the preference with its doi.
func (i Implicit) String() string { return doiText(i.Condition(), i.Doi) }
