package prefs

import (
	"fmt"
	"strconv"
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
	var hops []JoinCond
	if len(path) > 0 {
		hops = make([]JoinCond, len(path))
		for i, a := range path {
			if a.Join != nil {
				hops[i] = *a.Join
			}
		}
	}
	var ar Arena
	return ar.Implicit(path, hops, sel)
}

// Arena hands out the condition texts of the implicit preferences one
// extraction composes as substrings of shared blocks. A block is written
// once, front to back, and a full one is replaced by a new one twice its
// size, so every text handed out stays valid and unchanged. The zero Arena
// is ready to use; Grow sizes its first block.
type Arena struct {
	text strings.Builder
}

// Grow makes room for at least n more bytes of condition text without
// another allocation.
func (ar *Arena) Grow(n int) {
	if ar.text.Cap()-ar.text.Len() < n {
		n = max(n, 2*ar.text.Cap())
		ar.text.Reset()
		ar.text.Grow(n)
	}
}

// Implicit is NewImplicit with the condition text carved from the arena.
// hops holds the path's join conditions in order and becomes the
// preference's Path as it is, so preferences on one path can share one:
// it must not be written afterwards.
func (ar *Arena) Implicit(path []Atomic, hops []JoinCond, sel Atomic) (Implicit, error) {
	if !sel.IsSelection() {
		return Implicit{}, fmt.Errorf("prefs: terminal preference %s is not a selection", sel)
	}
	imp := Implicit{Sel: *sel.Sel, Doi: sel.Doi, cond: sel.Condition()}
	if len(path) == 0 {
		return imp, nil
	}
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
		for _, before := range path[:i] {
			revisits = revisits || before.Join.Right.Relation == j.Right.Relation
		}
		if revisits {
			return Implicit{}, fmt.Errorf("prefs: path revisits relation %s (cyclic)", j.Right.Relation)
		}
		imp.Doi = Compose(imp.Doi, a.Doi)
		size += len(a.Condition()) + len(" AND ")
	}
	if last := path[len(path)-1].Join; last.Right.Relation != imp.Sel.Attr.Relation {
		return Implicit{}, fmt.Errorf("prefs: selection %s not attached to path end %s",
			imp.Sel, last.Right.Relation)
	}
	imp.Path = hops[:len(path):len(path)]
	ar.Grow(size)
	at := ar.text.Len()
	for _, a := range path {
		ar.text.WriteString(a.Condition())
		ar.text.WriteString(" AND ")
	}
	imp.selAt = ar.text.Len() - at
	ar.text.WriteString(imp.cond)
	imp.cond = ar.text.String()[at:]
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

// AppendStrings appends String() of the n preferences at(0) … at(n-1) to
// dst. The texts are substrings of one block, sized before it is written:
// one allocation for all n of them.
func AppendStrings(dst []string, n int, at func(int) Implicit) []string {
	var num [24]byte
	size := 0
	for k := range n {
		imp := at(k)
		size += len("doi() = ") + len(imp.Condition()) + len(strconv.AppendFloat(num[:0], imp.Doi, 'g', -1, 64))
	}
	var b strings.Builder
	b.Grow(size)
	for k := range n {
		imp := at(k)
		from := b.Len()
		writeDoi(&b, imp.Condition(), imp.Doi)
		dst = append(dst, b.String()[from:])
	}
	return dst
}
