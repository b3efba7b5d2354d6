// Package prefs implements the user preference model of Koutrika &
// Ioannidis (ICDE 2004) as adopted by the CQP paper (Section 3): atomic
// selection and join preferences over a personalization graph, implicit
// preferences composed along acyclic paths, and the degree-of-interest
// algebra used to score conjunctions of preferences.
//
// A condition is rendered as text once: Profile.Add keeps what it renders
// for its duplicate guard on the atom (ParseProfile writes every atom's into
// one string per profile), NewImplicit or an Arena joins the atoms' texts,
// and the estimate memo's key, a response's preferences and the SQL writer
// all read that one string.
package prefs

// Compose implements f⊗ (Formula 1/9): the degree of interest in an
// implicit preference is the product of the constituent atomic degrees.
// The product satisfies Formula 2 (it never exceeds the minimum operand)
// because every operand lies in [0, 1].
func Compose(dois ...float64) float64 {
	d := 1.0
	for _, x := range dois {
		d *= x
	}
	return d
}

// Conjunction implements r (Formula 3/10): the degree of interest in a set
// of preferences satisfied together, doi(Px) = 1 − Π(1 − doi(pi)).
// It satisfies Formula 4: adding preferences never decreases the result.
func Conjunction(dois ...float64) float64 {
	var a ConjAccum
	a.Reset()
	for _, d := range dois {
		a.Add(d)
	}
	return a.Doi()
}

// ConjAccum incrementally maintains doi(Px) = 1 − Π(1 − di) as preferences
// enter and leave the set. The paper notes (Section 4.3) that all parameter
// formulas admit incremental computation; search algorithms rely on this.
//
// The zero ConjAccum is NOT ready: call Reset first (or use NewConjAccum).
type ConjAccum struct {
	// prod is Π(1 − di) over the current set.
	prod float64
	n    int
	// ones counts members with doi exactly 1, which zero the product
	// irreversibly; tracking them separately keeps Remove exact.
	ones int
}

// NewConjAccum returns an accumulator over the empty set (doi 0).
func NewConjAccum() *ConjAccum {
	a := &ConjAccum{}
	a.Reset()
	return a
}

// Reset empties the accumulator.
func (a *ConjAccum) Reset() {
	a.prod = 1
	a.n = 0
	a.ones = 0
}

// Add inserts a preference with the given doi into the set.
func (a *ConjAccum) Add(doi float64) {
	a.n++
	if doi >= 1 {
		a.ones++
		return
	}
	a.prod *= 1 - doi
}

// Remove deletes a preference with the given doi from the set. The caller
// must only remove dois previously added. Division keeps this O(1); tiny
// floating-point drift is acceptable for CQP's relaxed accuracy needs.
func (a *ConjAccum) Remove(doi float64) {
	a.n--
	if doi >= 1 {
		a.ones--
		return
	}
	a.prod /= 1 - doi
}

// Len returns the number of preferences in the set.
func (a *ConjAccum) Len() int { return a.n }

// Doi returns doi(Px) for the current set.
func (a *ConjAccum) Doi() float64 {
	if a.ones > 0 {
		return 1
	}
	return 1 - a.prod
}
