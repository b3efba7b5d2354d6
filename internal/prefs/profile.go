package prefs

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"cqp/internal/query"
	"cqp/internal/schema"
	"cqp/internal/value"
)

// A preference's condition is a condition of the query language. A
// SelectionCond is a selection edge of the personalization graph, from an
// attribute node to a value node. A JoinCond is a directed join edge:
// doi(L.a = R.b) expresses how strongly preferences on R influence L
// (Section 3), so traversal expands from Left to Right.
type (
	SelectionCond = query.Selection
	JoinCond      = query.Join
)

// Atomic is one atomic preference: a degree of interest attached to either a
// selection or a join condition. Exactly one of Sel, Join is set.
type Atomic struct {
	Sel  *SelectionCond
	Join *JoinCond
	Doi  float64

	// text is Condition() as Profile.Add rendered it for its duplicate guard,
	// kept for every later reader; an atom no profile has taken carries none.
	text string
}

// IsSelection reports whether the preference is a selection preference.
func (a Atomic) IsSelection() bool { return a.Sel != nil }

// Condition renders the underlying condition in SQL syntax.
func (a Atomic) Condition() string {
	switch {
	case a.text != "":
		return a.text
	case a.Sel != nil:
		return a.Sel.String()
	}
	return a.Join.String()
}

// writeCondition writes the condition to b as SelectionCond.String and
// JoinCond.String render it.
func (a Atomic) writeCondition(b *strings.Builder) {
	if a.Sel == nil {
		writeAttr(b, a.Join.Left)
		b.WriteString(" = ")
		writeAttr(b, a.Join.Right)
		return
	}
	var lit [64]byte
	writeAttr(b, a.Sel.Attr)
	b.WriteByte(' ')
	b.WriteString(a.Sel.Op.String())
	b.WriteByte(' ')
	b.Write(a.Sel.Value.AppendSQL(lit[:0]))
}

func writeAttr(b *strings.Builder, r schema.AttrRef) {
	b.WriteString(r.Relation)
	b.WriteByte('.')
	b.WriteString(r.Attr)
}

// String renders the preference in the profile text format.
func (a Atomic) String() string { return doiText(a.Condition(), a.Doi) }

// doiText renders "doi(<cond>) = <doi>", the doi as fmt's %g would.
func doiText(cond string, doi float64) string {
	var b strings.Builder
	b.Grow(len(cond) + 32)
	writeDoi(&b, cond, doi)
	return b.String()
}

func writeDoi(b *strings.Builder, cond string, doi float64) {
	var num [24]byte
	b.WriteString("doi(")
	b.WriteString(cond)
	b.WriteString(") = ")
	b.Write(strconv.AppendFloat(num[:0], doi, 'g', -1, 64))
}

// Profile is a user profile: a set of atomic preferences over the
// personalization graph. It indexes join preferences by their left-hand
// relation and selection preferences by relation for traversal.
type Profile struct {
	atoms      []Atomic
	joinsFrom  map[string][]int    // relation -> indices of join prefs with Left in relation
	selsOn     map[string][]int    // relation -> indices of selection prefs on relation
	fingerSeen map[string]struct{} // duplicate-condition guard
	// validFor is the schema Validate last passed against. A schema only
	// grows, so the verdict holds until Add changes the profile.
	validFor atomic.Pointer[schema.Schema]
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{
		joinsFrom:  make(map[string][]int),
		selsOn:     make(map[string][]int),
		fingerSeen: make(map[string]struct{}),
	}
}

// Add inserts an atomic preference, validating its doi range (NaN is
// outside it), that exactly one condition is present, and that the condition
// is not a duplicate.
func (p *Profile) Add(a Atomic) error {
	if err := checkDoi(a.Doi); err != nil {
		return err
	}
	if (a.Sel == nil) == (a.Join == nil) {
		return fmt.Errorf("prefs: atomic preference must have exactly one of selection/join")
	}
	a.text = Atomic{Sel: a.Sel, Join: a.Join}.Condition() // rendered, whatever text the atom carried
	if err := p.guard(a.text); err != nil {
		return err
	}
	p.validFor.Store(nil)
	p.atoms = append(p.atoms, a)
	m, rel := p.indexOf(a)
	m[rel] = append(m[rel], len(p.atoms)-1)
	return nil
}

func checkDoi(doi float64) error {
	if !(doi >= 0 && doi <= 1) {
		return fmt.Errorf("prefs: doi %g outside [0,1]", doi)
	}
	return nil
}

// guard records a condition text in the duplicate guard, or reports it
// taken.
func (p *Profile) guard(text string) error {
	if _, dup := p.fingerSeen[text]; dup {
		return fmt.Errorf("prefs: duplicate preference on condition %s", text)
	}
	p.fingerSeen[text] = struct{}{}
	return nil
}

// indexOf returns the relation index an atom is listed in, and its key.
func (p *Profile) indexOf(a Atomic) (map[string][]int, string) {
	if a.Sel != nil {
		return p.selsOn, a.Sel.Attr.Relation
	}
	return p.joinsFrom, a.Join.Left.Relation
}

// index lists every atom in the empty relation indexes, each relation's
// positions in atom order in a slice of one slab. Each slice is capped at
// its length, so an Add that extends it copies it out of the slab.
func (p *Profile) index() {
	slab := make([]int, len(p.atoms))
	for _, a := range p.atoms { // count: each key holds a prefix of its length
		m, rel := p.indexOf(a)
		m[rel] = slab[:len(m[rel])+1]
	}
	off := 0
	for _, m := range [...]map[string][]int{p.selsOn, p.joinsFrom} {
		for rel, s := range m {
			m[rel] = slab[off : off : off+len(s)]
			off += len(s)
		}
	}
	for i, a := range p.atoms {
		m, rel := p.indexOf(a)
		m[rel] = append(m[rel], i)
	}
}

// AddSelection inserts a selection preference.
func (p *Profile) AddSelection(attr schema.AttrRef, op query.Op, v value.Value, doi float64) error {
	return p.Add(Atomic{Sel: &SelectionCond{Attr: attr, Op: op, Value: v}, Doi: doi})
}

// AddJoin inserts a directed join preference.
func (p *Profile) AddJoin(left, right schema.AttrRef, doi float64) error {
	return p.Add(Atomic{Join: &JoinCond{Left: left, Right: right}, Doi: doi})
}

// Len returns the number of atomic preferences.
func (p *Profile) Len() int { return len(p.atoms) }

// Atoms returns all atomic preferences in insertion order.
func (p *Profile) Atoms() []Atomic { return append([]Atomic(nil), p.atoms...) }

// Atom returns the i-th atomic preference in insertion order.
func (p *Profile) Atom(i int) Atomic { return p.atoms[i] }

// JoinsFrom returns the positions (as Atom takes them) of the join
// preferences whose left-hand relation is the given one — the edges a
// traversal may follow out of that relation. The slice is the profile's own
// index: read it, do not modify it.
func (p *Profile) JoinsFrom(relation string) []int { return p.joinsFrom[relation] }

// SelectionsOn does the same for the selection preferences on attributes of
// the given relation.
func (p *Profile) SelectionsOn(relation string) []int { return p.selsOn[relation] }

// Validate checks every preference against the schema: attributes resolve,
// selection literals are comparable with their column, join endpoints are
// type-compatible and cross-relation. A profile that passed is not walked
// again for the same schema: the store's check at Put serves every request
// that reads the profile. Safe for concurrent use.
func (p *Profile) Validate(s *schema.Schema) error {
	if s != nil && p.validFor.Load() == s {
		return nil
	}
	for _, a := range p.atoms {
		if a.Sel != nil {
			c, err := s.ResolveAttr(a.Sel.Attr)
			if err != nil {
				return fmt.Errorf("prefs: %s: %v", a, err)
			}
			if !a.Sel.Value.IsNull() && !value.Comparable(a.Sel.Value, kindProbe(c.Type)) {
				return fmt.Errorf("prefs: %s: literal kind %s incompatible with column %s",
					a, a.Sel.Value.Kind(), c.Type)
			}
			continue
		}
		lc, err := s.ResolveAttr(a.Join.Left)
		if err != nil {
			return fmt.Errorf("prefs: %s: %v", a, err)
		}
		rc, err := s.ResolveAttr(a.Join.Right)
		if err != nil {
			return fmt.Errorf("prefs: %s: %v", a, err)
		}
		if lc.Type != rc.Type {
			return fmt.Errorf("prefs: %s: join endpoint types %s and %s differ", a, lc.Type, rc.Type)
		}
		if a.Join.Left.Relation == a.Join.Right.Relation {
			return fmt.Errorf("prefs: %s: join within one relation", a)
		}
	}
	p.validFor.Store(s)
	return nil
}

// kindProbe returns a zero value of the kind for comparability checks.
func kindProbe(k value.Kind) value.Value {
	switch k {
	case value.KindInt:
		return value.Int(0)
	case value.KindFloat:
		return value.Float(0)
	case value.KindString:
		return value.Str("")
	case value.KindBool:
		return value.Bool(false)
	default:
		return value.Null()
	}
}

// String serializes the profile in its text format, one preference per line.
func (p *Profile) String() string {
	var b strings.Builder
	for _, a := range p.atoms {
		writeDoi(&b, a.text, a.Doi)
		b.WriteByte('\n')
	}
	return b.String()
}
