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

// SelectionCond is a potential selection condition — a selection edge of the
// personalization graph from an attribute node to a value node.
type SelectionCond struct {
	Attr  schema.AttrRef
	Op    query.Op
	Value value.Value
}

// String renders the condition in SQL syntax.
func (c SelectionCond) String() string {
	return c.Attr.Relation + "." + c.Attr.Attr + " " + c.Op.String() + " " + c.Value.SQL()
}

// AsSelection converts the condition to a query selection.
func (c SelectionCond) AsSelection() query.Selection {
	return query.Selection{Attr: c.Attr, Op: c.Op, Value: c.Value}
}

// JoinCond is a directed potential join condition — a join edge of the
// personalization graph. Direction matters: doi(L.a = R.b) expresses how
// strongly preferences on R influence L (Section 3), so traversal expands
// from L to R.
type JoinCond struct {
	Left, Right schema.AttrRef
}

// String renders the condition in SQL syntax.
func (c JoinCond) String() string { return c.Left.String() + " = " + c.Right.String() }

// AsJoin converts the condition to an (undirected) query join.
func (c JoinCond) AsJoin() query.Join {
	return query.Join{Left: c.Left, Right: c.Right}
}

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
	joinsFrom  map[string][]int // relation -> indices of join prefs with Left in relation
	selsOn     map[string][]int // relation -> indices of selection prefs on relation
	fingerSeen map[string]bool  // duplicate-condition guard
	// validFor is the schema Validate last passed against. A schema only
	// grows, so the verdict holds until Add changes the profile.
	validFor atomic.Pointer[schema.Schema]
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{
		joinsFrom:  make(map[string][]int),
		selsOn:     make(map[string][]int),
		fingerSeen: make(map[string]bool),
	}
}

// Add inserts an atomic preference, validating its doi range, that exactly
// one condition is present, and that the condition is not a duplicate.
func (p *Profile) Add(a Atomic) error {
	if a.Doi < 0 || a.Doi > 1 {
		return fmt.Errorf("prefs: doi %g outside [0,1]", a.Doi)
	}
	if (a.Sel == nil) == (a.Join == nil) {
		return fmt.Errorf("prefs: atomic preference must have exactly one of selection/join")
	}
	a.text = Atomic{Sel: a.Sel, Join: a.Join}.Condition() // rendered, whatever text the atom carried
	if p.fingerSeen[a.text] {
		return fmt.Errorf("prefs: duplicate preference on condition %s", a.text)
	}
	p.fingerSeen[a.text] = true
	p.validFor.Store(nil)
	idx := len(p.atoms)
	p.atoms = append(p.atoms, a)
	if a.Sel != nil {
		rel := a.Sel.Attr.Relation
		p.selsOn[rel] = append(p.selsOn[rel], idx)
	} else {
		rel := a.Join.Left.Relation
		p.joinsFrom[rel] = append(p.joinsFrom[rel], idx)
	}
	return nil
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
