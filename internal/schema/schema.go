// Package schema models relational schemas and the schema graph that the
// personalization graph of Koutrika & Ioannidis (SIGMOD 2005) extends.
//
// A Schema holds relations (with typed attributes) and join edges between
// attributes of different relations — the "potential join conditions" that
// both queries and join preferences draw from.
package schema

import (
	"fmt"
	"sort"
	"strings"

	"cqp/internal/value"
)

// Column is a typed attribute of a relation.
type Column struct {
	Name string
	Type value.Kind
}

// Relation describes one relation: its name, ordered attributes, and an
// optional primary-key attribute used by statistics and generators.
type Relation struct {
	Name    string
	Columns []Column
	// Key is the name of the primary-key column, or "" if none.
	Key string

	colIndex map[string]int
}

// NewRelation builds a relation and validates column-name uniqueness.
func NewRelation(name string, cols []Column, key string) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: relation name must be non-empty")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("schema: relation %s has no columns", name)
	}
	r := &Relation{Name: name, Columns: cols, Key: key, colIndex: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("schema: relation %s has an unnamed column", name)
		}
		if _, dup := r.colIndex[c.Name]; dup {
			return nil, fmt.Errorf("schema: relation %s has duplicate column %s", name, c.Name)
		}
		r.colIndex[c.Name] = i
	}
	if key != "" {
		if _, ok := r.colIndex[key]; !ok {
			return nil, fmt.Errorf("schema: relation %s key %s is not a column", name, key)
		}
	}
	return r, nil
}

// ColumnIndex returns the position of the named column, or -1.
func (r *Relation) ColumnIndex(name string) int {
	if i, ok := r.colIndex[name]; ok {
		return i
	}
	return -1
}

// Column returns the named column, or an error if it does not exist.
func (r *Relation) Column(name string) (Column, error) {
	i := r.ColumnIndex(name)
	if i < 0 {
		return Column{}, fmt.Errorf("schema: relation %s has no column %s", r.Name, name)
	}
	return r.Columns[i], nil
}

// AttrRef names one attribute of one relation, e.g. MOVIE.did.
type AttrRef struct {
	Relation string
	Attr     string
}

// String renders the reference as Relation.Attr.
func (a AttrRef) String() string { return a.Relation + "." + a.Attr }

// ParseAttrRef parses "REL.attr": exactly one dot, with text on both sides.
// The names are substrings of s.
func ParseAttrRef(s string) (AttrRef, error) {
	t := strings.TrimSpace(s)
	dot := strings.IndexByte(t, '.')
	if dot <= 0 || dot == len(t)-1 || strings.IndexByte(t[dot+1:], '.') >= 0 {
		return AttrRef{}, fmt.Errorf("schema: invalid attribute reference %q", s)
	}
	return AttrRef{Relation: t[:dot], Attr: t[dot+1:]}, nil
}

// JoinEdge is an undirected potential join condition between two attributes
// of different relations — an edge of the schema graph.
type JoinEdge struct {
	Left, Right AttrRef
}

// String renders the edge as "L.a = R.b".
func (e JoinEdge) String() string { return e.Left.String() + " = " + e.Right.String() }

// Schema is a set of relations plus the schema-graph join edges.
type Schema struct {
	relations map[string]*Relation
	order     []string // insertion order, for deterministic iteration
	joins     []JoinEdge
}

// New returns an empty schema.
func New() *Schema {
	return &Schema{relations: make(map[string]*Relation)}
}

// AddRelation registers a relation.
func (s *Schema) AddRelation(r *Relation) error {
	if _, dup := s.relations[r.Name]; dup {
		return fmt.Errorf("schema: duplicate relation %s", r.Name)
	}
	s.relations[r.Name] = r
	s.order = append(s.order, r.Name)
	return nil
}

// MustAddRelation builds and registers a relation from (name, type) pairs,
// panicking on definition errors. Intended for tests and static schemas.
func (s *Schema) MustAddRelation(name, key string, cols ...Column) *Relation {
	r, err := NewRelation(name, cols, key)
	if err != nil {
		panic(err)
	}
	if err := s.AddRelation(r); err != nil {
		panic(err)
	}
	return r
}

// Relation returns the named relation, or nil.
func (s *Schema) Relation(name string) *Relation { return s.relations[name] }

// Relations returns all relations in insertion order.
func (s *Schema) Relations() []*Relation {
	out := make([]*Relation, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.relations[n])
	}
	return out
}

// RelationNames returns all relation names in insertion order.
func (s *Schema) RelationNames() []string {
	return append([]string(nil), s.order...)
}

// ResolveAttr validates an attribute reference against the schema and
// returns its column definition.
func (s *Schema) ResolveAttr(a AttrRef) (Column, error) {
	r := s.Relation(a.Relation)
	if r == nil {
		return Column{}, fmt.Errorf("schema: unknown relation %s", a.Relation)
	}
	return r.Column(a.Attr)
}

// AddJoin registers a potential join edge after validating both endpoints
// refer to existing, type-compatible attributes of distinct relations.
func (s *Schema) AddJoin(left, right AttrRef) error {
	if left.Relation == right.Relation {
		return fmt.Errorf("schema: join edge within one relation: %s, %s", left, right)
	}
	lc, err := s.ResolveAttr(left)
	if err != nil {
		return err
	}
	rc, err := s.ResolveAttr(right)
	if err != nil {
		return err
	}
	if lc.Type != rc.Type {
		return fmt.Errorf("schema: join edge type mismatch: %s is %s, %s is %s",
			left, lc.Type, right, rc.Type)
	}
	s.joins = append(s.joins, JoinEdge{Left: left, Right: right})
	return nil
}

// MustAddJoin is AddJoin panicking on error, for static schema construction.
func (s *Schema) MustAddJoin(left, right string) {
	l, err := ParseAttrRef(left)
	if err != nil {
		panic(err)
	}
	r, err := ParseAttrRef(right)
	if err != nil {
		panic(err)
	}
	if err := s.AddJoin(l, r); err != nil {
		panic(err)
	}
}

// Joins returns all join edges.
func (s *Schema) Joins() []JoinEdge { return append([]JoinEdge(nil), s.joins...) }

// JoinsFrom returns every join edge incident to the named relation, oriented
// so that the named relation is on the left. This is how traversals expand
// outward from a relation.
func (s *Schema) JoinsFrom(relation string) []JoinEdge {
	var out []JoinEdge
	for _, e := range s.joins {
		switch relation {
		case e.Left.Relation:
			out = append(out, e)
		case e.Right.Relation:
			out = append(out, JoinEdge{Left: e.Right, Right: e.Left})
		}
	}
	return out
}

// Validate performs whole-schema checks: every join endpoint resolves and
// no relation is empty. It is cheap and safe to call repeatedly.
func (s *Schema) Validate() error {
	for _, e := range s.joins {
		if _, err := s.ResolveAttr(e.Left); err != nil {
			return err
		}
		if _, err := s.ResolveAttr(e.Right); err != nil {
			return err
		}
	}
	return nil
}

// String renders the schema in a compact DDL-like form, deterministically.
func (s *Schema) String() string {
	var b strings.Builder
	names := append([]string(nil), s.order...)
	sort.Strings(names)
	for _, n := range names {
		r := s.relations[n]
		b.WriteString(r.Name)
		b.WriteString("(")
		for i, c := range r.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.Name)
			if c.Name == r.Key {
				b.WriteString("*")
			}
		}
		b.WriteString(")\n")
	}
	for _, e := range s.joins {
		b.WriteString("  join ")
		b.WriteString(e.String())
		b.WriteString("\n")
	}
	return b.String()
}
