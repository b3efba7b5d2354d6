// Package query models the conjunctive select-project-join queries that CQP
// personalizes: a set of relations, equality joins between them, comparison
// selections, and a projection list.
//
// This is the level at which query personalization operates in the paper —
// a personalized query Qx := Q ∧ Px conjoins the original query with
// preference conditions, each of which is a join path plus a selection.
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cqp/internal/catalog"
	"cqp/internal/schema"
	"cqp/internal/value"
)

// Op is a comparison operator in a selection condition.
type Op uint8

// The comparison operators supported in selections.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator in SQL syntax.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// CatalogOp maps the operator onto the catalog's operator enum.
func (o Op) CatalogOp() catalog.Op { return catalog.Op(o) }

// Eval applies the operator to two values. Incomparable operands yield
// false (SQL's unknown collapses to false in our two-valued semantics).
func (o Op) Eval(a, b value.Value) bool {
	if a.IsNull() || b.IsNull() || !value.Comparable(a, b) {
		return false
	}
	c := a.Compare(b)
	switch o {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		return false
	}
}

// Test is Eval over two values read where they lie — a tuple's column and a
// selection's literal — for the executor's per-tuple loops. INT pairs and
// string (in)equality are decided on the payloads; every other pairing (NULL,
// FLOAT, mixed numerics, BOOL, string order) is Eval's, which stays the
// definition: TestOpTestMatchesEval and FuzzOpTest hold the two equal.
func (o Op) Test(a, b *value.Value) bool {
	ak, ai, as := a.Peek()
	bk, bi, bs := b.Peek()
	switch {
	case ak == value.KindInt && bk == value.KindInt:
		switch o {
		case OpEq:
			return ai == bi
		case OpNe:
			return ai != bi
		case OpLt:
			return ai < bi
		case OpLe:
			return ai <= bi
		case OpGt:
			return ai > bi
		case OpGe:
			return ai >= bi
		}
	case ak == value.KindString && bk == value.KindString && o <= OpNe:
		return (as == bs) == (o == OpEq)
	}
	return o.Eval(*a, *b)
}

// ParseOp parses a SQL comparison operator.
func ParseOp(s string) (Op, error) {
	switch s {
	case "=":
		return OpEq, nil
	case "<>", "!=":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	default:
		return 0, fmt.Errorf("query: unknown operator %q", s)
	}
}

// Selection is an atomic selection condition "attr op literal".
type Selection struct {
	Attr  schema.AttrRef
	Op    Op
	Value value.Value
}

// String renders the selection in SQL syntax.
func (s Selection) String() string {
	return s.Attr.Relation + "." + s.Attr.Attr + " " + s.Op.String() + " " + s.Value.SQL()
}

// Join is an equality join condition between two attributes.
type Join struct {
	Left, Right schema.AttrRef
}

// String renders the join in SQL syntax.
func (j Join) String() string { return j.Left.String() + " = " + j.Right.String() }

// OrderKey is one ORDER BY term.
type OrderKey struct {
	Attr schema.AttrRef
	Desc bool
}

// String renders the key in SQL syntax.
func (o OrderKey) String() string {
	if o.Desc {
		return o.Attr.String() + " DESC"
	}
	return o.Attr.String()
}

// Query is a conjunctive SPJ query. Each relation appears at most once
// (preference paths are acyclic in the personalization graph, so no
// self-joins arise; see DESIGN.md).
type Query struct {
	From       []string
	Joins      []Join
	Selections []Selection
	Project    []schema.AttrRef
	Distinct   bool
	// OrderBy sorts the result; Limit (when > 0) truncates it. Both apply
	// after projection.
	OrderBy []OrderKey
	Limit   int
}

// New builds a query over the given relations projecting the given
// attributes ("REL.attr" strings), for concise construction in examples.
func New(from []string, project ...string) (*Query, error) {
	q := &Query{From: append([]string(nil), from...)}
	for _, p := range project {
		a, err := schema.ParseAttrRef(p)
		if err != nil {
			return nil, err
		}
		q.Project = append(q.Project, a)
	}
	return q, nil
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	return &Query{
		From:       append([]string(nil), q.From...),
		Joins:      append([]Join(nil), q.Joins...),
		Selections: append([]Selection(nil), q.Selections...),
		Project:    append([]schema.AttrRef(nil), q.Project...),
		Distinct:   q.Distinct,
		OrderBy:    append([]OrderKey(nil), q.OrderBy...),
		Limit:      q.Limit,
	}
}

// HasRelation reports whether the query's FROM clause includes the relation.
func (q *Query) HasRelation(name string) bool {
	for _, r := range q.From {
		if r == name {
			return true
		}
	}
	return false
}

// HasJoin reports whether the query states the join, in either orientation.
func (q *Query) HasJoin(j Join) bool {
	for _, have := range q.Joins {
		if have == j || (have.Left == j.Right && have.Right == j.Left) {
			return true
		}
	}
	return false
}

// AddRelation appends the relation to FROM if not already present.
func (q *Query) AddRelation(name string) {
	if !q.HasRelation(name) {
		q.From = append(q.From, name)
	}
}

// AddJoin appends a join condition, adding both endpoint relations to FROM.
func (q *Query) AddJoin(j Join) {
	q.AddRelation(j.Left.Relation)
	q.AddRelation(j.Right.Relation)
	q.Joins = append(q.Joins, j)
}

// AddSelection appends a selection condition, adding its relation to FROM.
func (q *Query) AddSelection(s Selection) {
	q.AddRelation(s.Attr.Relation)
	q.Selections = append(q.Selections, s)
}

// Validate checks the query against a schema: relations exist, all
// referenced attributes resolve to relations in FROM, joins are
// type-compatible, selection literals are coercible to the column type, and
// the projection is non-empty.
func (q *Query) Validate(s *schema.Schema) error { return q.ValidateWith(s, &Query{}) }

// ValidateWith is Validate of q extended by add's relations, joins and
// selections, each list appended to q's own — a union's sub-query is Q and
// what its preferences add — without building that query: the same checks
// in the same order, so the same verdict.
func (q *Query) ValidateWith(s *schema.Schema, add *Query) error {
	if len(q.From)+len(add.From) == 0 {
		return fmt.Errorf("query: empty FROM clause")
	}
	seen := make(map[string]bool, len(q.From)+len(add.From))
	for _, from := range [2][]string{q.From, add.From} {
		for _, name := range from {
			if s.Relation(name) == nil {
				return fmt.Errorf("query: unknown relation %s", name)
			}
			if seen[name] {
				return fmt.Errorf("query: relation %s appears twice in FROM", name)
			}
			seen[name] = true
		}
	}
	check := func(a schema.AttrRef) (schema.Column, error) {
		if !seen[a.Relation] {
			return schema.Column{}, fmt.Errorf("query: %s references relation not in FROM", a)
		}
		return s.ResolveAttr(a)
	}
	for _, joins := range [2][]Join{q.Joins, add.Joins} {
		for _, j := range joins {
			lc, err := check(j.Left)
			if err != nil {
				return err
			}
			rc, err := check(j.Right)
			if err != nil {
				return err
			}
			if lc.Type != rc.Type {
				return fmt.Errorf("query: join %s has mismatched types %s and %s", j, lc.Type, rc.Type)
			}
		}
	}
	for _, sels := range [2][]Selection{q.Selections, add.Selections} {
		for _, sel := range sels {
			c, err := check(sel.Attr)
			if err != nil {
				return err
			}
			if !comparableWith(sel.Value, c.Type) {
				return fmt.Errorf("query: selection %s: %s literal is not comparable with %s column",
					sel, sel.Value.Kind(), c.Type)
			}
		}
	}
	if len(q.Project) == 0 {
		return fmt.Errorf("query: empty projection")
	}
	for _, p := range q.Project {
		if _, err := check(p); err != nil {
			return err
		}
	}
	for _, o := range q.OrderBy {
		if _, err := check(o.Attr); err != nil {
			return err
		}
		// Ordering applies to the projected rows, so the key must be
		// projected (our executor sorts after projection).
		found := false
		for _, p := range q.Project {
			if p == o.Attr {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("query: ORDER BY %s must appear in the projection", o.Attr)
		}
	}
	if q.Limit < 0 {
		return fmt.Errorf("query: negative LIMIT %d", q.Limit)
	}
	return nil
}

// comparableWith reports whether a literal of the value's kind can be
// compared against a column of the given type: same kind, both numeric, or
// a NULL literal (which simply never matches).
func comparableWith(v value.Value, t value.Kind) bool {
	if v.IsNull() || v.Kind() == t {
		return true
	}
	numeric := func(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }
	return numeric(v.Kind()) && numeric(t)
}

// Connected reports whether the query's join graph connects all FROM
// relations (a disconnected query is a cartesian product, which the paper's
// cost model never produces).
func (q *Query) Connected() bool {
	if len(q.From) <= 1 {
		return true
	}
	adj := make(map[string][]string)
	for _, j := range q.Joins {
		adj[j.Left.Relation] = append(adj[j.Left.Relation], j.Right.Relation)
		adj[j.Right.Relation] = append(adj[j.Right.Relation], j.Left.Relation)
	}
	seen := map[string]bool{q.From[0]: true}
	stack := []string{q.From[0]}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range adj[r] {
			if !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	return len(seen) == len(q.From)
}

// Clauses is the text of a query's clauses, rendered once. A union of
// sub-queries that each extend the query repeats them by copy (WriteSQL);
// the query's own SQL is the same layout with nothing added.
type Clauses struct {
	Project    string // "R.a, S.b"
	From       string // "R, S"
	Joins      string // "R.a = S.a AND …", "" without joins
	Selections string // "R.b >= 1 AND …", "" without selections
	Tail       string // " ORDER BY … LIMIT n", "" without either
}

// Clauses renders the query's clauses.
func (q *Query) Clauses() Clauses {
	var b strings.Builder
	b.Grow(256) // most queries' clauses fit; a longer one grows the buffer
	end := [4]int{
		writeList(&b, q.Project, ", ", writeAttr),
		writeList(&b, q.From, ", ", func(b *strings.Builder, r string) { b.WriteString(r) }),
		writeList(&b, q.Joins, " AND ", writeJoin),
		writeList(&b, q.Selections, " AND ", func(b *strings.Builder, s Selection) { b.WriteString(s.String()) }),
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		writeList(&b, q.OrderBy, ", ", func(b *strings.Builder, o OrderKey) { b.WriteString(o.String()) })
	}
	if q.Limit > 0 {
		b.WriteString(" LIMIT ")
		b.WriteString(strconv.Itoa(q.Limit))
	}
	text := b.String()
	return Clauses{text[:end[0]], text[end[0]:end[1]], text[end[1]:end[2]], text[end[2]:end[3]], text[end[3]:]}
}

// writeList writes the items with sep between them and returns where the
// text written so far ends.
func writeList[T any](b *strings.Builder, items []T, sep string, write func(*strings.Builder, T)) int {
	for i, item := range items {
		if i > 0 {
			b.WriteString(sep)
		}
		write(b, item)
	}
	return b.Len()
}

// WriteSQL writes one conjunctive query in the one layout a query's text
// has — SELECT [DISTINCT] projection FROM relations [WHERE joins AND
// selections] [ORDER BY keys] [LIMIT n] — each of the base query's clauses
// followed by what a sub-query adds to it (selections already as text).
func (c *Clauses) WriteSQL(b *strings.Builder, distinct bool, rels []string, joins []Join, sels []string) {
	b.WriteString("SELECT ")
	if distinct {
		b.WriteString("DISTINCT ")
	}
	b.WriteString(c.Project)
	b.WriteString(" FROM ")
	b.WriteString(c.From)
	for _, r := range rels {
		b.WriteString(", ")
		b.WriteString(r)
	}
	sep := " WHERE "
	cond := func(text string) {
		b.WriteString(sep)
		b.WriteString(text)
		sep = " AND "
	}
	if c.Joins != "" {
		cond(c.Joins)
	}
	for _, j := range joins {
		cond("")
		writeJoin(b, j)
	}
	if c.Selections != "" {
		cond(c.Selections)
	}
	for _, s := range sels {
		cond(s)
	}
	b.WriteString(c.Tail)
}

func writeAttr(b *strings.Builder, a schema.AttrRef) {
	b.WriteString(a.Relation)
	b.WriteByte('.')
	b.WriteString(a.Attr)
}

func writeJoin(b *strings.Builder, j Join) {
	writeAttr(b, j.Left)
	b.WriteString(" = ")
	writeAttr(b, j.Right)
}

// SQL renders the query as a SQL string.
func (q *Query) SQL() string {
	c := q.Clauses()
	var b strings.Builder
	c.WriteSQL(&b, q.Distinct, nil, nil, nil)
	return b.String()
}

// String is SQL().
func (q *Query) String() string { return q.SQL() }

// Fingerprint returns a canonical textual identity for the query,
// independent of clause ordering, for caching and deduplication.
func (q *Query) Fingerprint() string {
	from := append([]string(nil), q.From...)
	sort.Strings(from)
	joins := make([]string, len(q.Joins))
	for i, j := range q.Joins {
		l, r := j.Left.String(), j.Right.String()
		if r < l {
			l, r = r, l
		}
		joins[i] = l + "=" + r
	}
	sort.Strings(joins)
	sels := make([]string, len(q.Selections))
	for i, s := range q.Selections {
		sels[i] = s.String()
	}
	sort.Strings(sels)
	proj := make([]string, len(q.Project))
	for i, p := range q.Project {
		proj[i] = p.String()
	}
	order := make([]string, len(q.OrderBy))
	for i, o := range q.OrderBy {
		order[i] = o.String()
	}
	return strings.Join(from, ",") + "|" + strings.Join(joins, ",") + "|" +
		strings.Join(sels, ",") + "|" + strings.Join(proj, ",") + "|" +
		strings.Join(order, ",") + fmt.Sprintf("|%d", q.Limit)
}
