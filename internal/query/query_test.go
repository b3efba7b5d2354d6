package query

import (
	"strings"
	"testing"
	"testing/quick"

	"cqp/internal/schema"
	"cqp/internal/testutil"
	"cqp/internal/value"
)

func movieQuery(t *testing.T) *Query {
	t.Helper()
	q, err := New([]string{"MOVIE"}, "MOVIE.title")
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestOpString(t *testing.T) {
	ops := map[Op]string{OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("Op %v", op)
		}
		back, err := ParseOp(want)
		if err != nil || back != op {
			t.Errorf("ParseOp(%q) = %v, %v", want, back, err)
		}
	}
	if _, err := ParseOp("=="); err == nil {
		t.Error("ParseOp(==) should fail")
	}
	if o, err := ParseOp("!="); err != nil || o != OpNe {
		t.Error("!= is an alias of <>")
	}
	if !strings.HasPrefix(Op(99).String(), "Op(") {
		t.Error("unknown op string")
	}
}

func TestOpEval(t *testing.T) {
	cases := []struct {
		op   Op
		a, b value.Value
		want bool
	}{
		{OpEq, value.Int(1), value.Int(1), true},
		{OpEq, value.Int(1), value.Int(2), false},
		{OpNe, value.Int(1), value.Int(2), true},
		{OpLt, value.Int(1), value.Float(1.5), true},
		{OpLe, value.Int(2), value.Int(2), true},
		{OpGt, value.Str("b"), value.Str("a"), true},
		{OpGe, value.Str("a"), value.Str("b"), false},
		{OpEq, value.Null(), value.Null(), false},   // SQL NULL semantics
		{OpEq, value.Int(1), value.Str("1"), false}, // incomparable kinds
		{OpNe, value.Int(1), value.Str("1"), false}, // incomparable -> false, not true
	}
	for _, c := range cases {
		if got := c.op.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v.Eval(%v, %v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestOpEvalTrichotomyProperty(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := value.Int(int64(a)), value.Int(int64(b))
		lt, eq, gt := OpLt.Eval(x, y), OpEq.Eval(x, y), OpGt.Eval(x, y)
		count := 0
		for _, v := range []bool{lt, eq, gt} {
			if v {
				count++
			}
		}
		return count == 1 &&
			OpLe.Eval(x, y) == (lt || eq) &&
			OpGe.Eval(x, y) == (gt || eq) &&
			OpNe.Eval(x, y) == !eq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuilderMethods(t *testing.T) {
	q := movieQuery(t)
	q.AddJoin(Join{
		Left:  schema.AttrRef{Relation: "MOVIE", Attr: "did"},
		Right: schema.AttrRef{Relation: "DIRECTOR", Attr: "did"},
	})
	q.AddSelection(Selection{
		Attr: schema.AttrRef{Relation: "DIRECTOR", Attr: "name"}, Op: OpEq,
		Value: value.Str("W. Allen"),
	})
	if !q.HasRelation("DIRECTOR") {
		t.Error("AddJoin must add relations to FROM")
	}
	q.AddRelation("DIRECTOR") // idempotent
	if len(q.From) != 2 {
		t.Errorf("From = %v", q.From)
	}
	if err := q.Validate(testutil.MovieSchema()); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	s := testutil.MovieSchema()
	bad := []*Query{
		{From: nil, Project: []schema.AttrRef{{Relation: "MOVIE", Attr: "title"}}},
		{From: []string{"NOPE"}, Project: []schema.AttrRef{{Relation: "NOPE", Attr: "x"}}},
		{From: []string{"MOVIE", "MOVIE"}, Project: []schema.AttrRef{{Relation: "MOVIE", Attr: "title"}}},
		{From: []string{"MOVIE"}}, // empty projection
		{From: []string{"MOVIE"}, Project: []schema.AttrRef{{Relation: "DIRECTOR", Attr: "name"}}},
		{ // join referencing relation not in FROM
			From:    []string{"MOVIE"},
			Joins:   []Join{{Left: schema.AttrRef{Relation: "MOVIE", Attr: "did"}, Right: schema.AttrRef{Relation: "DIRECTOR", Attr: "did"}}},
			Project: []schema.AttrRef{{Relation: "MOVIE", Attr: "title"}},
		},
		{ // join type mismatch
			From:    []string{"MOVIE", "DIRECTOR"},
			Joins:   []Join{{Left: schema.AttrRef{Relation: "MOVIE", Attr: "title"}, Right: schema.AttrRef{Relation: "DIRECTOR", Attr: "did"}}},
			Project: []schema.AttrRef{{Relation: "MOVIE", Attr: "title"}},
		},
		{ // literal not coercible
			From:       []string{"MOVIE"},
			Selections: []Selection{{Attr: schema.AttrRef{Relation: "MOVIE", Attr: "year"}, Op: OpEq, Value: value.Str("x")}},
			Project:    []schema.AttrRef{{Relation: "MOVIE", Attr: "title"}},
		},
	}
	for i, q := range bad {
		if err := q.Validate(s); err == nil {
			t.Errorf("case %d should fail: %s", i, q.SQL())
		}
	}
}

func TestConnected(t *testing.T) {
	q := movieQuery(t)
	if !q.Connected() {
		t.Error("single relation is connected")
	}
	q.AddRelation("DIRECTOR")
	if q.Connected() {
		t.Error("two relations without a join are disconnected")
	}
	q.AddJoin(Join{
		Left:  schema.AttrRef{Relation: "MOVIE", Attr: "did"},
		Right: schema.AttrRef{Relation: "DIRECTOR", Attr: "did"},
	})
	if !q.Connected() {
		t.Error("join connects them")
	}
}

func TestSQLRendering(t *testing.T) {
	q := movieQuery(t)
	q.AddJoin(Join{
		Left:  schema.AttrRef{Relation: "MOVIE", Attr: "mid"},
		Right: schema.AttrRef{Relation: "GENRE", Attr: "mid"},
	})
	q.AddSelection(Selection{
		Attr: schema.AttrRef{Relation: "GENRE", Attr: "genre"}, Op: OpEq,
		Value: value.Str("musical"),
	})
	got := q.SQL()
	want := "SELECT MOVIE.title FROM MOVIE, GENRE WHERE MOVIE.mid = GENRE.mid AND GENRE.genre = 'musical'"
	if got != want {
		t.Errorf("SQL =\n%s\nwant\n%s", got, want)
	}
	q.Distinct = true
	if !strings.Contains(q.SQL(), "SELECT DISTINCT") {
		t.Error("DISTINCT not rendered")
	}
	if q.String() != q.SQL() {
		t.Error("String should equal SQL")
	}
}

func TestCloneIndependence(t *testing.T) {
	q := movieQuery(t)
	q.AddSelection(Selection{
		Attr: schema.AttrRef{Relation: "MOVIE", Attr: "year"}, Op: OpGe,
		Value: value.Int(1990),
	})
	c := q.Clone()
	c.AddRelation("GENRE")
	c.Selections[0].Value = value.Int(2000)
	if q.HasRelation("GENRE") {
		t.Error("clone aliases From")
	}
	if q.Selections[0].Value.AsInt() != 1990 {
		t.Error("clone aliases Selections")
	}
}

func TestFingerprintOrderIndependence(t *testing.T) {
	a := movieQuery(t)
	a.AddJoin(Join{Left: schema.AttrRef{Relation: "MOVIE", Attr: "mid"}, Right: schema.AttrRef{Relation: "GENRE", Attr: "mid"}})
	a.AddJoin(Join{Left: schema.AttrRef{Relation: "MOVIE", Attr: "did"}, Right: schema.AttrRef{Relation: "DIRECTOR", Attr: "did"}})

	b := movieQuery(t)
	// Reversed join order and flipped endpoints.
	b.AddJoin(Join{Left: schema.AttrRef{Relation: "DIRECTOR", Attr: "did"}, Right: schema.AttrRef{Relation: "MOVIE", Attr: "did"}})
	b.AddJoin(Join{Left: schema.AttrRef{Relation: "GENRE", Attr: "mid"}, Right: schema.AttrRef{Relation: "MOVIE", Attr: "mid"}})

	// FROM order differs but the set matches after sorting.
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("fingerprints differ:\n%s\n%s", a.Fingerprint(), b.Fingerprint())
	}
	b.AddSelection(Selection{Attr: schema.AttrRef{Relation: "GENRE", Attr: "genre"}, Op: OpEq, Value: value.Str("drama")})
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different queries must not collide")
	}
}

func TestValidateOrderByAndLimit(t *testing.T) {
	s := testutil.MovieSchema()
	q := movieQuery(t)
	q.OrderBy = append(q.OrderBy, OrderKey{Attr: schema.AttrRef{Relation: "MOVIE", Attr: "title"}})
	if err := q.Validate(s); err != nil {
		t.Errorf("projected order key must validate: %v", err)
	}
	q2 := movieQuery(t)
	q2.OrderBy = append(q2.OrderBy, OrderKey{Attr: schema.AttrRef{Relation: "MOVIE", Attr: "year"}})
	if err := q2.Validate(s); err == nil {
		t.Error("unprojected order key must fail")
	}
	q3 := movieQuery(t)
	q3.OrderBy = append(q3.OrderBy, OrderKey{Attr: schema.AttrRef{Relation: "NOPE", Attr: "x"}})
	if err := q3.Validate(s); err == nil {
		t.Error("unresolvable order key must fail")
	}
	q4 := movieQuery(t)
	q4.Limit = -1
	if err := q4.Validate(s); err == nil {
		t.Error("negative limit must fail")
	}
}

func TestOrderKeyStringAndSQL(t *testing.T) {
	k := OrderKey{Attr: schema.AttrRef{Relation: "MOVIE", Attr: "year"}, Desc: true}
	if k.String() != "MOVIE.year DESC" {
		t.Errorf("String = %q", k.String())
	}
	q := movieQuery(t)
	q.OrderBy = []OrderKey{k, {Attr: schema.AttrRef{Relation: "MOVIE", Attr: "title"}}}
	q.Limit = 7
	sql := q.SQL()
	if !strings.Contains(sql, "ORDER BY MOVIE.year DESC, MOVIE.title") || !strings.Contains(sql, "LIMIT 7") {
		t.Errorf("SQL = %s", sql)
	}
	c := q.Clone()
	c.OrderBy[0].Desc = false
	c.Limit = 9
	if !q.OrderBy[0].Desc || q.Limit != 7 {
		t.Error("clone aliases OrderBy/Limit")
	}
}

// TestSelectionString pins the rendered text of a selection — it is part of
// every fingerprint, estimate-memo key and response SQL. The expected
// strings were recorded from the fmt-based rendering this replaced.
func TestSelectionString(t *testing.T) {
	for _, tc := range []struct {
		op   Op
		v    value.Value
		want string
	}{
		{OpEq, value.Int(-42), "MOVIE.year = -42"},
		{OpEq, value.Float(2.5), "MOVIE.year = 2.5"},
		{OpEq, value.Str("O'Hara's"), "MOVIE.year = 'O''Hara''s'"},
		{OpEq, value.Bool(true), "MOVIE.year = true"},
		{OpEq, value.Null(), "MOVIE.year = NULL"},
		{OpNe, value.Int(-42), "MOVIE.year <> -42"},
		{OpNe, value.Float(2.5), "MOVIE.year <> 2.5"},
		{OpNe, value.Str("O'Hara's"), "MOVIE.year <> 'O''Hara''s'"},
		{OpNe, value.Bool(true), "MOVIE.year <> true"},
		{OpNe, value.Null(), "MOVIE.year <> NULL"},
		{OpLt, value.Int(-42), "MOVIE.year < -42"},
		{OpLt, value.Float(2.5), "MOVIE.year < 2.5"},
		{OpLt, value.Str("O'Hara's"), "MOVIE.year < 'O''Hara''s'"},
		{OpLt, value.Bool(true), "MOVIE.year < true"},
		{OpLt, value.Null(), "MOVIE.year < NULL"},
		{OpLe, value.Int(-42), "MOVIE.year <= -42"},
		{OpLe, value.Float(2.5), "MOVIE.year <= 2.5"},
		{OpLe, value.Str("O'Hara's"), "MOVIE.year <= 'O''Hara''s'"},
		{OpLe, value.Bool(true), "MOVIE.year <= true"},
		{OpLe, value.Null(), "MOVIE.year <= NULL"},
		{OpGt, value.Int(-42), "MOVIE.year > -42"},
		{OpGt, value.Float(2.5), "MOVIE.year > 2.5"},
		{OpGt, value.Str("O'Hara's"), "MOVIE.year > 'O''Hara''s'"},
		{OpGt, value.Bool(true), "MOVIE.year > true"},
		{OpGt, value.Null(), "MOVIE.year > NULL"},
		{OpGe, value.Int(-42), "MOVIE.year >= -42"},
		{OpGe, value.Float(2.5), "MOVIE.year >= 2.5"},
		{OpGe, value.Str("O'Hara's"), "MOVIE.year >= 'O''Hara''s'"},
		{OpGe, value.Bool(true), "MOVIE.year >= true"},
		{OpGe, value.Null(), "MOVIE.year >= NULL"},
	} {
		s := Selection{Attr: schema.AttrRef{Relation: "MOVIE", Attr: "year"}, Op: tc.op, Value: tc.v}
		if got := s.String(); got != tc.want {
			t.Errorf("%v %v: got %q, want %q", tc.op, tc.v, got, tc.want)
		}
	}
}
