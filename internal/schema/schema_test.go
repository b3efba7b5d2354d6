package schema

import (
	"strings"
	"testing"

	"cqp/internal/value"
)

// movieSchema builds the paper's example schema:
// MOVIE(mid, title, year, duration, did), DIRECTOR(did, name), GENRE(mid, genre).
func movieSchema(t *testing.T) *Schema {
	t.Helper()
	s := New()
	s.MustAddRelation("MOVIE", "mid",
		Column{"mid", value.KindInt}, Column{"title", value.KindString},
		Column{"year", value.KindInt}, Column{"duration", value.KindInt},
		Column{"did", value.KindInt})
	s.MustAddRelation("DIRECTOR", "did",
		Column{"did", value.KindInt}, Column{"name", value.KindString})
	s.MustAddRelation("GENRE", "",
		Column{"mid", value.KindInt}, Column{"genre", value.KindString})
	s.MustAddJoin("MOVIE.did", "DIRECTOR.did")
	s.MustAddJoin("MOVIE.mid", "GENRE.mid")
	return s
}

func TestNewRelationValidation(t *testing.T) {
	if _, err := NewRelation("", []Column{{"a", value.KindInt}}, ""); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := NewRelation("R", nil, ""); err == nil {
		t.Error("no columns should fail")
	}
	if _, err := NewRelation("R", []Column{{"a", value.KindInt}, {"a", value.KindInt}}, ""); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := NewRelation("R", []Column{{"", value.KindInt}}, ""); err == nil {
		t.Error("unnamed column should fail")
	}
	if _, err := NewRelation("R", []Column{{"a", value.KindInt}}, "b"); err == nil {
		t.Error("key not a column should fail")
	}
	r, err := NewRelation("R", []Column{{"a", value.KindInt}, {"b", value.KindString}}, "a")
	if err != nil {
		t.Fatal(err)
	}
	if r.ColumnIndex("b") != 1 || r.ColumnIndex("z") != -1 {
		t.Error("ColumnIndex wrong")
	}
	if c, err := r.Column("b"); err != nil || c.Type != value.KindString {
		t.Error("Column lookup wrong")
	}
	if _, err := r.Column("z"); err == nil {
		t.Error("missing column should error")
	}
}

func TestSchemaRelations(t *testing.T) {
	s := movieSchema(t)
	if s.Relation("MOVIE") == nil || s.Relation("NOPE") != nil {
		t.Error("Relation lookup wrong")
	}
	names := s.RelationNames()
	want := []string{"MOVIE", "DIRECTOR", "GENRE"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %s, want %s", i, names[i], want[i])
		}
	}
	if len(s.Relations()) != 3 {
		t.Error("Relations() length")
	}
	if err := s.AddRelation(s.Relation("MOVIE")); err == nil {
		t.Error("duplicate relation should fail")
	}
}

func TestResolveAttr(t *testing.T) {
	s := movieSchema(t)
	c, err := s.ResolveAttr(AttrRef{"GENRE", "genre"})
	if err != nil || c.Type != value.KindString {
		t.Errorf("ResolveAttr: %v %v", c, err)
	}
	if _, err := s.ResolveAttr(AttrRef{"NOPE", "x"}); err == nil {
		t.Error("unknown relation should fail")
	}
	if _, err := s.ResolveAttr(AttrRef{"MOVIE", "nope"}); err == nil {
		t.Error("unknown attr should fail")
	}
}

func TestParseAttrRef(t *testing.T) {
	a, err := ParseAttrRef(" MOVIE.did ")
	if err != nil || a.Relation != "MOVIE" || a.Attr != "did" {
		t.Errorf("ParseAttrRef: %v %v", a, err)
	}
	if a.String() != "MOVIE.did" {
		t.Errorf("String: %s", a.String())
	}
	for _, bad := range []string{"MOVIE", "MOVIE.", ".did", "a.b.c", "", ".", "a..b", " . "} {
		if _, err := ParseAttrRef(bad); err == nil {
			t.Errorf("ParseAttrRef(%q) should fail", bad)
		}
	}
}

func TestJoinValidation(t *testing.T) {
	s := movieSchema(t)
	err := s.AddJoin(AttrRef{"MOVIE", "mid"}, AttrRef{"MOVIE", "did"})
	if err == nil {
		t.Error("self-relation join should fail")
	}
	err = s.AddJoin(AttrRef{"MOVIE", "title"}, AttrRef{"DIRECTOR", "did"})
	if err == nil {
		t.Error("type-mismatched join should fail")
	}
	err = s.AddJoin(AttrRef{"NOPE", "x"}, AttrRef{"DIRECTOR", "did"})
	if err == nil {
		t.Error("unknown endpoint should fail")
	}
}

func TestJoinsFromOrientation(t *testing.T) {
	s := movieSchema(t)
	from := s.JoinsFrom("DIRECTOR")
	if len(from) != 1 {
		t.Fatalf("JoinsFrom(DIRECTOR) = %v", from)
	}
	if from[0].Left.Relation != "DIRECTOR" || from[0].Right.Relation != "MOVIE" {
		t.Errorf("orientation wrong: %v", from[0])
	}
	if got := s.JoinsFrom("MOVIE"); len(got) != 2 {
		t.Errorf("JoinsFrom(MOVIE) = %v", got)
	}
	if got := s.JoinsFrom("ZZZ"); len(got) != 0 {
		t.Errorf("JoinsFrom(ZZZ) = %v", got)
	}
}

func TestValidateAndString(t *testing.T) {
	s := movieSchema(t)
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	str := s.String()
	for _, want := range []string{"MOVIE(mid*, title", "DIRECTOR(did*", "join MOVIE.did = DIRECTOR.did"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() missing %q:\n%s", want, str)
		}
	}
	if len(s.Joins()) != 2 {
		t.Error("Joins() length")
	}
}
