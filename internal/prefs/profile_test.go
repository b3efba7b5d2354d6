package prefs

import (
	"math"
	"strings"
	"sync"
	"testing"

	"cqp/internal/query"
	"cqp/internal/schema"
	"cqp/internal/testutil"
	"cqp/internal/value"
)

// figure1Profile builds the paper's Figure 1 example profile:
//
//	p1: doi(GENRE.genre='musical')      = 0.5
//	p2: doi(MOVIE.mid = GENRE.mid)      = 0.9
//	p3: doi(MOVIE.did = DIRECTOR.did)   = 1.0
//	p4: doi(DIRECTOR.name = 'W. Allen') = 0.8
func figure1Profile(t *testing.T) *Profile {
	t.Helper()
	p := NewProfile()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(p.AddSelection(schema.AttrRef{Relation: "GENRE", Attr: "genre"}, query.OpEq, value.Str("musical"), 0.5))
	must(p.AddJoin(schema.AttrRef{Relation: "MOVIE", Attr: "mid"}, schema.AttrRef{Relation: "GENRE", Attr: "mid"}, 0.9))
	must(p.AddJoin(schema.AttrRef{Relation: "MOVIE", Attr: "did"}, schema.AttrRef{Relation: "DIRECTOR", Attr: "did"}, 1.0))
	must(p.AddSelection(schema.AttrRef{Relation: "DIRECTOR", Attr: "name"}, query.OpEq, value.Str("W. Allen"), 0.8))
	return p
}

func TestProfileIndexes(t *testing.T) {
	p := figure1Profile(t)
	if p.Len() != 4 {
		t.Fatalf("Len = %d", p.Len())
	}
	joins := p.JoinsFrom("MOVIE")
	if len(joins) != 2 {
		t.Errorf("JoinsFrom(MOVIE) = %v", joins)
	}
	if len(p.JoinsFrom("GENRE")) != 0 {
		t.Error("join preferences are directed; GENRE has no outgoing edges")
	}
	sels := p.SelectionsOn("DIRECTOR")
	if len(sels) != 1 || p.Atom(sels[0]).Doi != 0.8 {
		t.Errorf("SelectionsOn(DIRECTOR) = %v", sels)
	}
	if len(p.SelectionsOn("MOVIE")) != 0 {
		t.Error("MOVIE has no selection preferences")
	}
	if len(p.Atoms()) != 4 {
		t.Error("Atoms length")
	}
}

func TestProfileAddValidation(t *testing.T) {
	p := NewProfile()
	if err := p.Add(Atomic{Doi: 0.5}); err == nil {
		t.Error("no condition should fail")
	}
	sel := &SelectionCond{Attr: schema.AttrRef{Relation: "GENRE", Attr: "genre"}, Op: query.OpEq, Value: value.Str("x")}
	jn := &JoinCond{Left: schema.AttrRef{Relation: "A", Attr: "x"}, Right: schema.AttrRef{Relation: "B", Attr: "y"}}
	if err := p.Add(Atomic{Sel: sel, Join: jn, Doi: 0.5}); err == nil {
		t.Error("both conditions should fail")
	}
	if err := p.Add(Atomic{Sel: sel, Doi: -0.1}); err == nil {
		t.Error("doi < 0 should fail")
	}
	if err := p.Add(Atomic{Sel: sel, Doi: 1.1}); err == nil {
		t.Error("doi > 1 should fail")
	}
	if err := p.Add(Atomic{Sel: sel, Doi: 0.5}); err != nil {
		t.Errorf("valid add failed: %v", err)
	}
	if err := p.Add(Atomic{Sel: sel, Doi: 0.6}); err == nil {
		t.Error("duplicate condition should fail")
	}
}

// TestNaNDoiRejected: a NaN doi is outside [0,1], whether added or parsed.
func TestNaNDoiRejected(t *testing.T) {
	sel := &SelectionCond{Attr: schema.AttrRef{Relation: "MOVIE", Attr: "year"}, Op: query.OpEq, Value: value.Int(1990)}
	if err := NewProfile().Add(Atomic{Sel: sel, Doi: math.NaN()}); err == nil || err.Error() != "prefs: doi NaN outside [0,1]" {
		t.Errorf("Add with a NaN doi: %v", err)
	}
	_, err := ParseProfile("doi(MOVIE.year = 1990) = NaN")
	if err == nil || err.Error() != "prefs: line 1: prefs: doi NaN outside [0,1]" {
		t.Errorf("ParseProfile with a NaN doi: %v", err)
	}
}

func TestProfileValidateAgainstSchema(t *testing.T) {
	s := testutil.MovieSchema()
	if err := figure1Profile(t).Validate(s); err != nil {
		t.Errorf("figure-1 profile must validate: %v", err)
	}
	bad := NewProfile()
	_ = bad.AddSelection(schema.AttrRef{Relation: "NOPE", Attr: "x"}, query.OpEq, value.Int(1), 0.5)
	if err := bad.Validate(s); err == nil {
		t.Error("unknown relation must fail validation")
	}
	bad2 := NewProfile()
	_ = bad2.AddSelection(schema.AttrRef{Relation: "MOVIE", Attr: "year"}, query.OpEq, value.Str("x"), 0.5)
	if err := bad2.Validate(s); err == nil {
		t.Error("incomparable literal must fail validation")
	}
	bad3 := NewProfile()
	_ = bad3.AddJoin(schema.AttrRef{Relation: "MOVIE", Attr: "title"}, schema.AttrRef{Relation: "DIRECTOR", Attr: "did"}, 0.5)
	if err := bad3.Validate(s); err == nil {
		t.Error("type-mismatched join must fail validation")
	}
	bad4 := NewProfile()
	_ = bad4.AddJoin(schema.AttrRef{Relation: "MOVIE", Attr: "mid"}, schema.AttrRef{Relation: "MOVIE", Attr: "did"}, 0.5)
	if err := bad4.Validate(s); err == nil {
		t.Error("intra-relation join must fail validation")
	}
}

// TestValidateRemembersSchema: a verdict is kept per schema and dropped by
// Add, so the shortcut never answers for a profile or a schema it did not
// walk. Run under -race: a stored profile is validated by many requests.
func TestValidateRemembersSchema(t *testing.T) {
	s := testutil.MovieSchema()
	p := figure1Profile(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Validate(s); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p.validFor.Load() != s {
		t.Fatal("a passed validation was not remembered")
	}
	// Another schema is walked on its own terms and becomes the remembered one.
	if err := p.Validate(schema.New()); err == nil {
		t.Error("the profile validated against an empty schema")
	}
	if err := p.Validate(s); err != nil {
		t.Error(err)
	}
	// Add forgets: the new atom is checked even though the schema is the same.
	if err := p.AddSelection(schema.AttrRef{Relation: "NOPE", Attr: "x"}, query.OpEq, value.Int(1), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(s); err == nil {
		t.Error("an atom added after a passed validation was not validated")
	}
}

func TestParseProfileRoundTrip(t *testing.T) {
	src := `# Figure 1 of the paper
doi(GENRE.genre = 'musical') = 0.5
doi(MOVIE.mid = GENRE.mid) = 0.9

doi(MOVIE.did = DIRECTOR.did) = 1.0
doi(DIRECTOR.name = 'W. Allen') = 0.8
`
	p, err := ParseProfile(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d", p.Len())
	}
	atoms := p.Atoms()
	if !atoms[0].IsSelection() || atoms[0].Doi != 0.5 || atoms[0].Sel.Value.AsStr() != "musical" {
		t.Errorf("p1 = %v", atoms[0])
	}
	if atoms[1].IsSelection() || atoms[1].Join.Right.Relation != "GENRE" {
		t.Errorf("p2 = %v", atoms[1])
	}
	// Serialize and reparse.
	p2, err := ParseProfile(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if p2.String() != p.String() {
		t.Errorf("round trip changed profile:\n%s\n%s", p.String(), p2.String())
	}
}

func TestParseProfileOperatorsAndLiterals(t *testing.T) {
	p, err := ParseProfile(`
doi(MOVIE.year >= 1990) = 0.7
doi(MOVIE.duration < 120) = 0.4
doi(MOVIE.title <> 'Heat') = 0.2
doi(MOVIE.duration <= 90.5) = 0.3
`)
	if err != nil {
		t.Fatal(err)
	}
	atoms := p.Atoms()
	if atoms[0].Sel.Op != query.OpGe || atoms[0].Sel.Value.AsInt() != 1990 {
		t.Errorf("atom0 = %v", atoms[0])
	}
	if atoms[1].Sel.Op != query.OpLt {
		t.Errorf("atom1 = %v", atoms[1])
	}
	if atoms[2].Sel.Op != query.OpNe {
		t.Errorf("atom2 = %v", atoms[2])
	}
	if atoms[3].Sel.Value.Kind() != value.KindFloat {
		t.Errorf("atom3 = %v", atoms[3])
	}
}

func TestParseProfileErrors(t *testing.T) {
	bad := []string{
		"nonsense",
		"doi(GENRE.genre = 'musical') 0.5",   // missing =
		"doi(GENRE.genre = 'musical') = x",   // bad doi
		"doi(GENRE.genre 'musical') = 0.5",   // no operator
		"doi(GENRE = 'musical') = 0.5",       // bad attr ref
		"doi(MOVIE.mid < GENRE.mid) = 0.5",   // join must be =
		"doi(GENRE.genre = 'musical' = 0.5",  // unbalanced paren
		"doi(GENRE.genre = ) = 0.5",          // empty literal
		"doi(GENRE.genre = 'musical') = 2.0", // doi out of range
	}
	for _, src := range bad {
		if _, err := ParseProfile(src); err == nil {
			t.Errorf("ParseProfile(%q) should fail", src)
		}
	}
	// Errors carry the line number.
	_, err := ParseProfile("doi(GENRE.genre = 'musical') = 0.5\nbroken")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line info, got %v", err)
	}
}

func TestParseProfileQuotedParenAndOps(t *testing.T) {
	// Value contains a parenthesis and an operator character.
	p, err := ParseProfile(`doi(MOVIE.title = 'Movie (with > parens)') = 0.6`)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Atoms()[0].Sel.Value.AsStr(); got != "Movie (with > parens)" {
		t.Errorf("parsed value %q", got)
	}
}

func TestImplicitComposition(t *testing.T) {
	p := figure1Profile(t)
	atoms := p.Atoms()
	// p3 ∧ p4: MOVIE -> DIRECTOR join then name selection. doi = 1.0 × 0.8.
	imp, err := NewImplicit([]Atomic{atoms[2]}, atoms[3])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(imp.Doi-0.8) > 1e-12 {
		t.Errorf("doi = %g, want 0.8", imp.Doi)
	}
	if imp.Anchor() != "MOVIE" {
		t.Errorf("anchor = %s", imp.Anchor())
	}
	if len(imp.Path) != 1 || imp.Path[0].Right.Relation != "DIRECTOR" {
		t.Errorf("path = %v", imp.Path)
	}
	if path, sel := imp.Split(); path != "MOVIE.did = DIRECTOR.did AND " || sel != "DIRECTOR.name = 'W. Allen'" {
		t.Errorf("split = %q, %q", path, sel)
	}
	want := "MOVIE.did = DIRECTOR.did AND DIRECTOR.name = 'W. Allen'"
	if imp.Condition() != want {
		t.Errorf("condition = %q", imp.Condition())
	}
	if !strings.Contains(imp.String(), "= 0.8") {
		t.Errorf("String = %q", imp.String())
	}
	// Atomic selection preference: empty path.
	imp2, err := NewImplicit(nil, atoms[3])
	if err != nil {
		t.Fatal(err)
	}
	if imp2.Anchor() != "DIRECTOR" || imp2.Doi != 0.8 {
		t.Errorf("atomic implicit = %+v", imp2)
	}
}

func TestImplicitValidation(t *testing.T) {
	p := figure1Profile(t)
	atoms := p.Atoms()
	// Terminal must be a selection.
	if _, err := NewImplicit(nil, atoms[2]); err == nil {
		t.Error("join terminal should fail")
	}
	// Path element must be a join.
	if _, err := NewImplicit([]Atomic{atoms[0]}, atoms[3]); err == nil {
		t.Error("selection in path should fail")
	}
	// Selection must attach to the path end.
	if _, err := NewImplicit([]Atomic{atoms[1]}, atoms[3]); err == nil {
		t.Error("detached selection should fail (path ends at GENRE, selection on DIRECTOR)")
	}
	// Disconnected path.
	back := Atomic{Join: &JoinCond{
		Left:  schema.AttrRef{Relation: "GENRE", Attr: "mid"},
		Right: schema.AttrRef{Relation: "MOVIE", Attr: "mid"},
	}, Doi: 0.9}
	if _, err := NewImplicit([]Atomic{atoms[2], back}, atoms[0]); err == nil {
		t.Error("disconnected path should fail (DIRECTOR then GENRE->MOVIE)")
	}
	// Cyclic path: MOVIE->GENRE then GENRE->MOVIE revisits MOVIE.
	sel := Atomic{Sel: &SelectionCond{Attr: schema.AttrRef{Relation: "MOVIE", Attr: "year"}, Op: query.OpEq, Value: value.Int(1990)}, Doi: 0.5}
	if _, err := NewImplicit([]Atomic{atoms[1], back}, sel); err == nil {
		t.Error("cyclic path should fail")
	}
}

// TestSelectionString pins the rendered text of a selection condition — the
// estimate memo's key and a response's preferences are made of it. The expected
// strings were recorded from the fmt-based rendering this replaced.
func TestSelectionString(t *testing.T) {
	for _, tc := range []struct {
		op   query.Op
		v    value.Value
		want string
	}{
		{query.OpEq, value.Int(-42), "MOVIE.year = -42"},
		{query.OpEq, value.Float(2.5), "MOVIE.year = 2.5"},
		{query.OpEq, value.Str("O'Hara's"), "MOVIE.year = 'O''Hara''s'"},
		{query.OpEq, value.Bool(true), "MOVIE.year = true"},
		{query.OpEq, value.Null(), "MOVIE.year = NULL"},
		{query.OpNe, value.Int(-42), "MOVIE.year <> -42"},
		{query.OpNe, value.Float(2.5), "MOVIE.year <> 2.5"},
		{query.OpNe, value.Str("O'Hara's"), "MOVIE.year <> 'O''Hara''s'"},
		{query.OpNe, value.Bool(true), "MOVIE.year <> true"},
		{query.OpNe, value.Null(), "MOVIE.year <> NULL"},
		{query.OpLt, value.Int(-42), "MOVIE.year < -42"},
		{query.OpLt, value.Float(2.5), "MOVIE.year < 2.5"},
		{query.OpLt, value.Str("O'Hara's"), "MOVIE.year < 'O''Hara''s'"},
		{query.OpLt, value.Bool(true), "MOVIE.year < true"},
		{query.OpLt, value.Null(), "MOVIE.year < NULL"},
		{query.OpLe, value.Int(-42), "MOVIE.year <= -42"},
		{query.OpLe, value.Float(2.5), "MOVIE.year <= 2.5"},
		{query.OpLe, value.Str("O'Hara's"), "MOVIE.year <= 'O''Hara''s'"},
		{query.OpLe, value.Bool(true), "MOVIE.year <= true"},
		{query.OpLe, value.Null(), "MOVIE.year <= NULL"},
		{query.OpGt, value.Int(-42), "MOVIE.year > -42"},
		{query.OpGt, value.Float(2.5), "MOVIE.year > 2.5"},
		{query.OpGt, value.Str("O'Hara's"), "MOVIE.year > 'O''Hara''s'"},
		{query.OpGt, value.Bool(true), "MOVIE.year > true"},
		{query.OpGt, value.Null(), "MOVIE.year > NULL"},
		{query.OpGe, value.Int(-42), "MOVIE.year >= -42"},
		{query.OpGe, value.Float(2.5), "MOVIE.year >= 2.5"},
		{query.OpGe, value.Str("O'Hara's"), "MOVIE.year >= 'O''Hara''s'"},
		{query.OpGe, value.Bool(true), "MOVIE.year >= true"},
		{query.OpGe, value.Null(), "MOVIE.year >= NULL"},
	} {
		s := SelectionCond{Attr: schema.AttrRef{Relation: "MOVIE", Attr: "year"}, Op: tc.op, Value: tc.v}
		if got := s.String(); got != tc.want {
			t.Errorf("%v %v: got %q, want %q", tc.op, tc.v, got, tc.want)
		}
	}

	// The doi side of Atomic.String and Implicit.String, over values whose
	// shortest form is an integer, a fraction, seventeen digits, an exponent
	// and a small fraction — once on literal atoms and once on the atoms a
	// profile hands back.
	join := JoinCond{Left: schema.AttrRef{Relation: "MOVIE", Attr: "did"}, Right: schema.AttrRef{Relation: "DIRECTOR", Attr: "did"}}
	sel := SelectionCond{Attr: schema.AttrRef{Relation: "DIRECTOR", Attr: "name"}, Op: query.OpEq, Value: value.Str("W. Allen")}
	for _, tc := range []struct {
		doi                 float64
		atomSel, atomJoin   string
		implicit, implicit0 string
	}{
		{1, "doi(DIRECTOR.name = 'W. Allen') = 1", "doi(MOVIE.did = DIRECTOR.did) = 1",
			"doi(MOVIE.did = DIRECTOR.did AND DIRECTOR.name = 'W. Allen') = 1", "doi(DIRECTOR.name = 'W. Allen') = 1"},
		{0.5, "doi(DIRECTOR.name = 'W. Allen') = 0.5", "doi(MOVIE.did = DIRECTOR.did) = 0.5",
			"doi(MOVIE.did = DIRECTOR.did AND DIRECTOR.name = 'W. Allen') = 0.5", "doi(DIRECTOR.name = 'W. Allen') = 0.5"},
		{0.30000000000000004, "doi(DIRECTOR.name = 'W. Allen') = 0.30000000000000004", "doi(MOVIE.did = DIRECTOR.did) = 0.30000000000000004",
			"doi(MOVIE.did = DIRECTOR.did AND DIRECTOR.name = 'W. Allen') = 0.30000000000000004", "doi(DIRECTOR.name = 'W. Allen') = 0.30000000000000004"},
		{1e-07, "doi(DIRECTOR.name = 'W. Allen') = 1e-07", "doi(MOVIE.did = DIRECTOR.did) = 1e-07",
			"doi(MOVIE.did = DIRECTOR.did AND DIRECTOR.name = 'W. Allen') = 1e-07", "doi(DIRECTOR.name = 'W. Allen') = 1e-07"},
		{0.001, "doi(DIRECTOR.name = 'W. Allen') = 0.001", "doi(MOVIE.did = DIRECTOR.did) = 0.001",
			"doi(MOVIE.did = DIRECTOR.did AND DIRECTOR.name = 'W. Allen') = 0.001", "doi(DIRECTOR.name = 'W. Allen') = 0.001"},
	} {
		literal := []Atomic{{Sel: &sel, Doi: tc.doi}, {Join: &join, Doi: 1}, {Join: &join, Doi: tc.doi}}
		p := NewProfile()
		if err := p.Add(literal[0]); err != nil {
			t.Fatal(err)
		}
		if err := p.Add(literal[1]); err != nil {
			t.Fatal(err)
		}
		for _, atoms := range [][]Atomic{literal, p.Atoms()} {
			if got := atoms[0].String(); got != tc.atomSel {
				t.Errorf("doi %v: selection atom %q, want %q", tc.doi, got, tc.atomSel)
			}
			imp, err := NewImplicit(atoms[1:2], atoms[0])
			if err != nil {
				t.Fatal(err)
			}
			if got := imp.String(); got != tc.implicit {
				t.Errorf("doi %v: implicit %q, want %q", tc.doi, got, tc.implicit)
			}
			if imp, err = NewImplicit(nil, atoms[0]); err != nil {
				t.Fatal(err)
			}
			if got := imp.String(); got != tc.implicit0 {
				t.Errorf("doi %v: atomic implicit %q, want %q", tc.doi, got, tc.implicit0)
			}
		}
		if got := literal[2].String(); got != tc.atomJoin {
			t.Errorf("doi %v: join atom %q, want %q", tc.doi, got, tc.atomJoin)
		}
	}
}
