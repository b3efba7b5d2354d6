package prefs_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cqp/internal/prefs"
	"cqp/internal/query"
	"cqp/internal/schema"
	"cqp/internal/value"
	"cqp/internal/workload"
)

// refProfile is what parseProfileRef builds: the atoms in line order, each
// one's condition text as Profile.Add rendered it, and the relation indexes.
type refProfile struct {
	atoms     []prefs.Atomic
	conds     []string
	joinsFrom map[string][]int
	selsOn    map[string][]int
	seen      map[string]bool
}

// parseProfileRef is ParseProfile as it was before the profile text was
// scanned in place, with Profile.Add's checks (the NaN doi included) — the
// reference the new parser answers for, byte for byte, in its atoms,
// texts, indexes and error messages.
func parseProfileRef(src string) (*refProfile, error) {
	p := &refProfile{joinsFrom: map[string][]int{}, selsOn: map[string][]int{}, seen: map[string]bool{}}
	for lineNo, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		a, err := parseAtomicRef(t)
		if err != nil {
			return nil, fmt.Errorf("prefs: line %d: %v", lineNo+1, err)
		}
		if err := p.add(a); err != nil {
			return nil, fmt.Errorf("prefs: line %d: %v", lineNo+1, err)
		}
	}
	return p, nil
}

func (p *refProfile) add(a prefs.Atomic) error {
	if !(a.Doi >= 0 && a.Doi <= 1) {
		return fmt.Errorf("prefs: doi %g outside [0,1]", a.Doi)
	}
	if (a.Sel == nil) == (a.Join == nil) {
		return fmt.Errorf("prefs: atomic preference must have exactly one of selection/join")
	}
	text := prefs.Atomic{Sel: a.Sel, Join: a.Join}.Condition()
	if p.seen[text] {
		return fmt.Errorf("prefs: duplicate preference on condition %s", text)
	}
	p.seen[text] = true
	idx := len(p.atoms)
	p.atoms = append(p.atoms, a)
	p.conds = append(p.conds, text)
	if a.Sel != nil {
		p.selsOn[a.Sel.Attr.Relation] = append(p.selsOn[a.Sel.Attr.Relation], idx)
	} else {
		p.joinsFrom[a.Join.Left.Relation] = append(p.joinsFrom[a.Join.Left.Relation], idx)
	}
	return nil
}

// parseAtomicRef is ParseAtomic before the in-place scan.
func parseAtomicRef(line string) (prefs.Atomic, error) {
	t := strings.TrimSpace(line)
	if !strings.HasPrefix(strings.ToLower(t), "doi(") {
		return prefs.Atomic{}, fmt.Errorf("expected doi(...), got %q", line)
	}
	body, rest, err := splitParenRef(t[len("doi("):])
	if err != nil {
		return prefs.Atomic{}, err
	}
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, "=") {
		return prefs.Atomic{}, fmt.Errorf("expected '= <doi>' after condition in %q", line)
	}
	doi, err := strconv.ParseFloat(strings.TrimSpace(rest[1:]), 64)
	if err != nil {
		return prefs.Atomic{}, fmt.Errorf("bad doi value in %q: %v", line, err)
	}
	cond, err := parseConditionRef(body)
	if err != nil {
		return prefs.Atomic{}, err
	}
	cond.Doi = doi
	return cond, nil
}

func splitParenRef(s string) (body, tail string, err error) {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			inStr = !inStr
		case ')':
			if !inStr {
				return s[:i], s[i+1:], nil
			}
		}
	}
	return "", "", fmt.Errorf("unbalanced parenthesis in %q", s)
}

func parseConditionRef(s string) (prefs.Atomic, error) {
	opIdx, opLen := findOpRef(s)
	if opIdx < 0 {
		return prefs.Atomic{}, fmt.Errorf("no comparison operator in condition %q", s)
	}
	lhs := strings.TrimSpace(s[:opIdx])
	opText := s[opIdx : opIdx+opLen]
	rhs := strings.TrimSpace(s[opIdx+opLen:])
	attr, err := schema.ParseAttrRef(lhs)
	if err != nil {
		return prefs.Atomic{}, err
	}
	op, err := query.ParseOp(opText)
	if err != nil {
		return prefs.Atomic{}, err
	}
	if isAttrRefRef(rhs) {
		if op != query.OpEq {
			return prefs.Atomic{}, fmt.Errorf("join preference must use '=', got %q", opText)
		}
		right, err := schema.ParseAttrRef(rhs)
		if err != nil {
			return prefs.Atomic{}, err
		}
		return prefs.Atomic{Join: &prefs.JoinCond{Left: attr, Right: right}}, nil
	}
	v, err := value.ParseLiteral(rhs)
	if err != nil {
		return prefs.Atomic{}, err
	}
	return prefs.Atomic{Sel: &prefs.SelectionCond{Attr: attr, Op: op, Value: v}}, nil
}

func findOpRef(s string) (idx, length int) {
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\'' {
			inStr = !inStr
			continue
		}
		if inStr {
			continue
		}
		switch c {
		case '<':
			if i+1 < len(s) && (s[i+1] == '=' || s[i+1] == '>') {
				return i, 2
			}
			return i, 1
		case '>':
			if i+1 < len(s) && s[i+1] == '=' {
				return i, 2
			}
			return i, 1
		case '!':
			if i+1 < len(s) && s[i+1] == '=' {
				return i, 2
			}
		case '=':
			return i, 1
		}
	}
	return -1, 0
}

func isAttrRefRef(s string) bool {
	if s == "" || s[0] == '\'' || s[0] == '-' || (s[0] >= '0' && s[0] <= '9') {
		return false
	}
	dot := strings.IndexByte(s, '.')
	if dot <= 0 || dot == len(s)-1 {
		return false
	}
	return !strings.ContainsAny(s, "' ")
}

// sameAtom reports how got differs from the reference atom want, whose
// condition text is cond; "" when it does not.
func sameAtom(got, want prefs.Atomic, cond string) string {
	switch {
	case (got.Sel == nil) != (want.Sel == nil) || (got.Join == nil) != (want.Join == nil):
		return "kind differs"
	case got.Sel != nil && *got.Sel != *want.Sel:
		return fmt.Sprintf("selection %#v, want %#v", *got.Sel, *want.Sel)
	case got.Join != nil && *got.Join != *want.Join:
		return fmt.Sprintf("join %#v, want %#v", *got.Join, *want.Join)
	case math.Float64bits(got.Doi) != math.Float64bits(want.Doi):
		return fmt.Sprintf("doi %v, want %v", got.Doi, want.Doi)
	case got.Condition() != cond:
		return fmt.Sprintf("condition %q, want %q", got.Condition(), cond)
	}
	wantText := prefs.Atomic{Sel: want.Sel, Join: want.Join, Doi: want.Doi}.String()
	if got.String() != wantText {
		return fmt.Sprintf("String %q, want %q", got.String(), wantText)
	}
	return ""
}

// checkAgainstRef parses src with ParseProfile and with the reference and
// fails t where they differ: the error text, every atom, its Condition and
// String, the relation indexes, the profile's String — and, line by line,
// ParseAtomic against the reference's.
func checkAgainstRef(t *testing.T, src string) {
	t.Helper()
	got, gotErr := prefs.ParseProfile(src)
	want, wantErr := parseProfileRef(src)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("ParseProfile(%q):\nerr  %v\nwant %v", src, gotErr, wantErr)
	}
	if wantErr == nil {
		if got.Len() != len(want.atoms) {
			t.Fatalf("ParseProfile(%q): %d atoms, want %d", src, got.Len(), len(want.atoms))
		}
		var text strings.Builder
		for i, w := range want.atoms {
			if d := sameAtom(got.Atom(i), w, want.conds[i]); d != "" {
				t.Fatalf("ParseProfile(%q): atom %d: %s", src, i, d)
			}
			text.WriteString(prefs.Atomic{Sel: w.Sel, Join: w.Join, Doi: w.Doi}.String())
			text.WriteByte('\n')
		}
		if got.String() != text.String() {
			t.Fatalf("ParseProfile(%q).String() = %q, want %q", src, got.String(), text.String())
		}
		for rel, idx := range want.selsOn {
			if g := got.SelectionsOn(rel); fmt.Sprint(g) != fmt.Sprint(idx) {
				t.Fatalf("ParseProfile(%q).SelectionsOn(%q) = %v, want %v", src, rel, g, idx)
			}
		}
		for rel, idx := range want.joinsFrom {
			if g := got.JoinsFrom(rel); fmt.Sprint(g) != fmt.Sprint(idx) {
				t.Fatalf("ParseProfile(%q).JoinsFrom(%q) = %v, want %v", src, rel, g, idx)
			}
		}
	}
	for _, line := range strings.Split(src, "\n") {
		got, gotErr := prefs.ParseAtomic(line)
		want, wantErr := parseAtomicRef(line)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("ParseAtomic(%q):\nerr  %v\nwant %v", line, gotErr, wantErr)
		}
		if wantErr == nil {
			cond := prefs.Atomic{Sel: want.Sel, Join: want.Join}.Condition()
			if d := sameAtom(got, want, cond); d != "" {
				t.Fatalf("ParseAtomic(%q): %s", line, d)
			}
		}
	}
}

// fuzzSeeds reads the FuzzParseProfile seed corpus.
func fuzzSeeds(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParseProfile", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no seed corpus: %v", err)
	}
	var seeds []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		seeds = append(seeds, src)
	}
	return seeds
}

// TestParseProfileMatchesReference holds ParseProfile and ParseAtomic to the
// reference over the fuzz seeds, 2 000 generated profiles and a table of
// malformed and unusual lines.
func TestParseProfileMatchesReference(t *testing.T) {
	for _, src := range fuzzSeeds(t) {
		checkAgainstRef(t, src)
	}
	for seed := int64(0); seed < 2000; seed++ {
		cfg := workload.ProfileConfig{Seed: seed}
		if seed%4 == 0 {
			cfg.SelectionPrefs = 1 + int(seed)%97
		}
		checkAgainstRef(t, workload.GenerateProfile(cfg).String())
	}
	for _, src := range []string{
		"doi(GENRE.genre = 'musical' = 0.5",                                    // unbalanced paren
		"doi(GENRE.genre = 'musical') 0.5",                                     // missing =
		"doi(GENRE.genre = 'musical') =",                                       // missing doi
		"doi(GENRE.genre = 'musical') = 0.5x",                                  // bad doi
		"doi(GENRE.genre = 'musical') = NaN",                                   // NaN doi
		"doi(GENRE.genre = 'musical') = -0.1\ndoi(GENRE.genre = 'x') = 1.5",    // doi range
		"doi(MOVIE.mid < GENRE.mid) = 0.5",                                     // join with a non-= operator
		"doi(MOVIE.mid <> GENRE.mid) = 0.5",                                    // and another
		"doi(MOVIE.mid = GENRE.mid.x) = 0.5",                                   // three-part join side
		"doi(MOVIE.year = 1990) = 0.5\ndoi(MOVIE.year=1990) = 0.7",             // duplicate
		"doi(MOVIE.year = 1990) = 0.5\ndoi(MOVIE.year = 1990) = 0.7\nbroken",   // duplicate before a bad line
		"doi(MOVIE.year = 1990) = 0.5\nbroken\ndoi(MOVIE.year = 1990) = 0.7",   // bad line before a duplicate
		"doi(MOVIE.year = 1990) = 0.5\ndoi(MOVIE.year = 1990) = 2",             // a doi error before the duplicate
		"DOI(MOVIE.year = 1990) = 0.5",                                         // DOI(
		"Doi(MOVIE.year = 1990) = 0.5\ndOI(MOVIE.year = 1991) = 0.5",           // mixed case
		"DOİ(MOVIE.year = 1990) = 0.5",                                         // a rune that lowers to i
		"doi (MOVIE.year = 1990) = 0.5",                                        // space before (
		"doi(MOVIE.title = 'a)b') = 0.5",                                       // ) inside a quoted literal
		"doi(MOVIE.title = 'it''s') = 0.5",                                     // doubled quotes
		"doi(MOVIE.title = 'it's') = 0.5",                                      // a lone quote inside
		"doi(MOVIE.title = '''') = 0.5\ndoi(MOVIE.title = '') = 0.5",           // quotes only, empty
		"doi(MOVIE.year = 1990) = 0.5\r\ndoi(MOVIE.year = 1991) = 0.25\r\n",    // CRLF
		"  # comment\n\n\t\ndoi( MOVIE . year  >=  1990 ) = 0.5  \n",           // spacing everywhere
		"doi(MOVIE.year != 1990) = 1\ndoi(MOVIE.year<>1991)=0",                 // != and <>, no spaces
		"doi(MOVIE.year = 1E5) = 0.5\ndoi(MOVIE.year = 9e9) = 0.5",             // exponents render longer
		"doi(MOVIE.year = +7) = 0.5\ndoi(MOVIE.year = -0) = 0.5",               // signs
		"doi(MOVIE.year = 99999999999999999999) = 0.5",                         // an INT out of range
		"doi(MOVIE.year = .5) = 0.5\ndoi(MOVIE.year = 0x1p4) = 0.5",            // float spellings
		"doi(MOVIE.year = inf) = 0.5\ndoi(MOVIE.year = nan) = 0.5",             // non-finite literals
		"doi(MOVIE.flag = true) = 0.5\ndoi(MOVIE.flag = FALSE) = 0.5",          // booleans
		"doi(MOVIE.flag = null) = 0.5\ndoi(MOVIE.flag = Null) = 0.6",           // NULL
		"doi(MOVIE.flag = falſe) = 0.5",                                        // a rune that uppers to S
		"doi(MOVIE.year = abc) = 0.5",                                          // bad literal
		"doi(MOVIE.year = ) = 0.5",                                             // empty literal
		"doi(MOVIE = 1) = 0.5\ndoi(.x = 1) = 0.5",                              // bad attribute references
		"doi(A.b.c = 1) = 0.5",                                                 // three parts
		"doi(MO VIE.year = 1) = 0.5",                                           // a space inside a name
		"doi(MOVIE.year 1990) = 0.5",                                           // no operator
		"doi(MOVIE.year ! 1990) = 0.5",                                         // a lone !
		"doi(MOVIE.title = 'x' ) = 0.5 # trailing",                             // junk after the doi
		"doi(MOVIE.year = 1990) = 0.5\ndoi(MOVIE.year = 1990.0) = 0.5",         // INT and FLOAT render apart
		"doi(MOVIE.year = 1990) = 1e-07\ndoi(MOVIE.year = 1991) = 0x1p-2",      // doi spellings
		"doi(MOVIE.did = DIRECTOR.did) = 0.5\ndoi(MOVIE.did=DIRECTOR.did)=0.6", // duplicate join
		"doi(CAST.aid = ACTOR.aid) = 0.5\ndoi(MOVIE.mid = CAST.mid) = 0.5",     // joins in any order
		"doi(MOVIE.title = 'é (ü)') = 0.5",                                     // non-ASCII literal
		"doi(\xffMOVIE.year = 1) = 0.5\ndo\xff(x)",                             // invalid UTF-8
		"doi(",    // nothing after doi(
		"doi()=0", // empty condition
		"",
		"\n\n",
	} {
		checkAgainstRef(t, src)
	}
}
