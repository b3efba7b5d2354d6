package prefs

import (
	"fmt"
	"strconv"
	"strings"

	"cqp/internal/query"
	"cqp/internal/schema"
	"cqp/internal/value"
)

// ParseProfile parses the text profile format of Figure 1 in the paper:
// one preference per line,
//
//	doi(GENRE.genre = 'musical') = 0.5
//	doi(MOVIE.did = DIRECTOR.did) = 1.0
//
// Blank lines and lines starting with '#' are skipped. A right-hand side of
// the form REL.attr makes the line a (directed) join preference; a literal
// makes it a selection preference.
//
// The text is scanned in place, and the profile is laid out in a few blocks
// sized by counting its lines: the atoms, their SelectionConds and JoinConds
// are slabs, each atom's condition text is a substring of one string
// written for the profile, and the relation indexes are slices of one
// []int. The atoms, texts and errors are those of adding each line's
// ParseAtomic to the profile with Add.
func ParseProfile(src string) (*Profile, error) {
	// A condition's text is no longer than its line without "doi(" and ")",
	// but for a literal that renders longer than it is spelled (1e5, a lone
	// quote); the texts after one such go to a second block.
	n, size := 0, 0
	eachLine(src, func(_ int, t string) bool {
		n++
		size += len(t) - len("doi()")
		return true
	})
	p := &Profile{
		atoms: make([]Atomic, 0, n),
		// A schema has a handful of relations.
		joinsFrom:  make(map[string][]int, 8),
		selsOn:     make(map[string][]int, 8),
		fingerSeen: make(map[string]struct{}, n),
	}
	sels := make([]SelectionCond, 0, n)
	var joins []JoinCond
	var text strings.Builder
	text.Grow(max(size, 0))
	var err error
	eachLine(src, func(lineNo int, t string) bool {
		var l line
		if l, err = scanLine(t, t); err == nil {
			err = checkDoi(l.doi)
		}
		if err != nil {
			err = fmt.Errorf("prefs: line %d: %v", lineNo, err)
			return false
		}
		a := Atomic{Doi: l.doi}
		if l.join {
			joins = append(joins, JoinCond{Left: l.left, Right: l.right})
			a.Join = &joins[len(joins)-1] // pointed into the final slab below
		} else {
			sels = append(sels, SelectionCond{Attr: l.left, Op: l.op, Value: l.val})
			a.Sel = &sels[len(sels)-1]
		}
		at := text.Len()
		a.writeCondition(&text)
		a.text = text.String()[at:]
		if err = p.guard(a.text); err != nil {
			err = fmt.Errorf("prefs: line %d: %v", lineNo, err)
			return false
		}
		p.atoms = append(p.atoms, a)
		return true
	})
	if err != nil {
		return nil, err
	}
	j := 0
	for i := range p.atoms {
		if p.atoms[i].Join != nil {
			p.atoms[i].Join = &joins[j]
			j++
		}
	}
	p.index()
	return p, nil
}

// eachLine calls fn with the 1-based number and the trimmed text of each
// line of src that is neither blank nor a '#' comment, until fn returns
// false.
func eachLine(src string, fn func(lineNo int, t string) bool) {
	for lineNo, more := 1, true; more; lineNo++ {
		var l string
		l, src, more = strings.Cut(src, "\n")
		if t := strings.TrimSpace(l); t != "" && t[0] != '#' && !fn(lineNo, t) {
			return
		}
	}
}

// ParseAtomic parses one "doi(<condition>) = <number>" line.
func ParseAtomic(line string) (Atomic, error) {
	l, err := scanLine(strings.TrimSpace(line), line)
	if err != nil {
		return Atomic{}, err
	}
	if l.join {
		return Atomic{Join: &JoinCond{Left: l.left, Right: l.right}, Doi: l.doi}, nil
	}
	return Atomic{Sel: &SelectionCond{Attr: l.left, Op: l.op, Value: l.val}, Doi: l.doi}, nil
}

// line is one scanned "doi(<condition>) = <doi>" line. Its names and any
// quoted literal are substrings of the text it was read from.
type line struct {
	left, right schema.AttrRef // right is set for a join
	op          query.Op
	val         value.Value
	join        bool
	doi         float64
}

// scanLine reads the trimmed line t in place; orig is the text that error
// messages quote.
func scanLine(t, orig string) (l line, err error) {
	rest, ok := cutDoi(t)
	if !ok {
		return l, fmt.Errorf("expected doi(...), got %q", orig)
	}
	// Find the matching close parenthesis of doi( ... ), respecting quotes.
	body, rest, err := splitParen(rest)
	if err != nil {
		return l, err
	}
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, "=") {
		return l, fmt.Errorf("expected '= <doi>' after condition in %q", orig)
	}
	if l.doi, err = strconv.ParseFloat(strings.TrimSpace(rest[1:]), 64); err != nil {
		return l, fmt.Errorf("bad doi value in %q: %v", orig, err)
	}
	// The condition: "attr op rhs", where rhs is an attribute reference
	// (join) or a literal (selection).
	opIdx, opLen := findOp(body)
	if opIdx < 0 {
		return l, fmt.Errorf("no comparison operator in condition %q", body)
	}
	opText := body[opIdx : opIdx+opLen]
	rhs := strings.TrimSpace(body[opIdx+opLen:])
	if l.left, err = schema.ParseAttrRef(strings.TrimSpace(body[:opIdx])); err != nil {
		return l, err
	}
	if l.op, err = query.ParseOp(opText); err != nil {
		return l, err
	}
	// Join if the RHS looks like Relation.attr (identifier.identifier).
	if l.join = isAttrRef(rhs); l.join {
		if l.op != query.OpEq {
			return l, fmt.Errorf("join preference must use '=', got %q", opText)
		}
		l.right, err = schema.ParseAttrRef(rhs)
		return l, err
	}
	l.val, err = value.ParseLiteral(rhs)
	return l, err
}

// cutDoi returns what follows the "doi(" that t starts with, in any case.
// The prefix has always been compared on the lowered line, where a
// non-ASCII rune can lower to an ASCII letter (U+0130 to 'i'); a line the
// ASCII test rejects, an error but for such a rune, is lowered.
func cutDoi(t string) (string, bool) {
	if len(t) >= 4 && t[0]|0x20 == 'd' && t[1]|0x20 == 'o' && t[2]|0x20 == 'i' && t[3] == '(' ||
		strings.HasPrefix(strings.ToLower(t), "doi(") {
		return t[4:], true
	}
	return "", false
}

// splitParen splits "body) tail" into body and tail, honoring single-quoted
// strings in body.
func splitParen(s string) (body, tail string, err error) {
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

// findOp locates the first comparison operator outside quotes, preferring
// two-character operators.
func findOp(s string) (idx, length int) {
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

// isAttrRef reports whether s has the shape ident.ident (not a quoted or
// numeric literal).
func isAttrRef(s string) bool {
	if s == "" || s[0] == '\'' || s[0] == '-' || (s[0] >= '0' && s[0] <= '9') {
		return false
	}
	dot := strings.IndexByte(s, '.')
	if dot <= 0 || dot == len(s)-1 {
		return false
	}
	return !strings.ContainsAny(s, "' ")
}
