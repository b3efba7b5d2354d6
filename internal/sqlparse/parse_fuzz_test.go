package sqlparse

import (
	"testing"

	"cqp/internal/testutil"
)

// FuzzParse searches for SQL text the parser mishandles. The server's query
// memo parses a text once and shares the *Query among every request whose
// SQL has that fingerprint, so: parsing never panics; a query that parses
// re-parses from its own SQL() to a query with the same Fingerprint(); and
// that second rendering is the first one, byte for byte.
// testdata/fuzz/FuzzParse seeds it with the statements of parser_test.go
// and orderlimit_test.go.
func FuzzParse(f *testing.F) {
	s := testutil.MovieSchema()
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(s, src)
		if err != nil {
			return
		}
		sql := q.SQL()
		q2, err := Parse(s, sql)
		if err != nil {
			t.Fatalf("%q parses, its rendering %q does not: %v", src, sql, err)
		}
		if q.Fingerprint() != q2.Fingerprint() {
			t.Fatalf("round trip of %q changed the fingerprint:\n%s\n%s", src, q.Fingerprint(), q2.Fingerprint())
		}
		if sql2 := q2.SQL(); sql2 != sql {
			t.Fatalf("rendering of %q is not a fixed point:\n%s\n%s", src, sql, sql2)
		}
	})
}
