package sqlparse

import (
	"slices"
	"strings"
	"testing"

	"cqp/internal/query"
	"cqp/internal/testutil"
)

// FuzzFingerprint is FuzzParse's converse. The benchmark's query generator
// dedups by Fingerprint(), so two texts that parse to one fingerprint must
// be one query: their SQL() renderings are equal once each query's FROM
// list, joins and selections are put in one order and Distinct is cleared.
// Those are the two things a fingerprint leaves out, and why the result
// cache and batch dedup name a query by its SQL() instead: a personalized
// query keeps Q's clause order, and with no preference integrated it is Q,
// DISTINCT and all (ExamplePersonalizer_Personalize_distinct in the root
// package). testdata/fuzz/FuzzFingerprint seeds it with pairs that share a
// fingerprint — DISTINCT and not, relations, joins and selections
// reordered, a join written right to left, bare and qualified columns,
// lower-case keywords, spacing — and pairs that differ in one literal, one
// operator, a projection's order, ORDER BY or LIMIT, or in a literal that
// holds the fingerprint's separators. Of the pairs that share a
// fingerprint, only bare-and-qualified and lower-case-and-spacing render
// alike; the server package's TestFingerprintPairsServed replays every pair
// through one daemon.
func FuzzFingerprint(f *testing.F) {
	s := testutil.MovieSchema()
	f.Fuzz(func(t *testing.T, a, b string) {
		qa, err := Parse(s, a)
		if err != nil {
			return
		}
		qb, err := Parse(s, b)
		if err != nil || qa.Fingerprint() != qb.Fingerprint() {
			return
		}
		if sa, sb := orderedSQL(qa), orderedSQL(qb); sa != sb {
			t.Fatalf("%q and %q share the fingerprint %q but are different queries:\n%s\n%s",
				a, b, qa.Fingerprint(), sa, sb)
		}
	})
}

// orderedSQL renders q without DISTINCT, with its relations, joins (each
// written in the lesser direction) and selections sorted.
func orderedSQL(q *query.Query) string {
	c := q.Clone()
	c.Distinct = false
	slices.Sort(c.From)
	for i, j := range c.Joins {
		if j.Right.String() < j.Left.String() {
			c.Joins[i] = query.Join{Left: j.Right, Right: j.Left}
		}
	}
	slices.SortFunc(c.Joins, func(x, y query.Join) int { return strings.Compare(x.String(), y.String()) })
	slices.SortFunc(c.Selections, func(x, y query.Selection) int { return strings.Compare(x.String(), y.String()) })
	return c.SQL()
}
