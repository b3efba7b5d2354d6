package exec

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"cqp/internal/query"
	"cqp/internal/schema"
	"cqp/internal/sqlparse"
	"cqp/internal/storage"
	"cqp/internal/value"
)

// TestRankingTieBreak: rows tied on doi rank by their keys' SQL literals,
// column by column, compared as text — numbers included, so INT 10 sorts
// before 9 — and every top-k is a prefix of the full ranking. The keys are
// the cases a comparison that skips the rendering could get wrong: a string
// that is a prefix of another followed by a byte below or above the closing
// quote, quotes that render doubled, the empty string, signed and FLOAT
// zeros, a FLOAT that renders with an exponent, NULL and BOOL beside
// strings, and ties on the first column broken by a later one.
func TestRankingTieBreak(t *testing.T) {
	s := schema.New()
	s.MustAddRelation("T", "",
		schema.Column{Name: "name", Type: value.KindString},
		schema.Column{Name: "n", Type: value.KindInt},
		schema.Column{Name: "x", Type: value.KindFloat},
		schema.Column{Name: "flag", Type: value.KindBool})
	db := storage.NewDB(s, 0)
	null := value.Null()
	str, num, flt, flag := value.Str, value.Int, value.Float, value.Bool
	for _, r := range [][]value.Value{
		{str("Star"), null, null, null},
		{str("Star Wars"), null, null, null},
		{str("Star!"), null, null, null},
		{str("O'Hara"), null, null, null},
		{str("O''Hara"), null, null, null},
		{str(""), null, null, null},
		{str("Star"), num(10), null, null},
		{str("Star"), num(9), flt(1.5), flag(false)},
		{str("O'Hara"), num(-5), flt(math.Copysign(0, -1)), flag(true)},
		{null, num(-5), null, null},
		{null, num(9), null, null},
		{null, num(10), null, null},
		{null, null, flt(0), null},
		{null, null, flt(math.Copysign(0, -1)), flag(true)},
		{null, null, flt(1.5), null},
		{null, null, flt(1e21), null},
		{null, null, null, null},
		{null, null, null, flag(true)},
		{null, null, null, flag(false)},
	} {
		db.MustTable("T").MustInsert(r...)
	}
	subs := []*query.Query{sqlparse.MustParse(s, "SELECT name, n, x, flag FROM T")}
	dois := []float64{0.5}

	full, err := wholePlan(db.Schema(), subs).EvalContext(context.Background(), db, dois, 1)
	if err != nil {
		t.Fatal(err)
	}
	rendered := func(r storage.Row) []string {
		out := make([]string, len(r))
		for i, v := range r {
			out[i] = v.SQL()
		}
		return out
	}
	var want [][]string
	for _, r := range full.Rows {
		if r.Doi != full.Rows[0].Doi {
			t.Fatalf("row %s has doi %v, want every row tied at %v", renderKey(r.Key), r.Doi, full.Rows[0].Doi)
		}
		want = append(want, rendered(r.Key))
	}
	if len(want) != 19 {
		t.Fatalf("%d groups, want one per row, 19", len(want))
	}
	slices.SortFunc(want, slices.Compare[[]string])
	for i, r := range full.Rows {
		if got := rendered(r.Key); !slices.Equal(got, want[i]) {
			t.Fatalf("row %d is %s, want %s", i, strings.Join(got, "|"), strings.Join(want[i], "|"))
		}
	}
	for k := 1; k <= len(full.Rows)+1; k++ {
		top, err := wholePlan(db.Schema(), subs).EvalTopK(context.Background(), db, dois, 1, k)
		if err != nil {
			t.Fatal(err)
		}
		if n := min(k, len(full.Rows)); len(top.Rows) != n {
			t.Fatalf("top-%d kept %d rows, want %d", k, len(top.Rows), n)
		}
		for i, r := range top.Rows {
			if renderKey(r.Key) != renderKey(full.Rows[i].Key) || r.Doi != full.Rows[i].Doi || !slices.Equal(r.Matched, full.Rows[i].Matched) {
				t.Fatalf("top-%d row %d is %s, the full ranking's is %s", k, i, renderKey(r.Key), renderKey(full.Rows[i].Key))
			}
		}
	}
}
