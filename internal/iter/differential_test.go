package iter

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cqp/internal/storage"
	"cqp/internal/value"
)

// exactRow renders a row so that values Compare calls equal but that differ
// in kind or bits — 1 and 1.0, 0.0 and -0.0 — render differently: the
// differential tests below ask which representative an operator kept.
func exactRow(r storage.Row) string {
	s := ""
	for _, v := range r {
		s += v.Kind().String() + ":" + v.SQL()
		if v.Kind() == value.KindFloat {
			s += fmt.Sprintf("/%x", math.Float64bits(v.AsFloat()))
		}
		s += "|"
	}
	return s
}

func exactRows(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = exactRow(r)
	}
	return out
}

// distinctPool holds values whose equalities are the hard ones: INT and FLOAT
// of one number, both zeros, NaN, NULL, and strings.
var distinctPool = []value.Value{
	value.Int(0), value.Int(1), value.Int(2), value.Int(-3),
	value.Float(1), value.Float(2), value.Float(0.5), value.Float(-3),
	value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()),
	value.Null(), value.Str(""), value.Str("a"), value.Str("b"),
}

// distinctReference is DISTINCT by its definition: each row, in input
// order, unless an earlier row already EqualRows it.
func distinctReference(rows []storage.Row) []storage.Row {
	var out []storage.Row
	for _, r := range rows {
		if !slices.ContainsFunc(out, func(o storage.Row) bool { return EqualRows(o, r) }) {
			out = append(out, r)
		}
	}
	return out
}

// TestDistinctMatchesReference compares Distinct with the quadratic
// first-appearance reference over seeded rows full of numeric-equal values,
// signed zeros, NaNs, NULLs and duplicates. In memory the rows and their
// order match the reference's; spilled, their multiset does — the
// representative of each group is still its first appearance.
func TestDistinctMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var rows []storage.Row
		for n := 50 + rng.Intn(500); len(rows) < n; {
			r := make(storage.Row, 1+int(seed%3))
			for i := range r {
				r[i] = distinctPool[rng.Intn(len(distinctPool))]
			}
			rows = append(rows, r)
			// Heavy duplication: repeat an earlier row now and then.
			if rng.Intn(3) == 0 {
				rows = append(rows, rows[rng.Intn(len(rows))])
			}
		}
		want := exactRows(distinctReference(rows))
		for _, budget := range []int64{0, 256, 1024} {
			t.Run(fmt.Sprintf("seed%d/budget%d", seed, budget), func(t *testing.T) {
				ctx := WithBudget(context.Background(), Budget{Bytes: budget, Dir: t.TempDir()})
				runs0, _, _ := SpillStats()
				got, err := Collect(Distinct(ctx, FromRows(rows)))
				if err != nil {
					t.Fatal(err)
				}
				runs1, _, _ := SpillStats()
				if runs1 == runs0 {
					if !slices.Equal(exactRows(got), want) {
						t.Fatalf("in memory: %d rows\n%q\nwant %d\n%q", len(got), exactRows(got), len(want), want)
					}
					return
				}
				if budget == 0 {
					t.Fatal("spilled without a budget")
				}
				g, w := exactRows(got), slices.Clone(want)
				slices.Sort(g)
				slices.Sort(w)
				if !slices.Equal(g, w) {
					t.Fatalf("spilled: %d rows\n%q\nwant %d\n%q", len(g), g, len(w), w)
				}
			})
		}
	}
}

// TestKeylessJoinIsProduct: HashJoin and LeftOuterJoin on no key columns are
// the cartesian product, probe-major in build order while in memory — and,
// with an empty build side, nothing and the NULL-padded probe rows.
func TestKeylessJoinIsProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func(n int, base int64) []storage.Row {
		rows := make([]storage.Row, n)
		for i := range rows {
			rows[i] = intRow(base+int64(i), rng.Int63n(5))
		}
		return rows
	}
	out := []int{3, 0, 2}
	for _, np := range []int{0, 1, 7, 60} {
		for _, nb := range []int{0, 1, 4, 40} {
			probe, build := mk(np, 0), mk(nb, 1000)
			var product, outer []string
			for _, p := range probe {
				for _, b := range build {
					product = append(product, exactRow(storage.Row{b[1], p[0], b[0]}))
				}
				if len(build) == 0 {
					outer = append(outer, exactRow(storage.Row{value.Null(), p[0], value.Null()}))
				}
			}
			outer = append(slices.Clone(product), outer...)
			for _, budget := range []int64{0, 256} {
				for _, join := range []struct {
					name string
					fn   func(context.Context, Iterator, Iterator, []int, []int, int, []int, *storage.Index) Iterator
					want []string
				}{{"HashJoin", HashJoin, product}, {"LeftOuterJoin", LeftOuterJoin, outer}} {
					t.Run(fmt.Sprintf("%s/probe%d/build%d/budget%d", join.name, np, nb, budget), func(t *testing.T) {
						ctx := WithBudget(context.Background(), Budget{Bytes: budget, Dir: t.TempDir()})
						got, err := Collect(join.fn(ctx, FromRows(probe), FromRows(build), nil, nil, 2, out, nil))
						if err != nil {
							t.Fatal(err)
						}
						g, w := exactRows(got), join.want
						if budget > 0 {
							g, w = slices.Clone(g), slices.Clone(w)
							slices.Sort(g)
							slices.Sort(w)
						}
						if !slices.Equal(g, w) {
							t.Fatalf("%d rows\n%q\nwant %d\n%q", len(g), g, len(w), w)
						}
					})
				}
			}
		}
	}
}
