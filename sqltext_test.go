package cqp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cqp/internal/exec"
	"cqp/internal/storage"
	"cqp/internal/workload"
)

// textAnswer evaluates the SQL text a personalization returns as SQL: it
// splits the union at UNION ALL, parses each branch, runs it with
// exec.EvalContext, and applies the HAVING in test code. It returns, for
// every key that passes, the branches that return it; a text with no union
// (no preference integrated) is run as it stands, as branch 0.
func textAnswer(t *testing.T, db *DB, sql string) map[string][]int {
	t.Helper()
	ctx := context.Background()
	eval := func(text string) []storage.Row {
		q, err := ParseQuery(db.Schema(), text)
		if err != nil {
			t.Fatalf("the returned text does not parse: %v\n%s", err, text)
		}
		res, err := exec.EvalContext(ctx, db, q)
		if err != nil {
			t.Fatalf("the returned text does not run: %v\n%s", err, text)
		}
		return res.Rows
	}
	out := make(map[string][]int)
	open, having, ok := strings.Cut(sql, ") GROUP BY ")
	if !ok {
		for _, r := range eval(sql) {
			out[textKey(r)] = []int{0}
		}
		return out
	}
	_, inner, ok := strings.Cut(open, " FROM (")
	if !ok {
		t.Fatalf("a union without its FROM (: %s", sql)
	}
	var min int
	switch _, cond, _ := strings.Cut(having, " HAVING COUNT(*) "); {
	case strings.HasPrefix(cond, "= "):
		min, _ = strconv.Atoi(cond[2:])
	case strings.HasPrefix(cond, ">= "):
		min, _ = strconv.Atoi(cond[3:])
	default:
		t.Fatalf("a union without its HAVING: %s", sql)
	}
	branches := strings.Split(inner, " UNION ALL ")
	count := make(map[string][]int)
	for i, b := range branches {
		for _, r := range eval(b) {
			k := textKey(r)
			if m := count[k]; len(m) == 0 || m[len(m)-1] != i {
				count[k] = append(m, i)
			}
		}
	}
	for k, m := range count {
		if len(m) >= min {
			out[k] = m
		}
	}
	if strings.Contains(having, "COUNT(*) = ") {
		for k, m := range out {
			if len(m) != min {
				delete(out, k)
			}
		}
	}
	return out
}

// textKey renders a key as SQL literals.
func textKey(r storage.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.SQL()
	}
	return strings.Join(parts, ", ")
}

// TestReturnedTextIsTheAnswer: the SQL text a personalization returns,
// parsed and run branch by branch with the HAVING applied in test code,
// gives the groups the executed answer has, each with the sub-queries that
// return it. It is the one check that bypasses the union plan. The grid is
// 14 queries × 12 profiles over 500 movies at K = 10, cost bounds of 0.3 and
// 0.7 of the supreme cost, all-match, any-match and merged: 1 008 cases,
// each executed on a cold base cache and on a warm one.
func TestReturnedTextIsTheAnswer(t *testing.T) {
	db := workload.GenerateDB(workload.DBConfig{Movies: 500, Seed: 1})
	p := NewPersonalizer(db)
	queries := workload.Queries(12, 7)
	for _, sql := range []string{
		"SELECT DISTINCT title FROM MOVIE WHERE year >= 1960",
		"SELECT title, DIRECTOR.name FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did ORDER BY title",
	} {
		q, err := ParseQuery(db.Schema(), sql)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	profiles := workload.Profiles(12, workload.ProfileConfig{SelectionPrefs: 60, Seed: 3})
	type textCase struct {
		name string
		res  *Result
		want map[string][]int
	}
	var grid []textCase
	for qi, q := range queries {
		for ui, u := range profiles {
			all, err := p.Personalize(q, u, Problem2(math.MaxFloat64), WithMaxK(10))
			if err != nil {
				t.Fatalf("q%d/u%d: supreme: %v", qi, ui, err)
			}
			for _, frac := range []float64{0.3, 0.7} {
				for _, mode := range []struct {
					name string
					opts []Option
				}{
					{"all", []Option{WithMaxK(10)}},
					{"any", []Option{WithMaxK(10), WithAnyMatch()}},
					{"merged", []Option{WithMaxK(10), WithMergedSubQueries()}},
				} {
					name := fmt.Sprintf("q%d/u%d/c%g/%s", qi, ui, frac, mode.name)
					res, err := p.Personalize(q, u, Problem2(frac*all.Supreme), mode.opts...)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					grid = append(grid, textCase{name, res, textAnswer(t, db, res.SQL)})
				}
			}
		}
	}
	if len(grid) != 1008 {
		t.Errorf("%d cases, want 1 008", len(grid))
	}
	// Every case executes twice: first on a store whose base cache has only
	// what the cases before it filled, then on the cache the whole grid
	// filled.
	for _, pass := range []string{"cold", "warm"} {
		unions, rows := 0, 0
		for _, c := range grid {
			got, err := c.res.Execute()
			if err != nil {
				t.Fatalf("%s, %s: %v", c.name, pass, err)
			}
			if strings.Contains(c.res.SQL, ") GROUP BY ") {
				unions++
			}
			rows += got.Total
			if got.Total != len(c.want) || len(got.Rows) != len(c.want) {
				t.Fatalf("%s, %s: executed %d rows (Total %d), the text answers %d\n%s", c.name, pass, len(got.Rows), got.Total, len(c.want), c.res.SQL)
			}
			for _, r := range got.Rows {
				k := textKey(r.Key)
				m, ok := c.want[k]
				if !ok {
					t.Fatalf("%s, %s: executed key %s is not in the text's answer\n%s", c.name, pass, k, c.res.SQL)
				}
				if !strings.Contains(c.res.SQL, ") GROUP BY ") {
					continue // a plain query: no branch to match
				}
				if !slices.Equal(m, r.Matched) {
					t.Fatalf("%s, %s: key %s matched %v, the text's branches %v\n%s", c.name, pass, k, r.Matched, m, c.res.SQL)
				}
			}
		}
		t.Logf("%s: %d cases, %d of them unions, %d rows", pass, len(grid), unions, rows)
	}
}
