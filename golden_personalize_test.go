package cqp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"cqp/internal/workload"
)

// updateGoldenPersonalize regenerates testdata/golden_personalize.json. The
// file records what a personalization returned at the commit it was
// generated on, so it is only ever regenerated on the PARENT of a change to
// extraction, estimation or query construction — never on the change
// itself, which must pass it unmodified.
var updateGoldenPersonalize = flag.Bool("update-personalize", false,
	"rewrite testdata/golden_personalize.json from the current code")

const goldenPersonalizePath = "testdata/golden_personalize.json"

// goldenSQLTexts is how many leading cases keep their SQL in full beside
// its hash, so a diff is readable.
const goldenSQLTexts = 40

// goldenPersonalization is one Result pinned to the byte: the SQL by hash
// and length, the preferences verbatim, every float by its bits.
type goldenPersonalization struct {
	Case string `json:"case"`
	// Err is the error text of a personalization that failed (an infeasible
	// window is part of the record); everything below is then empty.
	Err string `json:"err,omitempty"`

	SQLSHA256 string `json:"sql_sha256,omitempty"`
	SQLLen    int    `json:"sql_len,omitempty"`
	SQL       string `json:"sql,omitempty"`

	Preferences []string `json:"preferences,omitempty"`
	DoiBits     []uint64 `json:"doi_bits,omitempty"`
	Set         []int    `json:"set,omitempty"`
	SolDoi      uint64   `json:"sol_doi,omitempty"`
	SolCost     uint64   `json:"sol_cost,omitempty"`
	SolSize     uint64   `json:"sol_size,omitempty"`
	Supreme     uint64   `json:"supreme,omitempty"`

	// Executed cases (every twentieth) also pin the answer the constructed
	// query produces, or the executor's refusal (a union carries no LIMIT).
	Executed   bool   `json:"executed,omitempty"`
	ExecErr    string `json:"exec_err,omitempty"`
	Rows       int    `json:"rows,omitempty"`
	BlockReads int64  `json:"block_reads,omitempty"`
}

// goldenPersonalizations runs the grid at the current code: generated
// queries × profiles re-parsed from their text (as the server stores them) ×
// K × cost bound × match semantics, merged sub-queries on every seventh
// pair, one Problem-1 and one Problem-3 window per pair, and three
// hand-written query shapes (DISTINCT, ORDER BY + LIMIT, a base join) the
// generator never draws.
func goldenPersonalizations(t testing.TB) []goldenPersonalization {
	db := workload.GenerateDB(workload.DBConfig{Movies: 500, Seed: 1})
	p := NewPersonalizer(db)
	queries := workload.Queries(12, 7)
	for _, sql := range []string{
		"SELECT DISTINCT title FROM MOVIE WHERE year >= 1960",
		"SELECT title, year FROM MOVIE WHERE duration <= 150 ORDER BY year DESC, title LIMIT 25",
		"SELECT title, DIRECTOR.name FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did ORDER BY title",
	} {
		q, err := ParseQuery(db.Schema(), sql)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	var profiles []*Profile
	for _, u := range workload.Profiles(12, workload.ProfileConfig{SelectionPrefs: 60, Seed: 3}) {
		parsed, err := ParseProfile(u.String())
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, parsed)
	}

	var out []goldenPersonalization
	record := func(name string, q *Query, u *Profile, prob Problem, opts ...Option) {
		g := goldenPersonalization{Case: name}
		res, err := p.Personalize(q, u, prob, opts...)
		if err != nil {
			g.Err = err.Error()
			out = append(out, g)
			return
		}
		sum := sha256.Sum256([]byte(res.SQL))
		g.SQLSHA256, g.SQLLen = hex.EncodeToString(sum[:]), len(res.SQL)
		if len(out) < goldenSQLTexts {
			g.SQL = res.SQL
		}
		g.Preferences = res.Preferences
		for _, d := range res.PreferenceDois {
			g.DoiBits = append(g.DoiBits, math.Float64bits(d))
		}
		g.Set = res.Solution.Set
		g.SolDoi = math.Float64bits(res.Solution.Doi)
		g.SolCost = math.Float64bits(res.Solution.Cost)
		g.SolSize = math.Float64bits(res.Solution.Size)
		g.Supreme = math.Float64bits(res.Supreme)
		if len(out)%20 == 0 {
			g.Executed = true
			if rows, err := res.Execute(); err != nil {
				g.ExecErr = err.Error()
			} else {
				g.Rows, g.BlockReads = len(rows.Rows), rows.BlockReads
			}
		}
		out = append(out, g)
	}

	pair := 0
	for qi, q := range queries {
		for ui, u := range profiles {
			if qi >= 12 && ui >= 3 {
				continue // the hand-written shapes meet three profiles each
			}
			merged := pair%7 == 0
			pair++
			_, baseSize, err := p.EstimateQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{5, 20} {
				all, err := p.Personalize(q, u, Problem2(math.MaxFloat64), WithMaxK(k))
				if err != nil {
					t.Fatalf("q%d/u%d/k%d: supreme: %v", qi, ui, k, err)
				}
				supreme := all.Supreme
				for _, frac := range []float64{0.2, 0.35, 0.7} {
					name := fmt.Sprintf("q%d/u%d/k%d/c%g", qi, ui, k, frac)
					prob := Problem2(frac * supreme)
					record(name+"/all", q, u, prob, WithMaxK(k))
					record(name+"/any", q, u, prob, WithMaxK(k), WithAnyMatch())
					if merged {
						record(name+"/merged", q, u, prob, WithMaxK(k), WithMergedSubQueries())
					}
				}
				if k == 20 {
					name := fmt.Sprintf("q%d/u%d/k%d", qi, ui, k)
					record(name+"/p1", q, u, Problem1(0.002*baseSize, 0.4*baseSize), WithMaxK(k))
					record(name+"/p3", q, u, Problem3(0.5*supreme, 0.002*baseSize, 0.6*baseSize), WithMaxK(k))
				}
			}
		}
	}
	return out
}

// TestGoldenPersonalize holds everything a personalization returns — the
// SQL text, the preference strings, the dois, the solution's parameters and
// the executed answer of the constructed query — to the record taken at the
// parent of the change under test.
func TestGoldenPersonalize(t *testing.T) {
	got := goldenPersonalizations(t)
	if *updateGoldenPersonalize {
		// One case per line: the file stays a JSON array and a diff names
		// the cases that moved.
		var data bytes.Buffer
		enc := json.NewEncoder(&data)
		enc.SetEscapeHTML(false)
		sep := "[\n"
		for _, g := range got {
			data.WriteString(sep)
			if err := enc.Encode(g); err != nil {
				t.Fatal(err)
			}
			data.Truncate(data.Len() - 1) // Encode's newline; the separator brings its own
			sep = ",\n"
		}
		data.WriteString("\n]\n")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPersonalizePath, data.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d personalizations to %s", len(got), goldenPersonalizePath)
		return
	}
	data, err := os.ReadFile(goldenPersonalizePath)
	if err != nil {
		t.Fatalf("%v (record it with -update-personalize on the parent commit)", err)
	}
	var want []goldenPersonalization
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d personalizations, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range want {
		if reflect.DeepEqual(got[i], want[i]) {
			continue
		}
		if bad++; bad > 5 {
			continue
		}
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		t.Errorf("%s differs\n got %s\nwant %s", want[i].Case, g, w)
	}
	if bad > 5 {
		t.Errorf("… and %d more", bad-5)
	}
}
