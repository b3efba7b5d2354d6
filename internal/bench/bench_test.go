package bench

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cqp/internal/core"
	"cqp/internal/rewrite"
	"cqp/internal/workload"
)

// tinyConfig keeps harness tests fast: small DB, few pairs, small Ks.
func tinyConfig() Config {
	return Config{
		DB:            workload.DBConfig{Movies: 300, Directors: 40, Actors: 150, BlockSize: 2048},
		Profiles:      2,
		Queries:       2,
		Ks:            []int{5, 10},
		CmaxPcts:      []int{25, 50, 100},
		DefaultK:      10,
		DefaultCmaxMS: 120,
		StateBudget:   50000,
		Seed:          1,
	}
}

func TestRunnerSetup(t *testing.T) {
	r := NewRunner(tinyConfig())
	if r.Pairs() != 4 {
		t.Fatalf("pairs = %d", r.Pairs())
	}
	in, err := r.Instance(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if in.K != 10 {
		t.Errorf("K = %d", in.K)
	}
	if in.StateBudget != 50000 {
		t.Error("state budget not applied")
	}
	// Caching returns the same object.
	in2, _ := r.Instance(0, 10)
	if in != in2 {
		t.Error("instance cache miss")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.Defaults()
	if c.Profiles != 4 || c.Queries != 5 || c.DefaultK != 20 || c.DefaultCmaxMS != 400 {
		t.Errorf("defaults: %+v", c)
	}
	if len(c.Ks) != 4 || len(c.CmaxPcts) != 10 {
		t.Errorf("sweep defaults: %+v", c)
	}
	if c.StateBudget != 1<<20 {
		t.Errorf("budget default: %d", c.StateBudget)
	}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	r := NewRunner(tinyConfig())
	tables, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(ExperimentIDs()) {
		t.Fatalf("got %d tables, want %d", len(tables), len(ExperimentIDs()))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", tb.ID)
		}
		out := tb.Render()
		if !strings.Contains(out, tb.ID) {
			t.Errorf("%s: render missing id", tb.ID)
		}
		csv := tb.CSV()
		if len(strings.Split(strings.TrimSpace(csv), "\n")) != len(tb.Rows)+1 {
			t.Errorf("%s: csv row count wrong", tb.ID)
		}
	}
}

func TestByID(t *testing.T) {
	r := NewRunner(tinyConfig())
	for _, id := range ExperimentIDs() {
		tb, err := r.ByID(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if tb.ID != id {
			t.Errorf("ByID(%s) returned %s", id, tb.ID)
		}
		break // one is enough here; TestAllExperimentsProduceTables covers the rest
	}
	if _, err := r.ByID("nope"); err == nil {
		t.Error("unknown id must fail")
	}
}

// TestFig15ColumnsHold holds each Figure 15 column to its definition: the
// charge is Formula 6 over the executed FROM lists, so it equals the
// estimate exactly, per run and in the table; the CPU time is a column of
// its own; and the empty count is the number of executed answers without a
// row, recounted here.
func TestFig15ColumnsHold(t *testing.T) {
	r := NewRunner(tinyConfig())
	tb, err := r.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2*len(r.Cfg.Ks) {
		t.Fatalf("%d rows, want a Supreme and a P2 row per K: %v", len(tb.Rows), tb.Rows)
	}
	b := r.Env.Est.BlockMillis
	var prevEst float64
	for i, row := range tb.Rows {
		k, supreme := r.Cfg.Ks[i/2], i%2 == 0
		if row[0] != strconv.Itoa(k) {
			t.Fatalf("row %d is K = %s, want %d", i, row[0], k)
		}
		est, err1 := strconv.ParseFloat(row[2], 64)
		cpu, err2 := strconv.ParseFloat(row[4], 64)
		if err1 != nil || err2 != nil || cpu < 0 || est <= 0 {
			t.Fatalf("bad row %v", row)
		}
		if row[3] != row[2] {
			t.Errorf("K = %d %s: charge %s, estimate %s", k, row[1], row[3], row[2])
		}
		if supreme {
			if est < prevEst {
				t.Errorf("the Supreme estimate should grow with K: %v", tb.Rows)
			}
			prevEst = est
		}
		// The recount: execute every pair's set again.
		runs, empty := 0, 0
		for pair := 0; pair < r.Pairs(); pair++ {
			sp, err := r.Space(pair, k)
			if err != nil {
				t.Fatal(err)
			}
			if sp.K == 0 {
				continue
			}
			chosen, estMS := sp.P, sp.SupremeCost()
			if !supreme {
				in, err := r.Instance(pair, k)
				if err != nil {
					t.Fatal(err)
				}
				sol, err := core.Solve(in, core.Problem2(0.4*in.SupremeCost()), "")
				if err != nil {
					t.Fatal(err)
				}
				chosen = nil
				for _, j := range sol.Set {
					chosen = append(chosen, sp.P[j])
				}
				estMS = in.SetCost(sol.Set)
			}
			res, err := rewrite.Construct(sp.Query, chosen, true).Execute(r.Env.DB)
			if err != nil {
				t.Fatal(err)
			}
			if got := float64(res.BlockReads) * b; got != estMS {
				t.Errorf("K = %d pair %d %s: charged %g ms, estimated %g", k, pair, row[1], got, estMS)
			}
			runs++
			if len(res.Rows) == 0 {
				empty++
			}
		}
		if want := fmt.Sprintf("%d/%d", empty, runs); row[5] != want {
			t.Errorf("K = %d %s: %s empty, recount %s", k, row[1], row[5], want)
		}
	}
}

// TestFig14GapsNonNegative: the quality reference must dominate every
// heuristic (gaps ≥ 0).
func TestFig14GapsNonNegative(t *testing.T) {
	r := NewRunner(tinyConfig())
	tb, err := r.Fig14a()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			if v < -1e-6 {
				t.Errorf("negative quality gap %v in %v", v, row)
			}
		}
	}
}

// TestFig14TablesPinned: the Figure 14 tables at tinyConfig, exactly. Every
// solver is deterministic and the state budget counts states, not time, so
// the quality reference and every gap are the same on every run.
func TestFig14TablesPinned(t *testing.T) {
	r := NewRunner(tinyConfig())
	header := []string{"D_SingleMaxDoi", "C_MaxBounds", "D_HeurDoi"}
	want := map[string][][]string{
		"fig14a": {{"5", "0.00", "0.00", "0.00"}, {"10", "2.49", "13.94", "2.49"}},
		"fig14b": {{"25", "0.00", "6103.35", "0.00"}, {"50", "97.79", "106.70", "97.79"}, {"100", "0.00", "0.00", "0.00"}},
	}
	for _, fig := range []func() (*Table, error){r.Fig14a, r.Fig14b} {
		tb, err := fig()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tb.Header[1:], header) || !reflect.DeepEqual(tb.Rows, want[tb.ID]) {
			t.Errorf("%s = %q %q, want %q %q", tb.ID, tb.Header[1:], tb.Rows, header, want[tb.ID])
		}
	}
}

// TestFig13MemoryClaims holds the Figure 13 claims tinyConfig can show, on
// peak bytes (deterministic, unlike time): D-HEURDOI needs the least memory
// at every point of both sweeps and stays under 1 KB a run, and every other
// algorithm's memory humps over cmax — the middle budget needs more than
// either end. The MB-scale peaks of the slow algorithms at K ≥ 20 are a
// scale observation (EXPERIMENTS.md).
func TestFig13MemoryClaims(t *testing.T) {
	r := NewRunner(tinyConfig())
	cfg := r.Cfg
	mem := func(name string, k int, cmaxMS float64, pct int) int64 {
		p, err := r.runPoint(name, k, cmaxMS, pct)
		if err != nil {
			t.Fatal(err)
		}
		return p.totalMem
	}
	type at struct {
		k    int
		cmax float64
		pct  int
	}
	var points []at
	for _, k := range cfg.Ks {
		points = append(points, at{k, cfg.DefaultCmaxMS, 0})
	}
	for _, pct := range cfg.CmaxPcts {
		points = append(points, at{cfg.DefaultK, 0, pct})
	}
	for _, pt := range points {
		heur := mem("D_HeurDoi", pt.k, pt.cmax, pt.pct)
		if heur >= 1024*int64(r.Pairs()) {
			t.Errorf("%+v: D_HeurDoi peaks at %d bytes over %d runs", pt, heur, r.Pairs())
		}
		for _, name := range algoNames() {
			if b := mem(name, pt.k, pt.cmax, pt.pct); name != "D_HeurDoi" && b <= heur {
				t.Errorf("%+v: %s peaks at %d bytes, D_HeurDoi at %d", pt, name, b, heur)
			}
		}
	}
	pcts := cfg.CmaxPcts
	for _, name := range algoNames() {
		if name == "D_HeurDoi" {
			continue
		}
		lo, mid, hi := mem(name, cfg.DefaultK, 0, pcts[0]), mem(name, cfg.DefaultK, 0, pcts[1]), mem(name, cfg.DefaultK, 0, pcts[2])
		if mid <= lo || mid <= hi {
			t.Errorf("%s: no hump over cmax: %d, %d, %d bytes at %v%% of Supreme Cost", name, lo, mid, hi, pcts)
		}
	}
}

// TestTable1AllProblemsSolved: each of the six problems yields a feasible
// answer on the workload instance.
func TestTable1AllProblemsSolved(t *testing.T) {
	r := NewRunner(tinyConfig())
	tb, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[2] == "" {
			t.Errorf("problem %s: no solver", row[0])
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Notes = append(tb.Notes, "note text")
	out := tb.Render()
	for _, want := range []string{"== x — t ==", "a  bb", "note: note text"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	csvTb := &Table{Header: []string{"a,b", "c"}}
	csvTb.AddRow("x\"y", "z")
	csv := csvTb.CSV()
	if !strings.Contains(csv, `"a,b"`) || !strings.Contains(csv, `"x""y"`) {
		t.Errorf("csv escaping: %q", csv)
	}
}
