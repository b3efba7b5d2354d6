package exec

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"cqp/internal/blockstore"
	"cqp/internal/iter"
	"cqp/internal/obs"
	"cqp/internal/sqlparse"
	"cqp/internal/testutil"
	"cqp/internal/workload"
)

// TestScanShareOnePhysicalPass: repeated evaluations under one share scan
// each relation once, later opens are answered from the materialized pass,
// and rows and charged I/O match unshared evaluation exactly.
func TestScanShareOnePhysicalPass(t *testing.T) {
	db := testutil.MovieDB(256)
	sql := "SELECT title FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did"
	q := sqlparse.MustParse(db.Schema(), sql)
	plain, err := Eval(db, q)
	if err != nil {
		t.Fatal(err)
	}

	share := NewScanShare(0)
	ctx := WithScanShare(context.Background(), share)
	for i := 0; i < 3; i++ {
		res, err := EvalContext(ctx, db, q)
		if err != nil {
			t.Fatalf("eval %d: %v", i, err)
		}
		if got, want := fmt.Sprint(titles(res.Rows)), fmt.Sprint(titles(plain.Rows)); got != want {
			t.Fatalf("eval %d: shared rows differ:\nshared: %s\nplain:  %s", i, got, want)
		}
		if res.BlockReads != plain.BlockReads {
			t.Fatalf("eval %d: charged I/O differs: shared %d, plain %d", i, res.BlockReads, plain.BlockReads)
		}
	}
	physical, shared := share.Stats()
	if physical != 2 {
		t.Errorf("physical passes = %d, want 2 (MOVIE, DIRECTOR)", physical)
	}
	if shared != 4 {
		t.Errorf("shared opens = %d, want 4 (two relations x two repeat evals)", shared)
	}
}

// TestScanShareOversizedFallsBack: a relation above the byte cap is never
// materialized — every consumer runs its own private scan and answers stay
// correct.
func TestScanShareOversizedFallsBack(t *testing.T) {
	db := testutil.MovieDB(256)
	q := sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE")
	plain, err := Eval(db, q)
	if err != nil {
		t.Fatal(err)
	}

	share := NewScanShare(1) // one byte: everything is oversized
	ctx := WithScanShare(context.Background(), share)
	for i := 0; i < 2; i++ {
		res, err := EvalContext(ctx, db, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(plain.Rows) || res.BlockReads != plain.BlockReads {
			t.Fatalf("oversized fallback diverged: %d rows / %d blocks, want %d / %d",
				len(res.Rows), res.BlockReads, len(plain.Rows), plain.BlockReads)
		}
	}
	if physical, shared := share.Stats(); physical != 0 || shared != 0 {
		t.Errorf("oversized relation hit the share: physical=%d shared=%d", physical, shared)
	}
}

// TestScanShareCancellation: a context cancelled mid-batch surfaces
// context.Canceled from evaluation under a share rather than hanging on
// the entry's done channel.
func TestScanShareCancellation(t *testing.T) {
	db := testutil.MovieDB(256)
	q := sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE")
	share := NewScanShare(0)
	ctx, cancel := context.WithCancel(WithScanShare(context.Background(), share))
	cancel()
	if _, err := EvalContext(ctx, db, q); err == nil {
		t.Fatal("cancelled shared evaluation returned nil error")
	}
}

// TestScanShareCollapsesFallback: a union that no B fits — a one-byte budget
// — runs its sub-queries one at a time, and each opens MOVIE and the
// relations it adds, after the fill that gave up opened MOVIE. Under a scan
// share over the block store every relation is still read physically once,
// and every further open is answered from that pass, with the answer of the
// same union run without a share.
func TestScanShareCollapsesFallback(t *testing.T) {
	st, err := blockstore.Open(t.TempDir(), workload.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	db, err := st.DB()
	if err != nil {
		t.Fatal(err)
	}
	workload.GenerateInto(db, workload.DBConfig{Movies: 400, Directors: 40, Actors: 200, Seed: 151})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	subs, dois := allocUnion(db)
	fallback := iter.WithBudget(context.Background(), iter.Budget{Bytes: 1, Dir: t.TempDir()})
	want, err := wholePlan(db.Schema(), subs).EvalContext(fallback, db, dois, 1)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	defer db.SetMetrics(nil)
	share := NewScanShare(0)
	how := new(Report)
	got, err := wholePlan(db.Schema(), subs).EvalContext(WithReport(WithScanShare(fallback, share), how), db, dois, 1)
	if err != nil {
		t.Fatal(err)
	}
	if how.Base != "subqueries" {
		t.Fatalf("a one-byte budget ran %q, want the sub-queries one at a time", how.Base)
	}
	if !reflect.DeepEqual(untimed(got), untimed(want)) {
		t.Error("the shared fallback's answer is not the unshared one")
	}
	opens := map[string]int64{"MOVIE": 1} // relation → its opens: the fill's, then the sub-queries'
	for _, s := range subs {
		for _, r := range s.From {
			opens[r]++
		}
	}
	var total int64
	for rel, n := range opens {
		total += n
		if scans := reg.Counter("storage_scans_total", "table", rel).Value(); scans != 1 {
			t.Errorf("%s: opened %d times, scanned %d times, want once", rel, n, scans)
		}
	}
	if physical, shared := share.Stats(); physical != int64(len(opens)) || shared != total-physical {
		t.Errorf("share: %d physical passes and %d shared opens, want %d and %d", physical, shared, len(opens), total-int64(len(opens)))
	}
}
