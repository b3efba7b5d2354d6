package cqp_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cqp"
	"cqp/internal/exec"
	"cqp/internal/value"
)

// countdownCtx is a context whose Err() reports healthy for the first fuse
// calls and context.Canceled from then on. It turns the pipeline's own
// deadline checkpoints into an enumerable set: fuse = n dies exactly at the
// n-th checkpoint, wherever in the Figure-2 pipeline that is, so one table
// covers cancellation at every phase boundary without sleeping or racing a
// real timer. Err() calls are counted atomically: nothing promises that a
// pipeline polls from one goroutine only.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	fuse  int64
}

func newCountdownCtx(fuse int64) *countdownCtx {
	return &countdownCtx{Context: context.Background(), fuse: fuse}
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.fuse {
		return context.Canceled
	}
	return nil
}

// runPipeline is the unit under test: personalize, then execute, under ctx.
func runPipeline(ctx context.Context, p *cqp.Personalizer, q *cqp.Query, u *cqp.Profile) error {
	res, err := p.PersonalizeContext(ctx, q, u, cqp.Problem2(10000))
	if err != nil {
		return err
	}
	_, err = res.ExecuteContext(ctx)
	return err
}

// TestExecuteContextAlreadyCancelled checks the contract directly: a context
// cancelled before ExecuteContext is called returns promptly with ctx.Err()
// and runs no sub-query.
func TestExecuteContextAlreadyCancelled(t *testing.T) {
	db := cqp.SyntheticMovieDB(200, 3)
	p := cqp.NewPersonalizer(db)
	u := cqp.SyntheticProfile(10, 4)
	q, err := cqp.ParseQuery(db.Schema(), "SELECT title FROM MOVIE")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Personalize(q, u, cqp.Problem2(10000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = res.ExecuteContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteContext(cancelled) = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("ExecuteContext took %v on a dead context, want prompt return", d)
	}
}

// TestPipelineCancelledAtEveryPhase walks the countdown fuse across every
// deadline checkpoint the personalize+execute pipeline has — entry,
// post-prefspace, post-search, execute entry, and the executor's
// per-relation checks — asserting each one aborts with ctx.Err() promptly
// rather than finishing the phase (or worse, the request) on a dead context.
func TestPipelineCancelledAtEveryPhase(t *testing.T) {
	db := cqp.SyntheticMovieDB(200, 3)
	p := cqp.NewPersonalizer(db)
	u := cqp.SyntheticProfile(10, 4)
	q, err := cqp.ParseQuery(db.Schema(), "SELECT title FROM MOVIE")
	if err != nil {
		t.Fatal(err)
	}

	// Warm-up run: the estimator memoizes per-preference estimates across
	// runs, so the first personalization crosses per-candidate estimation
	// checkpoints that later (memo-hit) runs skip. One warm run makes the
	// checkpoint count structural again for everything that follows.
	if err := runPipeline(context.Background(), p, q, u); err != nil {
		t.Fatalf("warm-up run failed: %v", err)
	}

	// Probe run: count the pipeline's checkpoints with a fuse that never
	// blows. The count is structural (phase boundaries + one per scanned
	// relation), so it is stable across runs of the same query.
	probe := newCountdownCtx(1 << 30)
	if err := runPipeline(probe, p, q, u); err != nil {
		t.Fatalf("probe run failed: %v", err)
	}
	checkpoints := probe.calls.Load()
	if checkpoints < 4 {
		t.Fatalf("pipeline has %d deadline checkpoints, expected at least the four phase boundaries", checkpoints)
	}

	for n := int64(0); n < checkpoints; n++ {
		ctx := newCountdownCtx(n)
		start := time.Now()
		err := runPipeline(ctx, p, q, u)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("checkpoint %d/%d: err = %v, want context.Canceled", n, checkpoints, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("checkpoint %d/%d: took %v to honor cancellation", n, checkpoints, d)
		}
	}
}

// TestPipelineCancelledInIteratorTree aims the countdown fuse at the
// executor: a join query over a larger database forces the execution
// through the fill of its base — a scan, index probes and the grouping of
// the join's tuples — and through the build of every sub-query's group
// bitmap: reducer trees and a test per group (one poll every few dozen rows
// or groups). Every run first inserts a director who directs nothing, so
// that the base it reads is stale and its execution fills it and builds
// every bitmap again; every sampled fuse must abort with ctx.Err() rather
// than finish on a dead context.
func TestPipelineCancelledInIteratorTree(t *testing.T) {
	db := cqp.SyntheticMovieDB(600, 4)
	p := cqp.NewPersonalizer(db)
	u := cqp.SyntheticProfile(12, 5)
	q, err := cqp.ParseQuery(db.Schema(),
		"SELECT title FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did")
	if err != nil {
		t.Fatal(err)
	}
	directors := 0
	runPipeline := func(ctx context.Context, p *cqp.Personalizer, q *cqp.Query, u *cqp.Profile) error {
		directors++
		db.MustTable("DIRECTOR").MustInsert(value.Int(int64(100000+directors)), value.Str("Nobody"))
		return runPipeline(ctx, p, q, u)
	}

	// Warm the estimate memo first so the probe and every fused run cross
	// the same (memo-hit) checkpoint sequence.
	if err := runPipeline(context.Background(), p, q, u); err != nil {
		t.Fatalf("warm-up run failed: %v", err)
	}

	probe := newCountdownCtx(1 << 30)
	var how exec.Report
	if err := runPipeline(exec.WithReport(probe, &how), p, q, u); err != nil {
		t.Fatalf("probe run failed: %v", err)
	}
	if how.Base != "fill" || how.BitmapsBuilt == 0 {
		t.Fatalf("the probe run's execution was not cold: base %s, %d bitmaps built", how.Base, how.BitmapsBuilt)
	}
	checkpoints := probe.calls.Load()
	// The streaming executor polls inside row loops, so a join over 600
	// movies must cross far more checkpoints than the phase boundaries.
	if checkpoints < 20 {
		t.Fatalf("iterator tree crossed only %d checkpoints", checkpoints)
	}
	step := checkpoints / 60
	if step == 0 {
		step = 1
	}
	for n := int64(0); n < checkpoints; n += step {
		ctx := newCountdownCtx(n)
		start := time.Now()
		err := runPipeline(ctx, p, q, u)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("checkpoint %d/%d: err = %v, want context.Canceled", n, checkpoints, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("checkpoint %d/%d: took %v to honor cancellation", n, checkpoints, d)
		}
	}
}
