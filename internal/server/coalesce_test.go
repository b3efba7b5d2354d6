package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cqp"
)

// newTestDaemon builds a daemon without the httptest wrapper, for tests
// that drive runPipeline directly.
func newTestDaemon(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cqp.SyntheticMovieDB(300, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.pool.Close)
	return s
}

// TestCoalesceHerd is the thundering-herd contract: 64 concurrent requests
// sharing one cache key execute the pipeline exactly once, every waiter
// gets the answer, and — with a one-worker, one-slot pool — no follower
// consumes an admission slot (otherwise 62 of them would shed with 429).
func TestCoalesceHerd(t *testing.T) {
	s := newTestDaemon(t, Config{Workers: 1, QueueDepth: 1})
	const herd = 64
	followersIn := func() int64 {
		return s.reg.Counter("coalesce_followers_total", "endpoint", "personalize").Value()
	}
	var runs atomic.Int64
	primary := func(ctx context.Context, _ string) (any, error) {
		runs.Add(1)
		// Hold the run open until every other member of the herd has joined
		// as a follower, so no late arrival can start a second flight.
		deadline := time.Now().Add(10 * time.Second)
		for followersIn() < herd-1 {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("only %d followers joined", followersIn())
			}
			time.Sleep(time.Millisecond)
		}
		return &personalizeResponse{SQL: "coalesced"}, nil
	}

	var wg sync.WaitGroup
	var leaders atomic.Int64
	outcomes := make([]flightOutcome, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o, led := s.runPipeline(context.Background(), "personalize", "key", "stale-key", nil, primary)
			if led {
				leaders.Add(1)
			}
			outcomes[i] = o
		}(i)
	}
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("pipeline ran %d times for %d identical requests, want exactly 1", got, herd)
	}
	if got := leaders.Load(); got != 1 {
		t.Fatalf("%d requests led the flight, want exactly 1", got)
	}
	for i, o := range outcomes {
		if o.admitErr != nil || o.perr != nil {
			t.Fatalf("request %d: admitErr=%v perr=%v, want clean coalesced answer", i, o.admitErr, o.perr)
		}
		resp, ok := o.out.(*personalizeResponse)
		if !ok || resp.SQL != "coalesced" {
			t.Fatalf("request %d: out = %#v, want the leader's response", i, o.out)
		}
	}
	if got := s.reg.Counter("coalesce_leaders_total", "endpoint", "personalize").Value(); got != 1 {
		t.Errorf("coalesce_leaders_total = %d, want 1", got)
	}
	if got := followersIn(); got != herd-1 {
		t.Errorf("coalesce_followers_total = %d, want %d", got, herd-1)
	}
	if got := s.reg.Gauge("coalesce_inflight").Value(); got != 0 {
		t.Errorf("coalesce_inflight = %d after drain, want 0", got)
	}
}

// TestCoalesceFollowerHonorsOwnContext: a follower whose context dies while
// waiting detaches with its own error and leaves the leader running to
// completion.
func TestCoalesceFollowerHonorsOwnContext(t *testing.T) {
	s := newTestDaemon(t, Config{})
	gate := make(chan struct{})
	started := make(chan struct{})
	primary := func(ctx context.Context, _ string) (any, error) {
		close(started)
		<-gate
		return &personalizeResponse{SQL: "late"}, nil
	}

	leaderCh := make(chan flightOutcome, 1)
	go func() {
		o, _ := s.runPipeline(context.Background(), "personalize", "key", "stale-key", nil, primary)
		leaderCh <- o
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("leader never started")
	}

	fctx, fcancel := context.WithCancel(context.Background())
	followerCh := make(chan flightOutcome, 1)
	var followerLed atomic.Bool
	go func() {
		o, led := s.runPipeline(fctx, "personalize", "key", "stale-key", nil, primary)
		followerLed.Store(led)
		followerCh <- o
	}()
	waitFor(t, func() bool {
		return s.reg.Counter("coalesce_followers_total", "endpoint", "personalize").Value() == 1
	})

	fcancel()
	fo := <-followerCh
	if !errors.Is(fo.perr, context.Canceled) {
		t.Fatalf("canceled follower got perr=%v, want its own context.Canceled", fo.perr)
	}
	if followerLed.Load() {
		t.Fatal("a detaching follower must not report leadership")
	}

	close(gate)
	lo := <-leaderCh
	if lo.perr != nil || lo.admitErr != nil {
		t.Fatalf("leader failed after follower detached: perr=%v admitErr=%v", lo.perr, lo.admitErr)
	}
	if resp := lo.out.(*personalizeResponse); resp.SQL != "late" {
		t.Fatalf("leader out = %+v, want its own run's answer", resp)
	}
}

// TestCoalesceFollowerRetriesAfterLeaderDeath: when the leader dies of its
// own context, a follower with a live context must not inherit that error —
// it retries, becomes the new leader, and runs the pipeline itself.
func TestCoalesceFollowerRetriesAfterLeaderDeath(t *testing.T) {
	s := newTestDaemon(t, Config{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderStarted := make(chan struct{})
	var runs atomic.Int64
	primary := func(ctx context.Context, _ string) (any, error) {
		if runs.Add(1) == 1 {
			close(leaderStarted)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return &personalizeResponse{SQL: "second run"}, nil
	}

	leaderCh := make(chan flightOutcome, 1)
	go func() {
		o, _ := s.runPipeline(leaderCtx, "personalize", "key", "stale-key", nil, primary)
		leaderCh <- o
	}()
	select {
	case <-leaderStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("leader never started")
	}

	type res struct {
		o   flightOutcome
		led bool
	}
	followerCh := make(chan res, 1)
	go func() {
		o, led := s.runPipeline(context.Background(), "personalize", "key", "stale-key", nil, primary)
		followerCh <- res{o, led}
	}()
	waitFor(t, func() bool {
		return s.reg.Counter("coalesce_followers_total", "endpoint", "personalize").Value() == 1
	})

	cancelLeader()
	lo := <-leaderCh
	// The cancellation surfaces as perr (pipeline observed it) or admitErr
	// (Do's caller-side wait observed it first); both are leader-specific.
	if !errors.Is(lo.perr, context.Canceled) && !errors.Is(lo.admitErr, context.Canceled) {
		t.Fatalf("leader outcome = %+v, want context.Canceled", lo)
	}
	fr := <-followerCh
	if fr.o.perr != nil || fr.o.admitErr != nil {
		t.Fatalf("retrying follower failed: perr=%v admitErr=%v", fr.o.perr, fr.o.admitErr)
	}
	if resp := fr.o.out.(*personalizeResponse); resp.SQL != "second run" {
		t.Fatalf("follower out = %+v, want its own re-run's answer", resp)
	}
	if !fr.led {
		t.Fatal("the retrying follower should have become the new leader")
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("pipeline ran %d times, want 2 (dead leader + retry)", got)
	}
}

// TestCoalesceLeaderPanic: a panic under a leader that safeRun cannot see —
// here in the leader's run, inside its admission slot — still publishes the
// flight. The followers do not hang: they retry, and the first to rejoin
// leads the key's next run on the slot the panicking leader released (there
// is one); after them the next request for the key leads.
func TestCoalesceLeaderPanic(t *testing.T) {
	s := newTestDaemon(t, Config{Workers: 1, QueueDepth: 8})
	const followers = 3
	followersIn := func() int64 {
		return s.reg.Counter("coalesce_followers_total", "endpoint", "personalize").Value()
	}
	var runs atomic.Int64
	solve := func(context.Context, string) (any, error) {
		runs.Add(1)
		return &personalizeResponse{SQL: "after the panic"}, nil
	}

	f, leader := s.flights.join("key")
	if !leader {
		t.Fatal("the first request for the key did not lead")
	}
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		s.lead("personalize", "key", f, func() flightOutcome {
			s.pool.Do(context.Background(), func(context.Context) {
				for deadline := time.Now().Add(5 * time.Second); followersIn() < followers && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				panic("injected: leader's run")
			})
			return flightOutcome{}
		})
	}()
	waitFor(t, func() bool { return s.reg.Gauge("coalesce_inflight").Value() == 1 })

	type res struct {
		o   flightOutcome
		led bool
	}
	results := make(chan res, followers)
	// A slot the panic leaked would hold the followers' retry in the queue:
	// their deadline turns that hang into a failed outcome.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < followers; i++ {
		go func() {
			o, led := s.runPipeline(ctx, "personalize", "key", "stale-key", nil, solve)
			results <- res{o, led}
		}()
	}
	if r := <-leaderPanic; r == nil {
		t.Fatal("the leader did not panic")
	}
	leaders := 0
	for i := 0; i < followers; i++ {
		select {
		case r := <-results:
			if r.o.perr != nil || r.o.admitErr != nil || r.o.out.(*personalizeResponse).SQL != "after the panic" {
				t.Fatalf("follower outcome %+v, want the retried run's answer", r.o)
			}
			if r.led {
				leaders++
			}
		case <-time.After(5 * time.Second):
			t.Fatal("followers stranded behind a panicked leader")
		}
	}
	// The retries race each other: one leads and the rest follow it, unless
	// its run is over before they rejoin. Either way a run has a leader.
	if leaders == 0 || runs.Load() != int64(leaders) {
		t.Fatalf("%d followers led and the solver ran %d times, want one run per leader", leaders, runs.Load())
	}
	if _, led := s.runPipeline(context.Background(), "personalize", "key", "stale-key", nil, solve); !led {
		t.Fatal("the next request for the key did not lead")
	}
	if n := s.reg.Gauge("coalesce_inflight").Value(); n != 0 {
		t.Errorf("coalesce_inflight = %d after the panic, want 0", n)
	}
}
