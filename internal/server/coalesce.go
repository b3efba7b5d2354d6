package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"cqp/internal/obs"
)

// flightOutcome is everything one pipeline run produces, in the shape the
// driver's tail (Server.run) consumes: the response value, the degradation
// rung that answered, the pipeline error, and the admission error.
type flightOutcome struct {
	out      any
	degraded string
	perr     error
	admitErr error
}

// leaderSpecific reports whether an outcome is an artifact of the leader's
// own request rather than a property of the shared work: its context died
// (while it waited for a slot or mid-pipeline), or it panicked, which
// publishes the zero outcome. Followers whose own contexts are still alive
// must not inherit such an outcome — they retry, and one of them becomes the
// new leader.
func (o flightOutcome) leaderSpecific() bool {
	for _, err := range []error{o.perr, o.admitErr} {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return true
		}
	}
	return o.out == nil && o.perr == nil && o.admitErr == nil // the leader panicked
}

// flight is one in-progress pipeline run that concurrent identical
// requests attach to. outcome is written exactly once, before done is
// closed; the close is the happens-before edge that publishes it.
type flight struct {
	done    chan struct{}
	outcome flightOutcome
}

// flightTable coalesces concurrent requests that share a cache key into
// one pipeline run (singleflight). The table only ever holds in-progress
// flights: a flight is removed from the map before its done channel is
// closed, so a request arriving after completion starts a fresh run (or,
// in the common case, hits the result cache the leader just filled).
type flightTable struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightTable() *flightTable {
	return &flightTable{m: make(map[string]*flight)}
}

// join returns the in-progress flight for key, or registers a new one and
// returns it with leader=true.
func (t *flightTable) join(key string) (*flight, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.m[key]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	t.m[key] = f
	return f, true
}

// finish publishes the leader's outcome: the flight leaves the map first,
// then done is closed, so no new waiter can join a completed flight.
func (t *flightTable) finish(key string, f *flight, o flightOutcome) {
	f.outcome = o
	t.mu.Lock()
	delete(t.m, key)
	t.mu.Unlock()
	close(f.done)
}

// lead runs the flight this request leads and publishes its outcome. The
// publish is deferred, so a panic under the leader still frees its key: the
// followers see the zero outcome and retry.
func (s *Server) lead(endpoint, key string, f *flight, run func() flightOutcome) (o flightOutcome) {
	s.reg.Counter("coalesce_leaders_total", "endpoint", endpoint).Inc()
	s.reg.Gauge("coalesce_inflight").Add(1)
	defer func() {
		s.flights.finish(key, f, o)
		s.reg.Gauge("coalesce_inflight").Add(-1)
	}()
	return run()
}

// runPipeline executes one pipeline request end to end: admission (the
// pool's slots), the resilience stack (one attempt, then the degradation
// ladder), and — when the request carries a cache key — singleflight
// coalescing, so N concurrent identical cache misses cost one pipeline run
// instead of N.
// Returns the outcome and whether this request led the run: only the
// leader should write the result cache (followers share the same value,
// and a canceled leader must not have followers cache on its behalf).
//
// Followers hold no admission slot while they wait — under a thundering
// herd the slots all go to distinct work. A follower whose own context
// dies detaches with that error, leaving the leader running; a follower
// that inherits a leader-specific outcome retries, becoming the new leader
// if the key is still uncontested.
func (s *Server) runPipeline(ctx context.Context, endpoint, key, staleKey string, ladder []string, solve solver) (flightOutcome, bool) {
	run := func() (o flightOutcome) {
		o.admitErr = s.pool.Do(ctx, func(ctx context.Context) {
			o.out, o.degraded, o.perr = s.runResilient(ctx, endpoint, staleKey, ladder, solve)
		})
		if o.perr != nil && ctx.Err() != nil && errors.Is(o.perr, ctx.Err()) {
			// The context died mid-run: answered like one that died while
			// waiting for a slot, so the tail may serve stale.
			return flightOutcome{admitErr: ctx.Err()}
		}
		return o
	}
	if key == "" {
		// Uncacheable (inline-profile or no_cache) requests have no
		// identity to coalesce on; they always pay their own run.
		return run(), true
	}
	rec := obs.RequestFromContext(ctx)
	for {
		f, leader := s.flights.join(key)
		if leader {
			return s.lead(endpoint, key, f, run), true
		}
		s.reg.Counter("coalesce_followers_total", "endpoint", endpoint).Inc()
		wait := time.Now()
		select {
		case <-f.done:
			rec.AddPhase(obs.PhaseCoalesce, time.Since(wait))
			if !f.outcome.leaderSpecific() {
				return f.outcome, false
			}
			if ctx.Err() == nil {
				continue // the leader died of its own deadline, or panicked
			}
		case <-ctx.Done():
			rec.AddPhase(obs.PhaseCoalesce, time.Since(wait))
		}
		// This waiter's own deadline fired; detach without touching the
		// leader, answering with the waiter's error.
		return flightOutcome{perr: ctx.Err()}, false
	}
}
