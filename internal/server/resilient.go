package server

import (
	"context"
	"errors"
	"fmt"

	"cqp"
	"cqp/internal/fault"
)

// errPanic marks a pipeline panic that the serving path recovered: the
// attempt failed, the request goes on. Classed transient with injected
// faults: the degradation ladder answers in its place.
var errPanic = errors.New("server: pipeline panicked")

// ErrExhausted reports that every rung of the degradation ladder was
// unavailable or failed; handlers map it to 503 degraded_unavailable. The
// text is the one clients have always seen.
var ErrExhausted = errors.New("resilience: degradation ladder exhausted")

// transientFault reports whether an error is a backend fault the serving
// path may degrade around. ONLY injected faults and recovered panics
// qualify; context errors, cqp.ErrInfeasible, caller mistakes (unknown
// algorithms, bad SQL), read errors and spill failures are answered as they
// are — a cheaper rung would meet them again.
func transientFault(err error) bool {
	return errors.Is(err, fault.ErrInjected) || errors.Is(err, errPanic)
}

// solver computes a request's response at one rung of its ladder ("" is full
// fidelity): request.solve bound to the call's query and profile.
type solver func(ctx context.Context, rung string) (any, error)

// safeRun executes one pipeline attempt, converting a panic into an
// errPanic-classed error, so a poisoned attempt is degraded around like any
// other transient fault.
func safeRun(ctx context.Context, solve solver, rung string) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, fmt.Errorf("%w: %v", errPanic, r)
		}
	}()
	return solve(ctx, rung)
}

// runResilient executes one pipeline request with the daemon's full fault
// posture, and is the whole of it: the primary (full-fidelity) attempt runs
// once; when it fails transiently, or when the admission queue is past its
// high-water mark, the degradation ladder runs instead: (1) the stale-cache
// rung, then (2+) the endpoint's cheaper rungs (ladder), in order. Returns
// the answer, the name of the rung that produced it ("" = full fidelity),
// and the terminal error.
//
// This is the operational reading of the paper's algorithm family: exact
// search (the branch-and-bound default; C-BOUNDARIES, D-MAXDOI by name)
// down to the D-HEURDOI heuristic and a tighter cmax are all answers to the
// same question at different quality/cost points, so the daemon sheds
// quality before it sheds requests.
func (s *Server) runResilient(ctx context.Context, endpoint, staleKey string, ladder []string, solve solver) (any, string, error) {
	var last error // the last transient failure: the primary attempt's, then a rung's
	if s.pool.Pressured() {
		s.reg.Counter("server_degraded_bypass_total", "endpoint", endpoint, "reason", "pressure").Inc()
	} else {
		v, err := safeRun(ctx, solve, "")
		if !transientFault(err) {
			// An answer, or a failure on the request's own terms
			// (infeasible problem, dead deadline, caller mistake) or the
			// backend's (a read error, a spill failure) that no rung avoids.
			return v, "", err
		}
		last = err
		s.reg.Counter("server_pipeline_faults_total", "endpoint", endpoint).Inc()
	}

	for i := 0; i <= len(ladder); i++ {
		if err := ctx.Err(); err != nil {
			return s.unavailable(endpoint, errors.Join(last, err))
		}
		rung, v, err := "stale", any(nil), error(nil)
		if i == 0 {
			var ok bool
			if v, ok = s.cache.GetStale(staleKey); !ok {
				continue
			}
		} else {
			rung = ladder[i-1]
			v, err = safeRun(ctx, solve, rung)
		}
		switch {
		case err == nil:
			s.reg.Counter("server_degraded_total", "endpoint", endpoint, "rung", rung).Inc()
			return v, rung, nil
		case errors.Is(err, cqp.ErrInfeasible):
			// A degraded search (heuristic algorithm, tightened cmax) can
			// miss solutions the full-fidelity search would find, so its
			// infeasibility proves nothing about the caller's problem: the
			// rung is unavailable. A genuinely infeasible problem surfaces
			// from the primary attempt, which is exact on all six problems
			// unless the caller named a heuristic.
		case !transientFault(err):
			// A request that is wrong rather than unlucky: degrading
			// cannot fix it.
			return s.unavailable(endpoint, err)
		default:
			last = err
		}
	}
	if last == nil {
		last = errors.New("resilience: degradation step unavailable")
	}
	return s.unavailable(endpoint, fmt.Errorf("%w: %w", ErrExhausted, last))
}

// unavailable ends a ladder that produced no answer. It is counted under its
// own rung, so the degradation spectrum (stale → heuristic → tight-cmax →
// unavailable) reads off one metric.
func (s *Server) unavailable(endpoint string, err error) (any, string, error) {
	s.reg.Counter("server_degraded_total", "endpoint", endpoint, "rung", "unavailable").Inc()
	return nil, "", err
}

// cacheFault is the server.cache fault point, evaluated before every result-
// cache read and fill: an injected error makes the read a miss and skips
// the fill (the cache is an optimization, never a correctness dependency);
// an injected panic exercises the recovery of the goroutine it fires on.
func (s *Server) cacheFault() bool {
	if err := fault.Inject(fault.ServerCache); err != nil {
		s.reg.Counter("server_cache_faults_total").Inc()
		return true
	}
	return false
}
