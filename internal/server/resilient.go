package server

import (
	"context"
	"errors"
	"fmt"

	"cqp"
	"cqp/internal/fault"
	"cqp/internal/resilience"
)

// errPanic marks a pipeline panic that the serving path recovered: the
// request failed, the worker lives. Classified transient — injected panics
// (the fault harness's panic mode) and genuine pipeline bugs both warrant a
// retry and, failing that, the degradation ladder.
var errPanic = errors.New("server: pipeline panicked")

// transientFault reports whether an error is a backend fault the serving
// path may retry or degrade around. ONLY injected faults and recovered
// panics qualify; context errors, cqp.ErrInfeasible and caller mistakes
// (unknown algorithms, bad SQL) are permanent — retrying them would mask
// the caller's error and burn workers.
func transientFault(err error) bool {
	return errors.Is(err, fault.ErrInjected) || errors.Is(err, errPanic)
}

// permanentErr is transientFault's complement, in the shape
// resilience.Walk's predicate wants.
func permanentErr(err error) bool { return !transientFault(err) }

// solver computes a request's response at one rung of its ladder ("" is full
// fidelity): request.solve bound to the call's query and profile.
type solver func(ctx context.Context, rung string) (any, error)

// safeRun executes one pipeline attempt, converting a panic into an
// errPanic-classed error. First line of panic containment: the pool worker
// and the HTTP middleware behind it are belt and braces.
func safeRun(ctx context.Context, solve solver, rung string) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, fmt.Errorf("%w: %v", errPanic, r)
		}
	}()
	return solve(ctx, rung)
}

// runResilient executes one pipeline request with the daemon's full fault
// posture. The primary (full-fidelity) attempt runs under the circuit
// breaker and the retry policy; when it fails transiently, when the breaker
// is open, or when the admission queue is past its high-water mark, the
// degradation ladder runs instead: (1) the stale-cache rung, then (2+) the
// endpoint's cheaper rungs (ladder), in order — built here, where they are
// walked, not by every request that never degrades. Returns the answer, the
// name of the rung that produced it ("" = full fidelity), and the terminal
// error.
//
// This is the operational reading of the paper's algorithm family: exact
// search (the branch-and-bound default; C-BOUNDARIES, D-MAXDOI by name)
// down to the D-HEURDOI heuristic and a tighter cmax are all answers to the
// same question at different quality/cost points, so the daemon sheds
// quality before it sheds requests.
func (s *Server) runResilient(ctx context.Context, endpoint, staleKey string, ladder []string, solve solver) (any, string, error) {
	bypass := ""
	switch {
	case s.pool.Pressured():
		bypass = "pressure"
	case !s.breaker.Allow():
		bypass = "breaker-open"
	}
	if bypass == "" {
		var val any
		pol := resilience.RetryPolicy{
			MaxAttempts: s.cfg.RetryAttempts,
			Retryable:   transientFault,
			OnRetry: func(int, error) {
				s.reg.Counter("server_retries_total", "endpoint", endpoint).Inc()
			},
		}
		err := resilience.Retry(ctx, pol, func(ctx context.Context) error {
			v, err := safeRun(ctx, solve, "")
			if err != nil {
				return err
			}
			val = v
			return nil
		})
		switch {
		case err == nil:
			s.breaker.Success()
			return val, "", nil
		case !transientFault(err):
			// The backend did its job; the request failed on its own terms
			// (infeasible problem, dead deadline, caller mistake). Settles
			// the breaker grant as a success: this is not backend illness.
			s.breaker.Success()
			return nil, "", err
		default:
			s.breaker.Failure()
			s.reg.Counter("server_pipeline_faults_total", "endpoint", endpoint).Inc()
		}
	} else {
		s.reg.Counter("server_degraded_bypass_total",
			"endpoint", endpoint, "reason", bypass).Inc()
	}

	steps := make([]resilience.Step, 0, len(ladder)+1)
	steps = append(steps, resilience.Step{Name: "stale", Run: func(context.Context) (any, error) {
		if v, ok := s.cache.GetStale(staleKey); ok {
			return v, nil
		}
		return nil, resilience.ErrStepUnavailable
	}})
	for _, rung := range ladder {
		// Panics are contained, and an infeasibility verdict is "rung
		// unavailable" rather than a request error: a degraded search
		// (heuristic algorithm, tightened cmax) can miss solutions the
		// full-fidelity search would find, so its infeasibility proves
		// nothing about the caller's problem. A genuinely infeasible problem
		// surfaces from the primary attempt, which is exact on all six
		// problems unless the caller named a heuristic.
		steps = append(steps, resilience.Step{Name: rung, Run: func(ctx context.Context) (any, error) {
			v, err := safeRun(ctx, solve, rung)
			if err != nil && errors.Is(err, cqp.ErrInfeasible) {
				return nil, resilience.ErrStepUnavailable
			}
			return v, err
		}})
	}
	v, rung, err := resilience.Walk(ctx, permanentErr, steps...)
	if err != nil {
		// The ladder ran dry: every rung was unavailable or failed. Counted
		// under its own rung so the degradation spectrum (stale → heuristic →
		// tight-cmax → unavailable) reads off one metric.
		s.reg.Counter("server_degraded_total", "endpoint", endpoint, "rung", "unavailable").Inc()
		return nil, "", err
	}
	s.reg.Counter("server_degraded_total", "endpoint", endpoint, "rung", rung).Inc()
	return v, rung, nil
}

// cacheFault is the server.cache fault point, evaluated before every result-
// cache read and fill: an injected error makes the read a miss and skips
// the fill (the cache is an optimization, never a correctness dependency);
// an injected panic exercises the middleware recovery.
func (s *Server) cacheFault() bool {
	if err := fault.Inject(fault.ServerCache); err != nil {
		s.reg.Counter("server_cache_faults_total").Inc()
		return true
	}
	return false
}
