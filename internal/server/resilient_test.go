package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"cqp"
	"cqp/internal/fault"
)

// errTransient is classed like an injected fault: the serving path retries
// it and degrades around it.
var errTransient = fmt.Errorf("test: %w", fault.ErrInjected)

// errBad is a caller's mistake: permanent, never retried or degraded around.
var errBad = errors.New("test: bad request")

// TestResilience drives runResilient — retry, breaker and ladder in one
// loop — on a live daemon with a scripted solver. fail decides the outcome
// of the call-th call (from 1) at a rung ("" is full fidelity); nil answers.
func TestResilience(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		stale    bool // the request's identity holds an earlier answer
		trip     bool // the breaker is open
		cancel   time.Duration
		fail     func(rung string, call int) error
		rung     string         // the rung that answered
		err      error          // the terminal error, nil for an answer
		status   int            // errorStatus's mapping of err:
		class    string         // its code and class
		calls    map[string]int // solver calls per rung
		retries  int64          // server_retries_total
		faults   int64          // server_pipeline_faults_total
		dry      int64          // server_degraded_total{rung="unavailable"}
		breaker  bool           // a second failure after the run must not open the breaker
		deadline time.Duration  // the run returns within this
	}{
		{
			name: "retries are counted",
			fail: func(rung string, call int) error {
				if call < 3 {
					return errTransient
				}
				return nil
			},
			calls: map[string]int{"": 3}, retries: 2,
		},
		{
			name: "attempts exhaust into the ladder",
			fail: func(rung string, _ int) error {
				if rung == "" {
					return errTransient
				}
				return nil
			},
			rung: "heuristic", calls: map[string]int{"": 3, "heuristic": 1}, retries: 2, faults: 1,
		},
		{
			name: "a permanent error stops retrying and settles the breaker as a success",
			cfg:  Config{BreakerThreshold: 2},
			fail: func(string, int) error { return cqp.ErrInfeasible },
			err:  cqp.ErrInfeasible, status: http.StatusUnprocessableEntity, class: "infeasible",
			calls: map[string]int{"": 1}, breaker: true,
		},
		{
			name: "a context error is not retried",
			fail: func(string, int) error { return fmt.Errorf("cqp: personalize: %w", context.DeadlineExceeded) },
			err:  context.DeadlineExceeded, status: http.StatusGatewayTimeout, class: "timeout",
			calls: map[string]int{"": 1},
		},
		{
			name:   "cancelling during backoff returns promptly",
			cfg:    Config{RetryAttempts: 10}, // sleeps of about a second in all
			cancel: 20 * time.Millisecond,
			fail:   func(string, int) error { return errTransient },
			err:    context.Canceled, status: http.StatusServiceUnavailable, class: "unavailable",
			faults: 1, dry: 1, deadline: 200 * time.Millisecond,
		},
		{
			name:  "the stale rung answers first",
			cfg:   Config{RetryAttempts: 1},
			stale: true,
			fail:  func(string, int) error { return errTransient },
			rung:  "stale", calls: map[string]int{"": 1}, faults: 1,
		},
		{
			name: "the ladder skips an empty stale rung and an infeasible rung",
			cfg:  Config{RetryAttempts: 1},
			fail: func(rung string, _ int) error {
				switch rung {
				case "":
					return errTransient
				case "heuristic":
					return cqp.ErrInfeasible
				}
				return nil
			},
			rung: "tight-cmax", calls: map[string]int{"": 1, "heuristic": 1, "tight-cmax": 1}, faults: 1,
		},
		{
			name: "an exhausted ladder answers 503 degraded_unavailable",
			cfg:  Config{RetryAttempts: 1},
			fail: func(string, int) error { return errTransient },
			err:  ErrExhausted, status: http.StatusServiceUnavailable, class: "degraded_unavailable",
			calls: map[string]int{"": 1, "heuristic": 1, "tight-cmax": 1}, faults: 1, dry: 1,
		},
		{
			name: "a permanent error at a rung stops the ladder",
			cfg:  Config{RetryAttempts: 1},
			fail: func(rung string, _ int) error {
				if rung == "" {
					return errTransient
				}
				return errBad
			},
			err: errBad, status: http.StatusBadRequest, class: "bad_request",
			calls: map[string]int{"": 1, "heuristic": 1}, faults: 1, dry: 1,
		},
		{
			name:   "a dead context stops the ladder",
			trip:   true,
			cancel: -1,
			fail:   func(string, int) error { return nil },
			err:    context.Canceled, status: http.StatusServiceUnavailable, class: "unavailable",
			calls: map[string]int{}, dry: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestDaemon(t, tc.cfg)
			if tc.stale {
				s.cache.Put("id@1g0", len("id"), "earlier")
			}
			if tc.trip {
				s.breaker.Trip()
			}
			if tc.breaker {
				s.breaker.Allow()
				s.breaker.Failure() // one of the two failures that open it
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			switch {
			case tc.cancel < 0:
				cancel()
			case tc.cancel > 0:
				time.AfterFunc(tc.cancel, cancel)
			}
			calls := map[string]int{}
			solve := func(_ context.Context, rung string) (any, error) {
				calls[rung]++
				if err := tc.fail(rung, calls[rung]); err != nil {
					return nil, err
				}
				return "answer at " + rung, nil
			}

			start := time.Now()
			v, rung, err := s.runResilient(ctx, "personalize", "id", solveLadder, solve)
			if tc.deadline > 0 && time.Since(start) > tc.deadline {
				t.Errorf("returned after %v, want within %v", time.Since(start), tc.deadline)
			}
			if tc.err != nil {
				if !errors.Is(err, tc.err) {
					t.Fatalf("err = %v, want %v", err, tc.err)
				}
				if code, class := errorStatus(err, http.StatusBadRequest); code != tc.status || class != tc.class {
					t.Errorf("answered %d %s, want %d %s", code, class, tc.status, tc.class)
				}
			} else {
				want := any("answer at " + tc.rung)
				if tc.rung == "stale" {
					want = "earlier"
				}
				if err != nil || v != want || rung != tc.rung {
					t.Fatalf("runResilient = (%v, %q, %v), want (%v, %q, nil)", v, rung, err, want, tc.rung)
				}
			}
			if tc.calls != nil && fmt.Sprint(calls) != fmt.Sprint(tc.calls) {
				t.Errorf("solver calls %v, want %v", calls, tc.calls)
			}
			if tc.cancel > 0 {
				if n := s.reg.Counter("server_retries_total", "endpoint", "personalize").Value(); n < 1 {
					t.Errorf("server_retries_total = %d, want at least one retry before the cancel", n)
				}
			} else if n := s.reg.Counter("server_retries_total", "endpoint", "personalize").Value(); n != tc.retries {
				t.Errorf("server_retries_total = %d, want %d", n, tc.retries)
			}
			if n := s.reg.Counter("server_pipeline_faults_total", "endpoint", "personalize").Value(); n != tc.faults {
				t.Errorf("server_pipeline_faults_total = %d, want %d", n, tc.faults)
			}
			if n := s.reg.Counter("server_degraded_total", "endpoint", "personalize", "rung", "unavailable").Value(); n != tc.dry {
				t.Errorf("server_degraded_total{rung=unavailable} = %d, want %d", n, tc.dry)
			}
			if tc.breaker {
				s.breaker.Allow()
				s.breaker.Failure()
				if st := s.breaker.State().String(); st != "closed" {
					t.Errorf("breaker %s: the permanent error did not settle as a success", st)
				}
			}
		})
	}
}

// TestDeadlineMidRun: a deadline that lapses while the pipeline runs is
// answered like one that lapsed in the queue — the identity's stale answer
// when there is one, else 504 — at the pipeline's next context check.
func TestDeadlineMidRun(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())
	body := chaosBody("/execute", 0, false)
	if resp, raw := doJSON(t, http.MethodPost, ts.URL+"/execute", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm /execute: %d: %s", resp.StatusCode, raw)
	}
	putProfile(t, ts.URL, "alice", testProfileText()) // the exact key rotates away

	// The union sleeps past the deadline, then polls the context.
	armPlan(t, "exec.union:lat:1:150ms", 1)
	body["timeout_ms"] = 30
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/execute", body)
	if resp.StatusCode != http.StatusOK || checkChaosBody(t, resp.StatusCode, raw) != "stale" {
		t.Fatalf("deadline mid-run with a stale answer: %d: %s, want the stale answer", resp.StatusCode, raw)
	}
	if n := s.reg.Counter("server_degraded_total", "endpoint", "execute", "rung", "stale").Value(); n != 1 {
		t.Errorf("server_degraded_total{rung=stale} = %d, want 1", n)
	}

	body["no_cache"] = true // no identity, nothing stale
	resp, raw = doJSON(t, http.MethodPost, ts.URL+"/execute", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline mid-run without a stale answer: %d: %s, want 504", resp.StatusCode, raw)
	}
}
