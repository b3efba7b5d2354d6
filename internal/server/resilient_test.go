package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"cqp"
	"cqp/internal/fault"
)

// errTransient is classed like an injected fault: the serving path degrades
// around it.
var errTransient = fmt.Errorf("test: %w", fault.ErrInjected)

// errBad is a caller's mistake: permanent, never degraded around.
var errBad = errors.New("test: bad request")

// TestResilience drives runResilient — one primary attempt, then the ladder
// — on a live daemon with a scripted solver. fail decides the outcome of a
// call at a rung ("" is full fidelity); nil answers.
func TestResilience(t *testing.T) {
	cases := []struct {
		name   string
		stale  bool // the request's identity holds an earlier answer
		cancel bool // the context is dead before the run
		fail   func(rung string) error
		rung   string         // the rung that answered
		err    error          // the terminal error, nil for an answer
		status int            // errorStatus's mapping of err:
		class  string         // its code and class
		calls  map[string]int // solver calls per rung
		faults int64          // server_pipeline_faults_total
		dry    int64          // server_degraded_total{rung="unavailable"}
	}{
		{
			name: "attempts exhaust into the ladder",
			fail: func(rung string) error {
				if rung == "" {
					return errTransient
				}
				return nil
			},
			rung: "heuristic", calls: map[string]int{"": 1, "heuristic": 1}, faults: 1,
		},
		{
			name: "a permanent error is answered without the ladder",
			fail: func(string) error { return cqp.ErrInfeasible },
			err:  cqp.ErrInfeasible, status: http.StatusUnprocessableEntity, class: "infeasible",
			calls: map[string]int{"": 1},
		},
		{
			name: "a context error is not retried",
			fail: func(string) error { return fmt.Errorf("cqp: personalize: %w", context.DeadlineExceeded) },
			err:  context.DeadlineExceeded, status: http.StatusGatewayTimeout, class: "timeout",
			calls: map[string]int{"": 1},
		},
		{
			name:  "the stale rung answers first",
			stale: true,
			fail:  func(string) error { return errTransient },
			rung:  "stale", calls: map[string]int{"": 1}, faults: 1,
		},
		{
			name: "the ladder skips an empty stale rung and an infeasible rung",
			fail: func(rung string) error {
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
			fail: func(string) error { return errTransient },
			err:  ErrExhausted, status: http.StatusServiceUnavailable, class: "degraded_unavailable",
			calls: map[string]int{"": 1, "heuristic": 1, "tight-cmax": 1}, faults: 1, dry: 1,
		},
		{
			name: "a permanent error at a rung stops the ladder",
			fail: func(rung string) error {
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
			cancel: true,
			fail:   func(string) error { return errTransient },
			err:    context.Canceled, status: http.StatusServiceUnavailable, class: "unavailable",
			calls: map[string]int{"": 1}, faults: 1, dry: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestDaemon(t, Config{})
			if tc.stale {
				s.cache.Put("id@1g0", len("id"), "earlier")
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel {
				cancel()
			}
			calls := map[string]int{}
			solve := func(_ context.Context, rung string) (any, error) {
				calls[rung]++
				if err := tc.fail(rung); err != nil {
					return nil, err
				}
				return "answer at " + rung, nil
			}

			v, rung, err := s.runResilient(ctx, "personalize", "id", solveLadder, solve)
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
			if fmt.Sprint(calls) != fmt.Sprint(tc.calls) {
				t.Errorf("solver calls %v, want %v", calls, tc.calls)
			}
			if n := s.reg.Counter("server_pipeline_faults_total", "endpoint", "personalize").Value(); n != tc.faults {
				t.Errorf("server_pipeline_faults_total = %d, want %d", n, tc.faults)
			}
			if n := s.reg.Counter("server_degraded_total", "endpoint", "personalize", "rung", "unavailable").Value(); n != tc.dry {
				t.Errorf("server_degraded_total{rung=unavailable} = %d, want %d", n, tc.dry)
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
