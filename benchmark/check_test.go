package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestCheckerCatchesTamperedAnswers runs a small window, requires the
// checker to pass every honest sampled answer, then corrupts answers the way
// a broken server could — another query's SQL, a solution over its cost
// bound, a degraded answer, lost rows — and requires each to be counted as
// a failed operation.
func TestCheckerCatchesTamperedAnswers(t *testing.T) {
	for _, workload := range []string{"personalize_cold", "execute_cold"} {
		e := testEnv(t, workload, 11, 0.05)
		for c := range e.streams {
			for i := range e.streams[c] {
				e.streams[c][i].sample = true
			}
		}
		w := e.drive(e.streams, 500*time.Millisecond, false)
		if n, first := w.failed(); n > 0 {
			t.Fatalf("%s: %d requests failed: %s", workload, n, first)
		}
		chk := newChecker(e)
		if v := chk.verify(w); v.wrong != 0 || v.checked == 0 {
			t.Fatalf("%s: honest answers: %d of %d wrong: %s", workload, v.wrong, v.checked, v.firstErr)
		}

		var honest reply
		for _, r := range w.logs[0].sampled {
			if r.op.kind == opPersonalize || r.op.kind == opExecute {
				honest = r
				break
			}
		}
		if honest.body == nil {
			t.Fatalf("%s: no sampled pipeline answer", workload)
		}
		edit := func(fn func(doc map[string]any)) reply {
			var doc map[string]any
			if err := json.Unmarshal(honest.body, &doc); err != nil {
				t.Fatal(err)
			}
			fn(doc)
			body, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			return reply{honest.op, honest.status, body}
		}
		tampered := map[string]reply{
			"other SQL": {honest.op, honest.status, bytes.Replace(honest.body, []byte("SELECT DISTINCT"), []byte("SELECT"), 1)},
			"cost over the bound": edit(func(doc map[string]any) {
				doc["solution"].(map[string]any)["cost_ms"] = 1e12
			}),
			"degraded":        edit(func(doc map[string]any) { doc["degraded"] = "heuristic" }),
			"unknown version": edit(func(doc map[string]any) { doc["profile_version"] = 1 << 40 }),
			"status 500":      {honest.op, 500, honest.body},
		}
		if workload == "execute_cold" {
			tampered["lost rows"] = edit(func(doc map[string]any) { doc["total_rows"] = 1 << 30 })
		}
		for what, r := range tampered {
			err := chk.check(r)
			if err == nil {
				t.Errorf("%s: tampered answer (%s) passed the check", workload, what)
				continue
			}
			if !strings.Contains(err.Error(), kindNames[r.op.kind]) {
				t.Errorf("%s: error does not name the endpoint: %v", workload, err)
			}
		}

		// One wrong answer in the window makes the run's fail ratio positive.
		w.logs[0].sampled[0] = tampered["cost over the bound"]
		rep := newReport()
		e.tally(w, chk, rep)
		e.counts(w, rep)
		if f := rep.Metrics["fail_ratio"].Value; rep.Failed == 0 || f <= 0 || f > 1 {
			t.Errorf("%s: a tampered answer left failed=%d fail_ratio=%g", workload, rep.Failed, rep.Metrics["fail_ratio"].Value)
		}
	}
}

// TestChurnReadBackCatchesAStrayWrite rewrites a profile behind the
// clients' backs after the window, so the store no longer holds the text of
// the last acked PUT, and requires the read-back to say so.
func TestChurnReadBackCatchesAStrayWrite(t *testing.T) {
	e := testEnv(t, "profile_churn", 13, 0.01)
	chk := newChecker(e)
	var v verdict
	chk.acks(e.drive(e.warm, 0, false), &v)
	w := e.drive(e.streams, 300*time.Millisecond, false)
	if got := chk.verify(w); got.wrong != 0 {
		t.Fatalf("honest window: %d wrong: %s", got.wrong, got.firstErr)
	}
	if got := chk.verifyStored(w); got.wrong != 0 || got.checked == 0 {
		t.Fatalf("honest read-back: %d of %d wrong: %s", got.wrong, got.checked, got.firstErr)
	}
	if len(w.logs[0].puts) == 0 {
		t.Fatal("no PUT in the window")
	}
	victim := w.logs[0].puts[0].op.profile
	if _, err := e.srv.Profiles().Put(profileID(int(victim)), e.texts[victim].text(0)); err != nil {
		t.Fatal(err)
	}
	if got := chk.verifyStored(w); got.wrong != 1 {
		t.Errorf("read-back after a stray write: %d wrong, want 1: %s", got.wrong, got.firstErr)
	}
}
