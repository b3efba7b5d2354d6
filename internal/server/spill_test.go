package server

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"

	"cqp/internal/iter"
)

// A daemon under a tight spill budget must serve the same personalized
// answers as an unconstrained one — the budget moves executor state to
// temp files, never changes results — and the budget must actually engage
// on the request path.
func TestSpillBudgetServesIdenticalAnswers(t *testing.T) {
	answers := func(cfg Config) string {
		_, ts := newTestServer(t, cfg)
		putProfile(t, ts.URL, "alice", testProfileText())
		body := map[string]any{
			"sql":        "SELECT title, name FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did",
			"profile_id": "alice",
			"cmax_ms":    10000,
			"k":          50,
		}
		resp, data := doJSON(t, http.MethodPost, ts.URL+"/topk", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("topk: %d: %s", resp.StatusCode, data)
		}
		var out struct {
			Answers json.RawMessage `json:"answers"`
		}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Answers) == 0 {
			t.Fatalf("no answers in %s", data)
		}
		return string(out.Answers)
	}

	plain := answers(Config{})
	r0, _, _ := iter.SpillStats()
	tight := answers(Config{SpillBytes: 2048, SpillDir: t.TempDir()})
	if r1, _, _ := iter.SpillStats(); r1 == r0 {
		t.Fatal("a 2 KiB server budget never spilled — the budget is not reaching the executor")
	}
	if plain != tight {
		t.Fatalf("spill budget changed served results:\nplain: %s\ntight: %s", plain, tight)
	}
}

// TestSpillFailureIsInternal: a spill file the executor cannot open is the
// server's fault, not the caller's. /execute, /topk and an execute-mode
// batch item answer 500 internal.
func TestSpillFailureIsInternal(t *testing.T) {
	_, ts := newTestServer(t, Config{SpillBytes: 2048, SpillDir: filepath.Join(t.TempDir(), "missing")})
	putProfile(t, ts.URL, "alice", testProfileText())
	const sql = "SELECT title, name FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did"
	for path, body := range map[string]map[string]any{
		"/execute": batchItem("alice", sql),
		"/topk":    {"sql": sql, "profile_id": "alice", "cmax_ms": 10000, "k": 50},
	} {
		resp, raw := doJSON(t, http.MethodPost, ts.URL+path, body)
		var env errorResponse
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s body: %v: %s", path, err, raw)
		}
		if resp.StatusCode != http.StatusInternalServerError || env.Error.Class != "internal" {
			t.Errorf("%s with an unopenable spill dir: %d %s, want 500 internal", path, resp.StatusCode, raw)
		}
	}

	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/personalize/batch",
		map[string]any{"execute": true, "items": []map[string]any{batchItem("alice", sql)}})
	var br struct {
		Results []batchItemJSON `json:"results"`
	}
	if err := json.Unmarshal(raw, &br); err != nil || resp.StatusCode != http.StatusOK || len(br.Results) != 1 {
		t.Fatalf("batch: %d %v: %s", resp.StatusCode, err, raw)
	}
	if e := br.Results[0].Error; e == nil || e.Class != "internal" {
		t.Errorf("batch item with an unopenable spill dir: %s, want class internal", raw)
	}
}
