package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"cqp"
	"cqp/internal/blockstore"
	"cqp/internal/workload"
)

// TestCorruptPageIsInternal: a table page that fails its CRC is the
// server's fault. /execute and an execute-mode batch item answer 500
// internal, while a malformed query still answers 400.
func TestCorruptPageIsInternal(t *testing.T) {
	dir := t.TempDir()
	st, err := blockstore.Open(dir, cqp.MovieSchema(), 512)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	db, err := st.DB()
	if err != nil {
		t.Fatal(err)
	}
	workload.GenerateInto(db, workload.DBConfig{Movies: 300, Seed: 1})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.pool.Close()
	})
	putProfile(t, ts.URL, "alice", testProfileText())

	// Flip a payload byte of MOVIE's first sealed page behind the store.
	f, err := os.OpenFile(filepath.Join(dir, "movie.tbl"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], 64); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], 64); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var envelope struct {
		Error errorBody `json:"error"`
	}
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/execute", batchItem("alice", testSQL))
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("/execute body: %v: %s", err, body)
	}
	if resp.StatusCode != http.StatusInternalServerError || envelope.Error.Class != "internal" {
		t.Errorf("/execute over a corrupt page: %d %s, want 500 internal", resp.StatusCode, body)
	}

	resp, body = doJSON(t, http.MethodPost, ts.URL+"/personalize/batch",
		map[string]any{"execute": true, "items": []map[string]any{batchItem("alice", testSQL)}})
	var br struct {
		Results []batchItemJSON `json:"results"`
	}
	if err := json.Unmarshal(body, &br); err != nil || resp.StatusCode != http.StatusOK || len(br.Results) != 1 {
		t.Fatalf("batch: %d %v: %s", resp.StatusCode, err, body)
	}
	if e := br.Results[0].Error; e == nil || e.Class != "internal" {
		t.Errorf("batch item over a corrupt page: %s, want class internal", body)
	}

	resp, body = doJSON(t, http.MethodPost, ts.URL+"/execute", batchItem("alice", "SELECT nope FROM NOWHERE"))
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("/execute body: %v: %s", err, body)
	}
	if resp.StatusCode != http.StatusBadRequest || envelope.Error.Class != "bad_request" {
		t.Errorf("malformed SQL: %d %s, want 400 bad_request", resp.StatusCode, body)
	}
}
