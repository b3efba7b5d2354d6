package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cqp"
	"cqp/internal/fault"
	"cqp/internal/wal"
)

// newDurableServer builds a daemon whose profile store persists under dir.
// Callers shut it down themselves (Shutdown syncs and closes the log) so a
// successor can reopen the same directory.
func newDurableServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.DataDir = dir
	db := cqp.SyntheticMovieDB(300, 1)
	s, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func listProfiles(t *testing.T, base string) []ProfileInfo {
	t.Helper()
	resp, body := doJSON(t, http.MethodGet, base+"/profiles", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /profiles: %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Profiles []ProfileInfo `json:"profiles"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.Profiles
}

// TestServerRecoveryRoundTrip: profiles PUT (and one DELETE) through the
// HTTP surface survive a shutdown/reopen cycle with their exact versions,
// /profiles lists them in the documented ID order, and the first PUT after
// recovery gets a version strictly above every pre-restart version — the
// regression pin for the PR-2 cache-key contract (ID@version never
// aliases), which a reset clock would silently break.
func TestServerRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, Config{})
	text := testProfileText()
	putProfile(t, ts1.URL, "carol", text)
	alice := putProfile(t, ts1.URL, "alice", text)
	putProfile(t, ts1.URL, "bob", text)
	bob2 := putProfile(t, ts1.URL, "bob", text) // replacement bumps version
	resp, _ := doJSON(t, http.MethodDelete, ts1.URL+"/profiles/carol", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	maxVersion := bob2.Version // delete advanced the clock past this
	shutdown(t, s1)

	s2, ts2 := newDurableServer(t, dir, Config{})
	if rec := s2.Recovery(); rec == nil || rec.Clock <= maxVersion {
		t.Fatalf("recovery %+v; clock must exceed last acked version %d", rec, maxVersion)
	}
	got := listProfiles(t, ts2.URL)
	if len(got) != 2 || got[0].ID != "alice" || got[1].ID != "bob" {
		t.Fatalf("recovered listing %+v; want [alice bob] in ID order", got)
	}
	if got[0].Version != alice.Version || got[1].Version != bob2.Version {
		t.Fatalf("versions changed across restart: %+v (want alice@%d bob@%d)",
			got, alice.Version, bob2.Version)
	}
	if _, ok := s2.Profiles().Get("carol"); ok {
		t.Fatal("deleted profile resurrected by recovery")
	}
	fresh := putProfile(t, ts2.URL, "dave", text)
	if fresh.Version <= maxVersion {
		t.Fatalf("post-recovery version %d not strictly above pre-crash max %d: cache keys can alias",
			fresh.Version, maxVersion)
	}
	// The recovered profile serves the pipeline.
	resp, body := doJSON(t, http.MethodPost, ts2.URL+"/personalize", personalizeBody("alice"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("personalize with recovered profile: %d: %s", resp.StatusCode, body)
	}
	shutdown(t, s2)
}

// TestHealthzDuringRecovery: until replay completes the daemon must answer
// 503 so load balancers keep traffic away from a store that is not yet the
// acked state.
func TestHealthzDuringRecovery(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.ready.Store(false)
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while recovering: %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "recovering") {
		t.Fatalf("healthz body %s; want status recovering", body)
	}
	s.ready.Store(true)
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after recovery: %d", resp.StatusCode)
	}
}

// TestHealthzReportsWAL: a durable daemon's health body carries the wal
// counters operators alert on.
func TestHealthzReportsWAL(t *testing.T) {
	s, ts := newDurableServer(t, t.TempDir(), Config{})
	putProfile(t, ts.URL, "alice", testProfileText())
	_, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	for _, want := range []string{"log_bytes", "records_since_snapshot", "last_snapshot_age_ms"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("healthz missing wal field %s: %s", want, body)
		}
	}
	shutdown(t, s)
}

// TestMutationDurabilityFault: with wal.append erroring, a PUT and a
// DELETE must answer 503 (not 400), leave the store unchanged, and succeed
// once the fault clears — the mutation path's append-before-ack contract.
func TestMutationDurabilityFault(t *testing.T) {
	s, ts := newDurableServer(t, t.TempDir(), Config{})
	text := testProfileText()
	putProfile(t, ts.URL, "alice", text)

	plan, err := fault.NewPlan(7, fault.Rule{Point: fault.WALAppend, Mode: fault.ModeErr})
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(plan)
	t.Cleanup(fault.Disarm)

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/profiles/bob", strings.NewReader(text))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("PUT under wal.append fault: %d, want 503", resp.StatusCode)
	}
	if _, ok := s.Profiles().Get("bob"); ok {
		t.Fatal("unacked PUT visible in store")
	}
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/profiles/alice", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("DELETE under wal.append fault: %d, want 503", resp.StatusCode)
	}
	if _, ok := s.Profiles().Get("alice"); !ok {
		t.Fatal("unacked DELETE applied to store")
	}

	fault.Disarm()
	putProfile(t, ts.URL, "bob", text)
	shutdown(t, s)
}

// TestWALChaosAckedStateSurvives is the durability chaos drill: sustained
// PUTs while wal.append and wal.fsync fire probabilistically, then a
// restart. Every acked response must be recovered exactly; every faulted
// (503) mutation must be absent unless later re-acked.
func TestWALChaosAckedStateSurvives(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, Config{SnapshotEvery: 16})
	text := testProfileText()
	plan, err := fault.Parse("wal.append:err:0.2,wal.fsync:err:0.1", 99)
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(plan)
	t.Cleanup(fault.Disarm)

	acked := map[string]uint64{} // id -> last acked version
	var failed, okCount int
	for i := 0; i < 120; i++ {
		id := fmt.Sprintf("user-%d", i%17)
		req, _ := http.NewRequest(http.MethodPut, ts1.URL+"/profiles/"+id, strings.NewReader(text))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var pj profileJSON
			if err := json.NewDecoder(resp.Body).Decode(&pj); err != nil {
				t.Fatal(err)
			}
			acked[id] = pj.Version
			okCount++
		case http.StatusServiceUnavailable:
			failed++
		default:
			t.Fatalf("PUT %s: unexpected status %d", id, resp.StatusCode)
		}
		resp.Body.Close()
	}
	fault.Disarm()
	if failed == 0 || okCount == 0 {
		t.Fatalf("chaos plan fired %d faults over %d acks; want both nonzero", failed, okCount)
	}
	shutdown(t, s1)

	s2, ts2 := newDurableServer(t, dir, Config{})
	got := map[string]uint64{}
	for _, p := range listProfiles(t, ts2.URL) {
		got[p.ID] = p.Version
	}
	if len(got) != len(acked) {
		t.Fatalf("recovered %d profiles, acked %d", len(got), len(acked))
	}
	for id, v := range acked {
		if got[id] != v {
			t.Fatalf("profile %s recovered at version %d, acked %d", id, got[id], v)
		}
	}
	shutdown(t, s2)
}

// TestRecoveryRefusesCorruptLog: a daemon pointed at a mid-log-corrupted
// data directory must fail construction, not serve a hole in acked state.
func TestRecoveryRefusesCorruptLog(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, Config{})
	for i := 0; i < 5; i++ {
		putProfile(t, ts1.URL, fmt.Sprintf("user-%d", i), testProfileText())
	}
	shutdown(t, s1)

	// Flip a byte in the first record's payload: damage strictly before
	// the final record is corruption, never a torn tail.
	logs, err := filepathGlob(dir, "wal-*.log")
	if err != nil || len(logs) != 1 {
		t.Fatalf("logs = %v, %v", logs, err)
	}
	flipFileByte(t, logs[0], 20)

	db := cqp.SyntheticMovieDB(300, 1)
	if _, err := New(db, Config{DataDir: dir}); err == nil {
		t.Fatal("New accepted a corrupt log")
	}
}

func filepathGlob(dir, pattern string) ([]string, error) {
	return filepath.Glob(filepath.Join(dir, pattern))
}

func flipFileByte(t *testing.T, path string, off int) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off >= len(buf) {
		t.Fatalf("offset %d beyond %d-byte file", off, len(buf))
	}
	buf[off] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointKeepsStoreState: checkpoints taken every three records,
// across puts, deletes, a handed-off record versioned below the clock and a
// sweep that evicts, persist exactly what the store held. After every
// reopen the recovered store's Records() — its clock and every live
// record — equal the store's before it closed.
func TestCheckpointKeepsStoreState(t *testing.T) {
	dir := t.TempDir()
	schema := cqp.MovieSchema()
	open := func() (*ProfileStore, uint64) {
		t.Helper()
		ps, rec, err := NewDurableProfileStore(schema, dir, wal.Options{SnapshotEvery: 3, Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		return ps, rec.SnapshotSeq
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	put := func(ps *ProfileStore, id string) {
		t.Helper()
		_, err := ps.Put(id, storedText)
		must(err)
	}
	rounds := []func(ps *ProfileStore){
		func(ps *ProfileStore) {
			for _, id := range []string{"a", "b", "c", "d", "m-1"} {
				put(ps, id)
			}
		},
		func(ps *ProfileStore) {
			put(ps, "b")
			_, err := ps.Delete("c")
			must(err)
			put(ps, "m-2")
			put(ps, "e")
		},
		func(ps *ProfileStore) {
			// Handed-off records keep their owner's versions, below the
			// clock: a new ID, a newer copy of a live one, and a tombstone.
			clock, _ := ps.Records()
			must(ps.ApplyRecord(wal.Record{Op: wal.OpPut, ID: "h", Text: storedText, Version: 2, UpdatedAt: 7}))
			cur, _ := ps.Get("a")
			must(ps.ApplyRecord(wal.Record{Op: wal.OpPut, ID: "a", Text: storedText, Version: cur.Version + 1, UpdatedAt: 8}))
			cur, _ = ps.Get("d")
			must(ps.ApplyRecord(wal.Record{Op: wal.OpDelete, ID: "d", Version: cur.Version + 1, UpdatedAt: 9}))
			if now, _ := ps.Records(); now != clock {
				t.Fatalf("records below the clock moved it: %d -> %d", clock, now)
			}
			put(ps, "f")
		},
		func(ps *ProfileStore) {
			n, err := ps.SweepAndEvict(func(id string) bool { return strings.HasPrefix(id, "m-") },
				func([]wal.Record) error { return nil })
			must(err)
			if n != 2 {
				t.Fatalf("evicted %d, want 2", n)
			}
			put(ps, "g")
			put(ps, "b")
		},
	}
	var lastSeq uint64
	for i, round := range rounds {
		ps, _ := open()
		round(ps)
		clock, recs := ps.Records()
		must(ps.Close())
		ps2, seq := open()
		clock2, recs2 := ps2.Records()
		must(ps2.Close())
		if clock2 != clock || !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("round %d: reopened at clock %d with\n%+v\nclosed at clock %d with\n%+v", i, clock2, recs2, clock, recs)
		}
		lastSeq = seq
	}
	if lastSeq < 3 {
		t.Fatalf("last reopen recovered from snapshot %d; the rounds crossed too few checkpoints", lastSeq)
	}
}
