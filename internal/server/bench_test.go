package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"cqp"
	"cqp/internal/fault"
)

// newBenchServer builds a daemon over the synthetic database with a stored
// profile, bypassing the HTTP listener: benchmarks drive the mux directly so
// they measure the serve path (decode, admission, resilience wrapping,
// pipeline, encode), not the TCP stack.
func newBenchServer(b *testing.B) (*Server, http.Handler) {
	b.Helper()
	db := cqp.SyntheticMovieDB(300, 1)
	s, err := New(db, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.pool.Close)
	if _, err := s.store.Put("alice", cqp.SyntheticProfile(40, 2).String()); err != nil {
		b.Fatal(err)
	}
	return s, s.Handler()
}

func serveBench(b *testing.B, h http.Handler, path string, body []byte) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: %d: %s", path, rec.Code, rec.Body.Bytes())
		}
	}
}

// BenchmarkServePersonalize is the disarmed-overhead yardstick: the full
// pipeline serve path with no fault plan armed, so every Inject site costs
// one atomic load and the ladder wrapping runs its success fast
// path. Compare against a build without the resilience layer to bound
// the regression (acceptance: ≤ 2%).
func BenchmarkServePersonalize(b *testing.B) {
	if fault.Enabled() {
		b.Fatal("a fault plan is armed; the benchmark measures the disarmed path")
	}
	_, h := newBenchServer(b)
	body, err := json.Marshal(map[string]any{
		"sql": testSQL, "profile_id": "alice", "no_cache": true,
		"problem": map[string]any{"number": 2, "cmax_ms": 10000},
	})
	if err != nil {
		b.Fatal(err)
	}
	serveBench(b, h, "/personalize", body)
}

// BenchmarkServeExecute exercises the storage-heavy serve path (pipeline +
// union execution), the one with the most Inject sites per request.
func BenchmarkServeExecute(b *testing.B) {
	_, h := newBenchServer(b)
	body, err := json.Marshal(map[string]any{
		"sql": testSQL, "profile_id": "alice", "no_cache": true, "limit": 5,
		"problem": map[string]any{"number": 2, "cmax_ms": 10000},
	})
	if err != nil {
		b.Fatal(err)
	}
	serveBench(b, h, "/execute", body)
}

// BenchmarkProfileStoreShard measures the stripe-routing hash on the
// profile-lookup hot path. The FNV-1a loop is inlined precisely so this
// reports 0 allocs/op; hash/fnv.New32a costs one allocation per call.
func BenchmarkProfileStoreShard(b *testing.B) {
	ps := NewProfileStore(cqp.MovieSchema())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.shard("user-12345")
	}
}

// BenchmarkServePersonalizeCacheHit is the warm path: decode, cache lookup
// (one Inject site), encode.
func BenchmarkServePersonalizeCacheHit(b *testing.B) {
	_, h := newBenchServer(b)
	body, err := json.Marshal(map[string]any{
		"sql": testSQL, "profile_id": "alice",
		"problem": map[string]any{"number": 2, "cmax_ms": 10000},
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the exact key.
	req := httptest.NewRequest(http.MethodPost, "/personalize", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("warm: %d: %s", rec.Code, rec.Body.Bytes())
	}
	serveBench(b, h, "/personalize", body)
}
