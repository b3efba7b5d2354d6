package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cqp"
	"cqp/internal/catalog"
	"cqp/internal/estimate"
	"cqp/internal/server"
	"cqp/internal/workload"
)

// env is one workload's world: the database, the in-process cqpd behind a
// loopback listener, the stored profiles and the seeded request streams.
type env struct {
	spec  *spec
	seed  int64
	scale float64
	dir   string // scratch directory of this set-up, inside the checkout

	db  *cqp.DB
	srv *server.Server
	ts  *httptest.Server
	// est is the benchmark's own estimator over the same statistics the
	// server builds; calibration and the traced replay call the layers with
	// it, so nothing the benchmark computes warms or reads the server's memo.
	est *estimate.Estimator

	queries  []*cqp.Query
	sqlJSON  []string // each query's SQL as a JSON string
	profiles []*cqp.Profile
	texts    []profileText
	loaded   []uint64 // version each profile got when set-up stored it
	bounds   []bounds

	warm    [clients][]op
	streams [clients][]op

	tracer *recorder // spans of traced requests; nil unless --trace 1
}

// scaled shrinks a size for the smoke test, never below floor.
func (e *env) scaled(n, floor int) int {
	return max(int(float64(n)*e.scale), min(n, floor))
}

func (e *env) timedOps() int  { return e.scaled(e.spec.ops, 40) }
func (e *env) warmupOps() int { return e.scaled(e.spec.warmup, min(e.spec.warmup, 4)) }

// setUp builds everything a run needs: database generation, statistics,
// server boot, profile load, and the request streams with their calibrated
// bounds. The whole of it is what setup_s times.
func setUp(s *spec, seed int64, scale float64, workDir string, trace bool) (*env, error) {
	e := &env{spec: s, seed: seed, scale: scale}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	e.dir = dir

	e.db = workload.GenerateDB(workload.DBConfig{Movies: e.scaled(s.movies, 300), Seed: subSeed(seed, tagDB)})
	var cfg server.Config
	if s.durable {
		// "interval" because "always" would measure the sandbox's disk, not
		// the program; the default SnapshotEvery so checkpoints cycle.
		cfg.DataDir = filepath.Join(dir, "wal")
		cfg.FsyncPolicy = "interval"
	}
	if e.srv, err = server.New(e.db, cfg); err != nil {
		e.close()
		return nil, fmt.Errorf("boot server: %w", err)
	}
	cat, err := catalog.Build(e.db)
	if err != nil {
		e.close()
		return nil, err
	}
	e.est = estimate.New(cat, estimate.DefaultBlockMillis)

	e.profiles = workload.Profiles(e.scaled(s.profiles, 16),
		workload.ProfileConfig{SelectionPrefs: 60, Seed: subSeed(seed, tagProfiles)})
	for i, p := range e.profiles {
		e.texts = append(e.texts, splitProfileText(p))
		sp, err := e.srv.Profiles().Put(profileID(i), e.texts[i].text(0))
		if err != nil {
			e.close()
			return nil, fmt.Errorf("load profile %d: %w", i, err)
		}
		e.loaded = append(e.loaded, sp.Version)
	}
	e.queries = balancedQueries(s.queries, querySetSeed)
	for _, q := range e.queries {
		e.sqlJSON = append(e.sqlJSON, strconv.Quote(q.SQL()))
	}
	s.generate(&generator{e: e, keys: map[string]bool{}})

	h := e.srv.Handler()
	if trace {
		e.tracer = newRecorder()
		h = e.spanHandler(h)
	}
	e.ts = httptest.NewServer(h)
	return e, nil
}

// close stops the listener and the server and removes the scratch
// directory. Safe on a partly built env.
func (e *env) close() {
	if e.ts != nil {
		e.ts.Close()
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.srv.Shutdown(ctx) // the run is over; a failed drain changes nothing reported
		cancel()
	}
	_ = os.RemoveAll(e.dir)
}

// spanHeader carries a traced request's root and handler span ids, as
// "<root>.<handler>", to spanHandler.
const spanHeader = "X-Bench-Span"

// spanHandler records a "handler" span around the server's ServeHTTP for
// requests that carry span ids. It wraps the program from outside; untraced
// runs do not install it.
func (e *env) spanHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rootText, idText, _ := strings.Cut(r.Header.Get(spanHeader), ".")
		root, err := strconv.ParseUint(rootText, 10, 64)
		id, err2 := strconv.ParseUint(idText, 10, 64)
		if err != nil || err2 != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		e.tracer.add(id, root, root, "handler", start, time.Now())
	})
}
