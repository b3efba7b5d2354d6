// Command cqpd is the CQP serving daemon: a long-lived HTTP/JSON process
// that holds user profiles, admits personalization requests through a
// bounded worker pool with per-request deadlines, caches results, and
// drains gracefully on SIGTERM.
//
// Usage:
//
//	cqpd                              # :8344 over a 4000-movie synthetic DB
//	cqpd -addr :9000 -movies 20000
//	cqpd -csv out/                    # load datagen CSVs instead
//	cqpd -backend disk -dbdir db/     # serve a persistent block-store DB
//	                                  # (ingests -csv or synthesizes when empty)
//	cqpd -spill 67108864              # cap executor state at 64 MiB per request
//	cqpd -data state/                 # durable profiles: WAL + snapshots
//	cqpd -data state/ -fsync interval -snapshot-every 256
//	cqpd -workers 8 -queue 128 -cache 4096 -timeout 10s -maxtimeout 1m
//	cqpd -batch-max 16                # smaller /personalize/batch requests
//	cqpd -preload 60                  # store a synthetic profile as "default"
//	cqpd -faults 'storage.scan:err:0.05' -faultseed 42   # chaos run
//	cqpd -slowlog 50ms -logjson       # attribute every request ≥ 50ms, JSON logs
//	cqpd -flight 1024                 # retain more requests for /debug/requests
//	cqpd -node-id n1 -data s1/ -replicate \
//	     -peers 'n1=http://h1:8344,n2=http://h2:8344,n3=http://h3:8344'
//	                                  # one member of a 3-node cluster
//	cqpd -node-id n4 -data s4/ -replicate -peers 'n4=http://h4:8344'
//	                                  # boot a joiner alone, then:
//	                                  # POST any member /cluster/join
//	                                  # {"id":"n4","url":"http://h4:8344"}
//	cqpd ... -replicas 3 -peer-strikes 2 -antientropy 10s
//	                                  # R=3, two strikes mark a peer down, 10s repair period
//
// Endpoints: POST /personalize, /personalize/batch, /execute, /front,
// /topk; PUT/GET/DELETE
// /profiles/{id}, GET /profiles; POST /refresh; GET /healthz, /metrics,
// /slo, /debug/requests, /debug/requests/{id}, /debug/vars, /debug/pprof.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"cqp"
	"cqp/internal/blockstore"
	"cqp/internal/fault"
	"cqp/internal/server"
	"cqp/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", ":8344", "listen address")
		movies    = flag.Int("movies", 4000, "synthetic database size")
		seed      = flag.Int64("seed", 1, "workload seed")
		csvDir    = flag.String("csv", "", "directory of relation CSVs (from datagen) to load instead of generating")
		backend   = flag.String("backend", "mem", "table backend: mem (in-memory heap files) or disk (persistent block store)")
		dbDir     = flag.String("dbdir", "cqpdb", "block-store database directory for -backend disk")
		spill     = flag.Int64("spill", 0, "per-request executor memory budget in bytes; past it joins and union group tables spill to temp files (0 = unlimited)")
		spillDir  = flag.String("spilldir", "", "directory for executor spill files (empty = OS temp dir)")
		dataDir   = flag.String("data", "", "durable profile-store directory (write-ahead log + snapshots); empty = in-memory")
		fsync     = flag.String("fsync", "always", "WAL fsync policy: always|interval|never")
		snapEvery = flag.Int("snapshot-every", 1024, "logged mutations between snapshots (negative disables)")
		workers   = flag.Int("workers", 0, "concurrent pipeline workers (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "admission queue depth before shedding with 429")
		cache     = flag.Int("cache", 1024, "LRU result-cache entries")
		timeout   = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTO     = flag.Duration("maxtimeout", 2*time.Minute, "cap on per-request deadlines (timeout_ms)")
		maxRows   = flag.Int("maxrows", 100, "default row cap for /execute responses")
		maxBody   = flag.Int64("maxbody", 1<<20, "request-body size cap in bytes (oversize gets 413)")
		batchMax  = flag.Int("batch-max", 64, "max items per /personalize/batch request")
		preload   = flag.Int("preload", 0, "store a synthetic profile with this many selection preferences as \"default\"")
		grace     = flag.Duration("grace", 10*time.Second, "shutdown drain deadline")
		faults    = flag.String("faults", os.Getenv("FAULTS"), "fault-injection plan, e.g. 'storage.scan:err:0.05' (also via FAULTS env)")
		faultSeed = flag.Int64("faultseed", 1, "seed for the fault plan's injection decisions")
		logJSON   = flag.Bool("logjson", false, "emit request logs as JSON instead of logfmt-style text")
		slowLog   = flag.Duration("slowlog", -1, "log per-phase latency attribution for requests at least this slow (0 = every request; negative disables)")
		flightN   = flag.Int("flight", 256, "flight-recorder ring size for /debug/requests (negative disables retention)")
		nodeID    = flag.String("node-id", "", "this node's ID in a multi-node cluster (requires -peers)")
		peersCSV  = flag.String("peers", "", "static cluster peer list: comma-separated id=url pairs including this node, e.g. 'n1=http://10.0.0.1:8344,n2=http://10.0.0.2:8344'")
		replicate = flag.Bool("replicate", false, "ship acked WAL frames to followers so reads fail over when an owner dies (requires -peers and -data)")
		replicas  = flag.Int("replicas", 2, "replication factor R: owner plus R−1 followers per profile (must match across the cluster; R=3 survives two simultaneous owner deaths)")
		strikes   = flag.Int("peer-strikes", 1, "consecutive probe/proxy failures that mark a peer down; any success marks it up (raise on lossy networks to avoid flapping into stale_replica reads)")
		probeIvl  = flag.Duration("probe-interval", 500*time.Millisecond, "cluster peer health-probe period (the failover detection bound)")
		handoff   = flag.Int("handoff-rate", 20000, "membership-change shard handoff streaming bound, records/second")
		antiEnt   = flag.Duration("antientropy", 5*time.Second, "background replica digest-diff repair period (negative disables)")
	)
	flag.Parse()

	peers, err := validateStartup(flag.Args(), *nodeID, *peersCSV, *replicate, *dataDir, *spill)
	if err != nil {
		fatal(err)
	}
	if err := validateClusterKnobs(*replicas, *strikes, *handoff); err != nil {
		fatal(err)
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	// -slowlog 0 means "attribute everything": map it to the smallest
	// positive threshold, since zero Config.SlowLog disables the slow log.
	slowThreshold := *slowLog
	if slowThreshold == 0 {
		slowThreshold = 1
	} else if slowThreshold < 0 {
		slowThreshold = 0
	}

	if *faults != "" {
		plan, err := fault.Parse(*faults, *faultSeed)
		if err != nil {
			fatal(err)
		}
		fault.Arm(plan)
		fmt.Printf("cqpd: fault plan armed: %s (seed %d)\n", plan, *faultSeed)
	}

	db, store, err := buildDB(*backend, *dbDir, *csvDir, *movies, *seed)
	if err != nil {
		fatal(err)
	}
	srv, err := server.New(db, server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTO,
		MaxRows:        *maxRows,
		MaxBodyBytes:   *maxBody,
		BatchMaxItems:  *batchMax,
		DataDir:        *dataDir,
		FsyncPolicy:    *fsync,
		SnapshotEvery:  *snapEvery,
		Logger:         logger,
		SlowLog:        slowThreshold,
		FlightRecords:  *flightN,
		SpillBytes:     *spill,
		SpillDir:       *spillDir,
		NodeID:         *nodeID,
		ClusterPeers:   peers,
		Replicate:      *replicate,
		Replicas:       *replicas,
		PeerStrikes:    *strikes,
		ProbeInterval:  *probeIvl,
		HandoffRate:    *handoff,
		AntiEntropy:    *antiEnt,
		Backend:        *backend,
	})
	if err != nil {
		fatal(err)
	}
	if *nodeID != "" {
		fmt.Printf("cqpd: cluster node %s of %d peers (replicate=%v)\n", *nodeID, len(peers), *replicate)
	}
	if store != nil {
		store.Observe(srv.Registry())
		fmt.Printf("cqpd: block store %s: %d rows across %d tables\n",
			*dbDir, store.Rows(), len(db.Schema().RelationNames()))
	}
	if rec := srv.Recovery(); rec != nil {
		fmt.Printf("cqpd: recovered %d profiles (clock %d, %d log records, %d torn bytes truncated) in %s from %s\n",
			len(rec.Profiles), rec.Clock, rec.LogRecords, rec.TornBytes, rec.Duration.Round(time.Millisecond), *dataDir)
	}
	if *preload > 0 {
		sp, err := preloadProfile(srv, *preload, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cqpd: preloaded profile %q (%d preferences, version %d)\n",
			sp.ID, sp.Profile.Len(), sp.Version)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cqpd: serving on %s\n", ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil {
			fatal(err)
		}
	case sig := <-sigc:
		fmt.Printf("cqpd: %s, draining (up to %s)\n", sig, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			fatal(err)
		}
		if store != nil {
			if err := store.Close(); err != nil {
				fatal(err)
			}
		}
		if p := fault.Armed(); p != nil {
			fmt.Printf("cqpd: fault report:\n%s", p.Report())
		}
		fmt.Println("cqpd: drained, bye")
	}
}

// buildDB assembles the serving database. With -backend mem it loads
// datagen CSVs from csvDir (-csv), or generates the synthetic movie
// database when csvDir is empty. With -backend disk it opens (or creates)
// a persistent block store under dbDir; an empty store is seeded once —
// from the CSVs when given, synthetically otherwise — and every later
// start serves the same on-disk pages. The returned store is non-nil only
// for the disk backend; the caller owns its Close.
func buildDB(backend, dbDir, csvDir string, movies int, seed int64) (*cqp.DB, *blockstore.Store, error) {
	switch backend {
	case "mem":
		if csvDir == "" {
			return cqp.SyntheticMovieDB(movies, seed), nil, nil
		}
		db := cqp.NewDB(cqp.MovieSchema(), 0)
		if err := loadCSVDir(db, csvDir); err != nil {
			return nil, nil, err
		}
		return db, nil, nil
	case "disk":
		st, err := blockstore.Open(dbDir, cqp.MovieSchema(), 0)
		if err != nil {
			return nil, nil, err
		}
		db, err := st.DB()
		if err != nil {
			st.Close()
			return nil, nil, err
		}
		if st.Empty() {
			if csvDir != "" {
				err = loadCSVDir(db, csvDir)
			} else {
				workload.GenerateInto(db, workload.DBConfig{Movies: movies, Seed: seed})
			}
			if err == nil {
				err = st.Sync()
			}
			if err != nil {
				st.Close()
				return nil, nil, err
			}
			fmt.Printf("cqpd: seeded block store %s (%d rows)\n", dbDir, st.Rows())
		}
		return db, st, nil
	default:
		return nil, nil, fmt.Errorf("unknown -backend %q (want mem or disk)", backend)
	}
}

// loadCSVDir ingests one datagen CSV per schema relation from dir.
func loadCSVDir(db *cqp.DB, dir string) error {
	for _, rel := range db.Schema().RelationNames() {
		path := dir + "/" + strings.ToLower(rel) + ".csv"
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		_, err = cqp.LoadCSV(db, rel, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	}
	return nil
}

// preloadProfile stores a synthetic profile under the ID "default" so a
// fresh daemon answers personalize requests without a prior PUT.
func preloadProfile(srv *server.Server, selections int, seed int64) (*server.StoredProfile, error) {
	return srv.Profiles().Put("default", cqp.SyntheticProfile(selections, seed+1).String())
}

// parsePeers parses the -peers list: comma-separated id=url pairs. A URL
// without a scheme gets http://; trailing slashes are trimmed so path
// concatenation stays clean.
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		id, url, ok := strings.Cut(ent, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("-peers entry %q is not id=url; example: n1=http://10.0.0.1:8344", ent)
		}
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("-peers lists node %q twice; every node needs a distinct ID", id)
		}
		peers[id] = strings.TrimRight(url, "/")
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers is empty; pass comma-separated id=url pairs including this node")
	}
	return peers, nil
}

// validateStartup cross-checks the flag combinations that cannot work and
// turns each into one actionable error before the daemon touches disk or
// the network. Returns the parsed peer map (nil when standalone).
func validateStartup(args []string, nodeID, peersCSV string, replicate bool, dataDir string, spill int64) (map[string]string, error) {
	if len(args) > 0 {
		return nil, fmt.Errorf("unexpected argument %q; usage: cqpd [flags], every setting is a -flag (cqpd -h lists them)", args[0])
	}
	if spill < 0 {
		return nil, fmt.Errorf("-spill must be ≥ 0 bytes (got %d); omit it for unlimited or pass a positive budget", spill)
	}
	if peersCSV == "" {
		if nodeID != "" {
			return nil, fmt.Errorf("-node-id %q needs -peers; pass the full id=url list, including this node", nodeID)
		}
		if replicate {
			return nil, fmt.Errorf("-replicate needs a cluster; pass -node-id and -peers (and -data for the WAL it ships)")
		}
		return nil, nil
	}
	if nodeID == "" {
		return nil, fmt.Errorf("-peers needs -node-id; name which entry of the peer list this process is")
	}
	peers, err := parsePeers(peersCSV)
	if err != nil {
		return nil, err
	}
	if _, ok := peers[nodeID]; !ok {
		ids := make([]string, 0, len(peers))
		for id := range peers {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return nil, fmt.Errorf("-node-id %q is not in -peers (%s); every node must appear in its own peer list", nodeID, strings.Join(ids, ", "))
	}
	if replicate && dataDir == "" {
		return nil, fmt.Errorf("-replicate needs -data; replication ships the write-ahead log, and a memory-only node has no log to ship")
	}
	return peers, nil
}

// validateClusterKnobs bounds the cluster tuning flags. Replicas is
// capped at 9 — past that every node follows every shard on any
// realistic cluster and the flag is almost certainly a typo.
func validateClusterKnobs(replicas, strikes, handoffRate int) error {
	if replicas < 1 || replicas > 9 {
		return fmt.Errorf("-replicas must be 1..9 (got %d); 2 is the default, 3 survives two simultaneous owner deaths", replicas)
	}
	if strikes < 1 {
		return fmt.Errorf("-peer-strikes must be ≥ 1 (got %d); 1 is instant failover", strikes)
	}
	if handoffRate < 1 {
		return fmt.Errorf("-handoff-rate must be ≥ 1 records/second (got %d)", handoffRate)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cqpd:", err)
	os.Exit(1)
}
