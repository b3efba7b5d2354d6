package server

import (
	"context"
	"expvar"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cqp"
	"cqp/internal/cluster"
	"cqp/internal/obs"
	"cqp/internal/wal"
)

// Config sizes the daemon's admission control and cache. The zero value
// selects defaults suited to one laptop-scale database.
type Config struct {
	// Workers is the number of concurrent pipeline executions (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth is how many requests may wait for a free Workers slot
	// before the daemon sheds load with 429 (default 64).
	QueueDepth int
	// CacheEntries bounds the LRU result cache (default 1024).
	CacheEntries int
	// DefaultTimeout is the per-request deadline when the request names
	// none (default 30s); MaxTimeout caps what a request may ask for
	// (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxRows caps rows returned by /execute when the request names no
	// limit (default 100).
	MaxRows int
	// MaxBodyBytes bounds request bodies; oversized bodies get 413
	// (default 1 MiB).
	MaxBodyBytes int64

	// Logger receives the per-request structured log lines (one per
	// finished request, plus slow-query lines). Nil disables request
	// logging entirely — metrics, the flight recorder and /slo still run —
	// which is the disarmed path benchmarks measure.
	Logger *slog.Logger
	// SlowLog, when positive, additionally logs the full per-phase latency
	// attribution of every request at least this slow. Zero disables the
	// slow-query log.
	SlowLog time.Duration
	// FlightRecords sizes the flight recorder's ring of recent requests
	// (default 256; negative disables retention).
	FlightRecords int
	// BatchMaxItems caps the items one POST /personalize/batch may carry
	// (default 64).
	BatchMaxItems int

	// DataDir, when set, makes the profile store durable: every mutation
	// is appended to a write-ahead log under this directory before it is
	// acked, and startup replays snapshot+log. Empty keeps the PR-2
	// memory-only store.
	DataDir string
	// FsyncPolicy is when log appends reach stable storage: "always"
	// (default — fsync before ack), "interval" (a background ticker, every
	// 100ms), or "never" (OS page cache).
	FsyncPolicy string
	// SnapshotEvery is how many logged mutations trigger a snapshot and
	// log truncation (default 1024; negative disables automatic
	// snapshots).
	SnapshotEvery int

	// SpillBytes bounds each request's in-memory executor working state
	// (join build sides, DISTINCT sets, union group tables); past it the
	// executor spills to partitioned temp files under SpillDir and merges.
	// Zero keeps everything in memory.
	SpillBytes int64
	// SpillDir is where spill partitions live (default: the OS temp dir).
	// Files are unlinked at creation, so a crash leaks nothing.
	SpillDir string

	// NodeID names this daemon in a multi-node cluster; empty runs
	// standalone. When set it must appear in ClusterPeers.
	NodeID string
	// ClusterPeers is the static peer list: node ID → base URL, including
	// this node's own entry. Every node must be given the identical list.
	ClusterPeers map[string]string
	// Replicate enables WAL-frame shipping to followers; without it the
	// cluster routes requests but reads cannot fail over.
	Replicate bool
	// Replicas is the replication factor R: owner plus R−1 followers per
	// profile (default 2). Must match across the cluster at boot; joiners
	// adopt the cluster's value.
	Replicas int
	// PeerStrikes is how many consecutive probe/proxy failures mark a peer
	// down (default 1 — instant failover); any success marks it up.
	PeerStrikes int
	// ProbeInterval is the peer health-probe period (default 500ms) — the
	// failover detection bound.
	ProbeInterval time.Duration
	// HandoffRate bounds membership-change shard streaming in records per
	// second (default 20000).
	HandoffRate int
	// AntiEntropy is the period of the background replica digest-diff
	// repair loop (default 5s; negative disables).
	AntiEntropy time.Duration
	// Backend names the database backend for /healthz ("mem" when empty).
	Backend string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 100
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.BatchMaxItems <= 0 {
		c.BatchMaxItems = 64
	}
	if c.FlightRecords == 0 {
		c.FlightRecords = 256
	}
	if c.Backend == "" {
		c.Backend = "mem"
	}
	return c
}

// Server is the cqpd daemon: one Personalizer behind a profile store, an
// admission pool, a result cache, and the HTTP/JSON surface.
type Server struct {
	cfg      Config
	db       *cqp.DB
	p        *cqp.Personalizer
	reg      *obs.Registry
	store    *ProfileStore
	cache    *Cache
	queries  *queryMemo
	pool     *Pool
	flights  *flightTable
	flight   *obs.Flight
	slo      *obs.SLO
	log      *slog.Logger
	mux      *http.ServeMux
	start    time.Time
	recovery *wal.Recovery
	cluster  *cluster.Node // nil when standalone
	// ready flips once recovery (replaying the durable store's
	// snapshot+log) has completed; until then /healthz answers 503 so a
	// load balancer never routes to a daemon still rebuilding profiles.
	ready atomic.Bool

	mu   sync.Mutex
	http *http.Server
}

// New wires a daemon over the database: it builds the Personalizer,
// attaches a fresh metrics registry to the whole pipeline, recovers the
// durable profile store when cfg.DataDir is set, and mounts every
// endpoint. The caller owns serving (Serve) and teardown
// (Shutdown). New fails when recovery finds mid-log or snapshot
// corruption — a daemon that cannot prove its acked state refuses to
// serve.
func New(db *cqp.DB, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg := cqp.NewMetrics()
	p, err := cqp.NewPersonalizerWith(db)
	if err != nil {
		return nil, err
	}
	p.Observe(reg)
	s := &Server{
		cfg:     cfg,
		db:      db,
		p:       p,
		reg:     reg,
		cache:   NewCache(cfg.CacheEntries, reg),
		queries: newQueryMemo(cfg.CacheEntries, reg),
		pool:    NewPool(cfg.Workers, cfg.QueueDepth, reg),
		flights: newFlightTable(),
		flight:  obs.NewFlight(cfg.FlightRecords),
		slo:     obs.NewSLO(0, 0, nil),
		log:     cfg.Logger,
		mux:     http.NewServeMux(),
		start:   time.Now(),
	}
	if cfg.DataDir != "" {
		policy, err := wal.ParseSyncPolicy(cfg.FsyncPolicy)
		if err != nil {
			return nil, err
		}
		store, rec, err := NewDurableProfileStore(db.Schema(), cfg.DataDir, wal.Options{
			Sync:          policy,
			SnapshotEvery: cfg.SnapshotEvery,
			Metrics:       reg,
		})
		if err != nil {
			return nil, err
		}
		s.store, s.recovery = store, rec
	} else {
		s.store = NewProfileStore(db.Schema())
	}
	if cfg.NodeID != "" {
		s.store.keepTombstones(s.recovery) // another node's records can arrive older than a local delete
		node, err := cluster.New(cluster.Config{
			Self:          cfg.NodeID,
			Peers:         cfg.ClusterPeers,
			Replicas:      cfg.Replicas,
			PeerStrikes:   cfg.PeerStrikes,
			ProbeInterval: cfg.ProbeInterval,
			Replicate:     cfg.Replicate,
			HandoffRate:   cfg.HandoffRate,
			AntiEntropy:   cfg.AntiEntropy,
			SyncSource:    s.syncRecords,
			OwnedRecords:  s.store.Records,
			ApplyRecord:   s.store.ApplyRecord,
			SweepAndEvict: s.store.SweepAndEvict,
			Metrics:       reg,
		})
		if err != nil {
			s.store.Close()
			return nil, err
		}
		s.cluster = node
		if cfg.Replicate {
			s.store.SetOnMutate(node.Replicate)
		}
		node.Start()
	}
	s.routes()
	if s.cluster != nil && s.cluster.Replicating() && len(cfg.ClusterPeers) > 1 {
		// A (re)joining node catch-up syncs the shards it follows before
		// advertising ready: peers' pings answer 503 until the replica is
		// rebuilt, so nobody fails over onto an empty replica. Attempts are
		// bounded — on a cold-start cluster every node is catching up from
		// every other, and waiting forever would deadlock the fleet.
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := s.cluster.CatchUp(ctx, catchUpAttempts); err != nil && s.log != nil {
				s.log.Warn("cluster catch-up incomplete", "error", err)
			}
			s.ready.Store(true)
		}()
	} else {
		s.ready.Store(true)
	}
	return s, nil
}

// Cluster returns the daemon's cluster node (nil when standalone).
func (s *Server) Cluster() *cluster.Node { return s.cluster }

// Recovery reports what the durable store replayed at startup (nil for a
// memory-only daemon).
func (s *Server) Recovery() *wal.Recovery { return s.recovery }

// Registry returns the daemon's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Profiles returns the daemon's profile store.
func (s *Server) Profiles() *ProfileStore { return s.store }

// routes mounts every endpoint on the daemon's mux.
func (s *Server) routes() {
	// Pipeline endpoints run through admission control. In cluster mode
	// each handler routes a request touching a profile another node owns to
	// that owner (route) once it has decoded the body or read the path id.
	for _, ep := range []*endpoint{personalizeEndpoint, executeEndpoint, frontEndpoint, topkEndpoint} {
		s.mux.HandleFunc("POST /"+ep.name, s.instrument(ep.name, s.handle(ep)))
	}
	s.mux.HandleFunc("POST /personalize/batch", s.instrument("batch", s.handleBatch))

	// Profile CRUD and admin bypass the pool: they are O(profile) work.
	s.mux.HandleFunc("PUT /profiles/{id}", s.instrument("profile_put", s.handleProfilePut))
	s.mux.HandleFunc("GET /profiles/{id}", s.instrument("profile_get", s.handleProfileGet))
	s.mux.HandleFunc("DELETE /profiles/{id}", s.instrument("profile_delete", s.handleProfileDelete))
	s.mux.HandleFunc("GET /profiles", s.instrument("profile_list", s.handleProfileList))
	s.mux.HandleFunc("POST /refresh", s.instrument("refresh", s.handleRefresh))

	// Cluster-internal endpoints: no instrument wrapper — probes fire every
	// interval from every peer and would drown the flight recorder.
	if s.cluster != nil {
		s.mux.HandleFunc("GET "+cluster.PathPing, s.handleClusterPing)
		s.mux.HandleFunc("POST "+cluster.PathReplicate, s.handleClusterReplicate)
		s.mux.HandleFunc("GET "+cluster.PathSync, s.handleClusterSync)
		s.mux.HandleFunc("GET /cluster/route/{id}", s.handleClusterRoute)
		s.mux.HandleFunc("GET /cluster/state", s.handleClusterState)
		// Membership: ring transitions (peer-to-peer), handoff streaming,
		// and the join/leave admin surface.
		s.mux.HandleFunc("POST "+cluster.PathRing, s.handleClusterRing)
		s.mux.HandleFunc("POST "+cluster.PathHandoff, s.handleClusterHandoff)
		s.mux.HandleFunc("POST "+cluster.PathHandoffApply, s.handleClusterHandoffApply)
		s.mux.HandleFunc("POST "+cluster.PathJoin, s.handleClusterMember(true))
		s.mux.HandleFunc("POST "+cluster.PathLeave, s.handleClusterMember(false))
	}

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /slo", s.handleSLO)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /debug/requests/{id}", s.handleDebugRequest)
	s.reg.PublishExpvar("cqp")
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// Handler returns the daemon's HTTP handler (httptest hook).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve serves on the listener until Shutdown, with header-read and idle
// timeouts so a slow or silent client cannot pin a connection open forever.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.http != nil {
		s.mu.Unlock()
		return fmt.Errorf("server: already serving")
	}
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	s.http = srv
	s.mu.Unlock()
	err := srv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains gracefully: stop accepting connections, wait for in-
// flight handlers up to ctx's deadline, stop the admission pool once no
// handler can enqueue more work, then sync and close the durable store's
// log — strictly last, so no acked mutation can race a closing log.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.http
	s.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	if s.cluster != nil {
		s.cluster.Close()
	}
	s.pool.Close()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}
