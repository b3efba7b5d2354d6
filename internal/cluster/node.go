package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cqp/internal/obs"
	"cqp/internal/wal"
)

// Internal cluster paths, mounted by the server on every node.
const (
	PathPing         = "/cluster/ping"
	PathReplicate    = "/cluster/replicate"
	PathSync         = "/cluster/sync"
	PathState        = "/cluster/state"
	PathRing         = "/cluster/ring"
	PathHandoff      = "/cluster/handoff"
	PathHandoffApply = "/cluster/handoff/apply"
	PathJoin         = "/cluster/join"
	PathLeave        = "/cluster/leave"
)

// Config wires a Node into a cluster. Peers is the boot membership (ring
// epoch 0); joins and leaves evolve it from there.
type Config struct {
	// Self is this node's ID; it must appear in Peers.
	Self string
	// Peers maps every boot-time node ID (including Self) to its base URL,
	// e.g. "n1" -> "http://10.0.0.1:8344".
	Peers map[string]string
	// Replicas is the replication factor R: the owner plus R−1 followers
	// hold each profile (0 = DefaultReplicas). Every node must boot with
	// the same value; joiners adopt the cluster's value from the ring
	// broadcast.
	Replicas int
	// PeerStrikes is how many consecutive probe/proxy failures mark a
	// peer down (0 = 1, the instant-failover default); any success marks
	// it up. Raise it on lossy networks where a single dropped probe
	// should not flap a healthy peer into stale_replica reads.
	PeerStrikes int
	// ProbeInterval is the peer health-probe period (default 500ms). It is
	// also the failover detection bound: a dead peer is marked down within
	// PeerStrikes failed probes or proxy attempts, whichever comes first,
	// and a recovered one up by the next probe.
	ProbeInterval time.Duration
	// Replicate enables WAL-frame shipping to followers. Routing (proxying
	// to owners) works without it; failover reads do not.
	Replicate bool
	// HandoffRate bounds shard handoff streaming in records per second
	// (0 = 20000). The bound keeps a membership change from starving
	// foreground traffic of bandwidth.
	HandoffRate int
	// AntiEntropy is the period of the background owner↔follower digest
	// diff that detects and repairs silently diverged replicas (0 = 5s;
	// negative disables). Only runs when Replicate is set.
	AntiEntropy time.Duration
	// SyncSource supplies the catch-up payload served to (and pushed at) a
	// peer: this node's version clock and the live records it owns whose
	// follower set includes that peer.
	SyncSource func(peer string) (clock uint64, recs []wal.Record)
	// OwnedRecords snapshots this node's whole profile store as WAL
	// records (clock first) — the handoff source set.
	OwnedRecords func() (clock uint64, recs []wal.Record)
	// ApplyRecord installs one handed-off or promoted record, put or
	// tombstone, into this node's profile store at its version, under the
	// version rule.
	ApplyRecord func(rec wal.Record) error
	// SweepAndEvict re-reads, under the store's mutation lock, the records
	// and tombstones matching moved, hands them to flush and only if flush
	// succeeds evicts the records. Each call is a ring commit of the
	// store's tombstone horizon.
	SweepAndEvict func(moved func(id string) bool, flush func(recs []wal.Record) error) (int, error)
	// Metrics receives the cluster gauges and counters (nil = none).
	Metrics *obs.Registry
}

func (c Config) withDefaults() (Config, error) {
	if c.Self == "" {
		return c, fmt.Errorf("cluster: config needs Self")
	}
	if _, ok := c.Peers[c.Self]; !ok {
		return c, fmt.Errorf("cluster: self %q missing from peer list", c.Self)
	}
	for id, url := range c.Peers {
		if url == "" {
			return c, fmt.Errorf("cluster: peer %q has no URL", id)
		}
	}
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.PeerStrikes <= 0 {
		c.PeerStrikes = 1
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.HandoffRate <= 0 {
		c.HandoffRate = 20000
	}
	if c.AntiEntropy == 0 {
		c.AntiEntropy = 5 * time.Second
	}
	return c, nil
}

// Node is one cluster member's local view: the active epoch's ring, the
// pending next ring during a membership transition, per-peer health (up or
// down by a count of consecutive failures, settled by both the background
// prober and live proxy attempts), the replication senders,
// and the replica store for the shards this node follows.
type Node struct {
	cfg        Config
	httpClient *http.Client // probes, replication, sync and the server's proxy hop
	replica    *ReplicaStore
	stop       chan struct{}
	wg         sync.WaitGroup
	once       sync.Once

	// transitionMu serializes the transitions this node coordinates; other
	// nodes' coordinators are held off by Prepare's guard on every member.
	transitionMu sync.Mutex

	mu       sync.RWMutex
	state    RingState // active membership
	ring     *Ring     // built from state
	next     *RingState
	nextRing *Ring // built from next during a transition
	detached bool  // self committed out of the ring (after leave)
	peers    map[string]*peerState
}

// peerState is this node's view of one remote peer.
type peerState struct {
	id, url string
	// health: PeerStrikes consecutive failed probes or proxies mark the
	// peer down, any success marks it up (see Node.settle).
	mu      sync.Mutex
	strikes int // consecutive failures
	down    bool
	// sender state (Replicate only).
	ch       chan wal.Record
	needSync chan struct{} // capacity 1; a pending token forces a full sync
	held     atomic.Int64  // records in the batch the sender holds
	acked    atomic.Uint64 // the follower's highest reported applied version
	done     chan struct{} // closed when the peer leaves the ring
}

// lag is how many records the peer has yet to ack: those queued and those in
// the sender's batch.
func (p *peerState) lag() int64 { return int64(len(p.ch)) + p.held.Load() }

// setAcked raises acked to v.
func (p *peerState) setAcked(v uint64) {
	for old := p.acked.Load(); v > old && !p.acked.CompareAndSwap(old, v); old = p.acked.Load() {
	}
}

// New validates the config and builds the node (ring, peers, senders).
// Call Start to begin probing and replicating, Close to stop.
func New(cfg Config) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	state := RingState{Replicas: cfg.Replicas, Members: maps.Clone(cfg.Peers)}
	ring, err := state.Build()
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg: cfg,
		httpClient: &http.Client{Transport: &http.Transport{
			// Replication and proxying reuse connections; the short dial
			// timeout bounds failover latency when a peer host blackholes
			// instead of refusing.
			DialContext:         (&net.Dialer{Timeout: time.Second}).DialContext,
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}},
		state:   state,
		ring:    ring,
		replica: NewReplicaStore(),
		peers:   make(map[string]*peerState),
		stop:    make(chan struct{}),
	}
	for id, url := range state.Members {
		if id == cfg.Self {
			continue
		}
		n.peers[id] = n.newPeer(id, url)
	}
	n.gauge("cluster_ring_epoch").Set(0)
	return n, nil
}

// newPeer builds one peer's health and sender state; the peer starts up.
// Callers holding n.mu add it to n.peers and, when replicating, launch its
// sendLoop.
func (n *Node) newPeer(id, url string) *peerState {
	p := &peerState{
		id:       id,
		url:      url,
		ch:       make(chan wal.Record, 4096),
		needSync: make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	n.gauge("cluster_peer_up", "peer", id).Set(1)
	return p
}

// Start launches the health prober, the anti-entropy loop, and — when
// replication is enabled — one sender per peer.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.every(n.cfg.ProbeInterval, n.probeRound)
	if n.cfg.Replicate {
		n.mu.RLock()
		for _, p := range n.peers {
			n.wg.Add(1)
			go n.sendLoop(p)
		}
		n.mu.RUnlock()
		if n.cfg.AntiEntropy > 0 {
			n.wg.Add(1)
			go n.every(n.cfg.AntiEntropy, n.antiEntropyRound)
		}
	}
}

// Close stops the background loops and waits for them.
func (n *Node) Close() {
	n.once.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// Self returns this node's ID.
func (n *Node) Self() string { return n.cfg.Self }

// Ring returns the active epoch's consistent-hash ring (immutable; a
// membership change installs a fresh one).
func (n *Node) Ring() *Ring {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ring
}

// State returns the active membership (epoch, replicas, members).
func (n *Node) State() RingState {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.state.Clone()
}

// Epoch returns the active ring version.
func (n *Node) Epoch() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.state.Epoch
}

// Detached reports whether this node has left the ring (after a committed
// leave it keeps serving as a stateless proxy until shut down).
func (n *Node) Detached() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.detached
}

// Replica returns the node's replica store.
func (n *Node) Replica() *ReplicaStore { return n.replica }

// Client returns the cluster's HTTP client (shared by the server's proxy).
func (n *Node) Client() *http.Client { return n.httpClient }

// Owner returns the node that owns id.
func (n *Node) Owner(id string) string { return n.Ring().Owner(id) }

// Follower returns the first replica holder for id ("" on a 1-node ring).
func (n *Node) Follower(id string) string { return n.Ring().Follower(id) }

// Followers returns the replica holders for id in failover order.
func (n *Node) Followers(id string) []string { return n.Ring().Followers(id) }

// IsOwner reports whether this node owns id.
func (n *Node) IsOwner(id string) bool { return n.Ring().Owner(id) == n.cfg.Self }

// IsFollower reports whether this node is a replica holder for id.
func (n *Node) IsFollower(id string) bool { return n.Ring().HasFollower(id, n.cfg.Self) }

// PeerURL returns the base URL for a node ID ("" when unknown). During a
// transition the pending ring's members resolve too, so handoff targets
// and joining followers are reachable before commit.
func (n *Node) PeerURL(id string) string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if url, ok := n.state.Members[id]; ok {
		return url
	}
	if n.next != nil {
		return n.next.Members[id]
	}
	return ""
}

// Replicating reports whether WAL-frame shipping is enabled.
func (n *Node) Replicating() bool { return n.cfg.Replicate }

// peer looks up a peer's state by ID.
func (n *Node) peer(id string) (*peerState, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	p, ok := n.peers[id]
	return p, ok
}

// snapshotPeers returns the current peer set (stable copies; the states
// themselves are shared and internally synchronized).
func (n *Node) snapshotPeers() []*peerState {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]*peerState, 0, len(n.peers))
	for _, p := range n.peers {
		out = append(out, p)
	}
	return out
}

// Up reports whether peer is believed reachable: it is not marked down.
// Requests avoid a down peer, so it is the prober's next ping that brings
// it back.
func (n *Node) Up(peer string) bool {
	p, ok := n.peer(peer)
	if !ok {
		return peer == n.cfg.Self
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.down
}

// ReportPeerFailure settles a live proxy attempt against peer as failed —
// with the default single strike the peer is marked down at once, so
// failover does not wait for the next background probe.
func (n *Node) ReportPeerFailure(peer string) {
	if p, ok := n.peer(peer); ok {
		n.settle(p, false)
		n.counter("cluster_peer_failures_total", "peer", peer).Inc()
	}
}

// ReportPeerSuccess settles a live proxy attempt as successful.
func (n *Node) ReportPeerSuccess(peer string) {
	if p, ok := n.peer(peer); ok {
		n.settle(p, true)
	}
}

// settle counts one probe or proxy outcome against p: PeerStrikes
// consecutive failures mark it down, any success marks it up. Only that
// change moves cluster_peer_up, and each up→down one counts a flap in
// cluster_breaker_flaps_total; both are set under p.mu, so the gauge ends
// at the state the last settle left.
func (n *Node) settle(p *peerState, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ok {
		p.strikes = 0
	} else {
		p.strikes++
	}
	down := p.strikes >= n.cfg.PeerStrikes
	if down == p.down {
		return
	}
	p.down = down
	up := int64(1)
	if down {
		up = 0
		n.counter("cluster_breaker_flaps_total", "peer", p.id).Inc()
	}
	n.gauge("cluster_peer_up", "peer", p.id).Set(up)
}

// PeerStatus is one peer's health and replication view for /healthz.
type PeerStatus struct {
	ID           string `json:"id"`
	Up           bool   `json:"up"`
	LagRecords   int64  `json:"lag_records"`
	AckedVersion uint64 `json:"acked_version"`
}

// Status snapshots the node's cluster view for /healthz: the ring epoch
// and size, per-peer reachability and replication lag (queued + unacked
// records per follower), plus replica occupancy. Peers are sorted by ID.
type Status struct {
	Self            string       `json:"node_id"`
	Epoch           uint64       `json:"epoch"`
	Replicas        int          `json:"replicas"`
	Members         int          `json:"members"`
	Transitioning   bool         `json:"transitioning,omitempty"`
	Detached        bool         `json:"detached,omitempty"`
	Replicating     bool         `json:"replicating"`
	ReplicaProfiles int          `json:"replica_profiles"`
	Peers           []PeerStatus `json:"peers"`
}

func (n *Node) Status() Status {
	n.mu.RLock()
	st := Status{
		Self:            n.cfg.Self,
		Epoch:           n.state.Epoch,
		Replicas:        n.ring.Replicas(),
		Members:         len(n.state.Members),
		Transitioning:   n.next != nil,
		Detached:        n.detached,
		Replicating:     n.cfg.Replicate,
		ReplicaProfiles: n.replica.Len(),
	}
	n.mu.RUnlock()
	for _, p := range n.snapshotPeers() {
		lag := p.lag()
		n.gauge("cluster_replication_lag_records", "peer", p.id).Set(lag)
		st.Peers = append(st.Peers, PeerStatus{
			ID:           p.id,
			Up:           n.Up(p.id),
			LagRecords:   lag,
			AckedVersion: p.acked.Load(),
		})
	}
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].ID < st.Peers[j].ID })
	return st
}

// every runs round each interval until the node closes (the prober and
// anti-entropy).
func (n *Node) every(interval time.Duration, round func()) {
	defer n.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			round()
		}
	}
}

// probeRound pings every peer, down ones too, settling its health, and
// gossips ring epochs: a peer that answers with a newer epoch is pulled
// from, one with an older epoch is pushed the current ring — so a node that
// rebooted on a stale static peer list converges within a probe interval
// without any traffic hitting wrong_epoch first.
func (n *Node) probeRound() {
	for _, p := range n.snapshotPeers() {
		ok, peerEpoch := n.ping(p)
		n.settle(p, ok)
		if !ok {
			n.counter("cluster_probe_failures_total", "peer", p.id).Inc()
			continue
		}
		switch mine := n.Epoch(); {
		case peerEpoch > mine:
			n.RefreshFromPeer(p.id)
		case peerEpoch < mine:
			n.pushRing(p)
		}
	}
}

// pushRing installs this node's active ring on a lagging peer.
func (n *Node) pushRing(p *peerState) {
	st := n.State()
	_ = n.call(context.Background(), 2*time.Second, p.id, p.url+PathRing,
		st.Epoch, RingMessage{Mode: "install", State: &st}, nil) // best effort: the next probe retries
}

// call is the one HTTP round trip every node-to-node request makes. It
// stamps the ring epoch the caller acted under (the active one, or the
// pending one on handoff traffic), bounds the deadline (timeout 0 leaves it
// to ctx), drains and closes the response so the keep-alive connection is
// reused, and maps a 409 carrying the peer's epoch to *errWrongEpoch; any
// other non-2xx is an error quoting the peer. body nil is a GET, []byte is
// POSTed as WAL frames, anything else as JSON; reply nil discards the
// answer, *[]byte takes it raw, anything else decodes it from JSON.
func (n *Node) call(ctx context.Context, timeout time.Duration, peer, url string, epoch uint64, body, reply any) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	method, ctype, rd := http.MethodGet, "", io.Reader(nil)
	switch b := body.(type) {
	case nil:
	case []byte:
		method, ctype, rd = http.MethodPost, "application/octet-stream", bytes.NewReader(b)
	default:
		js, err := json.Marshal(b)
		if err != nil {
			return err
		}
		method, ctype, rd = http.MethodPost, "application/json", bytes.NewReader(js)
	}
	sep := "?"
	if strings.Contains(url, "?") {
		sep = "&"
	}
	req, err := http.NewRequestWithContext(ctx, method, url+sep+"epoch="+strconv.FormatUint(epoch, 10), rd)
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := n.httpClient.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusConflict {
		if peerEpoch, err := strconv.ParseUint(resp.Header.Get(HeaderEpoch), 10, 64); err == nil {
			return &errWrongEpoch{peer: peer, peerEpoch: peerEpoch, sentEpoch: epoch}
		}
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", peer, req.URL.Path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	switch out := reply.(type) {
	case nil:
		return nil
	case *[]byte:
		*out, err = io.ReadAll(resp.Body)
	default:
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(out)
	}
	if err != nil {
		return fmt.Errorf("%s %s: reading the answer: %w", peer, req.URL.Path, err)
	}
	return nil
}

// ping checks one peer's readiness and returns its ring epoch: 200 on
// /cluster/ping means recovered, caught up, and serving.
func (n *Node) ping(p *peerState) (bool, uint64) {
	epoch := n.Epoch()
	var raw []byte
	if err := n.call(context.Background(), 2*n.cfg.ProbeInterval, p.id, p.url+PathPing, epoch, nil, &raw); err != nil {
		return false, 0
	}
	// A pong without an epoch (an old peer) reads as "same ring".
	pong := struct {
		Epoch uint64 `json:"epoch"`
	}{Epoch: epoch}
	_ = json.Unmarshal(raw, &pong)
	return true, pong.Epoch
}

// RefreshFromPeer refetches peer's /cluster/state and adopts its ring if
// it is a newer epoch — the wrong_epoch recovery path.
func (n *Node) RefreshFromPeer(peer string) bool {
	url := n.PeerURL(peer)
	if url == "" {
		return false
	}
	var st struct {
		RingState RingState `json:"ring"`
	}
	if n.call(context.Background(), 2*time.Second, peer, url+PathState, n.Epoch(), nil, &st) != nil {
		return false
	}
	adopted, err := n.AdoptIfNewer(st.RingState)
	if err != nil {
		n.counter("cluster_ring_adopt_errors_total").Inc()
		return false
	}
	return adopted
}

// CatchUp first adopts the newest ring any peer advertises (a node
// rebooted on a stale static peer list must route by the live membership,
// not its boot flags), then pulls every bucket from every peer: each peer
// returns its clock and the live records it owns that this node follows,
// which are installed over the local replica view of that peer's keys.
// Unreachable peers are skipped after attempts tries — a cold-start cluster
// must not deadlock waiting for peers that are themselves waiting — and
// the error reports them.
func (n *Node) CatchUp(ctx context.Context, attempts int) error {
	for _, p := range n.snapshotPeers() {
		n.RefreshFromPeer(p.id)
	}
	var unreachable []string
	for _, p := range n.snapshotPeers() {
		var err error
		for try := 0; try < attempts; try++ {
			if _, err = n.pull(ctx, 0, p, allBuckets); err == nil {
				break
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(200 * time.Millisecond):
			}
		}
		if err != nil {
			unreachable = append(unreachable, p.id)
		} else {
			n.counter("cluster_catchup_syncs_total", "peer", p.id).Inc()
		}
	}
	if len(unreachable) > 0 {
		sort.Strings(unreachable)
		return fmt.Errorf("cluster: catch-up skipped unreachable peers %v", unreachable)
	}
	return nil
}

// allBuckets as a bucket argument selects an owner's whole key space.
const allBuckets = -1

// pull fetches owner p's snapshot of the records this node follows — every
// bucket (boot catch-up) or one diverged digest bucket (anti-entropy) — and
// installs it under the epoch it sent, so a ring change while the pull was
// in flight installs nothing: the payload may predate a delete whose
// tombstone has since gone.
func (n *Node) pull(ctx context.Context, timeout time.Duration, p *peerState, bucket int) (int, error) {
	url := p.url + PathSync + "?node=" + n.cfg.Self
	if bucket != allBuckets {
		url += "&bucket=" + strconv.Itoa(bucket)
	}
	var payload []byte
	epoch := n.Epoch()
	if err := n.call(ctx, timeout, p.id, url, epoch, nil, &payload); err != nil {
		return 0, err
	}
	return n.install(p.id, bucket, epoch, payload)
}

// install puts owner's sync payload — pulled, or pushed by the owner's
// sender after an overflow or a ring change — over the replica's view of
// the keys owner owns within bucket, under the ring of epoch: the epoch its
// caller compared the payload against. The ring and its epoch are read
// together; if the active ring is no longer epoch's, install refuses with
// *errWrongEpoch and installs nothing, so a commit after the caller's
// comparison cannot scope an old ring's payload by the new one.
func (n *Node) install(owner string, bucket int, epoch uint64, payload []byte) (int, error) {
	clock, recs, err := DecodeSyncPayload(payload)
	if err != nil {
		return 0, fmt.Errorf("cluster: sync from %s: %w", owner, err)
	}
	n.mu.RLock()
	ring, now := n.ring, n.state.Epoch
	n.mu.RUnlock()
	if now != epoch {
		return 0, &errWrongEpoch{peer: n.cfg.Self, peerEpoch: now, sentEpoch: epoch}
	}
	return n.replica.Install(owner, clock, recs, func(id string) bool {
		return ring.Owner(id) == owner && (bucket == allBuckets || Bucket(id) == bucket)
	}), nil
}

// EncodeSyncPayload frames a catch-up payload: the owner's version clock
// followed by the live records as WAL frames.
func EncodeSyncPayload(clock uint64, recs []wal.Record) []byte {
	buf := make([]byte, 8, 8+len(recs)*64)
	binary.LittleEndian.PutUint64(buf, clock)
	for _, r := range recs {
		buf = wal.EncodeFrame(buf, r)
	}
	return buf
}

// DecodeSyncPayload is EncodeSyncPayload's inverse.
func DecodeSyncPayload(buf []byte) (clock uint64, recs []wal.Record, err error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("sync payload %d bytes, need 8-byte clock", len(buf))
	}
	clock = binary.LittleEndian.Uint64(buf)
	recs, err = wal.DecodeFrames(buf[8:])
	return clock, recs, err
}

// A nil registry hands out nil metrics, and those ignore updates.
func (n *Node) gauge(name string, labels ...string) *obs.Gauge {
	return n.cfg.Metrics.Gauge(name, labels...)
}

func (n *Node) counter(name string, labels ...string) *obs.Counter {
	return n.cfg.Metrics.Counter(name, labels...)
}
