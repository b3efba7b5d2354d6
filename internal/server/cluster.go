package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"cqp/internal/cluster"
	"cqp/internal/obs"
	"cqp/internal/wal"
)

// Multi-node request routing. Any node accepts any request: work for a
// profile another node owns is proxied to that owner over the cluster's
// keep-alive HTTP client, with one forwarding hop at most (the forwarded
// header is the loop guard — a forwarded request is always served
// locally). When the owner is unreachable, reads and pipeline requests
// fail over along the profile's follower list to a replicated snapshot,
// marked "stale_replica" in the response envelope on the degradation-
// ladder plumbing; mutations do not fail over — accepting a write the
// owner's WAL cannot ack would forfeit the zero-acked-loss guarantee —
// and answer 503 until the owner returns.
//
// Every proxied request carries the sender's ring epoch. A receiver
// rejects a sender routing on an OLDER ring with 409 wrong_epoch (and its
// own epoch in the X-Cqpd-Epoch header): a stale ring must never silently
// misroute. The sender then refetches /cluster/state, adopts the newer
// ring, and re-routes — so the client sees one slightly slower answer,
// not an error. A sender AHEAD of the receiver is served normally: during
// a membership commit wave nodes flip epochs one by one, and the
// not-yet-committed old owner still holds every moved record until its
// eviction sweep — serving there is the double-serve that keeps the
// transition invisible to clients.

const (
	// headerForwarded carries the proxying node's ID on a forwarded
	// request; its presence means "serve locally, do not re-route".
	headerForwarded = "X-Cqpd-Forwarded"
	// headerReplica marks a forwarded request that should be answered from
	// the replica store — the proxying node decided the owner is down and
	// picked a follower.
	headerReplica = "X-Cqpd-Replica"
	// degradedStaleReplica is the envelope marker for answers computed
	// from a follower's replica instead of the owner's live store.
	degradedStaleReplica = "stale_replica"
	// clusterSyncMaxBytes bounds a replication or sync body — far above
	// any real batch, it only stops a runaway peer from ballooning memory.
	clusterSyncMaxBytes = 64 << 20
	// routeRetries bounds wrong_epoch re-route attempts per request.
	routeRetries = 3
	// catchUpAttempts bounds per-peer catch-up pulls (at 200ms spacing)
	// before a rejoining node gives up waiting and advertises ready anyway.
	catchUpAttempts = 15
)

// writeWrongEpoch rejects traffic routed on a stale ring: 409 with this
// node's epoch in the header, so the sender can tell it must refetch.
func (s *Server) writeWrongEpoch(w http.ResponseWriter, path string) {
	epoch := s.cluster.Epoch()
	w.Header().Set(cluster.HeaderEpoch, strconv.FormatUint(epoch, 10))
	s.reg.Counter("cluster_wrong_epoch_total", "path", path).Inc()
	writeError(w, http.StatusConflict, "wrong_epoch",
		fmt.Sprintf("server: this node is at ring epoch %d; refetch /cluster/state", epoch))
}

// route is the driver's routing step for a request touching profile id,
// taken once the body is decoded. local reports that this node answers it;
// replica, that it answers from the replica store. When local is false the
// answer is already written: the owner's or a follower's, proxied, or a
// wrong_epoch or owner_down refusal. This node answers when it owns id (or
// there is no cluster, or no id, or the request was already forwarded);
// otherwise it proxies body to the owner — re-routing on a fresh ring after
// a wrong_epoch rejection — and fails over along the follower list when the
// owner is unreachable. Mutations never fail over.
func (s *Server) route(w http.ResponseWriter, r *http.Request, mutation bool, id string, body []byte) (local, replica bool) {
	c := s.cluster
	if c == nil || id == "" {
		return true, false
	}
	if r.Header.Get(headerForwarded) != "" {
		replica = r.Header.Get(headerReplica) == "1"
		// Reject only senders routing on an OLDER ring — and even then
		// only when they actually misrouted: if this node is still the
		// right destination under its newer ring (owner for a normal
		// proxy, follower for a replica read), the stale sender picked
		// the right door anyway and rejecting would just force a
		// pointless retry loop against a sender that may not be able to
		// adopt the new ring until its own commit lands.
		if se, err := strconv.ParseUint(r.Header.Get(cluster.HeaderEpoch), 10, 64); err == nil && se < c.Epoch() {
			valid := c.IsOwner(id)
			if replica {
				valid = c.IsFollower(id)
			}
			if !valid {
				s.writeWrongEpoch(w, "proxy")
				return false, false
			}
		}
		return true, replica
	}
	var owner string
	for attempt := 0; attempt < routeRetries; attempt++ {
		// A ring refetch may have moved ownership here mid-request.
		if owner = c.Owner(id); owner == c.Self() {
			return true, false
		}
		if !c.Up(owner) {
			break
		}
		res := s.proxyToPeer(w, r, owner, body, false)
		if res == proxyServed {
			return false, false
		}
		if res != proxyWrongEpoch {
			break // transport failure → failover
		}
		// The owner is on a newer ring than us: adopt it and re-route.
		c.RefreshFromPeer(owner)
	}
	s.reg.Counter("cluster_failovers_total", "owner", owner).Inc()
	if mutation {
		writeError(w, http.StatusServiceUnavailable, "owner_down",
			fmt.Sprintf("server: node %s owning profile %q is unreachable; mutations do not fail over", owner, id))
		return false, false
	}
	if c.Replicating() {
		// Walk the follower list in failover order; with R=3 the read
		// survives the owner AND the first follower dying together.
		for _, f := range c.Followers(id) {
			if f == owner {
				continue
			}
			if f == c.Self() {
				s.reg.Counter("cluster_failover_serves_total").Inc()
				return true, true
			}
			if c.Up(f) && s.proxyToPeer(w, r, f, body, true) == proxyServed {
				return false, false
			}
		}
	}
	writeError(w, http.StatusServiceUnavailable, "owner_down",
		fmt.Sprintf("server: node %s owning profile %q is unreachable and no replica can serve it", owner, id))
	return false, false
}

// proxyResult is one proxy attempt's outcome.
type proxyResult int

const (
	// proxyServed: the peer's answer (any status) was streamed to the client.
	proxyServed proxyResult = iota
	// proxyTransportErr: transport failure before any response byte — the
	// caller may fail over.
	proxyTransportErr
	// proxyWrongEpoch: the peer rejected our ring epoch as stale — nothing
	// was written; refetch the ring and re-route.
	proxyWrongEpoch
)

// proxyToPeer forwards the request to peer, stamped with this node's ring
// epoch, and streams the answer back. The peer's health is settled
// either way, so one failed proxy is enough to mark the peer down.
func (s *Server) proxyToPeer(w http.ResponseWriter, r *http.Request, peer string, body []byte, replica bool) proxyResult {
	c := s.cluster
	req, err := http.NewRequestWithContext(r.Context(), r.Method,
		c.PeerURL(peer)+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return proxyServed
	}
	req.Header = r.Header.Clone()
	// One id across the hop: the one instrument put on the response (the
	// client's, sanitized, or minted here), so /debug/requests/{id} on the
	// two nodes shows the same request.
	if id := w.Header().Get("X-Request-ID"); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	req.Header.Set(headerForwarded, c.Self())
	req.Header.Set(cluster.HeaderEpoch, strconv.FormatUint(c.Epoch(), 10))
	if replica {
		req.Header.Set(headerReplica, "1")
	}
	start := time.Now()
	resp, err := c.Client().Do(req)
	obs.RequestFromContext(r.Context()).AddPhase(obs.PhaseProxy, time.Since(start))
	if err != nil {
		c.ReportPeerFailure(peer)
		return proxyTransportErr
	}
	c.ReportPeerSuccess(peer)
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusConflict && resp.Header.Get(cluster.HeaderEpoch) != "" {
		s.reg.Counter("cluster_wrong_epoch_total", "path", "route").Inc()
		return proxyWrongEpoch
	}
	s.reg.Counter("cluster_proxied_requests_total", "peer", peer).Inc()
	for _, hdr := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(hdr); v != "" {
			w.Header().Set(hdr, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return proxyServed
}

// profile resolves a stored profile for the pipeline and GET /profiles/{id}:
// from the local store or, when route chose this node as a failover
// follower, from its replica, which marks the answer stale. The owner checked
// the text before acking it, so a replica that fails to parse is corrupt.
func (s *Server) profile(id string, replica bool) (sp *StoredProfile, stale, ok bool) {
	if sp, ok = s.store.Get(id); ok || !replica {
		return sp, false, ok
	}
	rec, ok := s.cluster.Replica().Get(id)
	if !ok {
		return nil, false, false
	}
	sp, err := newStoredProfile(s.db.Schema(), rec)
	return sp, err == nil, err == nil
}

// syncRecords is the node's replication SyncSource: its version clock and
// the live records it owns whose follower set includes peer — the exact
// set peer's replica should hold for this node's shards.
func (s *Server) syncRecords(peer string) (uint64, []wal.Record) {
	clock, recs := s.store.Records()
	c := s.cluster
	if c == nil {
		return clock, recs
	}
	out := recs[:0]
	for _, rec := range recs {
		if c.IsOwner(rec.ID) && c.Ring().HasFollower(rec.ID, peer) {
			out = append(out, rec)
		}
	}
	return clock, out
}

// handleClusterPing answers peers' health probes: 200 only once the node
// is recovered, caught up, and serving — so peers never route to a node
// still rebuilding its replica. The pong carries the ring epoch; probe
// gossip compares it and converges stale nodes.
func (s *Server) handleClusterPing(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		writeError(w, http.StatusServiceUnavailable, "recovering", "server: catching up")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"node_id": s.cluster.Self(),
		"epoch":   s.cluster.Epoch(),
	})
}

// handleClusterReplicate is the follower's ingest endpoint: frame batches
// (and sync=1 snapshots) from an owner, answered with the cumulative ack.
// Served even while catching up — replication must not wait for readiness
// or a cold-start cluster deadlocks. Unlike the proxy path, replication
// rejects ANY epoch mismatch: frames routed under a different ring may
// target the wrong follower entirely, and the sender's full-sync recovery
// is cheap.
func (s *Server) handleClusterReplicate(w http.ResponseWriter, r *http.Request) {
	from := r.URL.Query().Get("from")
	if s.cluster.PeerURL(from) == "" {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("server: replication from unknown node %q", from))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, clusterSyncMaxBytes))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	// Compared once the body is in: a ring commit while it was read must
	// refuse it, as a pull that spans an epoch change installs nothing. A
	// sync body is installed under the epoch compared here, so a commit
	// after the comparison refuses it too.
	epoch := s.cluster.Epoch()
	if eh := r.URL.Query().Get("epoch"); eh != "" {
		if se, err := strconv.ParseUint(eh, 10, 64); err == nil && se != epoch {
			s.writeWrongEpoch(w, "replicate")
			return
		}
	}
	applied, changed, err := s.cluster.ApplyReplicate(from, r.URL.Query().Get("sync") == "1", epoch, body)
	if cluster.IsWrongEpoch(err) {
		s.writeWrongEpoch(w, "replicate")
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"applied": applied, "records": changed})
}

// handleClusterSync serves a peer's catch-up pull: this node's clock and
// the live records it owns that the peer follows — optionally narrowed to
// one anti-entropy digest bucket for targeted repair. Like replicate, it
// answers before the node itself is ready.
func (s *Server) handleClusterSync(w http.ResponseWriter, r *http.Request) {
	peer := r.URL.Query().Get("node")
	if s.cluster.PeerURL(peer) == "" {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("server: sync request from unknown node %q", peer))
		return
	}
	clock, recs := s.syncRecords(peer)
	if b := r.URL.Query().Get("bucket"); b != "" {
		bucket, err := strconv.Atoi(b)
		if err != nil || bucket < 0 || bucket >= cluster.DigestBuckets {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("server: bucket must be 0..%d", cluster.DigestBuckets-1))
			return
		}
		out := recs[:0]
		for _, rec := range recs {
			if cluster.Bucket(rec.ID) == bucket {
				out = append(out, rec)
			}
		}
		recs = out
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(cluster.EncodeSyncPayload(clock, recs))
}

// handleClusterRoute answers where a profile ID lives under the active
// ring — the drill sweeps it across nodes to verify post-transition
// routing agreement.
func (s *Server) handleClusterRoute(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	writeJSON(w, http.StatusOK, map[string]any{
		"id":        id,
		"epoch":     s.cluster.Epoch(),
		"owner":     s.cluster.Owner(id),
		"follower":  s.cluster.Follower(id),
		"followers": s.cluster.Followers(id),
		"self":      s.cluster.Self(),
	})
}

// clusterStateEntry is one profile's identity in a /cluster/state digest.
type clusterStateEntry struct {
	ID      string `json:"id"`
	Version uint64 `json:"version"`
}

// handleClusterState serves this node's cluster view: the active ring
// (epoch, replicas, members — what wrong_epoch recovery refetches), a
// deterministic store/replica digest (both sorted by ID, what the drill
// diffs), and — with ?digest=1&node=X — the per-bucket anti-entropy
// digest of the records X should be following.
func (s *Server) handleClusterState(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"node_id": s.cluster.Self(),
		"ring":    s.cluster.State(),
	}
	if r.URL.Query().Get("digest") == "1" {
		peer := r.URL.Query().Get("node")
		if s.cluster.PeerURL(peer) == "" {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("server: digest request from unknown node %q", peer))
			return
		}
		_, recs := s.syncRecords(peer)
		d := cluster.DigestRecords(recs)
		out["digest"] = &d
		writeJSON(w, http.StatusOK, out)
		return
	}
	_, recs := s.store.Records()
	out["store"] = stateEntries(recs)
	out["replica"] = stateEntries(s.cluster.Replica().OwnedBy(func(string) bool { return true }))
	writeJSON(w, http.StatusOK, out)
}

func stateEntries(recs []wal.Record) []clusterStateEntry {
	out := make([]clusterStateEntry, 0, len(recs)) // never nil: the listing is [] when empty
	for _, rec := range recs {
		out = append(out, clusterStateEntry{ID: rec.ID, Version: rec.Version})
	}
	return out
}

// handleClusterRing applies one membership-transition message (prepare /
// commit / abort from a coordinator, install from probe gossip) and
// answers with this node's active ring state.
func (s *Server) handleClusterRing(w http.ResponseWriter, r *http.Request) {
	var msg cluster.RingMessage
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&msg); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.cluster.HandleRingMessage(msg)
	if err != nil {
		writeError(w, http.StatusConflict, "ring_conflict", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ring": st})
}

// handleClusterHandoff runs this node's shard handoff for a prepared
// transition: stream every owned record the next ring moves elsewhere.
func (s *Server) handleClusterHandoff(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	moved, err := s.cluster.RunHandoff(r.Context(), req.Epoch)
	if err != nil {
		writeError(w, http.StatusConflict, "handoff_failed", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"moved": moved})
}

// handleClusterHandoffApply ingests one handoff frame batch into the
// local store, version-guarded and epoch-checked.
func (s *Server) handleClusterHandoffApply(w http.ResponseWriter, r *http.Request) {
	epoch, err := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "server: handoff apply needs an epoch")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, clusterSyncMaxBytes))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	applied, err := s.cluster.ApplyHandoffFrames(epoch, body)
	if err != nil {
		if cluster.IsWrongEpoch(err) {
			s.writeWrongEpoch(w, "handoff")
			return
		}
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"records": applied})
}

// handleClusterMember coordinates a membership change. Join: POST
// {"id","url"} to any existing node; leave: POST {"id"} (add "force":true
// for a dead node whose shards must be promoted from replicas instead of
// handed off). It drives prepare → handoff → commit across the cluster and
// answers with the new ring. The transition is detached from the request
// context — an admin client disconnecting must not strand the cluster
// mid-transition.
func (s *Server) handleClusterMember(join bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ID    string `json:"id"`
			URL   string `json:"url"`
			Force bool   `json:"force"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&req); err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		var (
			st  cluster.RingState
			err error
		)
		if join {
			st, err = s.cluster.AddNode(context.Background(), req.ID, req.URL)
		} else {
			st, err = s.cluster.RemoveNode(context.Background(), req.ID, req.Force)
		}
		if err != nil {
			writeError(w, http.StatusConflict, "transition_failed", err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ring": st})
	}
}
