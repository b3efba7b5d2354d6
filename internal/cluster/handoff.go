package cluster

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sort"
	"time"

	"cqp/internal/wal"
)

// Membership transitions. A ring change (join or leave) moves through
// three phases, driven by the node that received the admin request (the
// coordinator) and stamped with the new ring's epoch:
//
//	prepare ──► handoff ──► commit
//	   │            │
//	   └── abort ◄──┘  (any phase failure rolls every node back)
//
// prepare installs the next ring on every old and new member: nothing
// routes by it yet, but handoff targets become reachable and a concurrent
// transition is refused. handoff has each member stream the owned records
// that the next ring moves to their new owners, in paced WAL-frame batches
// applied under the version rule, so retries are no-ops. commit swaps the
// active ring; then each old owner, under the profile store's mutation
// lock, re-sweeps the moved shards, flushes what changed since the handoff
// to the new owners and evicts only after the ack. No mutation lands
// between the final flush and the eviction, so no acked write is lost
// while the cluster keeps taking writes.
//
// Until commit the old owner still serves moved shards (the double-serve);
// after it the new owner holds everything. A node that misses the commit
// routes on the stale ring until probe gossip or a wrong_epoch refusal
// brings it the new epoch.

// handoffTimeout bounds one membership transition end to end.
const handoffTimeout = 5 * time.Minute

// RingMessage is the /cluster/ring wire form.
type RingMessage struct {
	// Mode is prepare, commit, abort, or install.
	Mode string `json:"mode"`
	// State carries the next ring for prepare and install, and names the
	// ring an abort abandons (absent = whatever is pending at Epoch).
	State *RingState `json:"state,omitempty"`
	// Epoch identifies the transition for commit and abort.
	Epoch uint64 `json:"epoch,omitempty"`
}

// AddNode joins a new member: mints epoch+1, prepares it everywhere,
// hands off the shards the new ring assigns to the joiner, and commits.
// Idempotent when the node is already a member at the same URL.
func (n *Node) AddNode(ctx context.Context, id, url string) (RingState, error) {
	cur := n.State()
	if id == "" || url == "" {
		return cur, fmt.Errorf("cluster: join needs id and url")
	}
	if have, ok := cur.Members[id]; ok {
		if have == url {
			return cur, nil
		}
		return cur, fmt.Errorf("cluster: node %q already a member at %s", id, have)
	}
	st := cur.Clone()
	st.Members[id] = url
	st.Epoch = cur.Epoch + 1
	return n.transition(ctx, cur, st, nil)
}

// RemoveNode removes a member: mints epoch+1, prepares it everywhere,
// has the leaver hand off everything it owns, and commits. With force the
// leaver is never contacted (it is presumed dead); each survivor promotes
// the replicas it now owns at commit instead.
func (n *Node) RemoveNode(ctx context.Context, id string, force bool) (RingState, error) {
	cur := n.State()
	if _, ok := cur.Members[id]; !ok {
		return cur, fmt.Errorf("cluster: node %q is not a member", id)
	}
	if len(cur.Members) == 1 {
		return cur, fmt.Errorf("cluster: refusing to remove the last member")
	}
	st := cur.Clone()
	delete(st.Members, id)
	st.Epoch = cur.Epoch + 1
	var skip map[string]bool
	if force {
		skip = map[string]bool{id: true}
	}
	return n.transition(ctx, cur, st, skip)
}

// transition drives prepare → handoff → commit across the union of old
// and new members (minus skipped dead nodes). Any prepare or handoff
// failure aborts everywhere and leaves the old ring active.
func (n *Node) transition(ctx context.Context, cur, st RingState, skip map[string]bool) (RingState, error) {
	n.transitionMu.Lock()
	defer n.transitionMu.Unlock()
	ctx, cancel := context.WithTimeout(ctx, handoffTimeout)
	defer cancel()

	urls := maps.Clone(cur.Members)
	maps.Copy(urls, st.Members)
	var all []string
	for id := range urls {
		if !skip[id] {
			all = append(all, id)
		}
	}
	sort.Strings(all)

	abort := func() {
		for _, id := range all {
			n.ringCall(ctx, id, urls[id], RingMessage{Mode: "abort", Epoch: st.Epoch, State: &st})
		}
	}

	for _, id := range all {
		if err := n.ringCall(ctx, id, urls[id], RingMessage{Mode: "prepare", State: &st}); err != nil {
			abort()
			return cur, fmt.Errorf("cluster: prepare epoch %d on %s: %w", st.Epoch, id, err)
		}
	}

	for _, id := range all {
		if _, member := cur.Members[id]; !member {
			continue // only current members can own shards that move
		}
		if err := n.handoffCall(ctx, id, urls[id], st.Epoch); err != nil {
			abort()
			return cur, fmt.Errorf("cluster: handoff epoch %d on %s: %w", st.Epoch, id, err)
		}
	}

	// Past this point the transition only rolls forward: a member that
	// misses its commit converges by epoch gossip or wrong_epoch refetch.
	var commitErrs []string
	for _, id := range all {
		if err := n.ringCall(ctx, id, urls[id], RingMessage{Mode: "commit", Epoch: st.Epoch}); err != nil {
			commitErrs = append(commitErrs, id)
			n.counter("cluster_commit_errors_total", "peer", id).Inc()
		}
	}
	if len(commitErrs) > 0 {
		return st, fmt.Errorf("cluster: epoch %d committed, but %v missed the commit (gossip will converge them)",
			st.Epoch, commitErrs)
	}
	return st, nil
}

// ringCall delivers one ring message, locally or over HTTP.
func (n *Node) ringCall(ctx context.Context, id, url string, msg RingMessage) error {
	if id == n.cfg.Self {
		_, err := n.HandleRingMessage(msg)
		return err
	}
	return n.call(ctx, 10*time.Second, id, url+PathRing, n.Epoch(), msg, nil)
}

// handoffCall asks one member to run its handoff for the transition.
func (n *Node) handoffCall(ctx context.Context, id, url string, epoch uint64) error {
	if id == n.cfg.Self {
		_, err := n.RunHandoff(ctx, epoch)
		return err
	}
	// No extra deadline: a large handoff legitimately takes a while (it is
	// rate-bounded); the transition ctx caps it.
	return n.call(ctx, 0, id, url+PathHandoff, epoch, map[string]uint64{"epoch": epoch}, nil)
}

// HandleRingMessage dispatches one /cluster/ring message and returns the
// node's (possibly updated) active state for the response body.
func (n *Node) HandleRingMessage(msg RingMessage) (RingState, error) {
	if (msg.Mode == "prepare" || msg.Mode == "install") && msg.State == nil {
		return n.State(), fmt.Errorf("cluster: %s needs a ring state", msg.Mode)
	}
	var err error
	switch msg.Mode {
	case "prepare":
		err = n.Prepare(*msg.State)
	case "commit":
		err = n.Commit(msg.Epoch)
	case "abort":
		n.Abort(msg.Epoch, msg.State)
	case "install":
		_, err = n.AdoptIfNewer(*msg.State)
	default:
		err = fmt.Errorf("cluster: unknown ring message mode %q", msg.Mode)
	}
	return n.State(), err
}

// Prepare installs the next ring for a pending transition. Handoff
// targets and joining followers become reachable peers now, so streams
// can start before the ring is active. Rejects overlapping transitions —
// this guard, enforced on every member, is what serializes concurrent
// coordinators cluster-wide. A repeated prepare is a coordinator retry only
// when it proposes the very ring that is pending: two coordinators minting
// the same epoch+1 over different members must not both succeed, or one
// epoch would name two rings.
func (n *Node) Prepare(st RingState) error {
	ring, err := st.Build()
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if st.Epoch <= n.state.Epoch {
		return fmt.Errorf("cluster: prepare epoch %d not newer than active %d", st.Epoch, n.state.Epoch)
	}
	if n.next != nil {
		if n.next.equal(st) {
			return nil // coordinator retry
		}
		return fmt.Errorf("cluster: transition to epoch %d already in progress", n.next.Epoch)
	}
	stc := st.Clone()
	n.next = &stc
	n.nextRing = ring
	n.syncPeersLocked()
	return nil
}

// syncPeersLocked makes the peer set what the rings in force call for:
// every other member of the active ring and, mid-transition, of the pending
// one (handoff targets must be reachable before commit) has a health state
// and a sender; a peer in neither is stopped and forgotten. Every change of
// state or next ends with it. The caller holds n.mu.
func (n *Node) syncPeersLocked() {
	want := maps.Clone(n.state.Members)
	if n.next != nil {
		maps.Copy(want, n.next.Members)
	}
	delete(want, n.cfg.Self)
	for id, url := range want {
		if _, ok := n.peers[id]; !ok {
			p := n.newPeer(id, url)
			n.peers[id] = p
			if n.cfg.Replicate {
				n.wg.Add(1)
				go n.sendLoop(p)
			}
		}
	}
	for id, p := range n.peers {
		if _, ok := want[id]; !ok {
			close(p.done)
			delete(n.peers, id)
		}
	}
}

// Abort drops a prepared transition and forgets peers that were only
// reachable for its sake — unless nothing is pending at epoch, or the
// coordinator names the ring it abandons and a different one is pending: a
// coordinator that lost the prepare race holds the winner's epoch number and
// must not cancel the winner's transition.
func (n *Node) Abort(epoch uint64, st *RingState) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.next == nil || n.next.Epoch != epoch || (st != nil && !n.next.equal(*st)) {
		return
	}
	n.next, n.nextRing = nil, nil
	n.syncPeersLocked()
}

// RunHandoff streams every owned record that moves under the prepared
// ring to its new owner, in WAL-frame batches at the configured bounded
// rate. The store keeps serving (and keeps the records — reads
// double-serve until commit evicts them); anything mutated after this
// snapshot is caught by commit's final sweep.
func (n *Node) RunHandoff(ctx context.Context, epoch uint64) (int, error) {
	n.mu.RLock()
	if n.next == nil || n.next.Epoch != epoch {
		cur := n.state.Epoch
		n.mu.RUnlock()
		return 0, fmt.Errorf("cluster: no prepared transition for epoch %d (active %d)", epoch, cur)
	}
	oldRing, newRing := n.ring, n.nextRing
	n.mu.RUnlock()
	if n.cfg.OwnedRecords == nil {
		return 0, nil
	}
	_, recs := n.cfg.OwnedRecords()
	moved := recs[:0]
	for _, rec := range recs {
		if oldRing.Owner(rec.ID) == n.cfg.Self && newRing.Owner(rec.ID) != n.cfg.Self {
			moved = append(moved, rec)
		}
	}
	return n.sendMoved(ctx, newRing, epoch, moved, n.cfg.HandoffRate)
}

// sendMoved is the one sender of owned records to their owners under ring;
// the handoff stream and commit's final sweep both end here. Records go to
// each new owner (in sorted order) as WAL-frame batches of at most
// sendBatchMax with bounded retries, paced to rate records per second, or
// back to back at rate 0 (the final sweep holds the store's mutation lock).
// Returns how many records were acked.
func (n *Node) sendMoved(ctx context.Context, ring *Ring, epoch uint64, recs []wal.Record, rate int) (int, error) {
	byOwner := map[string][]wal.Record{}
	for _, rec := range recs {
		owner := ring.Owner(rec.ID)
		byOwner[owner] = append(byOwner[owner], rec)
	}
	targets := make([]string, 0, len(byOwner))
	for t := range byOwner {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	sent := 0
	for _, target := range targets {
		url := n.PeerURL(target)
		if url == "" {
			return sent, fmt.Errorf("handoff to %s: unknown node", target)
		}
		url += PathHandoffApply + "?from=" + n.cfg.Self
		for rest := byOwner[target]; len(rest) > 0; {
			batch := rest[:min(len(rest), sendBatchMax)]
			rest = rest[len(batch):]
			if err := n.postHandoffBatch(ctx, target, url, epoch, batch); err != nil {
				return sent, fmt.Errorf("handoff to %s: %w", target, err)
			}
			sent += len(batch)
			n.counter("cluster_handoff_records_total", "peer", target).Add(int64(len(batch)))
			if len(rest) > 0 && rate > 0 {
				pause := time.Duration(len(batch)) * time.Second / time.Duration(rate)
				select {
				case <-ctx.Done():
					return sent, ctx.Err()
				case <-time.After(pause):
				}
			}
		}
	}
	return sent, nil
}

// postHandoffBatch delivers one frame batch with bounded retries.
func (n *Node) postHandoffBatch(ctx context.Context, target, url string, epoch uint64, batch []wal.Record) error {
	body := wal.EncodeRecords(batch)
	var err error
	for try := 0; try < 5; try++ {
		if err = n.call(ctx, 10*time.Second, target, url, epoch, body, nil); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Duration(try+1) * 200 * time.Millisecond):
		}
	}
	return err
}

// ApplyHandoffFrames is the target half of a handoff stream: decode the
// frames and install each record, put or tombstone, into the local store
// under the version rule. Accepted while the epoch matches either the
// prepared transition or the already-committed active ring (targets may
// commit before sources flush their final sweep).
func (n *Node) ApplyHandoffFrames(epoch uint64, body []byte) (int, error) {
	n.mu.RLock()
	ok := n.state.Epoch == epoch || (n.next != nil && n.next.Epoch == epoch)
	myEpoch := n.state.Epoch
	n.mu.RUnlock()
	if !ok {
		return 0, &errWrongEpoch{peer: n.cfg.Self, peerEpoch: myEpoch, sentEpoch: epoch}
	}
	if n.cfg.ApplyRecord == nil {
		return 0, fmt.Errorf("cluster: node has no store to apply handoff to")
	}
	recs, err := wal.DecodeFrames(body)
	if err != nil {
		return 0, err
	}
	for _, rec := range recs {
		if err := n.cfg.ApplyRecord(rec); err != nil {
			return 0, fmt.Errorf("apply %s: %w", rec.ID, err)
		}
	}
	return len(recs), nil
}

// IsWrongEpoch classifies an error as an epoch-mismatch rejection.
func IsWrongEpoch(err error) bool {
	var we *errWrongEpoch
	return errors.As(err, &we)
}

// Commit activates a prepared transition: swap the ring, drop departed
// peers, promote replicas this node now owns, then — under the store's
// mutation lock — flush and evict the moved shards, and finally degrade
// every peer to full-sync so replica placement rebuilds under the new
// ring. Idempotent for an already-active epoch.
func (n *Node) Commit(epoch uint64) error {
	n.mu.Lock()
	if n.state.Epoch == epoch {
		n.mu.Unlock()
		return nil
	}
	if n.next == nil || n.next.Epoch != epoch {
		cur := n.state.Epoch
		n.mu.Unlock()
		return fmt.Errorf("cluster: no prepared transition for epoch %d (active %d)", epoch, cur)
	}
	oldRing := n.ring
	n.state = *n.next
	n.ring = n.nextRing
	n.next, n.nextRing = nil, nil
	n.detached = !n.ring.Has(n.cfg.Self)
	newRing := n.ring
	n.syncPeersLocked()
	n.mu.Unlock()
	n.gauge("cluster_ring_epoch").Set(int64(epoch))
	n.counter("cluster_transitions_total").Inc()

	// Promote replica records this node owns under the new ring into its
	// store — how a force-removed dead node's shards come back from the
	// survivors' replicas. Tombstones go too, so the store clock passes
	// every version the dead owner gave its keys.
	if n.cfg.ApplyRecord != nil && !n.detached {
		promote := n.replica.records(func(rec wal.Record) bool {
			return newRing.Owner(rec.ID) == n.cfg.Self && oldRing.Owner(rec.ID) != n.cfg.Self
		})
		for _, rec := range promote {
			if err := n.cfg.ApplyRecord(rec); err != nil {
				n.counter("cluster_promote_errors_total").Inc()
			}
		}
		n.counter("cluster_promoted_records_total").Add(int64(len(promote)))
	}

	// Final sweep: under the store's mutation lock, re-read the moved
	// shards (catching every mutation acked since the handoff snapshot) and
	// their tombstones, flush them to their new owners — unpaced and on a
	// tight deadline, the lock is held — and evict only after the flush
	// acks. The sweep and the replica's Fold count this commit.
	if n.cfg.SweepAndEvict != nil {
		movedPred := func(id string) bool {
			return oldRing.Owner(id) == n.cfg.Self && newRing.Owner(id) != n.cfg.Self
		}
		evicted, err := n.cfg.SweepAndEvict(movedPred, func(recs []wal.Record) error {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_, err := n.sendMoved(ctx, newRing, epoch, recs, 0)
			return err
		})
		if err != nil {
			// The records stay local — redundant but safe; anti-entropy and
			// the new owner's handoff copy keep serving correct data.
			n.counter("cluster_sweep_errors_total").Inc()
		}
		n.counter("cluster_evicted_records_total").Add(int64(evicted))
	}
	n.replica.Fold()
	n.MarkAllNeedSync()
	return nil
}

// AdoptIfNewer installs a strictly newer ring state wholesale — the
// convergence path for nodes that missed a transition (rebooted on stale
// static peers, partitioned through a commit). Refused mid-transition;
// the coordinator's commit supersedes gossip.
func (n *Node) AdoptIfNewer(st RingState) (bool, error) {
	ring, err := st.Build()
	if err != nil {
		return false, err
	}
	n.mu.Lock()
	if st.Epoch <= n.state.Epoch {
		n.mu.Unlock()
		return false, nil
	}
	if n.next != nil {
		// Mid-transition. Seeing the prepared epoch already active on a
		// peer means the coordinator's commit wave has started; roll
		// forward now rather than 409ing traffic from committed peers
		// until our own commit call arrives (it stays a no-op). A state
		// from some OTHER epoch while prepared is a conflict — leave it
		// for the coordinator to resolve.
		next := n.next.Epoch
		n.mu.Unlock()
		if st.Epoch == next {
			return true, n.Commit(next)
		}
		return false, nil
	}
	n.state = st.Clone()
	n.ring = ring
	n.detached = !ring.Has(n.cfg.Self)
	n.syncPeersLocked()
	n.mu.Unlock()
	n.gauge("cluster_ring_epoch").Set(int64(st.Epoch))
	n.counter("cluster_ring_adoptions_total").Inc()
	n.MarkAllNeedSync()
	return true, nil
}
