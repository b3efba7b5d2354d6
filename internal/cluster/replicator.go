package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cqp/internal/wal"
)

// Replication protocol. The owner appends to its WAL as a single node does
// and enqueues every acked record to each of the profile's R−1 followers.
// A sender goroutine per peer ships them in batches of WAL frames (POST
// /cluster/replicate, stamped with the ring epoch), and the follower
// answers with the highest version it has applied from this owner, the
// cumulative ack. Batches are retried in place, so delivery is ordered and
// at-least-once, and the version rule makes redelivery a no-op.
//
// A queue overflow, a wrong_epoch refusal (after which the sender adopts
// the peer's newer ring) or a ring change drops the queue: the frames may
// be lost or routed under the old ring. The peer is then pushed a full
// sync, the owner's clock and the live records it should hold (the payload
// catch-up pulls), whose absences carry deletions, before frames flow
// again.

const (
	// sendBatchMax bounds one replicate POST.
	sendBatchMax = 256
	// sendBackoffMin/Max bound the retry backoff for an unreachable peer.
	sendBackoffMin = 100 * time.Millisecond
	sendBackoffMax = 2 * time.Second
)

// HeaderEpoch carries the sender's ring epoch on proxied requests and the
// receiver's epoch on wrong_epoch rejections.
const HeaderEpoch = "X-Cqpd-Epoch"

// errWrongEpoch reports a peer rejecting traffic stamped with a ring epoch
// different from its own.
type errWrongEpoch struct {
	peer      string
	peerEpoch uint64
	sentEpoch uint64
}

func (e *errWrongEpoch) Error() string {
	return fmt.Sprintf("cluster: %s at epoch %d rejected epoch %d", e.peer, e.peerEpoch, e.sentEpoch)
}

// replicateResponse is the follower's ack body.
type replicateResponse struct {
	// Applied is the highest version applied from this owner's stream.
	Applied uint64 `json:"applied"`
	// Records is how many records this request carried that changed state.
	Records int `json:"records"`
}

// Replicate enqueues one acked record for shipment to each of its
// followers. Called from the store's commit point (owner's mutation path,
// lock held), so it must not block: when a peer's queue is full the record
// is dropped and that peer is marked for a full sync instead.
//
// Only the profile's current owner replicates. The guard matters at
// handoff cutover: the old owner's evictions pass through the same commit
// point, and without it they would ship to the new ring's followers and
// delete live replicas.
func (n *Node) Replicate(rec wal.Record) {
	if !n.cfg.Replicate {
		return
	}
	n.mu.RLock()
	ring := n.ring
	if ring.Owner(rec.ID) != n.cfg.Self {
		n.mu.RUnlock()
		return
	}
	var targets []*peerState
	for _, f := range ring.Followers(rec.ID) {
		if f == n.cfg.Self {
			continue
		}
		if p, ok := n.peers[f]; ok {
			targets = append(targets, p)
		}
	}
	n.mu.RUnlock()
	for _, p := range targets {
		select {
		case p.ch <- rec:
		default:
			n.markNeedSync(p)
			n.counter("cluster_replication_dropped_total", "peer", p.id).Inc()
		}
	}
}

// markNeedSync queues a full-sync token for the peer (idempotent).
func (n *Node) markNeedSync(p *peerState) {
	select {
	case p.needSync <- struct{}{}:
	default:
	}
}

// MarkAllNeedSync degrades every peer to full-sync mode — called after a
// ring change commits, when the follower set of every shard may have
// moved: the next push per peer recomputes what that peer should hold
// under the new ring and replaces its view wholesale.
func (n *Node) MarkAllNeedSync() {
	if !n.cfg.Replicate {
		return
	}
	for _, p := range n.snapshotPeers() {
		n.markNeedSync(p)
	}
}

// sendLoop is one peer's shipping goroutine. It exits when the node closes
// or the peer leaves the ring.
func (n *Node) sendLoop(p *peerState) {
	defer n.wg.Done()
	backoff := sendBackoffMin
	var batch []wal.Record
	// hold replaces the batch, and with it the sender's share of the lag.
	hold := func(b []wal.Record) {
		batch = b
		p.held.Store(int64(len(b)))
	}
	for {
		select {
		case <-p.done:
			return
		default:
		}
		// A pending full-sync token outranks queued frames: the stream is
		// known broken, so replace state wholesale first.
		select {
		case <-p.needSync:
			n.drain(p)
			hold(nil)
			if err := n.pushFullSync(p); err != nil {
				n.handleSendError(p, err)
				n.markNeedSync(p)
				if !n.sleepPeer(p, &backoff) {
					return
				}
				continue
			}
			n.counter("cluster_full_syncs_total", "peer", p.id).Inc()
			backoff = sendBackoffMin
			continue
		default:
		}
		if len(batch) == 0 {
			select {
			case <-n.stop:
				return
			case <-p.done:
				return
			case <-p.needSync:
				n.markNeedSync(p) // re-queue; handled at loop top
				continue
			case rec := <-p.ch:
				batch = append(batch, rec)
			}
			for len(batch) < sendBatchMax {
				select {
				case rec := <-p.ch:
					batch = append(batch, rec)
				default:
					goto full
				}
			}
		full:
			hold(batch)
		}
		if err := n.ship(p, wal.EncodeRecords(batch), false); err != nil {
			n.handleSendError(p, err)
			if IsWrongEpoch(err) {
				// These frames were routed under a stale ring; the full sync
				// that follows recomputes this peer's view from scratch.
				hold(nil)
				n.markNeedSync(p)
			}
			if !n.sleepPeer(p, &backoff) {
				return
			}
			continue
		}
		n.counter("cluster_replicated_records_total", "peer", p.id).Add(int64(len(batch)))
		hold(nil)
		backoff = sendBackoffMin
	}
}

// handleSendError counts a failed push and, on an epoch mismatch with a
// peer that is ahead, adopts the peer's newer ring.
func (n *Node) handleSendError(p *peerState, err error) {
	var we *errWrongEpoch
	if errors.As(err, &we) {
		n.counter("cluster_wrong_epoch_total", "path", "replicate").Inc()
		if we.peerEpoch > n.Epoch() {
			n.RefreshFromPeer(p.id)
		}
		return
	}
	n.counter("cluster_replication_errors_total", "peer", p.id).Inc()
}

// drain empties a peer's queue (its contents are superseded by the full
// sync about to be pushed).
func (n *Node) drain(p *peerState) {
	for {
		select {
		case <-p.ch:
		default:
			return
		}
	}
}

// sleepPeer backs off between retries; false means the node is closing or
// the peer has left the ring.
func (n *Node) sleepPeer(p *peerState, backoff *time.Duration) bool {
	select {
	case <-n.stop:
		return false
	case <-p.done:
		return false
	case <-time.After(*backoff):
	}
	*backoff *= 2
	if *backoff > sendBackoffMax {
		*backoff = sendBackoffMax
	}
	return true
}

// pushFullSync replaces the peer's replica view of this node's shards
// with a fresh snapshot from SyncSource.
func (n *Node) pushFullSync(p *peerState) error {
	if n.cfg.SyncSource == nil {
		return fmt.Errorf("cluster: no sync source configured")
	}
	return n.ship(p, EncodeSyncPayload(n.cfg.SyncSource(p.id)), true)
}

// ship POSTs one replicate body — a frame batch or, with sync, a snapshot
// — stamped with the sender's current ring epoch, and records the
// follower's cumulative ack.
func (n *Node) ship(p *peerState, body []byte, sync bool) error {
	url := p.url + PathReplicate + "?from=" + n.cfg.Self
	if sync {
		url += "&sync=1"
	}
	var ack replicateResponse
	if err := n.call(context.Background(), 5*time.Second, p.id, url, n.Epoch(), body, &ack); err != nil {
		return err
	}
	p.setAcked(ack.Applied)
	return nil
}

// ApplyReplicate is the follower half of the replicate endpoint: sync=1
// bodies are installed over the owner's whole key space under the ring of
// epoch, the epoch the server handler compared the request against (install
// refuses with *errWrongEpoch if the ring has moved on since); plain bodies
// stream frames into the replica. Returns the ack the owner expects.
func (n *Node) ApplyReplicate(from string, sync bool, epoch uint64, body []byte) (applied uint64, changed int, err error) {
	if sync {
		if changed, err = n.install(from, allBuckets, epoch, body); err != nil {
			return 0, 0, err
		}
		return n.replica.Applied(from), changed, nil
	}
	recs, err := wal.DecodeFrames(body)
	if err != nil {
		return 0, 0, err
	}
	for _, rec := range recs {
		if n.replica.Apply(from, rec) {
			changed++
		}
	}
	return n.replica.Applied(from), changed, nil
}
