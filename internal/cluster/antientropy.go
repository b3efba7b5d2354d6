package cluster

import (
	"context"
	"time"
)

// Anti-entropy. Replication covers crashes and redelivery but not silent
// divergence: a replica flipped on disk, or an update missed in a way no
// retry covers. So each follower periodically asks each owner for a digest
// of the records it should be following (per bucket, the live count and a
// commutative checksum over id, version and text), compares it with its
// replica's, and pulls only the diverged buckets through the one
// ReplicaStore.Install. Rounds skip transitions and peers at another
// epoch, where a digest diff would "repair" healthy state.

// antiEntropyRound digest-diffs this node's replica view against every
// reachable owner.
func (n *Node) antiEntropyRound() {
	n.mu.RLock()
	transitioning := n.next != nil
	n.mu.RUnlock()
	if transitioning {
		return
	}
	n.counter("cluster_antientropy_rounds_total").Inc()
	for _, p := range n.snapshotPeers() {
		if n.Up(p.id) {
			n.antiEntropyPeer(p)
		}
	}
}

// antiEntropyPeer compares one owner's digest of the records this node
// should be following with the local replica view of that owner's keys,
// and pulls the buckets that differ.
func (n *Node) antiEntropyPeer(p *peerState) {
	ring := n.Ring()
	epoch := ring.Epoch()
	var remote struct {
		Ring   RingState `json:"ring"`
		Digest *Digest   `json:"digest"`
	}
	url := p.url + PathState + "?digest=1&node=" + n.cfg.Self
	if n.call(context.Background(), 5*time.Second, p.id, url, epoch, nil, &remote) != nil ||
		remote.Digest == nil || remote.Ring.Epoch != epoch {
		return
	}
	owner := p.id
	local := n.replica.Digest(func(id string) bool { return ring.Owner(id) == owner })
	for b := range local {
		if local[b] == remote.Digest[b] {
			continue
		}
		if changed, err := n.pull(context.Background(), 10*time.Second, p, b); err == nil && changed > 0 {
			n.counter("cluster_antientropy_repairs_total", "peer", owner).Add(int64(changed))
		}
	}
}
