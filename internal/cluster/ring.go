// Package cluster turns cqpd into a multi-node service: a consistent-hash
// ring assigns every profile ID an owner node and R−1 followers (default
// R = 2), owners stream their acked write-ahead-log frames to the
// followers, and a follower's replica serves reads while the owner is
// unreachable. Every ring change (join or leave) mints a new epoch, carried
// on all node-to-node traffic, so a stale ring is refused with wrong_epoch
// rather than misroutes; owned shards move by a paced handoff (handoff.go),
// and anti-entropy repairs replicas that silently diverged (antientropy.go).
//
// Every store of records — the owner's profile store, its log's replay,
// the replica and the handoff target — keeps one version rule (wal.Newer),
// so shipping acked frames in append order reproduces the owner's state
// record for record. Nothing in this package interprets profiles.
package cluster

import (
	"fmt"
	"maps"
	"sort"
)

// DefaultVirtualNodes is how many points each node contributes to the
// ring. 64 keeps the ownership split within a few percent of even for
// small clusters while the ring stays tiny (3 nodes → 192 points).
const DefaultVirtualNodes = 64

// DefaultReplicas is the default replication factor R: the owner plus one
// follower per profile. R=3 survives two simultaneous owner deaths at the
// cost of one more replication stream per mutation.
const DefaultReplicas = 2

// RingState is the wire form of one ring version: the epoch, the
// replication factor, and the member set with its URLs. Every node of a
// cluster holds an identical RingState for the active epoch; /cluster/ring
// broadcasts carry it, and /cluster/state serves it for refetching.
type RingState struct {
	Epoch    uint64            `json:"epoch"`
	Replicas int               `json:"replicas"`
	Members  map[string]string `json:"members"` // node ID → base URL
	VNodes   int               `json:"vnodes,omitempty"`
}

// Build constructs the consistent-hash ring this state describes.
func (st RingState) Build() (*Ring, error) {
	ids := make([]string, 0, len(st.Members))
	for id := range st.Members {
		ids = append(ids, id)
	}
	r, err := NewRing(ids, st.VNodes)
	if err != nil {
		return nil, err
	}
	r.epoch = st.Epoch
	if st.Replicas > 0 {
		r.replicas = st.Replicas
	}
	return r, nil
}

// equal reports whether o describes the same ring: same epoch, replication
// factor, vnode count and member set.
func (st RingState) equal(o RingState) bool {
	return st.Epoch == o.Epoch && st.Replicas == o.Replicas && st.VNodes == o.VNodes &&
		maps.Equal(st.Members, o.Members)
}

// Clone deep-copies the state (the member map is shared otherwise).
func (st RingState) Clone() RingState {
	st.Members = maps.Clone(st.Members)
	return st
}

// Ring is an immutable consistent-hash ring over one epoch's node set.
// Keys map to the first ring point at or clockwise after their hash; the
// next R−1 distinct nodes clockwise are the followers. Immutability per
// epoch is the point: every node at the same epoch computes the identical
// routing, so steady-state routing needs no coordination — only ring
// *changes* coordinate, through the epoch-stamped handoff protocol.
type Ring struct {
	nodes    []string // sorted distinct node IDs
	hashes   []uint64 // sorted ring points
	owner    []string // owner[i] is the node at hashes[i]
	epoch    uint64
	replicas int
}

// NewRing builds an epoch-0 ring with vnodes virtual nodes per node (0
// selects DefaultVirtualNodes) and the default replication factor. Node
// IDs must be non-empty and distinct.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node id")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("cluster: duplicate node id %q", n)
		}
	}
	r := &Ring{
		nodes:    sorted,
		hashes:   make([]uint64, 0, len(sorted)*vnodes),
		owner:    make([]string, 0, len(sorted)*vnodes),
		replicas: DefaultReplicas,
	}
	type point struct {
		h    uint64
		node string
	}
	pts := make([]point, 0, len(sorted)*vnodes)
	for _, n := range sorted {
		for v := 0; v < vnodes; v++ {
			pts = append(pts, point{hash64(fmt.Sprintf("%s#%d", n, v)), n})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		return pts[i].node < pts[j].node // deterministic on (vanishingly rare) collisions
	})
	for _, p := range pts {
		r.hashes = append(r.hashes, p.h)
		r.owner = append(r.owner, p.node)
	}
	return r, nil
}

// Epoch returns the ring version this ring was built for.
func (r *Ring) Epoch() uint64 { return r.epoch }

// Replicas returns the replication factor R (owner + R−1 followers).
func (r *Ring) Replicas() int { return r.replicas }

// Nodes returns the distinct nodes responsible for key, owner first, up
// to n entries (fewer when the cluster is smaller than n).
func (r *Ring) Nodes(key string, n int) []string {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	h := hash64(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	for i := 0; len(out) < n && i < len(r.hashes); i++ {
		node := r.owner[(start+i)%len(r.hashes)]
		seen := false
		for _, o := range out {
			if o == node {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, node)
		}
	}
	return out
}

// Owner returns the node that owns key.
func (r *Ring) Owner(key string) string { return r.Nodes(key, 1)[0] }

// Followers returns the replica holders for key: the first R−1 distinct
// successors clockwise from the owner, in failover order. Fewer (possibly
// none) on a cluster smaller than R.
func (r *Ring) Followers(key string) []string {
	ns := r.Nodes(key, r.replicas)
	return ns[1:]
}

// Follower returns the first replica holder for key — the primary
// failover target. Empty for a single-node ring.
func (r *Ring) Follower(key string) string {
	fs := r.Followers(key)
	if len(fs) == 0 {
		return ""
	}
	return fs[0]
}

// HasFollower reports whether node is one of key's followers.
func (r *Ring) HasFollower(key, node string) bool {
	for _, f := range r.Followers(key) {
		if f == node {
			return true
		}
	}
	return false
}

// Has reports whether node is a ring member.
func (r *Ring) Has(node string) bool {
	i := sort.SearchStrings(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}

// DigestBuckets is how many buckets anti-entropy digests split a node's
// shard space into: divergence re-syncs only the diverged bucket, 1/16th
// of the space, instead of the whole peer relationship.
const DigestBuckets = 16

// Bucket maps a profile ID to its anti-entropy digest bucket.
func Bucket(id string) int { return int(hash64(id) % DigestBuckets) }

// DigestChecksum folds one record's identity into a bucket checksum:
// commutative (sum) over splitmix-scrambled (id, version, text) so any
// missed update, version skew, or silent byte corruption shifts the sum.
func DigestChecksum(id string, version uint64, text string) uint64 {
	return mix64(hash64(id) ^ mix64(version) ^ hash64(text))
}

// hash64 is FNV-1a 64 with a splitmix64 finalizer — fast, allocation-free,
// and stable across processes, which is all consistent routing needs
// (peers are trusted; this is not an adversarial hash). The finalizer
// matters: raw FNV-1a on short, similar strings ("n1#0", "n1#1", …)
// leaves the high bits correlated and the ring lopsided.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
