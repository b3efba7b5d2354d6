package cluster

import (
	"strings"
	"testing"
)

// TestPrepareOneRingPerEpoch: two coordinators that mint the same epoch+1
// over different member sets cannot both prepare a member — a repeated
// prepare is a retry only when it proposes the very ring that is pending —
// and the loser's abort, which names its own ring, leaves the winner's
// transition in place.
func TestPrepareOneRingPerEpoch(t *testing.T) {
	n, err := New(Config{Self: "n1", Peers: map[string]string{
		"n1": "http://n1.invalid", "n2": "http://n2.invalid",
	}})
	if err != nil {
		t.Fatal(err)
	}
	propose := func(edit func(*RingState)) RingState {
		st := n.State()
		st.Epoch++
		edit(&st)
		return st
	}
	winner := propose(func(st *RingState) { st.Members["n3"] = "http://n3.invalid" })
	if err := n.Prepare(winner); err != nil {
		t.Fatalf("first prepare: %v", err)
	}
	if err := n.Prepare(winner.Clone()); err != nil {
		t.Fatalf("coordinator retry of the pending ring refused: %v", err)
	}
	losers := map[string]RingState{
		"other members": propose(func(st *RingState) { st.Members["n4"] = "http://n4.invalid" }),
		"other url":     propose(func(st *RingState) { st.Members["n3"] = "http://elsewhere.invalid" }),
		"other R":       propose(func(st *RingState) { st.Members["n3"] = "http://n3.invalid"; st.Replicas++ }),
		"other vnodes":  propose(func(st *RingState) { st.Members["n3"] = "http://n3.invalid"; st.VNodes = 8 }),
	}
	for name, st := range losers {
		err := n.Prepare(st)
		if err == nil || !strings.Contains(err.Error(), "already in progress") {
			t.Fatalf("%s: second ring at pending epoch %d: err = %v, want transition already in progress", name, st.Epoch, err)
		}
		n.Abort(st.Epoch, &st)
		if !n.Status().Transitioning {
			t.Fatalf("%s: a loser's abort cancelled the winner's transition", name)
		}
	}
	if _, ok := n.peer("n3"); !ok {
		t.Fatal("prepared member n3 is not a reachable peer")
	}
	n.Abort(winner.Epoch, &winner)
	if n.Status().Transitioning {
		t.Fatal("the coordinator's own abort left the transition pending")
	}
	if _, ok := n.peer("n3"); ok {
		t.Fatal("aborted member n3 still a peer")
	}
	if _, ok := n.peer("n2"); !ok {
		t.Fatal("abort dropped an active member")
	}
	// An abort that names no ring (an operator's) goes by epoch alone.
	if err := n.Prepare(winner); err != nil {
		t.Fatal(err)
	}
	n.Abort(winner.Epoch, nil)
	if n.Status().Transitioning {
		t.Fatal("abort by epoch left the transition pending")
	}
}
