package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"cqp/internal/cluster"
)

// TestClusterConcurrentJoins: two coordinators on different nodes admit two
// different joiners at the same time. Each mints epoch+1 over its own
// member set; every member's Prepare lets only one ring hold an epoch, so
// the race has one winner and the loser, retried, lands on the next epoch.
// Throughout, no two nodes ever report different rings for one epoch; at the
// end every join that was answered 200 is in the member set, all five nodes
// agree, and every seeded profile is still readable through every node.
func TestClusterConcurrentJoins(t *testing.T) {
	tc := newTestCluster(t, []string{"n1", "n2", "n3"}, false)
	text := testProfileText()
	const seeded = 30
	for i := 0; i < seeded; i++ {
		putProfile(t, tc.url("n2"), fmt.Sprintf("user-%d", i), text)
	}
	tc.spawn("n4")
	tc.spawn("n5")
	everyone := []string{"n1", "n2", "n3", "n4", "n5"}

	// Sample every node's active ring while the joins run: one ring per
	// epoch, cluster-wide. (A joiner's solo epoch-0 ring is its own
	// cluster's, so joiners are sampled from epoch 1 on.)
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		rings := map[uint64]cluster.RingState{} // epoch → the first ring seen at it
		for {
			for _, id := range everyone {
				st := tc.node(id).Cluster().State()
				if st.Epoch == 0 {
					continue
				}
				if first, seen := rings[st.Epoch]; !seen {
					rings[st.Epoch] = st
				} else if !reflect.DeepEqual(first, st) {
					t.Errorf("epoch %d names two rings: %+v on one node, %+v on %s", st.Epoch, first, st, id)
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	// join asks via to admit id and reports the status (0 = transport error).
	join := func(via, id string) int {
		body, _ := json.Marshal(map[string]string{"id": id, "url": tc.peers[id]})
		resp, err := http.Post(tc.url(via)+"/cluster/join", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("join %s via %s: %v", id, via, err)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	coordinator := map[string]string{"n4": "n1", "n5": "n2"} // joiner → the node asked to admit it
	status := map[string]int{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for id, via := range coordinator {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code := join(via, id)
			mu.Lock()
			status[id] = code
			mu.Unlock()
		}()
	}
	wg.Wait()
	won := 0
	for id, code := range status {
		switch code {
		case http.StatusOK:
			won++
		case http.StatusConflict:
		default:
			t.Fatalf("join %s: status %d", id, code)
		}
	}
	if won == 0 {
		t.Fatalf("both concurrent joins were refused: %v", status)
	}
	// The refused coordinator simply asks again.
	for id, via := range coordinator {
		for deadline := time.Now().Add(10 * time.Second); status[id] != http.StatusOK; {
			if status[id] = join(via, id); status[id] != http.StatusOK {
				if time.Now().After(deadline) {
					t.Fatalf("join %s via %s never succeeded: last status %d", id, via, status[id])
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}

	// Converged: one epoch, one ring, both joiners in it.
	final := tc.node("n1").Cluster().State()
	tc.waitEpoch(final.Epoch, everyone...)
	close(stop)
	sampler.Wait()
	for _, id := range everyone {
		if st := tc.node(id).Cluster().State(); !reflect.DeepEqual(st, final) {
			t.Fatalf("node %s reports %+v, n1 reports %+v", id, st, final)
		}
	}
	want := cluster.RingState{Epoch: final.Epoch, Replicas: final.Replicas, Members: map[string]string{}}
	for _, id := range everyone {
		want.Members[id] = tc.peers[id]
	}
	if !reflect.DeepEqual(final, want) {
		t.Fatalf("final ring %+v, want %+v", final, want)
	}

	// Nothing acked was lost on the way.
	for i := 0; i < seeded; i++ {
		id := fmt.Sprintf("user-%d", i)
		for _, via := range everyone {
			resp, body := doJSON(t, http.MethodGet, tc.url(via)+"/profiles/"+id, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s via %s: %d: %s", id, via, resp.StatusCode, body)
			}
			var pj profileJSON
			if err := json.Unmarshal(body, &pj); err != nil {
				t.Fatal(err)
			}
			if pj.Text != text {
				t.Fatalf("GET %s via %s: text %q", id, via, pj.Text)
			}
		}
	}
}
