package server

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"cqp"
	"cqp/internal/fault"
	"cqp/internal/wal"
)

// TestCommitTapSeesAckedRecordsInOrder: the replication tap sees exactly
// the records that entered the store, in commit order, whichever of the
// four mutators committed them, on a memory-only and on a durable store
// alike — and a mutation whose log append failed reaches neither the store
// nor the tap.
func TestCommitTapSeesAckedRecordsInOrder(t *testing.T) {
	durable, _, err := NewDurableProfileStore(cqp.MovieSchema(), t.TempDir(), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	for name, ps := range map[string]*ProfileStore{"memory": newStore(), "durable": durable} {
		var tapped []wal.Record
		ps.SetOnMutate(func(r wal.Record) { tapped = append(tapped, r) })
		a, err := ps.Put("a", storedText)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ps.Put("b", storedText)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := ps.Delete("a"); !ok || err != nil {
			t.Fatalf("%s: delete: %v %v", name, ok, err)
		}
		handed := wal.Record{Op: wal.OpPut, ID: "c", Text: storedText, Version: 40, UpdatedAt: 7}
		if err := ps.ApplyRecord(handed); err != nil {
			t.Fatal(err)
		}
		if err := ps.ApplyRecord(handed); err != nil { // redelivery: version-guarded, not a commit
			t.Fatal(err)
		}
		evicted, err := ps.SweepAndEvict(func(id string) bool { return id == "b" }, func([]wal.Record) error { return nil })
		if evicted != 1 || err != nil {
			t.Fatalf("%s: sweep: %d %v", name, evicted, err)
		}
		want := []wal.Record{
			a.record(), b.record(),
			{Op: wal.OpDelete, ID: "a", Version: 3},
			handed,
			{Op: wal.OpDelete, ID: "b", Version: 2}, // the eviction, at b's own version
		}
		for i := range tapped {
			if tapped[i].Op == wal.OpDelete {
				tapped[i].UpdatedAt = 0 // wall clock
			}
		}
		if !reflect.DeepEqual(tapped, want) {
			t.Fatalf("%s: tapped\n %+v\nwant\n %+v", name, tapped, want)
		}
		ps.SetOnMutate(nil)
		if _, err := ps.Put("d", storedText); err != nil {
			t.Fatal(err)
		}
		if len(tapped) != len(want) {
			t.Fatalf("%s: unregistered tap still fired", name)
		}
	}

	var tapped int
	durable.SetOnMutate(func(wal.Record) { tapped++ })
	plan, err := fault.NewPlan(7, fault.Rule{Point: fault.WALAppend, Mode: fault.ModeErr})
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(plan)
	defer fault.Disarm()
	clock, _ := durable.Records()
	if _, err := durable.Put("e", storedText); !errors.Is(err, errDurability) {
		t.Fatalf("put under a failing log: %v, want errDurability", err)
	}
	if _, ok := durable.Get("e"); ok || tapped != 0 {
		t.Fatalf("unacked put visible (%v) or tapped (%d)", ok, tapped)
	}
	if now, _ := durable.Records(); now != clock {
		t.Fatalf("unacked put moved the clock %d → %d", clock, now)
	}
}

// TestRecordsSnapshotInvariant pins the contract a replica install relies
// on to read absence as deletion: any profile live at a version at or below
// the clock Records() returns is in that snapshot, at that version or a
// newer one. One goroutine puts and deletes over 64 IDs while the test
// goroutine snapshots and then asks the store, ID by ID, what is live: a
// version the clock claims to cover can only have been committed before
// the clock was read, so the scan that followed must have seen it.
func TestRecordsSnapshotInvariant(t *testing.T) {
	ps := newStore()
	ids := make([]string, 64)
	for k := range ids {
		ids[k] = fmt.Sprintf("u-%d", k)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := ids[(i*7)%len(ids)]
			var err error
			if i%5 == 4 {
				_, err = ps.Delete(id)
			} else {
				_, err = ps.Put(id, storedText)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	snapshots := 0
	for deadline := time.Now().Add(1500 * time.Millisecond); time.Now().Before(deadline); snapshots++ {
		clock, recs := ps.Records()
		seen := make(map[string]uint64, len(recs))
		for _, r := range recs {
			seen[r.ID] = r.Version
		}
		for _, id := range ids {
			sp, ok := ps.Get(id)
			if !ok || sp.Version > clock {
				continue
			}
			if v, in := seen[id]; !in || v < sp.Version {
				close(stop)
				<-done
				t.Fatalf("snapshot %d reports clock %d but holds %s@%d (0 = absent); live version %d",
					snapshots, clock, id, v, sp.Version)
			}
		}
	}
	close(stop)
	<-done
	if snapshots < 100 {
		t.Fatalf("only %d snapshots taken", snapshots)
	}
}
