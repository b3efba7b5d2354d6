package server

import (
	"maps"
	"testing"

	"cqp"
	"cqp/internal/cluster"
	"cqp/internal/wal"
)

// FuzzApplyHandoff holds the handoff-apply body to the profile store's
// version guard. A cluster.Node that is never started applies the input
// with ApplyHandoffFrames at its own epoch, twice, into a store seeded with
// k1 live at v2 and k2 deleted at v3 (clock 3). No input panics, and:
//
//   - a body that fails to decode changes nothing, and neither does any
//     body stamped with another epoch;
//   - an entry changes only to a strictly newer version;
//   - the store clock never decreases and is at least every held version;
//
// and applying the same body a second time changes nothing.
// testdata/fuzz/FuzzApplyHandoff seeds it with an empty body, a newer put
// and an older one, a delete of the live entry, a delete then an older put
// of one ID, an older put of the deleted ID, a new ID, a profile that fails
// to parse after a valid one, and a body cut inside its last frame.
func FuzzApplyHandoff(f *testing.F) {
	schema := cqp.MovieSchema()
	f.Fuzz(func(t *testing.T, body []byte) {
		ps := NewProfileStore(schema)
		for _, rec := range []wal.Record{
			{Op: wal.OpPut, ID: "k1", Text: storedText, Version: 2},
			{Op: wal.OpPut, ID: "k2", Text: storedText, Version: 1},
			{Op: wal.OpDelete, ID: "k2", Version: 3},
		} {
			if err := ps.ApplyRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		n, err := cluster.New(cluster.Config{
			Self:        "a",
			Peers:       map[string]string{"a": "http://a.invalid"},
			ApplyRecord: ps.ApplyRecord,
		})
		if err != nil {
			t.Fatal(err)
		}
		state := func() (uint64, map[string]wal.Record) {
			clock, recs := ps.Records()
			m := make(map[string]wal.Record, len(recs))
			for _, r := range recs {
				m[r.ID] = r
			}
			return clock, m
		}
		clock0, before := state()

		if _, err := n.ApplyHandoffFrames(n.Epoch()+1, body); !cluster.IsWrongEpoch(err) {
			t.Fatalf("a body at another epoch: err %v, want a wrong-epoch refusal", err)
		}
		if clock, now := state(); clock != clock0 || !maps.Equal(now, before) {
			t.Fatalf("a body at another epoch changed the store: %+v -> %+v", before, now)
		}

		_, err = n.ApplyHandoffFrames(n.Epoch(), body)
		clock1, after := state()
		if _, derr := wal.DecodeFrames(body); derr != nil {
			if err == nil || clock1 != clock0 || !maps.Equal(after, before) {
				t.Fatalf("a body that fails to decode (%v) returned %v and changed the store: %+v -> %+v", derr, err, before, after)
			}
			return
		}
		if clock1 < clock0 {
			t.Fatalf("the clock went %d -> %d", clock0, clock1)
		}
		for id, cur := range before {
			if now, ok := after[id]; ok && now != cur && now.Version <= cur.Version {
				t.Fatalf("entry %+v became %+v, not strictly newer", cur, now)
			}
		}
		for _, rec := range after {
			if rec.Version > clock1 {
				t.Fatalf("entry %+v is newer than the clock %d", rec, clock1)
			}
		}

		_, err2 := n.ApplyHandoffFrames(n.Epoch(), body)
		if clock2, again := state(); (err2 == nil) != (err == nil) || clock2 != clock1 || !maps.Equal(again, after) {
			t.Fatalf("a second apply (err %v, first %v) changed the store: clock %d -> %d, %+v -> %+v", err2, err, clock1, clock2, after, again)
		}
	})
}
