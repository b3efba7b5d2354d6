package server

import (
	"maps"
	"testing"

	"cqp"
	"cqp/internal/cluster"
	"cqp/internal/wal"
)

// FuzzApplyHandoff holds the handoff-apply body to the version rule. A
// cluster.Node that is never started applies the input with
// ApplyHandoffFrames at its own epoch into a store that keeps tombstones, as
// the store of every cluster node does, seeded with k1 live at v2 and k2
// deleted at v3 (clock 3). The store is read with its tombstones. No input
// panics, and:
//
//   - a body that fails to decode changes nothing, and neither does any
//     body stamped with another epoch;
//   - the store ends as wal.Apply leaves a record map that held the same
//     entries, fed the body's records up to the first one the store refuses
//     as invalid;
//   - no put at or below a held tombstone's version ever lands;
//   - the store clock never decreases and is at least every held version;
//   - applying the same body a second time changes nothing;
//   - once the body's first ID is deleted at the store, applying the same
//     body again leaves it deleted.
//
// testdata/fuzz/FuzzApplyHandoff seeds it with an empty body, a newer put
// and an older one, a delete of the live entry, a delete then an older put
// of one ID, an older put of the deleted ID, a new ID, a profile that fails
// to parse after a valid one, a body cut inside its last frame, and a put of
// a new ID above the clock, which the last step delivers again after its
// delete (a resurrection across bodies until the store kept tombstones).
func FuzzApplyHandoff(f *testing.F) {
	schema := cqp.MovieSchema()
	f.Fuzz(func(t *testing.T, body []byte) {
		ps := NewProfileStore(schema)
		ps.keepTombstones(nil)
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
			m := make(map[string]wal.Record, len(recs)+len(ps.tombs))
			for _, r := range recs {
				m[r.ID] = r
			}
			maps.Copy(m, ps.tombs)
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
		recs, derr := wal.DecodeFrames(body)
		if derr != nil {
			if err == nil || clock1 != clock0 || !maps.Equal(after, before) {
				t.Fatalf("a body that fails to decode (%v) returned %v and changed the store: %+v -> %+v", derr, err, before, after)
			}
			return
		}
		model := maps.Clone(before)
		for _, rec := range recs {
			if _, perr := newStoredProfile(schema, rec); rec.ID == "" || rec.Op == wal.OpPut && perr != nil {
				break
			}
			wal.Apply(model, rec)
		}
		if !maps.Equal(after, model) {
			t.Fatalf("the store holds %+v, the version rule %+v", after, model)
		}
		for id, cur := range before {
			if now, ok := after[id]; cur.Op == wal.OpDelete && ok && now.Op == wal.OpPut && now.Version <= cur.Version {
				t.Fatalf("put %+v landed over the tombstone %+v", now, cur)
			}
		}
		if clock1 < clock0 {
			t.Fatalf("the clock went %d -> %d", clock0, clock1)
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

		if len(recs) == 0 {
			return
		}
		id := recs[0].ID
		if _, err := ps.Delete(id); err != nil {
			t.Fatal(err)
		}
		n.ApplyHandoffFrames(n.Epoch(), body)
		if sp, ok := ps.Get(id); ok {
			t.Fatalf("%q came back at v%d when its body was delivered again after its delete", id, sp.Version)
		}
	})
}
