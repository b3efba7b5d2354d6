package server

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"testing"

	"cqp"
	"cqp/internal/wal"
)

const storedText = `doi(GENRE.genre = 'musical') = 0.5
doi(MOVIE.mid = GENRE.mid) = 0.9
`

func newStore() *ProfileStore { return NewProfileStore(cqp.MovieSchema()) }

func TestProfileStoreCRUD(t *testing.T) {
	ps := newStore()
	if _, ok := ps.Get("u1"); ok {
		t.Fatal("empty store returned a profile")
	}
	sp, err := ps.Put("u1", storedText)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Version != 1 || sp.Profile.Len() != 2 {
		t.Fatalf("stored version %d, %d prefs; want 1, 2", sp.Version, sp.Profile.Len())
	}
	got, ok := ps.Get("u1")
	if !ok || got.Text != storedText {
		t.Fatalf("Get returned %+v, %v", got, ok)
	}
	if n := ps.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	list := ps.List()
	if len(list) != 1 || list[0].ID != "u1" || list[0].Preferences != 2 {
		t.Fatalf("List = %+v", list)
	}
	if ok, err := ps.Delete("u1"); err != nil || !ok {
		t.Fatalf("Delete = %v, %v; want true, nil", ok, err)
	}
	if ok, _ := ps.Delete("u1"); ok {
		t.Fatal("second Delete reported present")
	}
	if _, ok := ps.Get("u1"); ok {
		t.Fatal("deleted profile still present")
	}
}

func TestProfileStoreRejectsBadInput(t *testing.T) {
	ps := newStore()
	if _, err := ps.Put("", storedText); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := ps.Put("u1", "doi(GENRE.genre = 'musical') = 7"); err == nil {
		t.Error("out-of-range doi accepted")
	}
	if _, err := ps.Put("u1", "doi(NOPE.x = 1) = 0.5"); err == nil {
		t.Error("unknown relation accepted")
	}
}

// TestProfileStoreVersionsNeverRepeat checks the store-global clock: a
// replaced or deleted-then-recreated ID always gets a fresh version, so
// cache keys built from ID@version can never alias an old entry.
func TestProfileStoreVersionsNeverRepeat(t *testing.T) {
	ps := newStore()
	seen := map[uint64]bool{}
	for i := 0; i < 3; i++ {
		sp, err := ps.Put("u1", storedText)
		if err != nil {
			t.Fatal(err)
		}
		if seen[sp.Version] {
			t.Fatalf("version %d issued twice", sp.Version)
		}
		seen[sp.Version] = true
		if _, err := ps.Delete("u1"); err != nil {
			t.Fatal(err)
		}
	}
	sp, _ := ps.Put("u2", storedText)
	if seen[sp.Version] {
		t.Fatalf("version %d reused across IDs", sp.Version)
	}
}

// TestShardMatchesFNV pins the inlined FNV-1a loop to the hash/fnv
// reference implementation, so the inline-for-speed rewrite can never
// silently remap IDs to different stripes than the documented hash.
func TestShardMatchesFNV(t *testing.T) {
	ps := newStore()
	for _, id := range []string{"", "a", "user-1", "user-12345", "ünicode-⌘", "long-" + fmt.Sprint(1<<20)} {
		h := fnv.New32a()
		h.Write([]byte(id))
		want := &ps.shards[h.Sum32()%profileShards]
		if got := ps.shard(id); got != want {
			t.Errorf("shard(%q) = stripe %p, fnv reference %p", id, got, want)
		}
	}
}

// TestShardAllocFree: shard sits on the hot path of every profile lookup;
// the inlined hash must not allocate (hash/fnv's New32a allocates its
// state every call, which is exactly what the rewrite removed).
func TestShardAllocFree(t *testing.T) {
	ps := newStore()
	if n := testing.AllocsPerRun(200, func() { ps.shard("user-12345") }); n != 0 {
		t.Fatalf("shard allocates %v objects/op, want 0", n)
	}
}

// TestProfileStoreListSorted: List (and therefore GET /profiles) returns
// entries sorted by ID ascending regardless of insertion or shard order.
func TestProfileStoreListSorted(t *testing.T) {
	ps := newStore()
	ids := []string{"zeta", "alpha", "mu", "beta", "omega", "kappa"}
	for _, id := range ids {
		if _, err := ps.Put(id, storedText); err != nil {
			t.Fatal(err)
		}
	}
	list := ps.List()
	if len(list) != len(ids) {
		t.Fatalf("List returned %d entries, want %d", len(list), len(ids))
	}
	if !sort.SliceIsSorted(list, func(i, j int) bool { return list[i].ID < list[j].ID }) {
		t.Fatalf("List not sorted by ID: %+v", list)
	}
}

func TestProfileStoreConcurrent(t *testing.T) {
	ps := newStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("user-%d", g%4)
			for i := 0; i < 50; i++ {
				if _, err := ps.Put(id, storedText); err != nil {
					t.Error(err)
					return
				}
				ps.Get(id)
				ps.List()
				if i%10 == 9 {
					if _, err := ps.Delete(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestProfileStoreAllocs pins the store's hot paths: Put makes at most 13
// allocations on a memory and on a durable store alike (parsing the text
// is most of them), and Get makes none. The tombstones a cluster keeps live
// off both paths.
func TestProfileStoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the log's write path")
	}
	durable, _, err := NewDurableProfileStore(cqp.MovieSchema(), t.TempDir(), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	for name, ps := range map[string]*ProfileStore{"memory": newStore(), "durable": durable} {
		if n := testing.AllocsPerRun(200, func() {
			if _, err := ps.Put("user-1", storedText); err != nil {
				t.Fatal(err)
			}
		}); n > 13 {
			t.Errorf("%s: Put makes %v allocations, want at most 13", name, n)
		}
		if n := testing.AllocsPerRun(200, func() { ps.Get("user-1") }); n != 0 {
			t.Errorf("%s: Get makes %v allocations, want 0", name, n)
		}
	}
}
