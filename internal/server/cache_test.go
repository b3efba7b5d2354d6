package server

import (
	"strings"
	"testing"

	"cqp/internal/obs"
)

func TestCacheHitMissCounters(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(4, reg)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", "u1", 1)
	if e, ok := c.Get("a"); !ok || e.val.(int) != 1 {
		t.Fatalf("Get = %v, %v", e, ok)
	}
	if h := reg.Counter("server_cache_hits").Value(); h != 1 {
		t.Errorf("hits = %d, want 1", h)
	}
	if m := reg.Counter("server_cache_misses").Value(); m != 1 {
		t.Errorf("misses = %d, want 1", m)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(2, reg)
	c.Put("a", "u1", 1)
	c.Put("b", "u1", 2)
	c.Get("a") // refresh a; b is now the LRU victim
	c.Put("c", "u2", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("LRU victim b survived")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently-used a evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("new entry c missing")
	}
	if ev := reg.Counter("server_cache_evictions_total").Value(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	if g := reg.Gauge("server_cache_entries").Value(); g != 2 {
		t.Errorf("entries gauge = %d, want 2", g)
	}
}

func TestCacheInvalidateProfile(t *testing.T) {
	c := NewCache(10, nil)
	c.Put("k1", "u1", 1)
	c.Put("k2", "u1", 2)
	c.Put("k3", "u2", 3)
	if n := c.InvalidateProfile("u1"); n != 2 {
		t.Fatalf("invalidated %d entries, want 2", n)
	}
	if _, ok := c.Get("k1"); ok {
		t.Error("u1 entry survived invalidation")
	}
	if _, ok := c.Get("k3"); !ok {
		t.Error("u2 entry lost to u1's invalidation")
	}
	if n := c.InvalidateProfile("u1"); n != 0 {
		t.Errorf("second invalidation removed %d", n)
	}
}

func TestCachePurge(t *testing.T) {
	c := NewCache(10, nil)
	c.Put("k1", "u1", 1)
	c.Put("k2", "", 2) // unattributed (inline-profile style) entry
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after purge", c.Len())
	}
	if _, ok := c.Get("k1"); ok {
		t.Error("entry survived purge")
	}
	// The cache still works after a purge.
	c.Put("k1", "u1", 9)
	if e, ok := c.Get("k1"); !ok || e.val.(int) != 9 {
		t.Error("cache broken after purge")
	}
}

// TestCacheUpdateExisting: Put on a live key replaces the entry, it does not
// write into it — whoever still holds the old entry keeps its value and the
// bytes that encode it, and a new Get sees neither.
func TestCacheUpdateExisting(t *testing.T) {
	c := NewCache(2, nil)
	c.Put("a", "u1", &topkResponse{Answers: []rowJSON{{Doi: 1}}})
	old, _ := c.Get("a")
	oldBody := string(old.hitBody(topkEndpoint))
	c.Put("a", "u1", &topkResponse{Answers: []rowJSON{{Doi: 2}}})
	if c.Len() != 1 {
		t.Fatalf("duplicate key grew the cache to %d", c.Len())
	}
	if got := old.val.(*topkResponse).Answers[0].Doi; got != 1 || string(old.hitBody(topkEndpoint)) != oldBody {
		t.Errorf("the old entry changed under its holder: doi %v, body %s (was %s)", got, old.hitBody(topkEndpoint), oldBody)
	}
	e, _ := c.Get("a")
	if e == old || e.val.(*topkResponse).Answers[0].Doi != 2 {
		t.Fatalf("value not replaced: %+v", e.val)
	}
	if e.body.Load() != nil {
		t.Error("the new entry was born with bytes")
	}
	if body := string(e.hitBody(topkEndpoint)); body == oldBody || !strings.Contains(body, `"doi":2`) {
		t.Errorf("the new entry's body is %s; the old one's was %s", body, oldBody)
	}
	if n := c.InvalidateProfile("u1"); n != 1 || c.Len() != 0 {
		t.Errorf("the replaced entry lost its profile: invalidated %d, %d left", n, c.Len())
	}
}

// TestCacheStaleIndex covers the version-free stale index: bounded by the
// cache's capacity, least-recently-served out first, untouched by the two
// invalidations of the exact cache, and counted in server_cache_stale_hits.
func TestCacheStaleIndex(t *testing.T) {
	cases := []struct {
		name    string
		do      func(c *Cache)
		present []string // GetStale must find these…
		absent  []string // …and must not find these
	}{
		{
			name:    "bounded by capacity",
			do:      func(c *Cache) { c.PutStale("a", 1); c.PutStale("b", 2); c.PutStale("c", 3) },
			present: []string{"b", "c"},
			absent:  []string{"a"},
		},
		{
			name: "GetStale refreshes recency",
			do: func(c *Cache) {
				c.PutStale("a", 1)
				c.PutStale("b", 2)
				c.GetStale("a") // b is now the victim
				c.PutStale("c", 3)
			},
			present: []string{"a", "c"},
			absent:  []string{"b"},
		},
		{
			name: "PutStale of a live key refreshes it without growing",
			do: func(c *Cache) {
				c.PutStale("a", 1)
				c.PutStale("b", 2)
				c.PutStale("a", 9) // b is now the victim
				c.PutStale("c", 3)
			},
			present: []string{"a", "c"},
			absent:  []string{"b"},
		},
		{
			name: "survives InvalidateProfile",
			do: func(c *Cache) {
				c.Put("exact", "u1", 1)
				c.PutStale("a", 1)
				c.InvalidateProfile("u1")
			},
			present: []string{"a"},
		},
		{
			name: "survives Purge",
			do: func(c *Cache) {
				c.Put("exact", "u1", 1)
				c.PutStale("a", 1)
				c.Purge()
			},
			present: []string{"a"},
		},
		{
			name:   "the empty key is never stored",
			do:     func(c *Cache) { c.PutStale("", 1) },
			absent: []string{""},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			c := NewCache(2, reg)
			tc.do(c)
			before := reg.Counter("server_cache_stale_hits").Value()
			for _, k := range tc.present {
				if _, ok := c.GetStale(k); !ok {
					t.Errorf("stale entry %q missing", k)
				}
			}
			for _, k := range tc.absent {
				if _, ok := c.GetStale(k); ok {
					t.Errorf("stale entry %q present", k)
				}
			}
			if got := reg.Counter("server_cache_stale_hits").Value() - before; got != int64(len(tc.present)) {
				t.Errorf("server_cache_stale_hits grew by %d over %d hits and %d misses",
					got, len(tc.present), len(tc.absent))
			}
			if c.Len() != 0 {
				t.Errorf("Len = %d: stale entries are not live cache entries", c.Len())
			}
		})
	}
}
