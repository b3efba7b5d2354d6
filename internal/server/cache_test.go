package server

import (
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
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get = %v, %v", v, ok)
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
	if v, ok := c.Get("k1"); !ok || v.(int) != 9 {
		t.Error("cache broken after purge")
	}
}

func TestCacheUpdateExisting(t *testing.T) {
	c := NewCache(2, nil)
	c.Put("a", "u1", 1)
	c.Put("a", "u1", 2)
	if c.Len() != 1 {
		t.Fatalf("duplicate key grew the cache to %d", c.Len())
	}
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Errorf("value not replaced: %v", v)
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
