package server

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cqp/internal/obs"
)

// cachePut and cacheGet address the cache the way the driver does: the
// identity is the exact key's prefix, the suffix what a PUT or a Refresh
// rotates.
func cachePut(c *Cache, ident, suffix string, val any) { c.Put(ident+suffix, len(ident), val) }

func cacheGet(c *Cache, ident, suffix string) (*cacheEntry, bool) {
	e := c.Get(ident+suffix, len(ident))
	return e, e != nil
}

func TestCacheHitMissCounters(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(4, reg)
	if _, ok := cacheGet(c, "a", "@1g1"); ok {
		t.Fatal("hit on empty cache")
	}
	cachePut(c, "a", "@1g1", 1)
	if e, ok := cacheGet(c, "a", "@1g1"); !ok || e.val.(int) != 1 {
		t.Fatalf("Get = %v, %v", e, ok)
	}
	if h := reg.Counter("server_cache_hits").Value(); h != 1 {
		t.Errorf("hits = %d, want 1", h)
	}
	if m := reg.Counter("server_cache_misses").Value(); m != 1 {
		t.Errorf("misses = %d, want 1", m)
	}
}

// TestCacheLRUEviction: the victim is the least recent identity; a hit
// refreshes recency, a Get that finds the identity under another exact key
// is a miss and refreshes nothing.
func TestCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(2, reg)
	cachePut(c, "a", "@1g1", 1)
	cachePut(c, "b", "@1g1", 2)
	cacheGet(c, "a", "@1g1") // refresh a; b is now the LRU victim
	if _, ok := cacheGet(c, "b", "@2g1"); ok {
		t.Error("b@2 hit the entry filled under b@1")
	}
	cachePut(c, "c", "@1g1", 3)
	if _, ok := cacheGet(c, "b", "@1g1"); ok {
		t.Error("LRU victim b survived: a superseded Get refreshed it")
	}
	if _, ok := cacheGet(c, "a", "@1g1"); !ok {
		t.Error("recently-used a evicted")
	}
	if _, ok := cacheGet(c, "c", "@1g1"); !ok {
		t.Error("new entry c missing")
	}
	if ev := reg.Counter("server_cache_evictions_total").Value(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	if g := reg.Gauge("server_cache_entries").Value(); g != 2 {
		t.Errorf("entries gauge = %d, want 2", g)
	}
}

// TestCacheUpdateExisting: Put on a live identity — under the same exact key
// or a rotated one — replaces the entry, it does not write into it: whoever
// still holds the old entry keeps its value and the bytes that encode it,
// and a new Get sees neither.
func TestCacheUpdateExisting(t *testing.T) {
	for _, suffix := range []string{"@1g1", "@2g1"} {
		c := NewCache(2, nil)
		cachePut(c, "a", "@1g1", &topkResponse{Answers: []rowJSON{{Doi: 1}}})
		old, _ := cacheGet(c, "a", "@1g1")
		oldBody := string(old.hitBody(topkEndpoint))
		cachePut(c, "a", suffix, &topkResponse{Answers: []rowJSON{{Doi: 2}}})
		if c.Len() != 1 {
			t.Fatalf("%s: a live identity grew the cache to %d", suffix, c.Len())
		}
		if got := old.val.(*topkResponse).Answers[0].Doi; got != 1 || string(old.hitBody(topkEndpoint)) != oldBody {
			t.Errorf("%s: the old entry changed under its holder: doi %v, body %s (was %s)", suffix, got, old.hitBody(topkEndpoint), oldBody)
		}
		if _, ok := cacheGet(c, "a", "@1g1"); ok != (suffix == "@1g1") {
			t.Errorf("%s: Get under the old exact key: hit=%v", suffix, ok)
		}
		e, ok := cacheGet(c, "a", suffix)
		if !ok || e == old || e.val.(*topkResponse).Answers[0].Doi != 2 {
			t.Fatalf("%s: value not replaced: %+v", suffix, e)
		}
		if e.body.Load() != nil {
			t.Errorf("%s: the new entry was born with bytes", suffix)
		}
		if body := string(e.hitBody(topkEndpoint)); body == oldBody || !strings.Contains(body, `"doi":2`) {
			t.Errorf("%s: the new entry's body is %s; the old one's was %s", suffix, body, oldBody)
		}
	}
}

// TestCacheStaleIndex covers the cache read by identity alone: bounded by the
// capacity, least-recently-served out first, still there after the exact key
// rotated away, and counted in server_cache_stale_hits.
func TestCacheStaleIndex(t *testing.T) {
	put := func(c *Cache, ident string, val any) { cachePut(c, ident, "@1g1", val) }
	cases := []struct {
		name    string
		do      func(t *testing.T, c *Cache)
		present []string // GetStale must find these…
		absent  []string // …and must not find these
	}{
		{
			name:    "bounded by capacity",
			do:      func(_ *testing.T, c *Cache) { put(c, "a", 1); put(c, "b", 2); put(c, "c", 3) },
			present: []string{"b", "c"},
			absent:  []string{"a"},
		},
		{
			name: "GetStale refreshes recency",
			do: func(t *testing.T, c *Cache) {
				put(c, "a", 1)
				put(c, "b", 2)
				c.GetStale("a") // b is now the victim
				put(c, "c", 3)
			},
			present: []string{"a", "c"},
			absent:  []string{"b"},
		},
		{
			name: "Put of a live identity refreshes it without growing",
			do: func(t *testing.T, c *Cache) {
				put(c, "a", 1)
				put(c, "b", 2)
				cachePut(c, "a", "@2g1", 9) // b is now the victim
				put(c, "c", 3)
			},
			present: []string{"a", "c"},
			absent:  []string{"b"},
		},
		{
			name: "survives a profile PUT",
			do: func(t *testing.T, c *Cache) {
				put(c, "a", 1)
				if _, ok := cacheGet(c, "a", "@2g1"); ok {
					t.Error("the rotated version hit")
				}
			},
			present: []string{"a"},
		},
		{
			name: "survives a Refresh",
			do: func(t *testing.T, c *Cache) {
				put(c, "a", 1)
				if _, ok := cacheGet(c, "a", "@1g2"); ok {
					t.Error("the rotated generation hit")
				}
			},
			present: []string{"a"},
		},
		{
			name:    "the empty key is never stored",
			do:      func(_ *testing.T, c *Cache) { put(c, "a", 1) },
			present: []string{"a"},
			absent:  []string{""}, // what a shed uncacheable request asks for
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			c := NewCache(2, reg)
			tc.do(t, c)
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
			if c.Len() != len(tc.present) {
				t.Errorf("Len = %d, want the %d identities found", c.Len(), len(tc.present))
			}
		})
	}
}

// modelCache is the reference the cache is held to: a map from identity to
// the last fill, and the identities in recency order.
type modelCache struct {
	max   int
	at    map[string]modelFill
	order []string // most recent first
}

// modelFill is both the model's entry and the value the real cache is given:
// a Get that returns one names the exact key it was filled under.
type modelFill struct {
	key string
	n   int
}

func (m *modelCache) touch(ident string) {
	m.order = slices.Insert(slices.DeleteFunc(m.order, func(s string) bool { return s == ident }), 0, ident)
}

func (m *modelCache) put(ident string, f modelFill) {
	m.at[ident] = f
	m.touch(ident)
	if len(m.order) > m.max {
		delete(m.at, m.order[m.max])
		m.order = m.order[:m.max]
	}
}

// TestCacheModel drives random Put / Get / GetStale sequences over a few
// identities × versions × generations through the cache and the model. Get
// never returns a value filled under another exact key, a superseded Get
// refreshes nothing, the capacity is never exceeded, and the identity that
// leaves is the least recent one — the recency order is compared after every
// operation.
func TestCacheModel(t *testing.T) {
	idents := []string{"personalize|a", "personalize|ab", "execute|a", "topk|b", "front|c"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := obs.NewRegistry()
		c := NewCache(3, reg)
		m := &modelCache{max: 3, at: make(map[string]modelFill)}
		evicted := 0
		for op := 0; op < 2000; op++ {
			ident := idents[rng.Intn(len(idents))]
			key := ident + "@" + string(rune('1'+rng.Intn(3))) + "g" + string(rune('1'+rng.Intn(2)))
			switch rng.Intn(3) {
			case 0:
				f := modelFill{key: key, n: op}
				if _, live := m.at[ident]; !live && len(m.order) == m.max {
					evicted++
				}
				c.Put(key, len(ident), f)
				m.put(ident, f)
			case 1:
				e := c.Get(key, len(ident))
				ok := e != nil
				want, live := m.at[ident]
				if live = live && want.key == key; live {
					m.touch(ident)
				}
				if ok != live || (ok && e.val.(modelFill) != want) {
					t.Fatalf("seed %d op %d: Get(%s) = %v, %v; the model has %v, %v", seed, op, key, e, ok, want, live)
				}
			case 2:
				v, ok := c.GetStale(ident)
				want, live := m.at[ident]
				if live {
					m.touch(ident)
				}
				if ok != live || (ok && v.(modelFill) != want) {
					t.Fatalf("seed %d op %d: GetStale(%s) = %v, %v; the model has %v, %v", seed, op, ident, v, ok, want, live)
				}
			}
			var order []string
			for el := c.ll.Front(); el != nil; el = el.Next() {
				e := el.Value.(*cacheEntry)
				order = append(order, e.key[:e.ident])
			}
			if !slices.Equal(order, m.order) || len(c.items) != len(order) {
				t.Fatalf("seed %d op %d: recency order %v over %d map entries, the model has %v", seed, op, order, len(c.items), m.order)
			}
		}
		if got := reg.Counter("server_cache_evictions_total").Value(); got != int64(evicted) {
			t.Errorf("seed %d: %d evictions counted, the model made %d", seed, got, evicted)
		}
	}
}
