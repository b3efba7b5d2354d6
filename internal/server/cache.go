package server

import (
	"bytes"
	"container/list"
	"sync"
	"sync/atomic"

	"cqp"
	"cqp/internal/obs"
)

// lru is a bounded map in recency order. It is not safe for concurrent
// use: Cache guards both of its instances with one mutex.
type lru struct {
	max   int
	ll    *list.List // front = most recent
	items map[string]*list.Element
}

// cacheEntry is immutable once stored: a reader keeps using the one it got
// after the cache's lock is gone.
type cacheEntry struct {
	key       string
	profileID string
	val       any
	body      atomic.Pointer[[]byte] // hitBody's; nil until the first hit
}

// hitBody returns what an untraced hit on the entry writes — the encoding of
// stamp(val, true, "") — made by the first caller, outside any lock; racing
// first callers encode the same bytes twice and neither waits.
func (e *cacheEntry) hitBody(ep *endpoint) []byte {
	if b := e.body.Load(); b != nil {
		return *b
	}
	var buf bytes.Buffer
	// An unencodable value leaves the body empty, as writeJSON does.
	_ = encodeJSON(&buf, ep.stamp(e.val, true, ""))
	b := buf.Bytes()
	e.body.Store(&b)
	return b
}

func newLRU(max int) *lru {
	return &lru{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the entry under key, refreshing its recency.
func (l *lru) get(key string) (*cacheEntry, bool) {
	el, ok := l.items[key]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// put stores val under key and returns the least-recently-used entry it
// evicted to stay within capacity (nil when none). An existing key gets a new
// entry under the old profileID, never a write into the old entry: whoever
// still holds that keeps a value and the bytes that encode it.
func (l *lru) put(key, profileID string, val any) *cacheEntry {
	if el, ok := l.items[key]; ok {
		l.ll.MoveToFront(el)
		el.Value = &cacheEntry{key: key, profileID: el.Value.(*cacheEntry).profileID, val: val}
		return nil
	}
	l.items[key] = l.ll.PushFront(&cacheEntry{key: key, profileID: profileID, val: val})
	if l.ll.Len() > l.max {
		return l.remove(l.ll.Back().Value.(*cacheEntry).key)
	}
	return nil
}

// remove unlinks the entry under key, returning it (nil when absent).
func (l *lru) remove(key string) *cacheEntry {
	el, ok := l.items[key]
	if !ok {
		return nil
	}
	delete(l.items, key)
	return l.ll.Remove(el).(*cacheEntry)
}

// Cache is the daemon's LRU result cache. Keys are built by the request
// driver from (endpoint, normalized query fingerprint, profile ID@version,
// statistics generation, problem, options), so a profile mutation or a
// Personalizer.Refresh changes the key and logically invalidates every
// dependent entry; InvalidateProfile and Purge reclaim the dead entries
// eagerly. Values are immutable response objects.
type Cache struct {
	mu        sync.Mutex
	exact     *lru
	byProfile map[string]map[string]struct{} // profile id -> live exact keys

	// The stale index is the degradation ladder's first rung: a second LRU
	// of the same capacity keyed WITHOUT profile version or statistics
	// generation, so the last good answer for (endpoint, query, profile,
	// options) stays reachable after the exact key has rotated away. It
	// deliberately survives InvalidateProfile and Purge — serving from it is
	// explicitly marked stale in the response, and a deleted profile 404s
	// before any lookup.
	stale *lru

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	entries   *obs.Gauge
	staleHits *obs.Counter
}

// NewCache builds an LRU cache of at most max entries (max < 1 selects 1),
// recording server_cache_hits/misses/evictions and server_cache_entries
// into reg (nil disables recording).
func NewCache(max int, reg *obs.Registry) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{
		exact:     newLRU(max),
		byProfile: make(map[string]map[string]struct{}),
		stale:     newLRU(max),
		hits:      reg.Counter("server_cache_hits"),
		misses:    reg.Counter("server_cache_misses"),
		evictions: reg.Counter("server_cache_evictions_total"),
		entries:   reg.Gauge("server_cache_entries"),
		staleHits: reg.Counter("server_cache_stale_hits"),
	}
}

// Get returns the entry cached under key and whether there was one,
// refreshing its recency and counting a hit or miss.
func (c *Cache) Get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.exact.get(key)
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return e, ok
}

// Put stores val under key, attributed to profileID for eager
// invalidation, evicting the least-recently-used entry beyond capacity.
func (c *Cache) Put(key, profileID string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.exact.items[key]; !ok && profileID != "" {
		keys := c.byProfile[profileID]
		if keys == nil {
			keys = make(map[string]struct{})
			c.byProfile[profileID] = keys
		}
		keys[key] = struct{}{}
	}
	if old := c.exact.put(key, profileID, val); old != nil {
		c.evictions.Inc()
		if keys := c.byProfile[old.profileID]; keys != nil {
			delete(keys, old.key)
			if len(keys) == 0 {
				delete(c.byProfile, old.profileID)
			}
		}
	}
	c.entries.Set(int64(c.exact.ll.Len()))
}

// PutStale records val as the last good answer under a version-free key
// (see the stale index comment on Cache), evicting the least-recently-
// served entry beyond capacity.
func (c *Cache) PutStale(staleKey string, val any) {
	if staleKey == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stale.put(staleKey, "", val)
}

// GetStale returns the last good answer recorded under the version-free key.
// Callers must mark any response served from here as degraded.
func (c *Cache) GetStale(staleKey string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.stale.get(staleKey)
	if !ok {
		return nil, false
	}
	c.staleHits.Inc()
	return e.val, true
}

// InvalidateProfile drops every entry attributed to the profile ID,
// returning how many were removed. Version-in-key already keeps stale
// entries unreachable; this reclaims their memory on profile PUT/DELETE.
func (c *Cache) InvalidateProfile(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.byProfile[id]
	for key := range keys {
		c.exact.remove(key)
	}
	delete(c.byProfile, id)
	c.entries.Set(int64(c.exact.ll.Len()))
	return len(keys)
}

// Purge drops everything — the Refresh hook.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.exact = newLRU(c.exact.max)
	c.byProfile = make(map[string]map[string]struct{})
	c.entries.Set(0)
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.exact.ll.Len()
}

// maxMemoSQL is the longest SQL text the query memo keeps: with the entry cap
// it bounds the memo's text at maxMemoSQL × entries bytes.
const maxMemoSQL = 8 << 10

// parsedQuery is a SQL text's parsed form and fingerprint. Requests that sent
// the text share the query and must not write to it (rewrite works on clones).
type parsedQuery struct {
	q  *cqp.Query
	fp string
}

// queryMemo remembers SQL text → parsed query, so a text the server has seen
// is neither parsed nor fingerprinted again. The schema is fixed for the
// server's lifetime, so an entry is never wrong; at capacity the map is
// flushed (the estimate memo's rule) and refills at one parse per live text.
type queryMemo struct {
	mu           sync.RWMutex
	m            map[string]parsedQuery
	max          int
	hits, misses *obs.Counter
}

func newQueryMemo(max int, reg *obs.Registry) *queryMemo {
	return &queryMemo{
		m:      make(map[string]parsedQuery),
		max:    max,
		hits:   reg.Counter("server_query_memo_hits_total"),
		misses: reg.Counter("server_query_memo_misses_total"),
	}
}

// parse returns the parsed form of sql, from the memo when it is there. A
// text that fails to parse, or is longer than maxMemoSQL, is never stored.
func (m *queryMemo) parse(schema *cqp.Schema, sql string) (parsedQuery, error) {
	m.mu.RLock()
	p, ok := m.m[sql]
	m.mu.RUnlock()
	if ok {
		m.hits.Inc()
		return p, nil
	}
	m.misses.Inc()
	q, err := cqp.ParseQuery(schema, sql)
	if err != nil {
		return parsedQuery{}, err
	}
	p = parsedQuery{q: q, fp: q.Fingerprint()}
	if len(sql) <= maxMemoSQL {
		m.mu.Lock()
		if len(m.m) >= m.max {
			clear(m.m)
		}
		m.m[sql] = p
		m.mu.Unlock()
	}
	return p, nil
}
