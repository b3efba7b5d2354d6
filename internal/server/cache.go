package server

import (
	"bytes"
	"container/list"
	"sync"
	"sync/atomic"

	"cqp"
	"cqp/internal/obs"
)

// cacheEntry is immutable once stored: a reader keeps using the one it got
// after the cache's lock is gone.
type cacheEntry struct {
	key   string // the exact key val was computed under
	ident int    // key[:ident] is the request identity, the entry's place in the cache
	val   any
	body  atomic.Pointer[[]byte] // hitBody's; nil until the first hit
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

// Cache is the daemon's result cache: one LRU with one entry per request
// identity — (endpoint, solver parameters, profile ID, query rendering), the
// exact key without its @<profile version>g<statistics generation> suffix —
// holding the identity's last full-fidelity answer and the exact key it was
// computed under. A request hits iff that key is its own, so a profile
// mutation or a Personalizer.Refresh invalidates by rotating the suffix. The
// superseded answer stays, reachable by identity alone as the degradation
// ladder's stale rung, until the next fill replaces it or it ages out.
type Cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List               // of *cacheEntry; front = most recent
	items map[string]*list.Element // request identity -> its entry

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	entries   *obs.Gauge
	staleHits *obs.Counter
}

// NewCache builds a cache of at most max identities (max < 1 selects 1),
// recording server_cache_hits/misses/stale_hits/evictions_total and
// server_cache_entries into reg (nil disables recording).
func NewCache(max int, reg *obs.Registry) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{
		max:       max,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		hits:      reg.Counter("server_cache_hits"),
		misses:    reg.Counter("server_cache_misses"),
		evictions: reg.Counter("server_cache_evictions_total"),
		entries:   reg.Gauge("server_cache_entries"),
		staleHits: reg.Counter("server_cache_stale_hits"),
	}
}

// Get returns the entry computed under exactly key, whose first ident bytes
// are the request identity, refreshing its recency; nil is a miss. An entry
// computed under another key of the same identity is a miss too and keeps
// its place: it is not what was asked for.
func (c *Cache) Get(key string, ident int) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key[:ident]]; ok {
		if e := el.Value.(*cacheEntry); e.key == key {
			c.ll.MoveToFront(el)
			c.hits.Inc()
			return e
		}
	}
	c.misses.Inc()
	return nil
}

// Put stores val as the answer of the identity key[:ident], computed under
// key, evicting the least recent identity beyond capacity. An identity that is
// already there gets a new entry in the old one's place, never a write into
// it: whoever still holds that keeps a value and the bytes that encode it.
func (c *Cache) Put(key string, ident int, val any) {
	e := &cacheEntry{key: key, ident: ident, val: val}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key[:ident]]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.items[key[:ident]] = c.ll.PushFront(e)
	if c.ll.Len() > c.max {
		old := c.ll.Remove(c.ll.Back()).(*cacheEntry)
		delete(c.items, old.key[:old.ident])
		c.evictions.Inc()
	}
	c.entries.Set(int64(c.ll.Len()))
}

// GetStale returns the identity's last good answer, whatever profile version
// and statistics generation it was computed under, refreshing its recency.
// Callers must mark any response served from here as degraded.
func (c *Cache) GetStale(identity string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[identity]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.staleHits.Inc()
	return el.Value.(*cacheEntry).val, true
}

// Len returns the number of identities held, superseded answers included.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// maxMemoSQL is the longest SQL text the query memo keeps: with the entry cap
// it bounds the memo's text at maxMemoSQL × entries bytes.
const maxMemoSQL = 8 << 10

// parsedQuery is a SQL text's parsed form and its rendering, q.SQL(), the
// name the cache keys carry: the personalized query is built from Q's own
// clauses in Q's order, so two texts are answered alike exactly when they
// render alike. Requests that sent the text share the query and must not
// write to it (rewrite works on clones).
type parsedQuery struct {
	q   *cqp.Query
	sql string
}

// queryMemo remembers SQL text → parsed query, so a text the server has seen
// is neither parsed nor rendered again. The schema is fixed for the
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
	p = parsedQuery{q: q, sql: q.SQL()}
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
