package estimate

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cqp/internal/obs"
	"cqp/internal/prefs"
	"cqp/internal/query"
)

// memoMaxEntries bounds the memo's map. The key space is (FROM-set,
// preference) pairs — small for any real profile/schema — but inline
// profiles from untrusted clients could mint unbounded preference
// identities, so overflow flushes the whole map (an epoch reset, not LRU:
// the memo refills in one batch and precise eviction order buys nothing
// at this size).
const memoMaxEntries = 1 << 16

// prefKey identifies one memoized estimation: the query's relation scope
// and the preference's full condition.
//
// SubQueryCost and Shrink read nothing of the query beyond its FROM set
// (cost charges blocks over From ∪ the preference's path relations; shrink
// multiplies selectivities of the path and terminal selection against
// From), so the scope key is the sorted FROM list rather than the full
// query fingerprint — two distinct selection queries over the same tables
// share every per-preference estimate exactly. The preference side is
// Condition(): the rendered join path plus terminal selection, which is
// precisely the input set of both estimators (doi deliberately excluded —
// it never enters the cost model).
type prefKey struct {
	scope string
	pref  string
}

// prefParams is one memoized (cost, shrink) pair.
type prefParams struct {
	cost   float64
	shrink float64
}

// prefMemo is a concurrency-safe memo of per-preference estimation
// results, owned by one Estimator. Ownership is the invalidation story:
// Refresh swaps in a whole new Estimator per statistics generation, so a
// stale entry cannot survive a catalog rebuild by construction — there is
// no generation tag to get wrong.
type prefMemo struct {
	mu sync.RWMutex
	m  map[prefKey]prefParams

	hits   atomic.Int64
	misses atomic.Int64
	// Lazily attached obs counters (nil — and therefore no-ops — until
	// ObserveMemo wires a registry).
	cHits   atomic.Pointer[obs.Counter]
	cMisses atomic.Pointer[obs.Counter]
}

func newPrefMemo() *prefMemo {
	return &prefMemo{m: make(map[prefKey]prefParams)}
}

func (pm *prefMemo) lookup(k prefKey) (prefParams, bool) {
	pm.mu.RLock()
	p, ok := pm.m[k]
	pm.mu.RUnlock()
	if ok {
		pm.hits.Add(1)
		pm.cHits.Load().Inc()
	} else {
		pm.misses.Add(1)
		pm.cMisses.Load().Inc()
	}
	return p, ok
}

func (pm *prefMemo) store(k prefKey, p prefParams) {
	pm.mu.Lock()
	if len(pm.m) >= memoMaxEntries {
		pm.m = make(map[prefKey]prefParams)
	}
	pm.m[k] = p
	pm.mu.Unlock()
}

// ScopeKey derives the memo scope of a query: its FROM relations, sorted.
// Every per-preference estimate under this Estimator is identical for two
// queries with equal scope keys (see prefKey).
func (e *Estimator) ScopeKey(q *query.Query) string {
	if len(q.From) == 1 {
		return q.From[0]
	}
	rels := append([]string(nil), q.From...)
	sort.Strings(rels)
	return strings.Join(rels, "\x1f")
}

// PrefParams returns the memoized (SubQueryCost, Shrink) of the preference
// under the scope, if this Estimator computed it before. Counts a hit or a
// miss either way; disabled memos always miss without counting.
func (e *Estimator) PrefParams(scope string, p prefs.Implicit) (cost, shrink float64, ok bool) {
	pm := e.memo.Load()
	if pm == nil {
		return 0, 0, false
	}
	params, ok := pm.lookup(prefKey{scope: scope, pref: p.Condition()})
	return params.cost, params.shrink, ok
}

// StorePrefParams memoizes one computed (SubQueryCost, Shrink) pair. The
// key's texts are copied: a condition is a substring of a block — a
// profile's text or a preference space's arena — that an entry living as
// long as the Estimator must not keep alive.
func (e *Estimator) StorePrefParams(scope string, p prefs.Implicit, cost, shrink float64) {
	pm := e.memo.Load()
	if pm == nil {
		return
	}
	key := prefKey{scope: strings.Clone(scope), pref: strings.Clone(p.Condition())}
	pm.store(key, prefParams{cost: cost, shrink: shrink})
}

// MemoCounts reports the memo's lifetime hit/miss totals (zeros when the
// memo is disabled).
func (e *Estimator) MemoCounts() (hits, misses int64) {
	pm := e.memo.Load()
	if pm == nil {
		return 0, 0
	}
	return pm.hits.Load(), pm.misses.Load()
}

// DisableMemo turns the memo off: every PrefParams call misses (uncounted)
// and stores are dropped. For A/B benchmarking of the shared-work layers;
// call before serving traffic through this Estimator.
func (e *Estimator) DisableMemo() { e.memo.Store(nil) }

// ObserveMemo exports the memo's hit/miss totals as
// estimate_memo_hits_total / estimate_memo_misses_total counters in reg.
// Counts accumulated before attachment are folded in so a registry wired
// after warm-up still sees lifetime totals; nil detaches.
func (e *Estimator) ObserveMemo(reg *obs.Registry) {
	pm := e.memo.Load()
	if pm == nil {
		return
	}
	if reg == nil {
		pm.cHits.Store(nil)
		pm.cMisses.Store(nil)
		return
	}
	h := reg.Counter("estimate_memo_hits_total")
	m := reg.Counter("estimate_memo_misses_total")
	if d := pm.hits.Load() - h.Value(); d > 0 {
		h.Add(d)
	}
	if d := pm.misses.Load() - m.Value(); d > 0 {
		m.Add(d)
	}
	pm.cHits.Store(h)
	pm.cMisses.Store(m)
}
