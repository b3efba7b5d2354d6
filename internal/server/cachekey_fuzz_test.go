package server

import (
	"strings"
	"testing"

	"cqp"
)

// fuzzEndpoints are the four ways a singleton request reaches the driver;
// /personalize and /execute share a request type and differ by name alone.
var fuzzEndpoints = []*endpoint{personalizeEndpoint, executeEndpoint, frontEndpoint, topkEndpoint}

// fuzzCall is a prepared cacheable call as prepare leaves it, from parts a
// client chooses: the endpoint, its parameters, the profile ID and — through
// its SQL — the query's rendering.
func fuzzCall(ep uint8, alg, id, sql string, cmax float64, k int64, version, generation uint64) *call {
	c := &call{ep: fuzzEndpoints[ep%4], parsedQuery: parsedQuery{sql: sql}, version: version}
	in := common{ProfileID: id}
	switch c.ep {
	case frontEndpoint:
		c.req = &frontRequest{common: in, CmaxMS: cmax, K: int(k)}
	case topkEndpoint:
		c.req = &topkRequest{common: in, CmaxMS: cmax, K: int(k)}
	default:
		c.req = &personalizeRequest{common: in, Algorithm: alg, K: int(k), prob: cqp.Problem2(cmax)}
	}
	c.setKeys(generation)
	return c
}

// FuzzCacheKey searches for two requests that the appended keys confuse. The
// identity is the result cache's index and the exact key decides a hit, so:
// requests that differ in endpoint, parameters, profile ID or rendering
// never share an identity; requests that differ in anything, version and
// generation included, never share an exact key; the identity is a strict
// prefix of the exact key; and the batch identity of an uncacheable twin is
// nobody's cache key. testdata/fuzz/FuzzCacheKey seeds it.
func FuzzCacheKey(f *testing.F) {
	f.Fuzz(func(t *testing.T,
		epA uint8, algA, idA, sqlA string, cmaxA float64, kA int64, verA, genA uint64,
		epB uint8, algB, idB, sqlB string, cmaxB float64, kB int64, verB, genB uint64) {
		if cmaxA != cmaxA || cmaxB != cmaxB || idA == "" || idB == "" {
			t.Skip("NaN never equals itself; a call without a profile ID is not cacheable")
		}
		a := fuzzCall(epA, algA, idA, sqlA, cmaxA, kA, verA, genA)
		b := fuzzCall(epB, algB, idB, sqlB, cmaxB, kB, verB, genB)
		for _, c := range []*call{a, b} {
			if len(c.staleKey) == 0 || len(c.staleKey) >= len(c.key) || !strings.HasPrefix(c.key, c.staleKey) {
				t.Fatalf("identity %q is not a strict prefix of the exact key %q", c.staleKey, c.key)
			}
		}
		sameWork := a.ep == b.ep && a.req.extra() == b.req.extra() && idA == idB && sqlA == sqlB
		if !sameWork && a.staleKey == b.staleKey {
			t.Fatalf("different work, one identity %q:\n%+v %q\n%+v %q", a.staleKey, a.req, sqlA, b.req, sqlB)
		}
		if (!sameWork || verA != verB || genA != genB) && a.key == b.key {
			t.Fatalf("different work or state, one exact key %q:\n%+v %q @%d g%d\n%+v %q @%d g%d",
				a.key, a.req, sqlA, verA, genA, b.req, sqlB, verB, genB)
		}
		// a's twin that asked for a fresh run: what dedups it inside a batch
		// must never be mistaken for a key the cache or a flight is under.
		twin := *a
		twin.key, twin.staleKey = "", ""
		for _, noCache := range []bool{false, true} {
			twin.req.base().NoCache = noCache
			if bi := batchIdentity(&twin); bi == a.key || bi == b.key || bi == a.staleKey || bi == b.staleKey {
				t.Fatalf("batch identity %q is a cache key (a %q, b %q)", bi, a.key, b.key)
			}
		}
	})
}
