package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"testing"

	"cqp/internal/core"
)

// testEnv sets a workload up at the given scale in a temporary directory.
func testEnv(t *testing.T, workload string, seed int64, scale float64) *env {
	t.Helper()
	e, err := setUp(specByName(workload), seed, scale, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

// everyOp calls fn for each op of the warm-up and timed streams.
func everyOp(e *env, fn func(client int, o op)) {
	for c := 0; c < clients; c++ {
		for _, o := range e.warm[c] {
			fn(c, o)
		}
		for _, o := range e.streams[c] {
			fn(c, o)
		}
	}
}

// digest hashes each client's stream as the bytes the server would receive.
func digest(e *env) [clients][32]byte {
	var h [clients]bytes.Buffer
	everyOp(e, func(c int, o op) {
		method, path, body := e.request(nil, o)
		h[c].WriteString(method + " " + path + "\n")
		h[c].Write(body)
		h[c].WriteByte('\n')
	})
	var out [clients][32]byte
	for c := range h {
		out[c] = sha256.Sum256(h[c].Bytes())
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for _, s := range specs {
		a := digest(testEnv(t, s.name, 7, 0.02))
		b := digest(testEnv(t, s.name, 7, 0.02))
		other := digest(testEnv(t, s.name, 8, 0.02))
		for c := 0; c < clients; c++ {
			if a[c] != b[c] {
				t.Errorf("%s client %d: two set-ups from seed 7 generated different request streams", s.name, c)
			}
			if a[c] == other[c] {
				t.Errorf("%s client %d: seeds 7 and 8 generated the same request stream", s.name, c)
			}
		}
		if a[0] == a[1] {
			t.Errorf("%s: both clients got the same stream", s.name)
		}
	}
}

// share asserts a measured share of the stream against the specified one.
func share(t *testing.T, what string, got, total int, want float64) {
	t.Helper()
	if s := float64(got) / float64(total); math.Abs(s-want) > 0.02 {
		t.Errorf("%s: share %.4f of the stream, specified %.2f", what, s, want)
	}
}

func TestStreamMix(t *testing.T) {
	for _, c := range []struct {
		workload string
		scale    float64
		kinds    map[opKind]float64
	}{
		{"personalize_cold", 0.25, map[opKind]float64{opPersonalize: 1}},
		{"execute_cold", 0.25, map[opKind]float64{opExecute: 0.8, opTopK: 0.2}},
		{"serve_hot", 0.05, map[opKind]float64{opPersonalize: 0.55, opExecute: 0.25, opTopK: 0.08, opFront: 0.04, opBatch: 0.03, opProfileGet: 0.05}},
		{"profile_churn", 0.1, map[opKind]float64{opPersonalize: 0.8, opProfilePut: 0.15, opProfileGet: 0.05}},
	} {
		e := testEnv(t, c.workload, 3, c.scale)
		kinds := map[opKind]int{}
		problems := map[int]int{}
		profiles := map[uint32]int{}
		total, sampled := 0, 0
		for cl := 0; cl < clients; cl++ {
			for _, o := range e.streams[cl] {
				total++
				kinds[o.kind]++
				profiles[o.profile]++
				if o.kind == opPersonalize {
					problems[e.bounds[o.arg].problem]++
				}
				if o.sample {
					sampled++
				}
			}
		}
		for k := opKind(0); k < numKinds; k++ {
			share(t, c.workload+" "+kindNames[k], kinds[k], total, c.kinds[k])
		}
		share(t, c.workload+" sampled", sampled, total, 1.0/sampleEvery)
		switch c.workload {
		case "personalize_cold":
			share(t, "Problem 2", problems[2], total, 0.80)
			share(t, "Problem 3", problems[3], total, 0.05)
			share(t, "Problems 1/4/5/6", problems[1]+problems[4]+problems[5]+problems[6], total, 0.15)
			for _, p := range []int{1, 4, 5, 6} {
				if problems[p] == 0 {
					t.Errorf("no Problem %d request in the stream", p)
				}
			}
		case "profile_churn":
			// Zipf(1.1) over n profiles: rank k has weight k^-1.1.
			n := len(e.profiles)
			var norm, top10 float64
			for k := 1; k <= n; k++ {
				w := math.Pow(float64(k), -1.1)
				norm += w
				if k <= 10 {
					top10 += w
				}
			}
			got10 := 0
			for p := uint32(0); p < 10; p++ {
				got10 += profiles[p]
			}
			share(t, "most requested profile", profiles[0], total, 1/norm)
			share(t, "ten most requested profiles", got10, total, top10/norm)
		}
	}
}

// cacheKey is what makes two pipeline requests the same to the result
// cache: endpoint and body.
func cacheKey(e *env, o op) string {
	_, path, body := e.request(nil, o)
	return path + " " + string(body)
}

func TestColdStreamsNeverRepeatAKey(t *testing.T) {
	for _, w := range []string{"personalize_cold", "execute_cold"} {
		e := testEnv(t, w, 5, 0.25)
		seen := map[string]bool{}
		everyOp(e, func(_ int, o op) {
			k := cacheKey(e, o)
			if seen[k] {
				t.Errorf("%s: request sent twice: %s", w, k)
			}
			seen[k] = true
		})
	}
}

func TestServeHotWorkingSetFitsTheCache(t *testing.T) {
	e := testEnv(t, "serve_hot", 5, 1)
	keys := map[string]bool{}
	everyOp(e, func(_ int, o op) {
		switch o.kind {
		case opPersonalize, opExecute, opTopK, opFront:
			keys[cacheKey(e, o)] = true
		case opBatch:
			for i := 0; i < batchItems; i++ {
				keys[cacheKey(e, op{kind: opPersonalize, profile: o.profile, query: uint16(i), arg: o.arg + uint32(i)})] = true
			}
		}
	})
	if len(keys) > 512 || len(keys) < 400 {
		t.Errorf("serve_hot requests %d distinct cache keys, want about 480 and at most 512", len(keys))
	}
	warmed := map[string]bool{}
	for c := 0; c < clients; c++ {
		for _, o := range e.warm[c] {
			warmed[cacheKey(e, o)] = true
		}
	}
	for k := range keys {
		if !warmed[k] {
			t.Errorf("key not covered by the warming pass: %s", k)
		}
	}
}

// TestWarmUpDoesNotOverwriteTheTimedStream guards against the two streams
// sharing a backing array: serve_hot appends its warming pass to a warm-up
// slice that fill cut from the front of the same allocation.
func TestWarmUpDoesNotOverwriteTheTimedStream(t *testing.T) {
	for _, s := range specs {
		e := testEnv(t, s.name, 5, 0.02)
		for c := 0; c < clients; c++ {
			first := e.streams[c][0]
			grown := append(e.warm[c], op{kind: numKinds})
			if e.streams[c][0] != first || &grown[0] == &e.streams[c][0] {
				t.Errorf("%s client %d: warm-up and timed stream share storage", s.name, c)
			}
		}
	}
	// The stretch of serve_hot's timed stream a shared array would have
	// overwritten is the seeded draw, not the warming pass: it differs from
	// the pass and has the batches and GETs the pass has none of.
	e := testEnv(t, "serve_hot", 5, 0.02)
	for c := 0; c < clients; c++ {
		head := e.streams[c][:len(e.warm[c])]
		same, uncached := 0, 0
		for i, o := range head {
			o.sample = false
			if o == e.warm[c][i] {
				same++
			}
			if o.kind == opBatch || o.kind == opProfileGet {
				uncached++
			}
		}
		if same > len(head)/10 || uncached == 0 {
			t.Errorf("serve_hot client %d: the timed stream starts with the warming pass (%d of %d ops equal, %d batches and GETs)",
				c, same, len(head), uncached)
		}
	}
}

func TestEveryColdRequestHasAWitness(t *testing.T) {
	// The generator only emits a request after feasible() found a witness;
	// an infeasible problem must be refused.
	e := testEnv(t, "personalize_cold", 9, 0.02)
	g := &generator{e: e}
	in := core.FromSpace(g.space(0, 0, 20))
	if feasible(in, bounds{problem: 2, cmax: in.BaseCost / 1e6}.build()) {
		t.Error("a cost bound below every preference's cost was found feasible")
	}
	if !feasible(in, bounds{problem: 2, cmax: in.SupremeCost()}.build()) {
		t.Error("the supreme cost was found infeasible")
	}
}
