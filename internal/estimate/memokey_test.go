package estimate_test

import (
	"testing"
	"unsafe"

	"cqp/internal/prefs"
	"cqp/internal/prefspace"
	"cqp/internal/workload"
)

// overlaps reports whether a and b share a byte of memory.
func overlaps(a, b string) bool {
	if a == "" || b == "" {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.StringData(a))), uintptr(unsafe.Pointer(unsafe.StringData(b)))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}

// TestMemoKeyOwnsText: the estimate memo keeps copies of its keys' texts.
// A preference's condition is a substring of a block — the preference
// space's arena for one with a join path, the profile's text for an atomic
// one — and an entry aliasing it would keep the block alive as long as the
// Estimator: a request's arena, or the text of a profile since replaced.
func TestMemoKeyOwnsText(t *testing.T) {
	env := workload.NewEnv(workload.DBConfig{Movies: 500, Seed: 9}, 1)
	q := workload.Queries(1, 7)[0]
	text := workload.GenerateProfile(workload.ProfileConfig{Seed: 11}).String()
	old, err := prefs.ParseProfile(text)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := prefspace.Build(q, old, env.Est, prefspace.Options{MaxK: 20})
	if err != nil {
		t.Fatal(err)
	}
	var handedOut []string // every text the build and the parse carved
	paths := 0
	for _, p := range sp.P {
		handedOut = append(handedOut, p.Imp.Condition())
		if len(p.Imp.Path) > 0 {
			paths++
		}
	}
	for i := range old.Len() {
		handedOut = append(handedOut, old.Atom(i).Condition())
	}
	if paths == 0 || paths == sp.K {
		t.Fatalf("%d of %d preferences have a join path: the build must carve both kinds", paths, sp.K)
	}
	// The profile is replaced, and the next request builds from the new one.
	repl, err := prefs.ParseProfile(text + "doi(MOVIE.year >= 2000) = 0.3\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prefspace.Build(q, repl, env.Est, prefspace.Options{MaxK: 20}); err != nil {
		t.Fatal(err)
	}
	keys := env.Est.MemoKeys()
	if len(keys) < 2*sp.K {
		t.Fatalf("the memo holds %d key texts, want at least %d", len(keys), 2*sp.K)
	}
	for _, k := range keys {
		for _, h := range handedOut {
			if overlaps(k, h) {
				t.Fatalf("memo key %q aliases the text %q of the first build or the replaced profile", k, h)
			}
		}
	}
}
