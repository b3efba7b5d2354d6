package prefs_test

import (
	"runtime"
	"testing"
	"unsafe"

	"cqp/internal/prefs"
	"cqp/internal/workload"
)

// generatedText is the text of the 64-atom generated profile (60 selections,
// 4 joins) the benchmark's PUTs and stored profiles have.
func generatedText() string {
	return workload.GenerateProfile(workload.ProfileConfig{Seed: 3}).String()
}

// TestParseProfileAllocs bounds what parsing the 64-atom profile allocates:
// the profile, its atom and condition slabs, one text block holding every
// atom's condition, the index slab and the three maps — nothing per line
// or per atom.
func TestParseProfileAllocs(t *testing.T) {
	text := generatedText()
	var p *prefs.Profile
	parse := func() {
		var err error
		if p, err = prefs.ParseProfile(text); err != nil || p.Len() != 64 {
			t.Fatalf("%d atoms, err = %v", p.Len(), err)
		}
	}
	parse()
	for i := 1; i < p.Len(); i++ { // the atoms' texts follow one another in one block
		prev, cond := p.Atom(i-1).Condition(), p.Atom(i).Condition()
		if unsafe.Pointer(unsafe.StringData(cond)) != unsafe.Add(unsafe.Pointer(unsafe.StringData(prev)), len(prev)) {
			t.Fatalf("the text of atom %d does not follow atom %d's", i, i-1)
		}
	}
	if n := testing.AllocsPerRun(100, parse); n > 24 {
		t.Errorf("parsing the 64-atom profile allocates %.0f times, want ≤ 24", n)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		parse()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > 16<<10 {
		t.Errorf("parsing the 64-atom profile allocates %d bytes, want ≤ 16 KiB", b)
	}
}

func BenchmarkParseProfile(b *testing.B) {
	text := generatedText()
	b.ReportAllocs()
	for range b.N {
		if _, err := prefs.ParseProfile(text); err != nil {
			b.Fatal(err)
		}
	}
}
