package iter

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"cqp/internal/storage"
	"cqp/internal/value"
)

// grouperInput feeds g 300 keys under tags in [0, 130) — three words, bits 63
// and 127 among them (a tag word rides a spill frame as a signed INT) — from
// one reused row, mixing Add with AddMask, and returns what each key owes.
func grouperInput(t *testing.T, g *Grouper) map[int64][]uint64 {
	t.Helper()
	want := make(map[int64][]uint64)
	row := make(storage.Row, 1)
	for n := 0; n < 3000; n++ {
		key := int64(n*7919) % 300
		row[0] = value.Int(key)
		if want[key] == nil {
			want[key] = make([]uint64, 3)
		}
		var err error
		if n%3 == 0 {
			mask := []uint64{1 << 63, uint64(n), 1<<(n%2) | 1<<1}
			for w, m := range mask {
				want[key][w] |= m
			}
			err = g.AddMask(row, mask)
		} else {
			tag := []int{0, 63, 64, 127, 129}[n%5]
			want[key][tag/64] |= 1 << (tag % 64)
			err = g.Add(row, tag)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestGrouper: Each and Next yield every key once with the union of its
// tags, whether the table stayed in memory or spilled and regrouped.
func TestGrouper(t *testing.T) {
	for _, budget := range []int64{0, 512} {
		for _, drain := range []string{"Each", "Next"} {
			t.Run(fmt.Sprintf("budget%d/%s", budget, drain), func(t *testing.T) {
				ctx := WithBudget(context.Background(), Budget{Bytes: budget, Dir: t.TempDir()})
				runs0, _, _ := SpillStats()
				g := NewGrouper(ctx, 130)
				want := grouperInput(t, g)
				if runs1, _, _ := SpillStats(); (runs1 > runs0) != (budget > 0) {
					t.Fatalf("spill runs %d under budget %d", runs1-runs0, budget)
				}
				got := make(map[int64][]uint64)
				see := func(key storage.Row, tags []uint64) error {
					if len(key) != 1 || got[key[0].AsInt()] != nil {
						return fmt.Errorf("group %v malformed or yielded twice", key)
					}
					got[key[0].AsInt()] = append([]uint64(nil), tags...)
					return nil
				}
				if drain == "Each" {
					if err := g.Each(see); err != nil {
						t.Fatal(err)
					}
				} else {
					rows, err := Collect(g)
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range rows {
						tags := make([]uint64, 3)
						for w := range tags {
							tags[w] = uint64(r[1+w].AsInt())
						}
						if err := see(r[:1], tags); err != nil {
							t.Fatal(err)
						}
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%d groups, want %d", len(got), len(want))
				}
				for key, tags := range want {
					for w := range tags {
						if got[key][w] != tags[w] {
							t.Fatalf("key %d word %d: %d tags, want %d", key, w,
								bits.OnesCount64(got[key][w]), bits.OnesCount64(tags[w]))
						}
					}
				}
			})
		}
	}
}

// TestGrouperLookup: Lookup returns, for every probe row, exactly the tag
// words a LeftOuterJoin on the same key columns emits for it over an equally
// filled grouper — nil where the join pads with NULL, the OR of its rows where
// it emits more than one — and allocates only then. Keys of one column, of two
// (read from the probe in the other order) and of none; INT and FLOAT
// spellings of one number, ±0, NaN, NULL, strings, BOOL, and two INT groups
// above 2^53 that one FLOAT equals. The hash Lookup probes with is the one the
// grouper's rows were chained by: storage.Hash over the key columns is HashRow
// of the key row.
func TestGrouperLookup(t *testing.T) {
	big := int64(1) << 53
	vals := []value.Value{
		value.Int(0), value.Float(math.Copysign(0, -1)), value.Float(0), value.Int(7), value.Float(7), value.Float(7.5),
		value.Float(math.NaN()), value.Null(), value.Str(""), value.Str("a"), value.Str("7"), value.Bool(true),
		value.Int(big), value.Float(float64(big)), value.Int(big + 1),
	}
	probeOnly := []value.Value{value.Int(8), value.Str("b"), value.Float(-1), value.Bool(false)}
	all := append(slices.Clone(vals), probeOnly...)
	for _, c := range []struct {
		name   string
		key    []int // probe columns, aligned with a group row's
		groups []storage.Row
		probes []storage.Row // column 0 is the probe's number
	}{
		{name: "one column", key: []int{1}},
		{name: "two columns", key: []int{2, 1}},
		{name: "no column", key: []int{}, groups: []storage.Row{{}, {}}},
		{name: "no column, no group", key: []int{}},
		{name: "no group", key: []int{1}, groups: []storage.Row{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			drawGroups := c.groups == nil
			for i, a := range all {
				for j, b := range all {
					if len(c.key) < 2 && j > 0 || len(c.key) == 0 && i > 0 {
						continue
					}
					c.probes = append(c.probes, storage.Row{value.Int(int64(len(c.probes))), a, b})
					if drawGroups && i < len(vals) && j < len(vals) && (len(c.key) == 1 || (i*7+3)%len(vals) == j) {
						c.groups = append(c.groups, storage.Row{b, a}[2-len(c.key):])
					}
				}
			}
			fill := func() *Grouper {
				g := NewGrouper(context.Background(), 70)
				for i, r := range c.groups {
					for _, tag := range []int{i * 11 % 70, (i*11 + 64) % 70} {
						if err := g.Add(r, tag); err != nil {
							t.Fatal(err)
						}
					}
				}
				return g
			}
			// The join's rows, ORed per probe; a probe it pads with NULL stays nil.
			buildIdx, out := []int{}, []int{0, 1, 2, 3 + len(c.key), 4 + len(c.key)}
			for k := range c.key {
				buildIdx = append(buildIdx, k)
			}
			rows, err := Collect(LeftOuterJoin(context.Background(), FromRows(c.probes), fill(), c.key, buildIdx, 3, out, nil))
			if err != nil {
				t.Fatal(err)
			}
			want, extra := make([][]uint64, len(c.probes)), 0
			for _, r := range rows {
				p := r[0].AsInt()
				if r[3].IsNull() {
					continue
				}
				if want[p] != nil {
					extra++
				} else {
					want[p] = make([]uint64, 2)
				}
				want[p][0] |= uint64(r[3].AsInt())
				want[p][1] |= uint64(r[4].AsInt())
			}
			g := fill()
			defer g.Close()
			matched := 0
			for _, p := range c.probes {
				keyRow := make(storage.Row, len(c.key))
				for k, col := range c.key {
					keyRow[k] = p[col]
				}
				if HashRow(keyRow) != storage.Hash(p, c.key) {
					t.Fatalf("key %v: HashRow %x, storage.Hash %x", keyRow, HashRow(keyRow), storage.Hash(p, c.key))
				}
				got, join := g.Lookup(p, c.key), want[p[0].AsInt()]
				if (got == nil) != (join == nil) || !slices.Equal(got, join) {
					t.Fatalf("key %v: Lookup %v, the join %v", keyRow, got, join)
				}
				if got != nil {
					matched++
				}
			}
			if allocs := testing.AllocsPerRun(1, func() {
				for _, p := range c.probes {
					g.Lookup(p, c.key)
				}
			}); allocs != float64(extra) {
				t.Errorf("%.0f allocations over %d probes, want one per extra match: %d", allocs, len(c.probes), extra)
			}
			t.Logf("%d rows grouped, %d probes, %d matched, %d matching two groups", len(c.groups), len(c.probes), matched, extra)
		})
	}
}

// TestLeftOuterJoin: every probe row comes out — with its match's columns,
// or once with NULLs — in memory and through the Grace partitions alike.
func TestLeftOuterJoin(t *testing.T) {
	var probe, build []storage.Row
	want := make(map[string]int)
	for i := 0; i < 2000; i++ {
		probe = append(probe, intRow(int64(i), int64(i%400)))
		switch k := i % 400; {
		case k%3 != 0:
			want[fmt.Sprintf("%d|%d|NULL|", i, k)]++
		case k%2 == 0: // twice on the build side
			want[fmt.Sprintf("%d|%d|%d|", i, k, 1000+k)] += 2
		default:
			want[fmt.Sprintf("%d|%d|%d|", i, k, 1000+k)]++
		}
	}
	for k := 0; k < 400; k += 3 {
		build = append(build, intRow(int64(k), int64(1000+k)))
		if k%2 == 0 {
			build = append(build, intRow(int64(k), int64(1000+k)))
		}
	}
	for _, budget := range []int64{0, 512} {
		ctx := WithBudget(context.Background(), Budget{Bytes: budget, Dir: t.TempDir()})
		runs0, _, _ := SpillStats()
		got, err := Collect(LeftOuterJoin(ctx, FromRows(probe), FromRows(build), []int{1}, []int{0}, 2, []int{0, 1, 3}, nil))
		if err != nil {
			t.Fatal(err)
		}
		if runs1, _, _ := SpillStats(); (runs1 > runs0) != (budget > 0) {
			t.Fatalf("spill runs %d under budget %d", runs1-runs0, budget)
		}
		seen := make(map[string]int)
		for _, s := range rowStrings(got) {
			seen[s]++
		}
		if len(seen) != len(want) {
			t.Fatalf("budget %d: %d distinct rows, want %d", budget, len(seen), len(want))
		}
		for s, n := range want {
			if seen[s] != n {
				t.Fatalf("budget %d: row %s came out %d times, want %d", budget, s, seen[s], n)
			}
		}
	}
}

// TestJoinKeyRange: a join that skips INT probe keys outside its build's key
// range emits, row for row, what the same join emits with the build keys boxed
// as FLOAT — equal numbers, equal hashes, and no range kept. Inner and outer,
// over an empty, a one-row and a many-row build, in memory and through the
// Grace partitions (where the range is each partition's own), with NULL,
// FLOAT and far-away probe keys.
func TestJoinKeyRange(t *testing.T) {
	var probe []storage.Row
	for i := 0; i < 1200; i++ {
		key := value.Int(int64(i%400) - 50)
		switch i % 97 {
		case 0:
			key = value.Null()
		case 1:
			key = value.Float(float64(i % 400)) // equals an INT build key when in range
		case 2:
			key = value.Float(float64(i%400) + 0.5)
		case 3:
			key = value.Int(int64(i) << 40)
		}
		probe = append(probe, storage.Row{value.Int(int64(i)), key})
	}
	builds := map[string][]storage.Row{"empty": nil, "one row": {intRow(7, 1007)}}
	for k := int64(100); k < 300; k += 2 {
		builds["many rows"] = append(builds["many rows"], intRow(k, 1000+k))
		if k%3 == 0 {
			builds["many rows"] = append(builds["many rows"], intRow(k, 2000+k))
		}
	}
	for name, build := range builds {
		boxed := make([]storage.Row, len(build))
		for i, r := range build {
			boxed[i] = storage.Row{value.Float(float64(r[0].AsInt())), r[1]}
		}
		for _, outer := range []bool{false, true} {
			// The oracle: nested loops, probe order, a probe row's matches in build order.
			var oracle []storage.Row
			for _, p := range probe {
				matched := false
				for _, b := range build {
					if p[1].Compare(b[0]) == 0 {
						oracle, matched = append(oracle, storage.Row{p[0], p[1], b[1]}), true
					}
				}
				if outer && !matched {
					oracle = append(oracle, storage.Row{p[0], p[1], value.Null()})
				}
			}
			for _, budget := range []int64{0, 1024} {
				ctx := WithBudget(context.Background(), Budget{Bytes: budget, Dir: t.TempDir()})
				run := func(build []storage.Row, ranged bool) []storage.Row {
					join := HashJoin
					if outer {
						join = LeftOuterJoin
					}
					it := join(ctx, FromRows(probe), FromRows(build), []int{1}, []int{0}, 2, []int{0, 1, 3}, nil).(*hashJoinIter)
					rows, err := Collect(it)
					if err != nil {
						t.Fatal(err)
					}
					if it.tab.Ranged != ranged || it.spilled != (budget > 0 && len(build) > 64) {
						t.Fatalf("%s build, outer %v, budget %d: ranged %v (want %v), spilled %v",
							name, outer, budget, it.tab.Ranged, ranged, it.spilled)
					}
					return rows
				}
				got, want := run(build, true), run(boxed, len(build) == 0)
				if !equalStrings(rowStrings(got), rowStrings(want)) {
					t.Fatalf("%s build, outer %v, budget %d: %d rows with the range, %d without", name, outer, budget, len(got), len(want))
				}
				if !equalStrings(sortedRowStrings(got), sortedRowStrings(oracle)) {
					t.Fatalf("%s build, outer %v, budget %d: %d rows, nested loops give %d", name, outer, budget, len(got), len(oracle))
				}
			}
		}
	}
}
