package iter

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"cqp/internal/fault"
	"cqp/internal/storage"
	"cqp/internal/value"
)

func intRow(vals ...int64) storage.Row {
	r := make(storage.Row, len(vals))
	for i, v := range vals {
		r[i] = value.Int(v)
	}
	return r
}

func rowStrings(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		s := ""
		for _, v := range r {
			s += v.SQL() + "|"
		}
		out[i] = s
	}
	return out
}

func sortedRowStrings(rows []storage.Row) []string {
	s := rowStrings(rows)
	sort.Strings(s)
	return s
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFilterProjectLimit(t *testing.T) {
	var rows []storage.Row
	for i := int64(0); i < 100; i++ {
		rows = append(rows, intRow(i, i*2))
	}
	it := Limit(Project(Filter(FromRows(rows), func(r storage.Row) bool {
		return r[0].AsInt()%2 == 0
	}), []int{1}), 10)
	got, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d rows, want 10", len(got))
	}
	for i, r := range got {
		if want := int64(i * 4); r[0].AsInt() != want || len(r) != 1 {
			t.Fatalf("row %d = %v, want [%d]", i, r, want)
		}
	}
}

// joinInputs builds a probe/build pair whose expected join result is easy
// to enumerate: probe (i, i%m), build (j, payload) joined on probe[1] ==
// build[0].
func joinInputs(n, m int) (probe, build []storage.Row, want []string) {
	for i := 0; i < n; i++ {
		probe = append(probe, intRow(int64(i), int64(i%m)))
	}
	for j := 0; j < m; j++ {
		build = append(build, intRow(int64(j), int64(1000+j)))
	}
	for i := 0; i < n; i++ {
		j := i % m
		want = append(want, fmt.Sprintf("%d|%d|%d|%d|", i, j, j, 1000+j))
	}
	sort.Strings(want)
	return
}

func TestHashJoinInMemory(t *testing.T) {
	probe, build, want := joinInputs(500, 20)
	it := HashJoin(context.Background(), FromRows(probe), FromRows(build),
		[]int{1}, []int{0}, 2, []int{0, 1, 2, 3}, nil)
	got, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	// In-memory mode preserves probe order exactly.
	if !equalStrings(sortedRowStrings(got), want) {
		t.Fatalf("join mismatch: %d rows", len(got))
	}
	for i, r := range got {
		if r[0].AsInt() != int64(i) {
			t.Fatalf("probe order broken at %d", i)
		}
	}
}

func TestHashJoinSpillMatchesInMemory(t *testing.T) {
	probe, build, want := joinInputs(2000, 300)
	ctx := WithBudget(context.Background(), Budget{Bytes: 512, Dir: t.TempDir()})
	r0, _, _ := SpillStats()
	it := HashJoin(ctx, FromRows(probe), FromRows(build), []int{1}, []int{0}, 2, []int{0, 1, 2, 3}, nil)
	got, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if r1, _, _ := SpillStats(); r1 == r0 {
		t.Fatal("join did not spill under a 512-byte budget")
	}
	if !equalStrings(sortedRowStrings(got), want) {
		t.Fatalf("spilled join result differs: %d rows, want %d", len(got), len(want))
	}
}

func TestHashJoinDuplicateKeys(t *testing.T) {
	// Multiple matches per key on both sides: 3 probe × 2 build per key.
	var probe, build []storage.Row
	for k := int64(0); k < 50; k++ {
		for d := int64(0); d < 3; d++ {
			probe = append(probe, intRow(k, d))
		}
		for d := int64(0); d < 2; d++ {
			build = append(build, intRow(k, 100+d))
		}
	}
	for _, budget := range []Budget{{}, {Bytes: 256}} {
		ctx := WithBudget(context.Background(), budget)
		it := HashJoin(ctx, FromRows(probe), FromRows(build), []int{0}, []int{0}, 2, []int{0, 1, 2, 3}, nil)
		got, err := Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 50*3*2 {
			t.Fatalf("budget %+v: %d rows, want %d", budget, len(got), 50*3*2)
		}
	}
}

func TestCross(t *testing.T) {
	probe := []storage.Row{intRow(1), intRow(2)}
	build := []storage.Row{intRow(10), intRow(20), intRow(30)}
	got, err := Collect(HashJoin(context.Background(), FromRows(probe), FromRows(build), nil, nil, 1, []int{0, 1}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("%d rows, want 6", len(got))
	}
	if got[0][0].AsInt() != 1 || got[0][1].AsInt() != 10 || got[5][0].AsInt() != 2 || got[5][1].AsInt() != 30 {
		t.Fatalf("cross product order wrong: %v", got)
	}
}

func distinctInput(n, distinct int) ([]storage.Row, []string) {
	var rows []storage.Row
	want := map[string]bool{}
	for i := 0; i < n; i++ {
		k := int64(i % distinct)
		rows = append(rows, intRow(k, k*7))
		want[fmt.Sprintf("%d|%d|", k, k*7)] = true
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return rows, keys
}

func TestDistinctInMemory(t *testing.T) {
	rows, want := distinctInput(1000, 100)
	got, err := Collect(Distinct(context.Background(), FromRows(rows)))
	if err != nil {
		t.Fatal(err)
	}
	if !equalStrings(sortedRowStrings(got), want) {
		t.Fatalf("distinct mismatch: %d rows, want %d", len(got), len(want))
	}
	// First-appearance order in streaming mode.
	for i, r := range got {
		if r[0].AsInt() != int64(i) {
			t.Fatalf("first-appearance order broken at %d", i)
		}
	}
}

func TestDistinctSpillMatchesInMemory(t *testing.T) {
	rows, want := distinctInput(5000, 700)
	ctx := WithBudget(context.Background(), Budget{Bytes: 1024, Dir: t.TempDir()})
	r0, _, _ := SpillStats()
	got, err := Collect(Distinct(ctx, FromRows(rows)))
	if err != nil {
		t.Fatal(err)
	}
	if r1, _, _ := SpillStats(); r1 == r0 {
		t.Fatal("distinct did not spill under a 1 KiB budget")
	}
	if !equalStrings(sortedRowStrings(got), want) {
		t.Fatalf("spilled distinct differs: %d rows, want %d", len(got), len(want))
	}
}

// A duplicate of a row emitted before the spill must not be emitted again
// by the partition drain.
func TestDistinctSpillNoReEmit(t *testing.T) {
	var rows []storage.Row
	// Enough distinct prefix rows to trip a small budget, then repeats of
	// the very first rows.
	for i := int64(0); i < 200; i++ {
		rows = append(rows, intRow(i))
	}
	for i := int64(0); i < 200; i++ {
		rows = append(rows, intRow(i))
	}
	ctx := WithBudget(context.Background(), Budget{Bytes: 256, Dir: t.TempDir()})
	got, err := Collect(Distinct(ctx, FromRows(rows)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("%d rows, want 200 (re-emission after spill?)", len(got))
	}
	seen := RowSet{idx: storage.NewChain(0)}
	for _, r := range got {
		if _, added := seen.add(r); !added {
			t.Fatalf("row %v emitted twice", r)
		}
	}
}

func TestRowSet(t *testing.T) {
	s := RowSet{idx: storage.NewChain(0)}
	add := func(r storage.Row) bool {
		_, added := s.add(r)
		return added
	}
	if !add(intRow(1, 2)) || add(intRow(1, 2)) {
		t.Fatal("add idempotence broken")
	}
	// INT and FLOAT representing the same number are equal (join
	// semantics) and must dedupe together.
	if add(storage.Row{value.Float(1), value.Float(2)}) {
		t.Fatal("numeric-equal row not deduped")
	}
	if !add(intRow(2, 1)) {
		t.Fatal("a distinct row was taken for a duplicate")
	}
	add(intRow(1, 2))
	if len(s.Rows()) != 2 || s.Bytes() <= 0 {
		t.Fatalf("%d rows, Bytes=%d", len(s.Rows()), s.Bytes())
	}
}

// countdownCtx cancels itself after a fixed number of Err() polls — the
// fuse pattern from the seed's cancellation tests, here aimed at iterator
// checkpoints.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// Every checkpoint in the tree must propagate cancellation: for each fuse
// length up to the total poll count of a run, the evaluation must return
// context.Canceled (never hang, never succeed spuriously) — this walks
// the cancel through scan, build, spill, partition and probe loops.
func TestCancellationAtEveryCheckpoint(t *testing.T) {
	probe, build, _ := joinInputs(2000, 300)
	run := func(ctx context.Context) error {
		bctx := WithBudget(ctx, Budget{Bytes: 512, Dir: t.TempDir()})
		it := Distinct(bctx, HashJoin(bctx, FromRows(probe), FromRows(build), []int{1}, []int{0}, 2, []int{0, 1, 2, 3}, nil))
		// Group what comes out (the grouper spills too), then read the groups
		// back through an outer join's build side.
		g := NewGrouper(bctx, 2)
		defer g.Close()
		for n := 0; ; n++ {
			row, ok, err := it.Next()
			if err == nil && ok {
				err = g.Add(row, n%2)
			}
			if !ok || err != nil {
				if cerr := it.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return err
				}
				break
			}
		}
		_, err := Collect(LeftOuterJoin(bctx, FromRows(probe), g, []int{0}, []int{0}, 2, []int{0, 1, 6}, nil))
		return err
	}
	if err := run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Count polls with an effectively infinite fuse.
	probeCtx := &countdownCtx{Context: context.Background(), left: 1 << 30}
	if err := run(probeCtx); err != nil {
		t.Fatal(err)
	}
	polls := 1<<30 - probeCtx.left
	if polls < 10 {
		t.Fatalf("only %d ctx polls in a spilling join+distinct+group; checkpoints missing", polls)
	}
	step := polls / 50
	if step == 0 {
		step = 1
	}
	for fuse := 0; fuse < polls; fuse += step {
		err := run(&countdownCtx{Context: context.Background(), left: fuse})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("fuse %d of %d: err = %v, want context.Canceled", fuse, polls, err)
		}
	}
}

// The iter.spill fault point must surface as ErrInjected from both the
// join and the distinct spill paths, and service must resume once
// disarmed.
func TestSpillFaultInjection(t *testing.T) {
	probe, build, _ := joinInputs(2000, 300)
	ctx := WithBudget(context.Background(), Budget{Bytes: 512, Dir: t.TempDir()})

	plan, err := fault.Parse("iter.spill:err", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(plan)
	defer fault.Disarm()

	_, jerr := Collect(HashJoin(ctx, FromRows(probe), FromRows(build), []int{1}, []int{0}, 2, []int{0, 1, 2, 3}, nil))
	if !errors.Is(jerr, fault.ErrInjected) {
		t.Fatalf("join spill under fault: err = %v, want ErrInjected", jerr)
	}
	rows, _ := distinctInput(5000, 700)
	_, derr := Collect(Distinct(ctx, FromRows(rows)))
	if !errors.Is(derr, fault.ErrInjected) {
		t.Fatalf("distinct spill under fault: err = %v, want ErrInjected", derr)
	}

	fault.Disarm()
	if _, err := Collect(HashJoin(ctx, FromRows(probe), FromRows(build), []int{1}, []int{0}, 2, []int{0, 1, 2, 3}, nil)); err != nil {
		t.Fatalf("join after disarm: %v", err)
	}
}

// Benchmark pinning satellite 2: RowSet dedup versus the seed's
// string-key dedup. Run with -benchmem; RowSet must allocate less.
func BenchmarkDedupRowSet(b *testing.B) {
	rows := benchRows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := RowSet{idx: storage.NewChain(0)}
		n := 0
		for _, r := range rows {
			if _, added := s.add(r); added {
				n++
			}
		}
		if n != 500 {
			b.Fatal(n)
		}
	}
}

func BenchmarkDedupStringKey(b *testing.B) {
	rows := benchRows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seen := make(map[string]bool, len(rows))
		n := 0
		for _, r := range rows {
			k := ""
			for _, v := range r {
				k += v.SQL() + "\x00"
			}
			if !seen[k] {
				seen[k] = true
				n++
			}
		}
		if n != 500 {
			b.Fatal(n)
		}
	}
}

func benchRows() []storage.Row {
	rows := make([]storage.Row, 0, 5000)
	for i := 0; i < 5000; i++ {
		k := int64(i % 500)
		rows = append(rows, storage.Row{value.Int(k), value.Str(fmt.Sprintf("title-%04d", k)), value.Int(k % 7)})
	}
	return rows
}

// TestExecAllocsPerOutputRow pins that the emitting operators allocate per
// operator, never per output row: a HashJoin over the same inputs, and a
// Cross and a Project over the same materialized side, allocate the same
// number of objects whether they produce N or 4N rows.
func TestExecAllocsPerOutputRow(t *testing.T) {
	const n = 1000
	var probe, build []storage.Row
	for i := int64(0); i < n; i++ {
		probe = append(probe, intRow(i, i%50))
	}
	// build[0] is unique (one match per probe row), build[1] repeats four
	// times (four matches per probe row).
	for j := int64(0); j < 200; j++ {
		build = append(build, intRow(j, j%50))
	}
	ctx := context.Background()
	all := []int{0, 1, 2, 3}
	for _, op := range []struct {
		name        string
		once, four  func() Iterator
		rows1, rows int
	}{
		{"HashJoin",
			func() Iterator {
				return HashJoin(ctx, FromRows(probe), FromRows(build), []int{1}, []int{0}, 2, all, nil)
			},
			func() Iterator {
				return HashJoin(ctx, FromRows(probe), FromRows(build), []int{1}, []int{1}, 2, all, nil)
			},
			n, 4 * n},
		{"Cross",
			func() Iterator {
				return HashJoin(ctx, FromRows(probe[:n/4]), FromRows(build[:4]), nil, nil, 2, all, nil)
			},
			func() Iterator { return HashJoin(ctx, FromRows(probe), FromRows(build[:4]), nil, nil, 2, all, nil) },
			n, 4 * n},
		{"Project",
			func() Iterator { return Project(FromRows(probe[:n/4]), []int{1, 0}) },
			func() Iterator { return Project(FromRows(probe), []int{1, 0}) },
			n / 4, n},
	} {
		measure := func(mk func() Iterator, want int) float64 {
			return testing.AllocsPerRun(10, func() {
				it := mk()
				got := 0
				for {
					_, ok, err := it.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					got++
				}
				if err := it.Close(); err != nil || got != want {
					t.Fatalf("%s: %d rows, want %d (close: %v)", op.name, got, want, err)
				}
			})
		}
		if a, b := measure(op.once, op.rows1), measure(op.four, op.rows); a != b {
			t.Errorf("%s: %.0f allocs for %d rows but %.0f for %d: it allocates per output row",
				op.name, a, op.rows1, b, op.rows)
		}
	}
}
