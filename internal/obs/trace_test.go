package obs

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	root := NewTrace("personalize")
	ctx := ContextWith(context.Background(), root)

	lp := StartLaps(ctx)
	pre := lp.Lap("prefspace", Attr{Key: "k", Value: "20"})
	_, est := StartSpan(ContextWith(ctx, pre), "estimate")
	est.End()

	_, search := StartSpan(ctx, "search")
	search.AddChild("D_MaxDoi", 3*time.Millisecond, Attr{Key: "states", Value: "12"})
	search.End()
	root.End()

	tree := root.Tree()
	for _, want := range []string{"personalize", "prefspace", "estimate", "search", "D_MaxDoi", "k=20", "states=12"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
	// estimate must be nested under prefspace, not under root directly.
	if root.Find("prefspace").Find("estimate") == nil {
		t.Fatalf("estimate is not a child of prefspace:\n%s", tree)
	}
	if root.Find("missing") != nil {
		t.Fatal("Find should miss absent spans")
	}
}

func TestStartSpanWithoutTrace(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "anything")
	if s != nil {
		t.Fatal("no trace in context must yield a nil span")
	}
	if ctx2 != ctx {
		t.Fatal("context must pass through unchanged")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("FromContext on a bare context must be nil")
	}
}

// TestSpanConcurrentChildren: several goroutines attach children to one
// parent span.
func TestSpanConcurrentChildren(t *testing.T) {
	parent := NewTrace("search")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if j%2 == 0 {
					parent.StartChild("algo").End()
				} else {
					parent.AddChild("algo", time.Microsecond, Attr{Key: "j", Value: strconv.Itoa(j)})
				}
			}
		}()
	}
	wg.Wait()
	if got := len(parent.Children()); got != 800 {
		t.Fatalf("children = %d, want 800", got)
	}
}

// TestAddChildren: children attached at once render as the same children
// attached one by one, after the ones the span already has, and cost as
// many allocations however many there are.
func TestAddChildren(t *testing.T) {
	attrs := [][]Attr{{{Key: "rows", Value: "3"}}, nil, {{Key: "rows", Value: "0"}, {Key: "blocks", Value: "12"}}}
	one, all := NewTrace("execute"), NewTrace("execute")
	one.AddChild("first", time.Millisecond)
	all.AddChild("first", time.Millisecond)
	for i, a := range attrs {
		one.AddChild(fmt.Sprintf("sub[%d]", i), time.Duration(i)*time.Microsecond, a...)
	}
	names := []string{"sub[0]", "sub[1]", "sub[2]"}
	all.AddChildren(len(attrs), func(i int) (string, time.Duration, []Attr) {
		return names[i], time.Duration(i) * time.Microsecond, attrs[i]
	})
	below := func(s *Span) string { return strings.SplitN(s.Tree(), "\n", 2)[1] } // the root's own line times it
	if got, want := below(all), below(one); got != want {
		t.Fatalf("AddChildren:\n%s\nAddChild:\n%s", got, want)
	}
	child := func(i int) (string, time.Duration, []Attr) { return names[i%3], 0, nil }
	allocs := func(n int) float64 { return testing.AllocsPerRun(100, func() { NewTrace("x").AddChildren(n, child) }) }
	if few, many := allocs(4), allocs(64); few != many {
		t.Errorf("a trace with 4 children attached at once makes %.0f allocations, with 64 %.0f: the count must not grow with the children", few, many)
	}
	var none *Span
	none.AddChildren(2, child) // nil-safe
}

func TestDurationHelpers(t *testing.T) {
	d := 1234567 * time.Nanosecond
	if got := RoundDuration(d); got != 1235*time.Microsecond {
		t.Fatalf("RoundDuration = %v", got)
	}
	if got := FormatDuration(d); got != "1.235ms" {
		t.Fatalf("FormatDuration = %q", got)
	}
}
