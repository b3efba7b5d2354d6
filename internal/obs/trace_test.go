package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	root := NewTrace("personalize")
	ctx := ContextWith(context.Background(), root)

	ctx2, pre := StartSpan(ctx, "prefspace")
	pre.SetAttr("k", 20)
	_, est := StartSpan(ctx2, "estimate")
	est.End()
	pre.End()

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
				c := parent.StartChild("algo")
				c.SetAttr("j", j)
				c.End()
			}
		}()
	}
	wg.Wait()
	if got := len(parent.Children()); got != 800 {
		t.Fatalf("children = %d, want 800", got)
	}
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
