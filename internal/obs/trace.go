package obs

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// Span is one timed node of a trace tree: a pipeline phase (the paper's
// Figure 2 modules) or one executed sub-query.
// Spans are created through a parent (or NewTrace, or a flight record, for
// the root) and propagate via context.Context; a nil *Span is an inert span
// whose methods no-op, which is how tracing stays free when disabled.
//
// One tree may grow from several goroutines at once (the items of a
// batch attach their spans to the batch's one tree concurrently), so
// mutation is mutex-guarded — spans live on the once-per-query control
// path, not in the search loop.
type Span struct {
	name  string
	start time.Time
	rec   *Request // the flight record the tree hangs under; nil for a bare trace

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// NewTrace starts a root span. Install it with ContextWith and render the
// finished tree with Tree.
func NewTrace(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

type ctxKey struct{}

// ContextWith returns a context carrying the span as the current trace
// position. A nil span returns ctx unchanged.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the current span, or nil when the context carries no
// trace (observability off).
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's current span and returns a
// context positioned on it. When the context carries no trace it returns
// the context unchanged and a nil span — callers never need to branch.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name)
	return ContextWith(ctx, child), child
}

// StartChild opens and attaches a running child span. Nil-safe.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.attach(&Span{name: name, start: time.Now()})
}

// AddChild attaches an already-measured child span — used for work whose
// duration is known but whose interval was not wrapped (per-sub-query
// executor timings, accumulated estimator time). Nil-safe.
func (s *Span) AddChild(name string, d time.Duration, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.attach(&Span{name: name, start: s.start, dur: d, ended: true, attrs: attrs})
}

// AddChildren attaches n already-measured children at once, the i-th named,
// timed and annotated by child(i): one allocation holds the n spans and the
// children list grows once, where n AddChild calls cost a span each and the
// list's doublings. Nil-safe.
func (s *Span) AddChildren(n int, child func(i int) (name string, d time.Duration, attrs []Attr)) {
	if s == nil || n == 0 {
		return
	}
	spans := make([]Span, n)
	for i := range spans {
		c := &spans[i]
		c.name, c.dur, c.attrs = child(i)
		c.start, c.ended, c.rec = s.start, true, s.rec
	}
	s.mu.Lock()
	s.children = slices.Grow(s.children, n)
	for i := range spans {
		s.children = append(s.children, &spans[i])
	}
	s.mu.Unlock()
}

func (s *Span) attach(child *Span) *Span {
	child.rec = s.rec
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// End closes the span, freezing its duration. Idempotent and nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's duration — final if ended, running so far
// otherwise. Zero on nil.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Children returns a snapshot of the attached child spans.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Attrs returns a snapshot of the span's annotations.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Tree renders the span and its descendants as an indented tree with
// per-span durations and attributes:
//
//	personalize                 18.004ms
//	  prefspace                  2.113ms  k=20
//	    estimate                 1.871ms  calls=214
//	  search                    14.92ms   algorithm=C-MAXBOUNDS states=1234
//
// Returns "" on a nil span.
func (s *Span) Tree() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	var width int
	var measure func(sp *Span, depth int)
	measure = func(sp *Span, depth int) {
		if w := 2*depth + len(sp.name); w > width {
			width = w
		}
		for _, c := range sp.Children() {
			measure(c, depth+1)
		}
	}
	measure(s, 0)
	var render func(sp *Span, depth int)
	render = func(sp *Span, depth int) {
		label := strings.Repeat("  ", depth) + sp.name
		fmt.Fprintf(&b, "%-*s  %10s", width, label, FormatDuration(sp.Duration()))
		for _, a := range sp.Attrs() {
			fmt.Fprintf(&b, "  %s=%s", a.Key, a.Value)
		}
		b.WriteByte('\n')
		for _, c := range sp.Children() {
			render(c, depth+1)
		}
	}
	render(s, 0)
	return b.String()
}

// SpanJSON is the wire form of a span tree, served by the flight
// recorder's per-request endpoint.
type SpanJSON struct {
	Name       string      `json:"name"`
	DurationUS int64       `json:"duration_us"`
	Attrs      []Attr      `json:"attrs,omitempty"`
	Children   []*SpanJSON `json:"children,omitempty"`
}

// JSON freezes the span and its descendants into the wire shape. Nil on a
// nil span.
func (s *Span) JSON() *SpanJSON {
	if s == nil {
		return nil
	}
	out := &SpanJSON{
		Name:       s.Name(),
		DurationUS: s.Duration().Microseconds(),
		Attrs:      s.Attrs(),
	}
	for _, c := range s.Children() {
		out.Children = append(out.Children, c.JSON())
	}
	return out
}

// Find returns the first descendant span (depth-first, self included) with
// the given name, or nil. Test and tooling helper.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.name == name {
		return s
	}
	for _, c := range s.Children() {
		if got := c.Find(name); got != nil {
			return got
		}
	}
	return nil
}
