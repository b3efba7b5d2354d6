package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// spanNames are the boundaries spans are recorded at. A span stores its
// name as an index into this list so that the span log holds no pointers
// and the collector never has to scan it.
var spanNames = []string{"roundtrip", "handler", "parse", "profile", "prefspace", "search",
	"construct", "execute", "encode", "profile_put"}

func spanName(name string) uint8 {
	for i, n := range spanNames {
		if n == name {
			return uint8(i)
		}
	}
	panic("benchmark: unknown span name " + name)
}

// span is one timed interval at a layer boundary, recorded by the benchmark
// around a call into the program. Spans of one request share req; parent is
// the span that caused this one (0 for a request's root). Times are
// nanoseconds since the recorder started.
type span struct {
	id, parent, req uint64
	start, end      int64
	name            uint8
}

func (s span) duration() time.Duration { return time.Duration(s.end - s.start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	origin time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) newID() uint64 { return r.nextID.Add(1) }

// add records a finished span under a pre-allocated id (0 allocates one).
func (r *recorder) add(id, parent, req uint64, name string, start, end time.Time) {
	if id == 0 {
		id = r.newID()
	}
	s := span{id: id, parent: parent, req: req, name: spanName(name),
		start: start.Sub(r.origin).Nanoseconds(), end: end.Sub(r.origin).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs fn under a span and returns its duration.
func (r *recorder) timed(parent, req uint64, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(0, parent, req, name, start, end)
	return end.Sub(start)
}

// durationOf returns the duration of the span with the given id, looking
// from the newest span back.
func (r *recorder) durationOf(id uint64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].id == id {
			return r.spans[i].duration()
		}
	}
	return 0
}

// spanLine is a span's line in trace.jsonl.
type spanLine struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Req     uint64 `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // the success path closes and checks below
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(spanLine{s.id, s.parent, s.req, spanNames[s.name], s.start, s.end}); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
