package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Phase names of the fixed per-request attribution record. Every request
// accounts its wall time to these buckets, each charged by a Laps clock or
// an AddPhase; PhaseOther absorbs whatever they did not claim, so the
// phases always sum to the request's total.
const (
	PhaseParse     = "parse"     // body decode, SQL parse, profile resolution
	PhaseCache     = "cache"     // result-cache lookup
	PhaseQueue     = "queue"     // admission wait for a free pipeline slot
	PhaseCoalesce  = "coalesce"  // follower wait on another request's in-flight run
	PhaseProxy     = "proxy"     // round trip of a hop forwarded to a peer node
	PhasePrefspace = "prefspace" // preference-space build (incl. estimation)
	PhaseSearch    = "search"    // constrained state-space search
	PhaseConstruct = "construct" // personalized-query construction
	PhaseExecute   = "execute"   // personalized-query execution
	PhaseEncode    = "encode"    // response serialization
	PhaseOther     = "other"     // unattributed remainder
)

// Bounds on the string fields a flight record retains. The recorder's
// memory is records × a small constant; unbounded attacker- or
// error-supplied strings would break that, so everything textual is
// truncated on the way in.
const (
	MaxRequestIDLen = 64
	maxErrLen       = 256
	maxProfileLen   = 128
)

func truncate(s string, max int) string {
	if len(s) <= max {
		return s
	}
	return s[:max]
}

// NewRequestID returns a fresh 16-hex-char request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to a
		// process-local counter rather than panicking on a debug facility.
		return "local-" + hex.EncodeToString(fallbackID())
	}
	return hex.EncodeToString(b[:])
}

var fallbackCounter atomic.Uint64

func fallbackID() []byte {
	var b [8]byte
	n := fallbackCounter.Add(1)
	for i := 0; i < 8; i++ {
		b[i] = byte(n >> (8 * i))
	}
	return b[:]
}

// SanitizeRequestID validates a caller-supplied request ID: 1 to
// MaxRequestIDLen bytes of printable, non-space ASCII. Anything else
// returns "" and the caller should mint a fresh ID — an oversized or
// control-character ID would otherwise be echoed verbatim into response
// headers and log lines (log injection via \n, header smuggling via \r).
func SanitizeRequestID(s string) string {
	if len(s) == 0 || len(s) > MaxRequestIDLen {
		return ""
	}
	for i := 0; i < len(s); i++ {
		if s[i] <= 0x20 || s[i] >= 0x7f {
			return ""
		}
	}
	return s
}

// Request is one request's flight record: identity, outcome, the
// per-phase latency attribution and the root of its span tree. It is
// written by the handler goroutine and — through the context — by
// admission and pipeline phases, then read by /debug/requests; all
// mutation is mutex-guarded.
type Request struct {
	id       string
	endpoint string
	start    time.Time
	root     Span // named by the endpoint, started with the record

	mu      sync.Mutex
	profile string
	role    string // "hit" | "leader" | "follower" | "solo" | ""
	rung    string // degradation rung ("" = full fidelity)
	status  int
	errMsg  string
	total   time.Duration
	phases  map[string]time.Duration
	done    bool
}

// NewRequest opens a flight record. id must already be sanitized or
// freshly minted.
func NewRequest(endpoint, id string) *Request {
	r := &Request{
		id:       truncate(id, MaxRequestIDLen),
		endpoint: endpoint,
		start:    time.Now(),
		phases:   make(map[string]time.Duration, 8),
	}
	r.root = Span{name: endpoint, start: r.start, rec: r}
	return r
}

// ID returns the request ID ("" on nil).
func (r *Request) ID() string {
	if r == nil {
		return ""
	}
	return r.id
}

// Start returns when the record was opened.
func (r *Request) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.start
}

// AddPhase accumulates d into the named phase. Nil-safe; negative d is
// ignored.
func (r *Request) AddPhase(name string, d time.Duration) {
	if r == nil || d < 0 {
		return
	}
	r.mu.Lock()
	r.phases[name] += d
	r.mu.Unlock()
}

// Laps is a phase clock: each Lap charges the time since the previous
// checkpoint to one phase of a flight record and, when the clock runs under
// a span, hangs the same interval on that span as a finished child. Its
// intervals are contiguous by construction, so the ledger and the trace are
// one account. A clock with neither a record nor a span charges nothing.
type Laps struct {
	rec  *Request
	span *Span
	last time.Time
}

// StartLaps starts a clock now, hanging its laps under the context's
// current span and charging the flight record that span hangs under.
func StartLaps(ctx context.Context) Laps {
	return Laps{rec: RequestFromContext(ctx), span: FromContext(ctx), last: time.Now()}
}

// Laps returns a clock over the record alone that starts at the record's
// birth, so its first lap covers the request from its first byte.
func (r *Request) Laps() Laps { return Laps{rec: r, last: r.Start()} }

// Lap closes the current interval under the given phase, starts the next,
// and returns the interval's span: nil when the clock runs under no span.
func (l *Laps) Lap(phase string, attrs ...Attr) *Span {
	now := time.Now()
	d := now.Sub(l.last)
	l.rec.AddPhase(phase, d)
	var s *Span
	if l.span != nil {
		// A copy of attrs, so that an untraced caller's stays on its stack.
		s = l.span.attach(&Span{name: phase, start: l.last, dur: d, ended: true, attrs: append([]Attr(nil), attrs...)})
	}
	l.last = now
	return s
}

// SetProfile records the profile identity (id@version, or "inline").
func (r *Request) SetProfile(p string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.profile = truncate(p, maxProfileLen)
	r.mu.Unlock()
}

// SetRole records the cache/coalesce role that answered the request.
func (r *Request) SetRole(role string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.role = role
	r.mu.Unlock()
}

// SetRung records the degradation-ladder rung that answered.
func (r *Request) SetRung(rung string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rung = rung
	r.mu.Unlock()
}

// Trace returns the root of the request's span tree (nil on nil).
func (r *Request) Trace() *Span {
	if r == nil {
		return nil
	}
	return &r.root
}

// Finish seals the record with the response status and an optional error
// message, ends its root span, and charges the unattributed remainder to
// PhaseOther. Idempotent.
func (r *Request) Finish(status int, errMsg string) {
	if r == nil {
		return
	}
	r.root.End()
	total := time.Since(r.start)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	r.done = true
	r.status = status
	r.errMsg = truncate(errMsg, maxErrLen)
	r.total = total
	var sum time.Duration
	for _, d := range r.phases {
		sum += d
	}
	if rest := total - sum; rest > 0 {
		r.phases[PhaseOther] = rest
	}
}

// Attribution returns the request ID, the wall time elapsed so far, and a
// copy of the phase attribution with the PhaseOther remainder added — the
// response-embedded view, built
// before the response is encoded (so PhaseEncode is absent; it exists only
// in the final flight record). On a finished record it returns the sealed
// totals.
func (r *Request) Attribution() (id string, total time.Duration, phases map[string]time.Duration) {
	if r == nil {
		return "", 0, nil
	}
	elapsed := time.Since(r.start)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		elapsed = r.total
	}
	out := make(map[string]time.Duration, len(r.phases)+4)
	for name, d := range r.phases {
		out[name] = d
	}
	if !r.done {
		var sum time.Duration
		for _, d := range out {
			sum += d
		}
		if rest := elapsed - sum; rest > 0 {
			out[PhaseOther] = rest
		}
	}
	return r.id, elapsed, out
}

// RequestSnapshot is the frozen, JSON-ready view of a flight record.
type RequestSnapshot struct {
	ID       string           `json:"id"`
	Endpoint string           `json:"endpoint"`
	Start    time.Time        `json:"start"`
	Profile  string           `json:"profile,omitempty"`
	Role     string           `json:"role,omitempty"`
	Rung     string           `json:"rung,omitempty"`
	Status   int              `json:"status"`
	Error    string           `json:"error,omitempty"`
	TotalUS  int64            `json:"total_us"`
	PhasesUS map[string]int64 `json:"phases_us"`
}

// Snapshot freezes the record.
func (r *Request) Snapshot() RequestSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RequestSnapshot{
		ID:       r.id,
		Endpoint: r.endpoint,
		Start:    r.start,
		Profile:  r.profile,
		Role:     r.role,
		Rung:     r.rung,
		Status:   r.status,
		Error:    r.errMsg,
		TotalUS:  r.total.Microseconds(),
		PhasesUS: make(map[string]int64, len(r.phases)),
	}
	for name, d := range r.phases {
		s.PhasesUS[name] = d.Microseconds()
	}
	return s
}

// ContextWithRequest installs the flight record's root span as the
// context's current span.
func ContextWithRequest(ctx context.Context, r *Request) context.Context {
	return ContextWith(ctx, r.Trace())
}

// RequestFromContext returns the flight record the context's current span
// hangs under, or nil.
func RequestFromContext(ctx context.Context) *Request {
	if s := FromContext(ctx); s != nil {
		return s.rec
	}
	return nil
}

// Tail-sample sizes: beyond the main ring, the recorder retains the
// slowestCap slowest requests seen and a ring of the last erroredCap
// errored or degraded requests, so the interesting outliers survive a
// flood of fast, healthy traffic that would otherwise evict them.
const (
	slowestCap = 32
	erroredCap = 64
)

// Flight is the bounded flight recorder: a ring of the last N finished
// request records plus tail-sampled slow and errored/degraded sets. One
// mutex guards a few pointer writes per request — nanoseconds against the
// pipeline's microseconds-to-milliseconds runs.
type Flight struct {
	mu      sync.Mutex
	ring    []*Request
	next    int
	count   uint64     // total records ever added
	slowest []*Request // unordered, ≤ slowestCap, min evicted on overflow
	errored []*Request // ring of ≤ erroredCap
	errNext int
}

// NewFlight returns a recorder retaining the last n requests (n ≤ 0
// disables retention; records still flow through for logging/metrics but
// nothing is kept).
func NewFlight(n int) *Flight {
	f := &Flight{}
	if n > 0 {
		f.ring = make([]*Request, 0, n)
	}
	return f
}

// Add retains a finished record. Records still being written must not be
// added — the recorder hands out snapshots assuming Finish has sealed
// them.
func (f *Flight) Add(r *Request) {
	if f == nil || r == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if cap(f.ring) == 0 {
		return
	}
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, r)
	} else {
		f.ring[f.next] = r
		f.next = (f.next + 1) % len(f.ring)
	}
	r.mu.Lock()
	total, status, rung := r.total, r.status, r.rung
	r.mu.Unlock()
	if status >= 400 || rung != "" {
		if len(f.errored) < erroredCap {
			f.errored = append(f.errored, r)
		} else {
			f.errored[f.errNext] = r
			f.errNext = (f.errNext + 1) % len(f.errored)
		}
	}
	if len(f.slowest) < slowestCap {
		f.slowest = append(f.slowest, r)
		return
	}
	minAt := 0
	min := time.Duration(1<<63 - 1)
	for i, s := range f.slowest {
		s.mu.Lock()
		st := s.total
		s.mu.Unlock()
		if st < min {
			min, minAt = st, i
		}
	}
	if total > min {
		f.slowest[minAt] = r
	}
}

// Count returns how many records have been added over the recorder's
// lifetime (including ones since evicted).
func (f *Flight) Count() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.count
}

// Filter selects flight records. Zero values match everything.
type Filter struct {
	Endpoint string
	Status   int           // exact status code
	MinTotal time.Duration // only requests at least this slow
	Limit    int           // max records returned (0 = all retained)
}

// records returns every retained record exactly once (a record can sit in
// the ring and a tail set simultaneously).
func (f *Flight) records() []*Request {
	seen := make(map[*Request]bool, len(f.ring)+len(f.slowest)+len(f.errored))
	out := make([]*Request, 0, len(f.ring)+len(f.slowest)+len(f.errored))
	for _, set := range [][]*Request{f.ring, f.slowest, f.errored} {
		for _, r := range set {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// Snapshot returns matching records, newest first.
func (f *Flight) Snapshot(filter Filter) []RequestSnapshot {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	records := f.records()
	f.mu.Unlock()
	out := make([]RequestSnapshot, 0, len(records))
	for _, r := range records {
		s := r.Snapshot()
		if filter.Endpoint != "" && s.Endpoint != filter.Endpoint {
			continue
		}
		if filter.Status != 0 && s.Status != filter.Status {
			continue
		}
		if filter.MinTotal > 0 && s.TotalUS < filter.MinTotal.Microseconds() {
			continue
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	if filter.Limit > 0 && len(out) > filter.Limit {
		out = out[:filter.Limit]
	}
	return out
}

// Get returns the retained record with the given ID (the newest, when a
// client reused an ID) plus its span tree — nil when nothing ran under the
// record's root — or ok=false.
func (f *Flight) Get(id string) (RequestSnapshot, *Span, bool) {
	if f == nil {
		return RequestSnapshot{}, nil, false
	}
	f.mu.Lock()
	records := f.records()
	f.mu.Unlock()
	var best *Request
	for _, r := range records {
		if r.ID() != id {
			continue
		}
		if best == nil || r.Start().After(best.Start()) {
			best = r
		}
	}
	if best == nil {
		return RequestSnapshot{}, nil, false
	}
	var tree *Span
	if len(best.root.Children()) > 0 {
		tree = &best.root
	}
	return best.Snapshot(), tree, true
}
