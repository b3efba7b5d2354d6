// Package resilience provides the circuit breaker the cluster keeps for each
// peer: three states, consecutive failures to open, a timed open window, one
// half-open probe.
package resilience

import (
	"sync"
	"time"
)

// BreakerState is one of the circuit breaker's three states.
type BreakerState int32

const (
	// Closed: traffic flows; consecutive failures are counted.
	Closed BreakerState = iota
	// Open: traffic is refused until OpenTimeout elapses.
	Open
	// HalfOpen: one probe flows; its success closes the breaker, its
	// failure reopens it.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes a Breaker.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that opens the
	// breaker (at least 1).
	FailureThreshold int
	// OpenTimeout is how long the breaker stays open before allowing the
	// half-open probe (positive).
	OpenTimeout time.Duration
	// Clock overrides time.Now for tests.
	Clock func() time.Time
	// OnTransition observes every state change (the cluster's peer-up
	// gauge and flap counter hang off this). Called without the breaker's
	// lock held.
	OnTransition func(from, to BreakerState)
}

// Breaker is a three-state circuit breaker guarding one peer. Callers pair
// every Allow() == true with exactly one Success or Failure for the guarded
// attempt.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive, in Closed
	openedAt time.Time // entry into Open
	probing  bool      // the half-open probe is in flight
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Breaker{cfg: cfg}
}

// State returns the current state (after any due open→half-open lapse).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	tr := b.lapseLocked()
	s := b.state
	b.mu.Unlock()
	b.notify(tr)
	return s
}

// Allow reports whether a guarded attempt may proceed. In Closed it always
// grants; in Open it refuses until OpenTimeout has elapsed (which moves the
// breaker to HalfOpen); in HalfOpen it grants one probe at a time. A granted
// attempt must be settled with Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	tr := b.lapseLocked()
	ok := false
	switch b.state {
	case Closed:
		ok = true
	case HalfOpen:
		ok = !b.probing
		b.probing = true
	}
	b.mu.Unlock()
	b.notify(tr)
	return ok
}

// Success settles a granted attempt as successful.
func (b *Breaker) Success() {
	b.mu.Lock()
	var tr []transition
	switch b.state {
	case Closed:
		b.failures = 0
	case HalfOpen:
		tr = b.toLocked(Closed)
	}
	b.mu.Unlock()
	b.notify(tr)
}

// Failure settles a granted attempt as failed: it counts toward opening in
// Closed and reopens immediately in HalfOpen.
func (b *Breaker) Failure() {
	b.mu.Lock()
	var tr []transition
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			tr = b.toLocked(Open)
		}
	case HalfOpen:
		tr = b.toLocked(Open)
	}
	b.mu.Unlock()
	b.notify(tr)
}

type transition struct{ from, to BreakerState }

// lapseLocked moves Open → HalfOpen once the open window has elapsed.
func (b *Breaker) lapseLocked() []transition {
	if b.state == Open && b.cfg.Clock().Sub(b.openedAt) >= b.cfg.OpenTimeout {
		return b.toLocked(HalfOpen)
	}
	return nil
}

// toLocked performs a state change; caller holds b.mu. Returns the
// transition for post-unlock notification.
func (b *Breaker) toLocked(to BreakerState) []transition {
	from := b.state
	b.state, b.failures, b.probing = to, 0, false
	if to == Open {
		b.openedAt = b.cfg.Clock()
	}
	return []transition{{from, to}}
}

func (b *Breaker) notify(trs []transition) {
	if b.cfg.OnTransition == nil {
		return
	}
	for _, tr := range trs {
		b.cfg.OnTransition(tr.from, tr.to)
	}
}
