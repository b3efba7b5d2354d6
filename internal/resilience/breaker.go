// Package resilience provides the circuit breaker the cqpd daemon guards
// its pipeline with, and the cluster its peers: three states, consecutive
// failures to open, a timed open window, bounded half-open probes.
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
	// HalfOpen: a bounded number of probes flow; enough successes close
	// the breaker, any failure reopens it.
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

// BreakerConfig tunes a Breaker. The zero value selects serving defaults.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that opens the
	// breaker (default 5).
	FailureThreshold int
	// OpenTimeout is how long the breaker stays open before allowing
	// half-open probes (default 5s).
	OpenTimeout time.Duration
	// HalfOpenProbes is both the number of concurrent probes admitted in
	// half-open and the successes required to close (default 2).
	HalfOpenProbes int
	// Clock overrides time.Now for tests.
	Clock func() time.Time
	// OnTransition observes every state change (the daemon's breaker
	// gauge and transition counter hang off this). Called without the
	// breaker's lock held.
	OnTransition func(from, to BreakerState)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 5 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 2
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Breaker is a three-state circuit breaker guarding the daemon's pipeline
// backend. Callers pair every Allow() == true with exactly one Success or
// Failure for the guarded attempt.
type Breaker struct {
	cfg BreakerConfig

	mu        sync.Mutex
	state     BreakerState
	failures  int       // consecutive, in Closed
	openedAt  time.Time // entry into Open
	probes    int       // in-flight probes granted in HalfOpen
	successes int       // probe successes in HalfOpen
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
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
// breaker to HalfOpen); in HalfOpen it grants up to HalfOpenProbes
// concurrent probes. A granted attempt must be settled with Success or
// Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	tr := b.lapseLocked()
	ok := false
	switch b.state {
	case Closed:
		ok = true
	case HalfOpen:
		if b.probes < b.cfg.HalfOpenProbes {
			b.probes++
			ok = true
		}
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
		b.probes--
		b.successes++
		if b.successes >= b.cfg.HalfOpenProbes {
			tr = b.toLocked(Closed)
		}
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
		b.probes--
		tr = b.toLocked(Open)
	}
	b.mu.Unlock()
	b.notify(tr)
}

// Trip forces the breaker open (test and admin hook).
func (b *Breaker) Trip() {
	b.mu.Lock()
	var tr []transition
	if b.state != Open {
		tr = b.toLocked(Open)
	} else {
		b.openedAt = b.cfg.Clock()
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
	b.state = to
	switch to {
	case Open:
		b.openedAt = b.cfg.Clock()
		b.probes, b.successes = 0, 0
	case HalfOpen:
		b.probes, b.successes = 0, 0
	case Closed:
		b.failures = 0
		b.probes, b.successes = 0, 0
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
