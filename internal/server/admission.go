package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"cqp/internal/obs"
)

// ErrSaturated reports that the admission queue is full: the daemon sheds
// the request instead of queueing unbounded work (HTTP 429).
var ErrSaturated = errors.New("server: admission queue full")

// ErrShuttingDown reports that the pool no longer accepts work (HTTP 503).
var ErrShuttingDown = errors.New("server: shutting down")

// Pool is the admission-control layer: a counting semaphore of workers
// slots, each a token in a buffered channel, and a bound on how many callers
// may wait for one. The work runs on the caller's own goroutine; the pool
// starts none. Channel senders are admitted in arrival order, so a caller
// that finds a slot free never jumps ahead of one already waiting.
type Pool struct {
	slots      chan struct{}
	waiting    atomic.Int64
	queueDepth int64

	mu       sync.RWMutex // guards closed against concurrent admission/Close
	closed   bool
	admitted sync.WaitGroup // callers inside Do, waiting or running

	depth *obs.Gauge
	busy  *obs.Gauge
	shed  *obs.Counter
	waits *obs.Histogram
}

// NewPool builds a pool of workers slots with queueDepth places to wait,
// recording queue depth, busy slots, shed requests and queue-wait time into
// reg (nil disables recording).
func NewPool(workers, queueDepth int, reg *obs.Registry) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	reg.Gauge("server_workers").Set(int64(workers))
	return &Pool{
		slots:      make(chan struct{}, workers),
		queueDepth: int64(queueDepth),
		depth:      reg.Gauge("server_queue_depth"),
		busy:       reg.Gauge("server_workers_busy"),
		shed:       reg.Counter("server_shed_total"),
		waits:      reg.Histogram("server_queue_wait_ms", obs.DurationBucketsMS),
	}
}

// Do runs fn on the caller's goroutine once a slot is free, passing ctx
// through, and returns nil only when fn ran. ErrSaturated means queueDepth
// callers were already waiting; ErrShuttingDown means the pool is closed; a
// context error means ctx died before fn could start. In none of those
// cases did fn run. The slot is released even when fn panics.
func (p *Pool) Do(ctx context.Context, fn func(context.Context)) error {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrShuttingDown
	}
	p.admitted.Add(1)
	p.mu.RUnlock()
	defer p.admitted.Done()

	enq := time.Now()
	var err error
	select {
	case p.slots <- struct{}{}:
	default:
		if err = p.wait(ctx); errors.Is(err, ErrSaturated) {
			return err
		}
	}
	wait := time.Since(enq)
	p.waits.Observe(float64(wait) / float64(time.Millisecond))
	obs.RequestFromContext(ctx).AddPhase(obs.PhaseQueue, wait)
	if err != nil {
		return err
	}
	p.busy.Add(1)
	defer func() {
		p.busy.Add(-1)
		<-p.slots
	}()
	if err := ctx.Err(); err != nil {
		return err // the context died as its slot came free
	}
	fn(ctx)
	return nil
}

// wait queues the caller for a slot: ErrSaturated when queueDepth callers
// already wait, the context's error when it dies first.
func (p *Pool) wait(ctx context.Context) error {
	n := p.waiting.Add(1)
	defer func() { p.depth.Set(p.waiting.Add(-1)) }()
	if n > p.queueDepth {
		p.shed.Inc()
		return ErrSaturated
	}
	p.depth.Set(n)
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Pressured reports whether the queue has crossed its high-water mark
// (three quarters of its depth): the degradation ladder's signal to stop
// spending full-fidelity search time and serve cheaper answers until the
// backlog drains. Always false for a pool with no queue.
func (p *Pool) Pressured() bool {
	c := p.queueDepth
	return c > 0 && p.waiting.Load() >= (3*c+3)/4
}

// Close stops admitting work and blocks until every caller already inside
// Do — running or waiting for a slot — has returned. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.admitted.Wait()
}
