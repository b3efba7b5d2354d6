package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cqp/internal/obs"
)

func TestPoolRunsWork(t *testing.T) {
	p := NewPool(2, 2, obs.NewRegistry())
	defer p.Close()
	var ran atomic.Bool
	if err := p.Do(context.Background(), func(context.Context) { ran.Store(true) }); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("task did not run")
	}
}

// blockPool occupies every worker and returns a release function plus a
// channel that closes once all workers are busy.
func blockPool(t *testing.T, p *Pool, workers int) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	started := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		go func() {
			_ = p.Do(context.Background(), func(context.Context) {
				started <- struct{}{}
				<-gate
			})
		}()
	}
	for i := 0; i < workers; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("workers never picked up blocking tasks")
		}
	}
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

func TestPoolShedsWhenSaturated(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(1, 1, reg)
	release := blockPool(t, p, 1)
	defer func() { release(); p.Close() }()

	// One task fits in the queue behind the busy worker...
	queued := make(chan error, 1)
	go func() { queued <- p.Do(context.Background(), func(context.Context) {}) }()
	waitFor(t, func() bool { return reg.Gauge("server_queue_depth").Value() == 1 })

	// ...and the next is shed immediately.
	if err := p.Do(context.Background(), func(context.Context) {}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated Do = %v, want ErrSaturated", err)
	}
	if v := reg.Counter("server_shed_total").Value(); v != 1 {
		t.Errorf("server_shed_total = %d, want 1", v)
	}
	release()
	if err := <-queued; err != nil {
		t.Fatalf("queued task failed: %v", err)
	}
}

// TestPoolSkipsDeadTasks checks that a task whose context dies while it
// waits in the queue is never run: the caller gets the context error and
// the worker discards the task.
func TestPoolSkipsDeadTasks(t *testing.T) {
	p := NewPool(1, 1, obs.NewRegistry())
	release := blockPool(t, p, 1)
	defer func() { p.Close() }()

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	errc := make(chan error, 1)
	go func() { errc <- p.Do(ctx, func(context.Context) { ran.Store(true) }) }()
	time.Sleep(20 * time.Millisecond) // let it enqueue behind the blocker
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
	release()
	p.Close() // drains the queue, so the dead task has been considered
	if ran.Load() {
		t.Fatal("task with dead context ran anyway")
	}
}

// TestPoolSkippedTaskNeverReportsSuccess hammers the race where a queued
// task's context dies just before the worker drains it: the worker skips fn
// and closes done while ctx.Done() is simultaneously ready, so Do's select
// may take either arm — and must not return nil for work that never ran
// (handlers would cache and dereference a nil response).
func TestPoolSkippedTaskNeverReportsSuccess(t *testing.T) {
	for i := 0; i < 100; i++ {
		reg := obs.NewRegistry()
		p := NewPool(1, 1, reg)
		release := blockPool(t, p, 1)

		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Bool
		errc := make(chan error, 1)
		go func() { errc <- p.Do(ctx, func(context.Context) { ran.Store(true) }) }()
		waitFor(t, func() bool { return reg.Gauge("server_queue_depth").Value() == 1 })
		cancel()  // the queued task's context dies...
		release() // ...exactly as the worker gets to it
		if err := <-errc; err == nil {
			t.Fatalf("iteration %d: Do returned nil for a skipped task", i)
		}
		p.Close()
		if ran.Load() {
			t.Fatalf("iteration %d: task with dead context ran anyway", i)
		}
	}
}

// TestPoolPanicReleasesSlot: fn runs on the caller's goroutine, so a panic
// in it is the caller's to recover — but the slot is released on the way
// out, and with one slot the next caller still runs.
func TestPoolPanicReleasesSlot(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(1, 1, reg)
	defer p.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the task's panic did not reach its caller")
			}
		}()
		_ = p.Do(context.Background(), func(context.Context) { panic("task") })
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var ran atomic.Bool
	if err := p.Do(ctx, func(context.Context) { ran.Store(true) }); err != nil || !ran.Load() {
		t.Fatalf("next task: err=%v ran=%v, want it run on the released slot", err, ran.Load())
	}
	if n := reg.Gauge("server_workers_busy").Value(); n != 0 {
		t.Errorf("server_workers_busy = %d after both tasks, want 0", n)
	}
}

func TestPoolCloseIdempotentAndRejects(t *testing.T) {
	p := NewPool(1, 1, obs.NewRegistry())
	p.Close()
	p.Close()
	if err := p.Do(context.Background(), func(context.Context) {}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Do after Close = %v, want ErrShuttingDown", err)
	}
}

func TestPoolCloseDrainsQueue(t *testing.T) {
	p := NewPool(1, 4, obs.NewRegistry())
	var done atomic.Int32
	for i := 0; i < 4; i++ {
		go p.Do(context.Background(), func(context.Context) {
			time.Sleep(5 * time.Millisecond)
			done.Add(1)
		})
	}
	waitFor(t, func() bool { return done.Load() > 0 })
	p.Close()
	// Close returned only after every admitted task ran or was skipped;
	// nothing may still be running.
	got := done.Load()
	time.Sleep(20 * time.Millisecond)
	if done.Load() != got {
		t.Fatal("tasks still running after Close returned")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
