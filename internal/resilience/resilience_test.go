package resilience

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// testClock is a manual clock for breaker tests.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(threshold int, timeout time.Duration) (*Breaker, *testClock, *[]string) {
	clk := &testClock{now: time.Unix(0, 0)}
	var log []string
	b := NewBreaker(BreakerConfig{
		FailureThreshold: threshold,
		OpenTimeout:      timeout,
		Clock:            clk.Now,
		OnTransition: func(from, to BreakerState) {
			log = append(log, fmt.Sprintf("%s->%s", from, to))
		},
	})
	return b, clk, &log
}

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	b, _, log := newTestBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker refused")
		}
		b.Failure()
	}
	b.Allow()
	b.Success() // success resets the streak
	for i := 0; i < 3; i++ {
		b.Allow()
		b.Failure()
	}
	if b.State() != Open {
		t.Fatalf("state = %s, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker granted an attempt")
	}
	if len(*log) != 1 || (*log)[0] != "closed->open" {
		t.Fatalf("transitions = %v", *log)
	}
}

func TestBreakerHalfOpenProbesAndRecovery(t *testing.T) {
	b, clk, log := newTestBreaker(1, time.Second)
	b.Allow()
	b.Failure() // opens
	if b.Allow() {
		t.Fatal("open breaker granted before timeout")
	}
	clk.Advance(time.Second)
	// One probe flows, a second is refused while it is in flight.
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker granted a second probe")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state = %s after probe successes, want closed", b.State())
	}
	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if fmt.Sprint(*log) != fmt.Sprint(want) {
		t.Fatalf("transitions = %v, want %v", *log, want)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, clk, _ := newTestBreaker(1, time.Second)
	b.Allow()
	b.Failure()
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("no probe granted")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state = %s after failed probe, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("reopened breaker granted before a fresh timeout")
	}
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("no probe after the fresh open window")
	}
}

func TestBreakerConcurrentUse(t *testing.T) {
	b, _, _ := newTestBreaker(1000000, time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if b.Allow() {
					if i%2 == 0 {
						b.Success()
					} else {
						b.Failure()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if b.State() != Closed {
		t.Fatalf("state = %s", b.State())
	}
}
