package peerlink

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// breakerClock is a settable fake clock for breaker window tests.
type breakerClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *breakerClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *breakerClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newBreakerCache(t *testing.T, d *countingDialer, clock *breakerClock) *Cache[*cacheSession] {
	t.Helper()
	c := NewCache[*cacheSession](CacheConfig{
		BreakerThreshold: 3,
		BreakerMinOpen:   time.Second,
		BreakerMaxOpen:   4 * time.Second,
		Now:              clock.Now,
	}, d.dial, nil)
	t.Cleanup(c.CloseAll)
	return c
}

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	d := newCountingDialer()
	d.fail["far"] = errors.New("connection refused")
	clock := &breakerClock{now: time.Unix(1000, 0)}
	c := newBreakerCache(t, d, clock)

	for i := 0; i < 3; i++ {
		if _, err := c.Get(context.Background(), "far"); err == nil {
			t.Fatalf("attempt %d: want dial error", i)
		}
	}
	if got := d.count("far"); got != 3 {
		t.Fatalf("dials before open = %d, want 3", got)
	}
	// Breaker is now open: further Gets fast-fail without dialing.
	_, err := c.Get(context.Background(), "far")
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	if got := d.count("far"); got != 3 {
		t.Fatalf("fast-fail dialed anyway: dials = %d, want 3", got)
	}
}

func TestBreakerWindowExpiresAndBacksOff(t *testing.T) {
	d := newCountingDialer()
	d.fail["far"] = errors.New("connection refused")
	clock := &breakerClock{now: time.Unix(1000, 0)}
	c := newBreakerCache(t, d, clock)

	for i := 0; i < 3; i++ {
		_, _ = c.Get(context.Background(), "far")
	}
	// First window is BreakerMinOpen ±20%: still open well inside it.
	clock.Advance(500 * time.Millisecond)
	if _, err := c.Get(context.Background(), "far"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("inside window: want ErrCircuitOpen, got %v", err)
	}
	// Past the jittered maximum the breaker admits dials again.
	clock.Advance(time.Second)
	for i := 0; i < 3; i++ {
		if _, err := c.Get(context.Background(), "far"); errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("after window, attempt %d still fast-failed", i)
		}
	}
	if got := d.count("far"); got != 6 {
		t.Fatalf("dials after reopen = %d, want 6", got)
	}
	// The second open's window doubled: 2s ±20% is at least 1.6s, so
	// 1.5s later it is still open.
	clock.Advance(1500 * time.Millisecond)
	if _, err := c.Get(context.Background(), "far"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("doubled window: want ErrCircuitOpen, got %v", err)
	}
}

// TestBreakerWindowBounds: the open window is the redial backoff, so its
// shape is fixed here — BreakerMinOpen doubled per consecutive open, capped
// at BreakerMaxOpen, each within ±20 % jitter. Measured through the
// cache's own clock: after the k-th open the breaker still refuses at
// 0.8 of the nominal window and admits again past 1.2 of it.
func TestBreakerWindowBounds(t *testing.T) {
	d := newCountingDialer()
	d.fail["far"] = errors.New("connection refused")
	for trial := 0; trial < 20; trial++ { // the jitter is random; sample it
		clock := &breakerClock{now: time.Unix(1000, 0)}
		c := newBreakerCache(t, d, clock) // 1s doubling to a 4s cap
		for _, nominal := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 4 * time.Second, 4 * time.Second} {
			for i := 0; i < 3; i++ {
				if _, err := c.Get(context.Background(), "far"); errors.Is(err, ErrCircuitOpen) {
					t.Fatalf("window %v: breaker open before the threshold", nominal)
				}
			}
			low, high := nominal*8/10, nominal*12/10
			clock.Advance(low - time.Millisecond)
			if _, err := c.Get(context.Background(), "far"); !errors.Is(err, ErrCircuitOpen) {
				t.Fatalf("window %v: admitted a dial %v in, below the jittered minimum", nominal, low)
			}
			clock.Advance(high - low + time.Millisecond)
		}
	}
}

func TestBreakerResetOnDialSuccess(t *testing.T) {
	d := newCountingDialer()
	d.fail["far"] = errors.New("connection refused")
	clock := &breakerClock{now: time.Unix(1000, 0)}
	c := newBreakerCache(t, d, clock)

	// Two failures, then the site recovers: the success wipes the count,
	// so two MORE failures stay under the threshold.
	for i := 0; i < 2; i++ {
		_, _ = c.Get(context.Background(), "far")
	}
	delete(d.fail, "far")
	sess, err := c.Get(context.Background(), "far")
	if err != nil {
		t.Fatalf("recovered dial failed: %v", err)
	}
	c.Release("far", sess)
	c.DropIf("far", sess)
	d.fail["far"] = errors.New("connection refused")
	for i := 0; i < 2; i++ {
		if _, err := c.Get(context.Background(), "far"); errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("failure count survived a success: attempt %d fast-failed", i)
		}
	}
}

func TestBreakerResetOnInboundSession(t *testing.T) {
	d := newCountingDialer()
	d.fail["far"] = errors.New("connection refused")
	clock := &breakerClock{now: time.Unix(1000, 0)}
	c := newBreakerCache(t, d, clock)

	for i := 0; i < 3; i++ {
		_, _ = c.Get(context.Background(), "far")
	}
	if _, err := c.Get(context.Background(), "far"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want open breaker, got %v", err)
	}
	// The "unreachable" site dialed US: adopting its session clears the
	// breaker, so after that session dies a fresh dial is admitted
	// immediately.
	inbound := newCacheSession("far")
	if !c.Add("far", inbound) {
		t.Fatal("Add refused")
	}
	c.DropIf("far", inbound)
	if _, err := c.Get(context.Background(), "far"); errors.Is(err, ErrCircuitOpen) {
		t.Fatal("breaker survived an inbound session")
	}
}

func TestBreakerDisabled(t *testing.T) {
	d := newCountingDialer()
	d.fail["far"] = errors.New("connection refused")
	clock := &breakerClock{now: time.Unix(1000, 0)}
	c := NewCache[*cacheSession](CacheConfig{
		BreakerThreshold: -1,
		Now:              clock.Now,
	}, d.dial, nil)
	t.Cleanup(c.CloseAll)
	for i := 0; i < 10; i++ {
		if _, err := c.Get(context.Background(), "far"); errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("disabled breaker opened on attempt %d", i)
		}
	}
	if got := d.count("far"); got != 10 {
		t.Fatalf("dials = %d, want 10", got)
	}
}
