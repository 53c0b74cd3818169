package peerlink

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridproxy/internal/metrics"
)

// cacheSession is a fake Session recording whether it was closed. busy
// stands for open data streams the cache cannot see.
type cacheSession struct {
	site   string
	done   chan struct{}
	closed atomic.Bool
	busy   atomic.Bool
}

func (s *cacheSession) Busy() bool { return s.busy.Load() }

func newCacheSession(site string) *cacheSession {
	return &cacheSession{site: site, done: make(chan struct{})}
}

func (s *cacheSession) Done() <-chan struct{} { return s.done }

func (s *cacheSession) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		close(s.done)
	}
	return nil
}

// countingDialer builds sessions on demand, counting dials per site.
type countingDialer struct {
	mu    sync.Mutex
	dials map[string]int
	fail  map[string]error
}

func newCountingDialer() *countingDialer {
	return &countingDialer{dials: make(map[string]int), fail: make(map[string]error)}
}

func (d *countingDialer) dial(_ context.Context, site string) (*cacheSession, error) {
	d.mu.Lock()
	d.dials[site]++
	err := d.fail[site]
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return newCacheSession(site), nil
}

func (d *countingDialer) count(site string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials[site]
}

func TestCacheDialsOnDemandOnce(t *testing.T) {
	d := newCountingDialer()
	c := NewCache[*cacheSession](CacheConfig{}, d.dial, nil)
	ctx := context.Background()
	s1, err := c.Get(ctx, "siteb")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	s2, err := c.Get(ctx, "siteb")
	if err != nil {
		t.Fatalf("Get again: %v", err)
	}
	if s1 != s2 {
		t.Fatal("second Get dialed a new session instead of reusing")
	}
	if d.count("siteb") != 1 {
		t.Fatalf("dials = %d, want 1", d.count("siteb"))
	}
}

func TestCacheSingleflight(t *testing.T) {
	var dials atomic.Int32
	release := make(chan struct{})
	dial := func(ctx context.Context, site string) (*cacheSession, error) {
		dials.Add(1)
		<-release
		return newCacheSession(site), nil
	}
	c := NewCache[*cacheSession](CacheConfig{}, dial, nil)
	const callers = 8
	var wg sync.WaitGroup
	sessions := make([]*cacheSession, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := c.Get(context.Background(), "siteb")
			if err != nil {
				t.Errorf("Get: %v", err)
			}
			sessions[i] = s
		}(i)
	}
	// Let the callers pile up on the in-flight dial, then release it.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := dials.Load(); n != 1 {
		t.Fatalf("concurrent Gets dialed %d times, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if sessions[i] != sessions[0] {
			t.Fatal("concurrent Gets returned different sessions")
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	d := newCountingDialer()
	reg := metrics.NewRegistry()
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(time.Second)
		return now
	}
	var evictedSites []string
	c := NewCache[*cacheSession](CacheConfig{MaxTunnels: 2, Now: clock, Metrics: reg},
		d.dial, func(site string, s *cacheSession) {
			mu.Lock()
			evictedSites = append(evictedSites, site)
			mu.Unlock()
		})
	ctx := context.Background()
	sa, _ := c.Get(ctx, "sitea")
	c.Release("sitea", sa)
	sb, _ := c.Get(ctx, "siteb")
	c.Release("siteb", sb)
	c.Get(ctx, "sitec") // over cap: sitea (least recently used) must go
	if c.Has("sitea") {
		t.Fatal("LRU victim still cached")
	}
	if !sa.closed.Load() {
		t.Fatal("LRU victim not closed")
	}
	mu.Lock()
	ev := append([]string(nil), evictedSites...)
	mu.Unlock()
	if len(ev) != 1 || ev[0] != "sitea" {
		t.Fatalf("onEvict saw %v, want [sitea]", ev)
	}
	if got := reg.Snapshot()[metrics.PeerLRUEvictions]; got != 1 {
		t.Fatalf("lru_evictions = %d, want 1", got)
	}
	if got := reg.Snapshot()[metrics.PeersCached]; got != 2 {
		t.Fatalf("gauge cached = %d, want 2", got)
	}
}

// TestCacheBusySessionNotClosed pins the busy rule: a session that says
// it is busy — nobody holds a checkout, but it carries streams — survives
// the idle sweep past IdleClose and LRU pressure past MaxTunnels on
// either way into the cache (dialed or adopted), and goes like any other
// once it is idle again.
func TestCacheBusySessionNotClosed(t *testing.T) {
	d := newCountingDialer()
	reg := metrics.NewRegistry()
	var mu sync.Mutex
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	c := NewCache[*cacheSession](CacheConfig{MaxTunnels: 1, IdleClose: 10 * time.Second, Now: clock, Metrics: reg}, d.dial, nil)
	ctx := context.Background()

	dialed, _ := c.Get(ctx, "dialed")
	dialed.busy.Store(true)
	c.Release("dialed", dialed)
	accepted := newCacheSession("accepted")
	accepted.busy.Store(true)
	if !c.Add("accepted", accepted) {
		t.Fatal("Add refused")
	}
	c.Release("accepted", accepted)

	advance(time.Hour)
	c.Sweep()
	other, _ := c.Get(ctx, "other") // two over the cap, nothing evictable
	if !c.Has("dialed") || !c.Has("accepted") || dialed.closed.Load() || accepted.closed.Load() {
		t.Fatal("busy session closed by the cache")
	}
	if got := reg.Snapshot()[metrics.PeerIdleCloses] + reg.Snapshot()[metrics.PeerLRUEvictions]; got != 0 {
		t.Fatalf("closes while busy = %d, want 0", got)
	}
	c.Release("other", other)

	// Idle again: the next insert evicts the older of the two, the next
	// sweep takes whatever sat past IdleClose.
	dialed.busy.Store(false)
	accepted.busy.Store(false)
	advance(time.Second)
	s, _ := c.Get(ctx, "fourth")
	c.Release("fourth", s)
	if len(c.Sites()) != 1 || !dialed.closed.Load() || !accepted.closed.Load() || !other.closed.Load() {
		t.Fatalf("idle sessions survived LRU pressure: %v", c.Sites())
	}
	advance(time.Hour)
	c.Sweep()
	if len(c.Sites()) != 0 {
		t.Fatalf("idle session survived the sweep: %v", c.Sites())
	}
}

// TestCacheAdoptedSessionIsCheckedOut: an accepted session enters the
// cache holding a checkout, so the next insert cannot evict it while the
// remote is still mid-handshake; after Release it is fair game.
func TestCacheAdoptedSessionIsCheckedOut(t *testing.T) {
	d := newCountingDialer()
	c := NewCache[*cacheSession](CacheConfig{MaxTunnels: 1}, d.dial, nil)
	first := newCacheSession("first")
	if !c.Add("first", first) {
		t.Fatal("Add refused")
	}
	second := newCacheSession("second")
	c.Put("second", second)
	if !c.Has("first") || first.closed.Load() {
		t.Fatal("accepted session evicted before its handshake was released")
	}
	c.Release("first", first)
	c.Release("second", second)
	third, _ := c.Get(context.Background(), "third")
	c.Release("third", third)
	if len(c.Sites()) != 1 || !first.closed.Load() || !second.closed.Load() {
		t.Fatalf("released sessions survived LRU pressure: %v", c.Sites())
	}
}

// TestCacheDeadOnArrivalNotCached: a session that died while its dial
// function was still finishing the handshake is refused, not cached — its
// owner's death watcher has already run and would never drop it.
func TestCacheDeadOnArrivalNotCached(t *testing.T) {
	c := NewCache[*cacheSession](CacheConfig{}, func(_ context.Context, site string) (*cacheSession, error) {
		s := newCacheSession(site)
		_ = s.Close()
		return s, nil
	}, nil)
	if _, err := c.Get(context.Background(), "sitea"); !errors.Is(err, errSessionDied) {
		t.Fatalf("Get = %v, want errSessionDied", err)
	}
	if c.Has("sitea") {
		t.Fatal("dead session cached")
	}
}

func TestCacheIdleSweep(t *testing.T) {
	d := newCountingDialer()
	reg := metrics.NewRegistry()
	var mu sync.Mutex
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	c := NewCache[*cacheSession](CacheConfig{IdleClose: 10 * time.Second, Now: clock, Metrics: reg}, d.dial, nil)
	s, _ := c.Get(context.Background(), "sitea")
	c.Release("sitea", s)
	mu.Lock()
	now = now.Add(11 * time.Second)
	mu.Unlock()
	c.Sweep()
	if c.Has("sitea") || !s.closed.Load() {
		t.Fatal("idle session survived the sweep")
	}
	if got := reg.Snapshot()[metrics.PeerIdleCloses]; got != 1 {
		t.Fatalf("idle_closes = %d, want 1", got)
	}
}

// TestCacheCheckedOutNotEvicted pins the checkout contract: a session
// between Get and Release is invisible to the LRU evictor and the idle
// sweep, even when that leaves the cache over MaxTunnels. Without it, a
// fan-out wider than the cap closes tunnels under its own in-flight
// RPCs.
func TestCacheCheckedOutNotEvicted(t *testing.T) {
	d := newCountingDialer()
	var mu sync.Mutex
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(time.Second)
		return now
	}
	c := NewCache[*cacheSession](CacheConfig{MaxTunnels: 1, IdleClose: 10 * time.Second, Now: clock}, d.dial, nil)
	ctx := context.Background()
	sa, _ := c.Get(ctx, "sitea")
	sb, _ := c.Get(ctx, "siteb") // over cap, but sitea is checked out
	if !c.Has("sitea") || sa.closed.Load() {
		t.Fatal("checked-out session evicted by LRU pressure")
	}
	c.Release("sitea", sa)
	sc, _ := c.Get(ctx, "sitec") // now sitea is the only eligible victim
	if c.Has("sitea") || !sa.closed.Load() {
		t.Fatal("released session survived LRU pressure")
	}
	if !c.Has("siteb") || sb.closed.Load() {
		t.Fatal("still-checked-out session evicted")
	}
	// The idle sweep honors checkouts the same way.
	mu.Lock()
	now = now.Add(time.Hour)
	mu.Unlock()
	c.Sweep()
	if !c.Has("siteb") || !c.Has("sitec") {
		t.Fatal("idle sweep closed a checked-out session")
	}
	c.Release("siteb", sb)
	c.Release("sitec", sc)
	mu.Lock()
	now = now.Add(time.Hour)
	mu.Unlock()
	c.Sweep()
	if c.Has("siteb") || c.Has("sitec") {
		t.Fatal("released sessions survived the idle sweep")
	}
	// Releasing a stale handle (replaced, dropped, or double-released)
	// is a harmless no-op.
	c.Release("sitea", sa)
	c.Release("siteb", sb)
}

func TestCacheDropLeavesSessionOpen(t *testing.T) {
	d := newCountingDialer()
	c := NewCache[*cacheSession](CacheConfig{}, d.dial, nil)
	s, _ := c.Get(context.Background(), "sitea")
	c.DropIf("sitea", s)
	if c.Has("sitea") {
		t.Fatal("dropped session still cached")
	}
	if s.closed.Load() {
		t.Fatal("Drop closed the session; the caller owns teardown")
	}
	// The next Get redials.
	c.Get(context.Background(), "sitea")
	if d.count("sitea") != 2 {
		t.Fatalf("dials = %d, want 2 after drop", d.count("sitea"))
	}
}

func TestCacheDialFailureNotCached(t *testing.T) {
	d := newCountingDialer()
	boom := errors.New("down")
	d.fail["sitea"] = boom
	c := NewCache[*cacheSession](CacheConfig{}, d.dial, nil)
	if _, err := c.Get(context.Background(), "sitea"); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	d.mu.Lock()
	delete(d.fail, "sitea")
	d.mu.Unlock()
	if _, err := c.Get(context.Background(), "sitea"); err != nil {
		t.Fatalf("Get after failure cleared: %v", err)
	}
	if d.count("sitea") != 2 {
		t.Fatalf("dials = %d, want 2 (failures are not cached)", d.count("sitea"))
	}
}

// TestCacheCrossingDialAdoptsTheWinner: the site's own dial reaches us
// while ours runs and is adopted with Add, and ours is then refused as
// its duplicate. Get must hand out the adopted session, checked out, and
// the refusal must not count toward the breaker.
func TestCacheCrossingDialAdoptsTheWinner(t *testing.T) {
	inbound := newCacheSession("siteb")
	refused := errors.New("peer siteb already connected")
	var c *Cache[*cacheSession]
	dials := 0
	dial := func(context.Context, string) (*cacheSession, error) {
		dials++
		if dials > 1 {
			return newCacheSession("siteb"), nil
		}
		if !c.Add("siteb", inbound) {
			t.Error("Add refused the inbound session")
		}
		c.Release("siteb", inbound) // the inbound connect exchange is over
		return nil, refused
	}
	c = NewCache[*cacheSession](CacheConfig{MaxTunnels: 1, BreakerThreshold: 1}, dial, nil)
	ctx := context.Background()
	got, err := c.Get(ctx, "siteb")
	if err != nil || got != inbound {
		t.Fatalf("Get = %v, %v; want the adopted session", got, err)
	}
	// Checked out: a second site past MaxTunnels must not evict it.
	if !c.Add("sitec", newCacheSession("sitec")) {
		t.Fatal("Add sitec refused")
	}
	if inbound.closed.Load() || !c.Has("siteb") {
		t.Fatal("the adopted session was evicted while checked out")
	}
	// With a threshold of one, a counted refusal would have opened the
	// breaker and this Get would fail fast without dialing.
	c.Release("siteb", inbound)
	c.DropIf("siteb", inbound)
	if _, err := c.Get(ctx, "siteb"); err != nil {
		t.Fatalf("Get after the drop = %v, want a fresh dial", err)
	}
	if dials != 2 {
		t.Fatalf("dials = %d, want 2", dials)
	}
}

func TestCacheCloseAllRefusesInserts(t *testing.T) {
	d := newCountingDialer()
	c := NewCache[*cacheSession](CacheConfig{}, d.dial, nil)
	s, _ := c.Get(context.Background(), "sitea")
	c.CloseAll()
	if !s.closed.Load() {
		t.Fatal("CloseAll left a session open")
	}
	late := newCacheSession("siteb")
	c.Put("siteb", late)
	if !late.closed.Load() {
		t.Fatal("Put after CloseAll adopted a session instead of closing it")
	}
	if _, err := c.Get(context.Background(), "sitec"); err == nil {
		t.Fatal("Get after CloseAll succeeded")
	}
}

// TestFanOutUnderMembershipChurn is the satellite-test scenario: peers
// are added to and removed from the connection cache concurrently with
// in-flight fan-outs. The fan-out must invoke fn exactly once per target,
// never panic, and leak no goroutines.
func TestFanOutUnderMembershipChurn(t *testing.T) {
	base := runtime.NumGoroutine()
	d := newCountingDialer()
	c := NewCache[*cacheSession](CacheConfig{MaxTunnels: 4}, d.dial, nil)

	sites := make([]string, 16)
	for i := range sites {
		sites[i] = fmt.Sprintf("site%02d", i)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var churn sync.WaitGroup
	// Churners: concurrently dial, drop, and close sites while fan-outs
	// run against the same cache.
	for w := 0; w < 4; w++ {
		churn.Add(1)
		go func(w int) {
			defer churn.Done()
			for i := 0; ctx.Err() == nil; i++ {
				site := sites[(i*5+w*3)%len(sites)]
				switch i % 3 {
				case 0:
					if s, err := c.Get(ctx, site); err == nil {
						if i%6 == 0 {
							c.DropIf(site, s)
							_ = s.Close()
						}
						c.Release(site, s)
					}
				case 1:
					s := newCacheSession(site)
					c.Put(site, s)
					c.Release(site, s)
				case 2:
					if s, ok := c.Peek(site); ok {
						c.DropIf(site, s)
					}
				}
			}
		}(w)
	}

	for round := 0; round < 50; round++ {
		calls := make(map[string]*atomic.Int32, len(sites))
		for _, s := range sites {
			calls[s] = &atomic.Int32{}
		}
		results := FanOut(ctx, sites, 200*time.Millisecond,
			func(fctx context.Context, target string) (int, error) {
				calls[target].Add(1)
				// Half the targets exercise the cache mid-churn.
				if target[len(target)-1]%2 == 0 {
					s, err := c.Get(fctx, target)
					if err != nil {
						return 0, err
					}
					c.Release(target, s)
				}
				return 1, nil
			})
		if len(results) != len(sites) {
			t.Fatalf("round %d: %d results, want %d", round, len(results), len(sites))
		}
		for _, s := range sites {
			if n := calls[s].Load(); n != 1 {
				t.Fatalf("round %d: target %s called %d times, want exactly 1", round, s, n)
			}
		}
	}

	cancel()
	churn.Wait()
	c.CloseAll()
	// Goroutines must drain back to (roughly) the baseline: allow slack
	// for runtime helpers but catch per-round leaks (50 rounds × 16
	// targets would dwarf it).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+8 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), base)
}

// TestFanOutTargetsRemovedMidFlight pins the contract that FanOut works
// on a snapshot: removing a target's session mid-flight fails that one
// call but cannot panic or disturb the other targets.
func TestFanOutTargetsRemovedMidFlight(t *testing.T) {
	d := newCountingDialer()
	c := NewCache[*cacheSession](CacheConfig{}, d.dial, nil)
	targets := []string{"sitea", "siteb", "sitec"}
	for _, s := range targets {
		if _, err := c.Get(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	started := make(chan struct{})
	var once sync.Once
	results := make(chan []Result[string], 1)
	go func() {
		results <- FanOut(context.Background(), targets, time.Second,
			func(ctx context.Context, target string) (string, error) {
				once.Do(func() { close(started) })
				time.Sleep(20 * time.Millisecond)
				if _, ok := c.Peek(target); !ok {
					return "", errors.New("peer vanished")
				}
				return target, nil
			})
	}()
	<-started
	if s, ok := c.Peek("siteb"); ok {
		c.DropIf("siteb", s) // membership removal races the in-flight fan-out
	}
	got := <-results
	if len(got) != 3 {
		t.Fatalf("%d results, want 3", len(got))
	}
	for _, r := range got {
		if r.Target == "siteb" {
			continue // may have won or lost the race; both are legal
		}
		if r.Err != nil {
			t.Fatalf("surviving target %s failed: %v", r.Target, r.Err)
		}
	}
}
