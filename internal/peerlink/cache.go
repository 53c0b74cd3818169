package peerlink

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"gridproxy/internal/metrics"
)

// CacheConfig carries the connection-cache knobs. The zero value means
// "use defaults"; negative durations disable the behaviour.
type CacheConfig struct {
	// MaxTunnels caps the number of live sessions; inserting past the
	// cap evicts the least-recently-used one that is not in use (default
	// 32; negative: unlimited).
	MaxTunnels int
	// IdleClose closes sessions unused for this long (default 2m;
	// negative disables).
	IdleClose time.Duration
	// SweepEvery is the idle janitor's period (default IdleClose/4).
	SweepEvery time.Duration
	// BreakerThreshold is how many consecutive dial failures to a site
	// open its circuit breaker (default 3; negative disables breakers).
	BreakerThreshold int
	// BreakerMinOpen is the first open window (default 500ms); it
	// doubles per consecutive open, ±20% jitter.
	BreakerMinOpen time.Duration
	// BreakerMaxOpen caps the open window (default 30s).
	BreakerMaxOpen time.Duration
	// Now supplies time; nil means time.Now (tests inject clocks).
	Now func() time.Time
	// Metrics may be nil.
	Metrics *metrics.Registry
}

// Default cache knob values.
const (
	DefaultMaxTunnels       = 32
	DefaultIdleClose        = 2 * time.Minute
	DefaultBreakerThreshold = 3
	DefaultBreakerMinOpen   = 500 * time.Millisecond
	DefaultBreakerMaxOpen   = 30 * time.Second
)

// WithDefaults fills zero fields with defaults.
func (c CacheConfig) WithDefaults() CacheConfig {
	if c.MaxTunnels == 0 {
		c.MaxTunnels = DefaultMaxTunnels
	}
	if c.IdleClose == 0 {
		c.IdleClose = DefaultIdleClose
	}
	if c.SweepEvery <= 0 {
		if c.IdleClose > 0 {
			c.SweepEvery = c.IdleClose / 4
		} else {
			c.SweepEvery = 30 * time.Second
		}
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerMinOpen <= 0 {
		c.BreakerMinOpen = DefaultBreakerMinOpen
	}
	if c.BreakerMaxOpen <= 0 {
		c.BreakerMaxOpen = DefaultBreakerMaxOpen
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// errSessionDied is what Get returns when the session it dialed was dead
// by the time it could be cached.
var errSessionDied = errors.New("peerlink: session died while connecting")

// cacheEntry is one live session in the cache.
type cacheEntry[T Session] struct {
	sess    T
	lastUse time.Time
	// refs counts outstanding checkouts (Get, Add, Put). The LRU evictor
	// and the idle sweep skip referenced sessions — closing a tunnel out
	// from under an in-flight RPC (a status fan-out wider than MaxTunnels
	// does this reliably) turns cache pressure into spurious peer
	// failures. Release returns a checkout.
	refs int
}

// inUse reports whether the cache must leave e alone: somebody holds a
// checkout on it, or the session says it is busy (see Session).
func (e *cacheEntry[T]) inUse() bool {
	if e.refs > 0 {
		return true
	}
	b, ok := any(e.sess).(interface{ Busy() bool })
	return ok && b.Busy()
}

// cacheDial establishes a session to a site once, on demand.
type cacheDial[T Session] func(ctx context.Context, site string) (T, error)

// inflightDial is a singleflight slot: the first Get for a missing site
// dials, later Gets wait on done.
type inflightDial[T Session] struct {
	done chan struct{}
	sess T
	err  error
}

// Cache is a dial-on-demand connection cache keyed by site name — the
// connectivity half of the membership split. The directory knows all N
// sites; the cache holds live tunnels to the handful in active use,
// dialing lazily, evicting by LRU past MaxTunnels, and closing idle
// tunnels. It deliberately does not watch session health: the owner
// watches Done and calls DropIf when a session dies.
type Cache[T Session] struct {
	cfg  CacheConfig
	dial cacheDial[T]
	// onEvict, if set, runs just before the cache closes a session it
	// evicted (LRU, idle, or replacement) — the owner uses it to mark
	// the teardown as expected.
	onEvict func(site string, sess T)

	mu       sync.Mutex
	live     map[string]*cacheEntry[T]
	inflight map[string]*inflightDial[T]
	breakers map[string]*breaker
	closed   bool
}

// NewCache builds an empty cache. dial is invoked (outside any lock) for
// Gets that miss; onEvict may be nil.
func NewCache[T Session](cfg CacheConfig, dial cacheDial[T], onEvict func(site string, sess T)) *Cache[T] {
	return &Cache[T]{
		cfg:      cfg.WithDefaults(),
		dial:     dial,
		onEvict:  onEvict,
		live:     make(map[string]*cacheEntry[T]),
		inflight: make(map[string]*inflightDial[T]),
		breakers: make(map[string]*breaker),
	}
}

// Get returns the live session for site, dialing it on demand, and
// checks it out: the session is safe from LRU eviction and idle close
// until the caller hands it back with Release. Concurrent Gets for the
// same missing site share one dial. Callers that can tolerate a miss
// (and only glance, never transact) use Peek.
func (c *Cache[T]) Get(ctx context.Context, site string) (T, error) {
	var zero T
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return zero, context.Canceled
	}
	if e, ok := c.live[site]; ok {
		e.lastUse = c.cfg.Now()
		e.refs++
		sess := e.sess
		c.mu.Unlock()
		return sess, nil
	}
	if f, ok := c.inflight[site]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			if f.err != nil {
				return zero, f.err
			}
			// The dial winner inserted the session with its own
			// checkout, not ours — take one, unless the entry is
			// already gone (evicted or dropped before we woke), in
			// which case start over.
			c.mu.Lock()
			if e, ok := c.live[site]; ok && any(e.sess) == any(f.sess) {
				e.lastUse = c.cfg.Now()
				e.refs++
				c.mu.Unlock()
				return f.sess, nil
			}
			c.mu.Unlock()
			return c.Get(ctx, site)
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
	if err := c.breakerAllowLocked(site); err != nil {
		c.mu.Unlock()
		return zero, err
	}
	f := &inflightDial[T]{done: make(chan struct{})}
	c.inflight[site] = f
	c.mu.Unlock()

	c.cfg.Metrics.Counter(metrics.PeerDialsOnDemand).Inc()
	sess, err := c.dial(ctx, site)
	f.sess, f.err = sess, err
	if err == nil {
		c.breakerRecord(site, true)
	} else if ctx.Err() == nil {
		// A canceled caller says nothing about the site; every other
		// dial failure counts toward opening the breaker.
		c.breakerRecord(site, false)
	}

	var victims []evicted[T]
	c.mu.Lock()
	delete(c.inflight, site)
	if err == nil {
		select {
		case <-sess.Done():
			// Died during its own handshake. The owner's watcher has
			// already come by and found nothing to drop, so inserting
			// it now would cache a corpse nobody removes.
			err = errSessionDied
			f.sess, f.err = zero, err
			victims = append(victims, evicted[T]{site: site, sess: sess})
		default:
		}
	}
	if err == nil {
		if c.closed {
			// Lost the race with CloseAll: the new session must not
			// outlive the cache.
			err = context.Canceled
			f.sess, f.err = zero, err
			victims = append(victims, evicted[T]{site: site, sess: sess})
		} else if e, ok := c.live[site]; ok {
			// A crossing insert (an accepted inbound tunnel, or a dial
			// func returning a session it already holds) registered this
			// site while we dialed. Keep the cached session, take our
			// checkout on it, and discard any duplicate we just built —
			// through the evict hook, so its teardown reads as expected.
			if any(e.sess) != any(sess) {
				victims = append(victims, evicted[T]{site: site, sess: sess})
				sess = e.sess
				f.sess = sess
			}
			e.refs++
			e.lastUse = c.cfg.Now()
		} else {
			victims = c.insertLocked(site, sess) // with the dialer's checkout
		}
	}
	c.mu.Unlock()
	close(f.done)
	c.closeEvicted(victims)
	if err != nil {
		return zero, err
	}
	return sess, nil
}

// Release hands back a checkout taken by Get, Add or Put. It is
// identity-checked:
// releasing a session that has since been replaced or dropped is a
// no-op, so callers may release unconditionally after use. The release
// refreshes the LRU clock — "last use" means the RPC's end, not its
// start.
func (c *Cache[T]) Release(site string, sess T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.live[site]
	if !ok || any(e.sess) != any(sess) || e.refs == 0 {
		return
	}
	e.refs--
	e.lastUse = c.cfg.Now()
}

// Peek returns the cached session for site without dialing. It does not
// refresh the LRU clock or check the session out: peeking at a tunnel
// is not using it, and the peeked session may be evicted at any time.
func (c *Cache[T]) Peek(site string) (T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.live[site]
	if !ok {
		var zero T
		return zero, false
	}
	return e.sess, true
}

// Has reports whether a live tunnel to site is held.
func (c *Cache[T]) Has(site string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.live[site]
	return ok
}

// Sites returns the sites with live sessions, sorted.
func (c *Cache[T]) Sites() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.live))
	for site := range c.live {
		out = append(out, site)
	}
	sort.Strings(out)
	return out
}

// Put adopts an externally established session (an accepted inbound
// tunnel) as Add does, but replaces a session already held for the site:
// the old one is evicted and closed.
func (c *Cache[T]) Put(site string, sess T) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.closeEvicted([]evicted[T]{{site: site, sess: sess}})
		return
	}
	var victims []evicted[T]
	if old, ok := c.live[site]; ok {
		victims = append(victims, evicted[T]{site: site, sess: old.sess})
		delete(c.live, site)
	}
	victims = append(victims, c.insertLocked(site, sess)...)
	delete(c.breakers, site) // a session in hand proves reachability
	c.mu.Unlock()
	c.closeEvicted(victims)
}

// Add adopts an externally established session (an accepted inbound
// tunnel) only if no live session is held for site, reporting whether it
// did. Crossing dials keep the first session: the loser gets false back
// and closes its own. After CloseAll, Add always reports false. Like a
// dialed session, an adopted one enters the cache checked out — the
// remote's connect exchange is still running over it, and cache pressure
// from the next accept must not close it mid-handshake — and the caller
// hands the checkout back with Release when that exchange is over.
func (c *Cache[T]) Add(site string, sess T) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	if _, dup := c.live[site]; dup {
		c.mu.Unlock()
		return false
	}
	victims := c.insertLocked(site, sess)
	delete(c.breakers, site) // an inbound session proves reachability
	c.mu.Unlock()
	c.closeEvicted(victims)
	return true
}

// Snapshot returns the live sessions keyed by site.
func (c *Cache[T]) Snapshot() map[string]T {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]T, len(c.live))
	for site, e := range c.live {
		out[site] = e.sess
	}
	return out
}

// DropIf removes site's entry only when it still holds sess (compared by
// interface identity — sessions must be comparable, e.g. pointers),
// without closing it: the caller owns the teardown (it is usually
// reacting to the session already being dead). It reports whether the
// entry was removed; a false return means a newer session took the slot
// and survives.
func (c *Cache[T]) DropIf(site string, sess T) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.live[site]
	if !ok || any(e.sess) != any(sess) {
		return false
	}
	delete(c.live, site)
	c.cfg.Metrics.Gauge(metrics.PeersCached).Set(int64(len(c.live)))
	return true
}

// evicted pairs a session with its site for deferred close.
type evicted[T Session] struct {
	site string
	sess T
}

// insertLocked adds a session, checked out once on behalf of whoever
// brought it, and returns any LRU victims to close. The caller holds c.mu
// and must close the victims after releasing it.
func (c *Cache[T]) insertLocked(site string, sess T) []evicted[T] {
	c.live[site] = &cacheEntry[T]{sess: sess, lastUse: c.cfg.Now(), refs: 1}
	var victims []evicted[T]
	if c.cfg.MaxTunnels > 0 {
		for len(c.live) > c.cfg.MaxTunnels {
			victim := c.oldestIdleLocked()
			if victim == "" {
				break
			}
			victims = append(victims, evicted[T]{site: victim, sess: c.live[victim].sess})
			delete(c.live, victim)
			c.cfg.Metrics.Counter(metrics.PeerLRUEvictions).Inc()
		}
	}
	c.cfg.Metrics.Gauge(metrics.PeersCached).Set(int64(len(c.live)))
	return victims
}

// oldestIdleLocked returns the least-recently-used site whose session is
// not in use. When every session is checked out or busy it returns "" and
// the cache temporarily exceeds MaxTunnels — a soft cap beats closing a
// tunnel mid-RPC or under a running transfer. Caller holds c.mu.
func (c *Cache[T]) oldestIdleLocked() string {
	var oldest string
	var oldestAt time.Time
	for site, e := range c.live {
		if e.inUse() {
			continue
		}
		if oldest == "" || e.lastUse.Before(oldestAt) {
			oldest = site
			oldestAt = e.lastUse
		}
	}
	return oldest
}

// closeEvicted runs the evict hook and closes sessions, outside any lock.
func (c *Cache[T]) closeEvicted(victims []evicted[T]) {
	for _, v := range victims {
		if c.onEvict != nil {
			c.onEvict(v.site, v.sess)
		}
		_ = v.sess.Close()
	}
}

// Sweep closes sessions idle past IdleClose, skipping those in use. The
// janitor calls it periodically; tests call it directly.
func (c *Cache[T]) Sweep() {
	if c.cfg.IdleClose <= 0 {
		return
	}
	now := c.cfg.Now()
	var victims []evicted[T]
	c.mu.Lock()
	for site, e := range c.live {
		if now.Sub(e.lastUse) > c.cfg.IdleClose && !e.inUse() {
			victims = append(victims, evicted[T]{site: site, sess: e.sess})
			delete(c.live, site)
			c.cfg.Metrics.Counter(metrics.PeerIdleCloses).Inc()
		}
	}
	if len(victims) > 0 {
		c.cfg.Metrics.Gauge(metrics.PeersCached).Set(int64(len(c.live)))
	}
	c.mu.Unlock()
	c.closeEvicted(victims)
}

// Run drives the idle janitor until ctx is cancelled, then closes every
// remaining session.
func (c *Cache[T]) Run(ctx context.Context) {
	ticker := time.NewTicker(c.cfg.SweepEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			c.CloseAll()
			return
		case <-ticker.C:
			c.Sweep()
		}
	}
}

// CloseAll closes every live session and refuses further inserts.
func (c *Cache[T]) CloseAll() {
	var victims []evicted[T]
	c.mu.Lock()
	c.closed = true
	for site, e := range c.live {
		victims = append(victims, evicted[T]{site: site, sess: e.sess})
		delete(c.live, site)
	}
	c.cfg.Metrics.Gauge(metrics.PeersCached).Set(0)
	c.mu.Unlock()
	c.closeEvicted(victims)
}
