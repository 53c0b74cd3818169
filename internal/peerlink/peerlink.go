// Package peerlink is the connectivity half of the membership split: the
// directory (internal/membership) knows every site and judges which are
// alive; this package holds the live tunnels to the few in active use.
// Cache is the single owner of every proxy-to-proxy session — it dials
// on demand, shares one dial among concurrent callers, backs off a site
// whose dials keep failing (the circuit breaker), evicts by LRU past a
// cap and closes what sits idle. FanOut runs one call per site
// concurrently under a per-target deadline.
//
// The package knows nothing about the proxy: the owner supplies the dial
// function and the sessions, so the cache is testable with fakes.
package peerlink

import "time"

// Session is a connection the cache can hold: Done reports its death,
// Close tears it down. A session that also has a
//
//	Busy() bool
//
// method is asked before the cache closes it on its own initiative (LRU
// eviction, idle close): a busy session carries work the cache cannot
// see — open data streams — and is left alone exactly as a checked-out
// one is.
type Session interface {
	Done() <-chan struct{}
	Close() error
}

// Config carries the control-plane timing knobs every proxy-to-proxy
// exchange shares. The zero value means "use defaults".
type Config struct {
	// RPCTimeout is the deadline applied to control-plane calls that
	// arrive without one, and to one whole connect (dial, TLS, control
	// stream, Hello). Default 10s; negative disables.
	RPCTimeout time.Duration
	// HelloTimeout is how long an inbound session may take to identify
	// itself before it is reaped (default 10s).
	HelloTimeout time.Duration
	// StatusTTL is the staleness budget for gossiped site summaries:
	// Status reads served entirely from summaries younger than this
	// count as cache hits, older ones as misses (the directory still
	// answers either way — freshness arrives by gossip, not by refetch).
	// Default 0: every directory-served read counts as a miss.
	StatusTTL time.Duration
}

// Default knob values.
const (
	DefaultRPCTimeout   = 10 * time.Second
	DefaultHelloTimeout = 10 * time.Second
)

// WithDefaults fills zero fields with defaults. A negative RPCTimeout is
// kept (it means "disabled").
func (c Config) WithDefaults() Config {
	if c.RPCTimeout == 0 {
		c.RPCTimeout = DefaultRPCTimeout
	}
	if c.HelloTimeout <= 0 {
		c.HelloTimeout = DefaultHelloTimeout
	}
	return c
}
