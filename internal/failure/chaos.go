package failure

import (
	"math/rand"
	"sort"
	"sync"

	"gridproxy/internal/metrics"
)

// Chaos is the grid-level fault controller behind experiment E12: a
// deterministic, seeded model of the failure modes a WAN federation
// exhibits, instead of FlakyNetwork's binary dead-or-alive site. It holds
//
//   - a pairwise, *directed* reachability matrix (partitions and
//     asymmetric routing failures: A reaching B does not imply B
//     reaching A),
//   - a per-directed-link loss probability for gray failures — links
//     that are alive but lossy, the mode that provokes false suspicion,
//   - a scripted schedule (partition at step t₁, flap, heal at t₂)
//     keyed by a logical step counter, so a whole scenario replays
//     identically from one seed.
//
// Its consumer is the round-based simulator (internal/sim.Grid, behind
// E11 and E12), which consults the matrix via ExchangeOK/EverCut on a
// single goroutine, where the seed makes entire runs bit-for-bit
// reproducible.
// Delay and rate on live connections are transport.Link's, not this
// package's.

type linkKey struct{ from, to string }

// chaosEvent is one scripted action, applied when the logical step
// counter reaches At.
type chaosEvent struct {
	at  int
	seq int
	fn  func(*Chaos)
}

// Chaos is the seeded fault controller. Methods are safe for
// concurrent use.
type Chaos struct {
	seed int64
	reg  *metrics.Registry

	mu   sync.Mutex
	rng  *rand.Rand
	cut  map[linkKey]bool
	loss map[linkKey]float64
	// ever records every directed link the script has cut, healed or not.
	ever map[linkKey]bool

	script  []chaosEvent
	applied int
	step    int
}

// NewChaos returns a controller whose every random draw derives from
// seed. Seed 0 is replaced by 1 so the printed seed always reproduces
// the run (this package never consults the wall clock for entropy).
func NewChaos(seed int64, reg *metrics.Registry) *Chaos {
	if seed == 0 {
		seed = 1
	}
	return &Chaos{
		seed: seed,
		reg:  reg,
		rng:  rand.New(rand.NewSource(seed)),
		cut:  make(map[linkKey]bool),
		ever: make(map[linkKey]bool),
		loss: make(map[linkKey]float64),
	}
}

// Seed returns the seed that reproduces this run; experiments print it.
func (c *Chaos) Seed() int64 { return c.seed }

// CutOneWay makes traffic from→to black-hole until the link heals. The
// reverse direction is untouched — the asymmetric case a symmetric
// fail/heal switch cannot express.
func (c *Chaos) CutOneWay(from, to string) {
	c.mu.Lock()
	c.cutLocked(from, to)
	c.mu.Unlock()
}

// Partition splits the named groups from each other: every directed
// link between sites of different groups is cut. Links within a group,
// and to sites not named in any group, are untouched.
func (c *Chaos) Partition(groups ...[]string) {
	member := make(map[string]int)
	for gi, g := range groups {
		for _, s := range g {
			member[s] = gi
		}
	}
	c.mu.Lock()
	for a, ga := range member {
		for b, gb := range member {
			if a != b && ga != gb {
				c.cutLocked(a, b)
			}
		}
	}
	c.mu.Unlock()
}

// cutLocked records a directed cut. Callers hold c.mu.
func (c *Chaos) cutLocked(from, to string) {
	k := linkKey{from, to}
	if c.cut[k] {
		return
	}
	c.cut[k] = true
	c.ever[k] = true
	c.reg.Counter(metrics.ChaosCuts).Inc()
}

// EverCut reports whether either direction between a and b has ever been
// cut. A verdict between sites never cut apart is the gray-failure
// false positive the simulator counts.
func (c *Chaos) EverCut(a, b string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ever[linkKey{a, b}] || c.ever[linkKey{b, a}]
}

// HealLink restores both directions between a and b.
func (c *Chaos) HealLink(a, b string) {
	c.mu.Lock()
	c.healLocked(a, b)
	c.healLocked(b, a)
	c.mu.Unlock()
}

// HealAll clears every cut (loss persists; gray failure is healed via
// SetLoss with zero).
func (c *Chaos) HealAll() {
	c.mu.Lock()
	for k := range c.cut {
		c.healLocked(k.from, k.to)
	}
	c.mu.Unlock()
}

func (c *Chaos) healLocked(from, to string) {
	k := linkKey{from, to}
	if !c.cut[k] {
		return
	}
	delete(c.cut, k)
	c.reg.Counter(metrics.ChaosHeals).Inc()
}

// SetLoss makes each exchange over the directed link from→to fail with
// probability p (0 heals it).
func (c *Chaos) SetLoss(from, to string, p float64) {
	k := linkKey{from, to}
	c.mu.Lock()
	if p == 0 {
		delete(c.loss, k)
	} else {
		c.loss[k] = p
	}
	c.mu.Unlock()
}

// ExchangeOK is the simulator's per-exchange verdict for one
// request/response against the matrix: false if either direction is
// cut, and false with the link's loss probability otherwise (one
// seeded draw per lossy direction, so runs replay exactly).
func (c *Chaos) ExchangeOK(from, to string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cut[linkKey{from, to}] || c.cut[linkKey{to, from}] {
		return false
	}
	for _, k := range [2]linkKey{{from, to}, {to, from}} {
		if p := c.loss[k]; p > 0 && c.rng.Float64() < p {
			c.reg.Counter(metrics.ChaosRefusedOps).Inc()
			return false
		}
	}
	return true
}

// At schedules fn to run when AdvanceTo reaches step. Events at the
// same step run in registration order. Typical script:
//
//	ch.At(10, func(c *Chaos) { c.Partition(maj, min) })
//	ch.At(40, func(c *Chaos) { c.HealAll() })
func (c *Chaos) At(step int, fn func(*Chaos)) {
	c.mu.Lock()
	ev := chaosEvent{at: step, seq: len(c.script), fn: fn}
	c.script = append(c.script, ev)
	sort.SliceStable(c.script, func(i, j int) bool { return c.script[i].at < c.script[j].at })
	c.mu.Unlock()
}

// AdvanceTo moves the logical step counter forward, applying every
// scripted event that has come due. The simulator calls this once per
// round; live tests can drive it from their own clock.
func (c *Chaos) AdvanceTo(step int) {
	c.mu.Lock()
	if step > c.step {
		c.step = step
	}
	var due []func(*Chaos)
	for c.applied < len(c.script) && c.script[c.applied].at <= c.step {
		due = append(due, c.script[c.applied].fn)
		c.applied++
	}
	c.mu.Unlock()
	for _, fn := range due {
		fn(c)
	}
}

// Step returns the current logical step.
func (c *Chaos) Step() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.step
}
