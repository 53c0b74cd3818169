package sim

import (
	"fmt"
	"time"

	"gridproxy/internal/membership"
	"gridproxy/internal/proto"
)

// The gossip control-plane simulator behind E11. It drives N real
// membership.Directory instances (the same code the proxies run) on a
// single goroutine with a logical clock, exchanging genuine
// proto.GossipSync/GossipDelta messages and counting their encoded
// bytes, so convergence rounds and traffic figures measure the actual
// protocol rather than a model of it. No proxies, tunnels or TLS are
// instantiated: at N=1000 the control plane alone is under test.
//
// Topology is the worst-case bootstrap the README quickstart describes:
// every site starts knowing only site 0, and must learn the other N-1
// sites (addresses, liveness, status summaries) purely through gossip.

// The gossip simulators' constants. Fanout is core's; a round is one
// logical second.
const (
	gossipFanout = 3
	roundEvery   = time.Second
)

// gossipSuspectAfter is the suspicion timeout of GossipGrid's sweep: an
// hour, effectively off, because this simulator studies dissemination of
// one status snapshot (nothing republishes summaries, so production's
// summary-refresh heartbeat that keeps entries fresh is absent;
// membership's own tests exercise the suspicion state machine).
const gossipSuspectAfter = time.Hour

// GossipGridConfig parameterizes a simulated gossip control plane.
type GossipGridConfig struct {
	// Sites is the grid size N (minimum 2).
	Sites int
	// Seed makes runs reproducible; 0 lets each directory derive its
	// seed from its site name (also deterministic).
	Seed int64
	// DeadAfter passes through to the sweep: since death rumors
	// demote to locally-timed suspicion (membership §17 demotion), each
	// directory convicts a rumored-dead site only after its own
	// DeadAfter clock runs out. Defaults to the membership default.
	DeadAfter time.Duration
	// VouchWindow passes through to the vouching override (zero takes
	// the membership default of SuspectAfter/2, negative disables). Note
	// the interaction with this simulator's 1h SuspectAfter: the derived
	// window is 30 logical minutes, and every site here exchanges with a
	// large fraction of the grid every few rounds, so essentially
	// everyone holds recent direct contact with any given site and a
	// death rumor is vouched back down grid-wide for the whole window.
	// Dissemination tests disable vouching outright (membership's own
	// tests exercise the vouch machinery).
	VouchWindow time.Duration
}

// GossipRoundStats summarizes one simulated round across all proxies.
type GossipRoundStats struct {
	Round int
	// Bytes and Msgs total the encoded GossipSync/GossipDelta bodies
	// sent grid-wide this round (wire framing adds a small constant per
	// message, identical for every scheme compared).
	Bytes int64
	Msgs  int64
	// Digests counts syncs that carried a full directory digest.
	Digests int64
	// Converged counts directories holding a status summary for every
	// site in the grid.
	Converged int
}

// GossipGrid is N directories plus the logical clock and bookkeeping to
// run them round by round.
type GossipGrid struct {
	cfg   GossipGridConfig
	clock time.Time
	round int

	names []string
	addrs []string
	dirs  []*membership.Directory
	index map[string]int

	stopped    []bool
	converged  []bool
	nConverged int
}

// NewGossipGrid builds the grid at logical time zero: every site's
// directory holds itself (with a fresh status summary) and the single
// bootstrap peer, site 0.
func NewGossipGrid(cfg GossipGridConfig) (*GossipGrid, error) {
	if cfg.Sites < 2 {
		return nil, fmt.Errorf("sim: gossip grid needs at least 2 sites, got %d", cfg.Sites)
	}
	g := &GossipGrid{
		cfg: cfg,
		// Any fixed epoch works: the clock is purely logical.
		clock:     time.Unix(1_700_000_000, 0),
		index:     make(map[string]int, cfg.Sites),
		stopped:   make([]bool, cfg.Sites),
		converged: make([]bool, cfg.Sites),
	}
	for i := 0; i < cfg.Sites; i++ {
		name := fmt.Sprintf("s%04d", i)
		g.names = append(g.names, name)
		g.addrs = append(g.addrs, "wan."+name)
		g.index[name] = i
	}
	for i := 0; i < cfg.Sites; i++ {
		seed := cfg.Seed
		if seed != 0 {
			seed = seed*131 + int64(i) + 1
		}
		d := membership.New(membership.Config{
			Site:         g.names[i],
			Addr:         g.addrs[i],
			SuspectAfter: gossipSuspectAfter,
			DeadAfter:    cfg.DeadAfter,
			VouchWindow:  cfg.VouchWindow,
			Seed:         seed,
			Now:          func() time.Time { return g.clock },
		})
		d.SetLocalSummary(proto.SiteStatus{
			Site:          g.names[i],
			Nodes:         8,
			NodesUp:       8,
			CPUFreePct:    75,
			RAMFreeMB:     16 << 10,
			DiskFreeMB:    1 << 20,
			Load1:         0.5,
			RunningProcs:  3,
			CollectedUnix: g.clock.Unix(),
		})
		if i != 0 {
			d.ObserveAlive(g.names[0], g.addrs[0])
		}
		g.dirs = append(g.dirs, d)
	}
	return g, nil
}

// Sites returns the grid size.
func (g *GossipGrid) Sites() int { return g.cfg.Sites }

// Dir exposes one site's directory (tests poke failures in directly).
func (g *GossipGrid) Dir(i int) *membership.Directory { return g.dirs[i] }

// Stop takes a site down: it neither initiates nor answers exchanges —
// crucially, its directory can no longer refute rumors of its death.
// Peers that pick it as a target see the failed exchange as suspicion
// evidence, exactly as core.gossipTo does on a failed dial.
func (g *GossipGrid) Stop(i int) { g.stopped[i] = true }

// PendingRumors sums the hot-entry counts across every directory; zero
// means the rumor mill has drained and rounds carry only empty syncs
// plus the anti-entropy lottery.
func (g *GossipGrid) PendingRumors() int {
	n := 0
	for _, d := range g.dirs {
		n += d.PendingRumors()
	}
	return n
}

// Step advances the logical clock and runs one gossip round for every
// site, mirroring core.(*Proxy).gossipRound / handleGossipSync exactly:
// sweep, sample gossipFanout targets, push one HotPush batch at each (with a
// digest when membership.ShouldDigest says so), and merge the pulled
// delta. Sites run sequentially in index order — deterministic given
// the seeds.
func (g *GossipGrid) Step() GossipRoundStats {
	g.round++
	g.clock = g.clock.Add(roundEvery)
	st := GossipRoundStats{Round: g.round}
	for i, d := range g.dirs {
		if g.stopped[i] {
			continue
		}
		d.Sweep()
		targets := d.Sample(gossipFanout)
		if len(targets) == 0 {
			continue
		}
		push := d.HotPush()
		for _, t := range targets {
			if g.stopped[g.index[t.Site]] {
				// Dead dial: no bytes move, and the failure is direct
				// evidence against the target (core.gossipTo).
				d.ObserveSuspect(t.Site)
				continue
			}
			sync := &proto.GossipSync{From: g.names[i], Addr: g.addrs[i], Entries: push}
			if d.ShouldDigest(t.Site) {
				sync.HasDigest = true
				sync.Digest = d.Digest()
				st.Digests++
			}
			st.Bytes += int64(len(proto.Append(nil, sync)))
			st.Msgs++

			// Receiver side, as core.(*Proxy).handleGossipSync.
			peer := g.dirs[g.index[t.Site]]
			peer.ObserveAlive(sync.From, sync.Addr)
			if len(sync.Entries) > 0 {
				peer.Merge(sync.Entries)
			}
			delta := &proto.GossipDelta{From: t.Site}
			if sync.HasDigest {
				delta.Entries = peer.DeltaFor(sync.Digest)
			} else {
				delta.Entries = peer.HotPush()
			}
			st.Bytes += int64(len(proto.Append(nil, delta)))
			st.Msgs++

			// Initiator side, as core.(*Proxy).gossipTo.
			d.ObserveAlive(t.Site, t.Addr)
			if len(delta.Entries) > 0 {
				d.Merge(delta.Entries)
			}
		}
	}
	g.refreshConverged()
	st.Converged = g.nConverged
	return st
}

// refreshConverged updates the per-site convergence flags. A site never
// un-converges in this scenario (summaries are not retracted), so each
// directory is only re-checked until it first converges.
func (g *GossipGrid) refreshConverged() {
	for i, d := range g.dirs {
		if g.converged[i] {
			continue
		}
		if d.Len() == g.cfg.Sites && d.Summaries() == g.cfg.Sites {
			g.converged[i] = true
			g.nConverged++
		}
	}
}

// Converged reports how many directories hold a summary for all N sites.
func (g *GossipGrid) Converged() int { return g.nConverged }

// AllPairsRefresh computes the per-proxy control cost of ONE full status
// refresh under the pre-gossip baseline this PR replaced: a StatusQuery
// RPC to each of the other N-1 proxies, each answering a StatusReport
// carrying its local summary. The same real encodings (and each site's
// actual summary) are used, so the comparison is honest — and the
// baseline pays this O(N) cost per proxy on every refresh, over N-1
// standing tunnels, where gossip's steady rounds cost O(gossipFanout).
func (g *GossipGrid) AllPairsRefresh() (bytes, msgs int64) {
	query := int64(len(proto.Append(nil, &proto.StatusQuery{})))
	for j, d := range g.dirs {
		if j == 0 {
			continue
		}
		e, ok := d.Lookup(g.names[j])
		if !ok {
			continue
		}
		report := &proto.StatusReport{Sites: []proto.SiteStatus{e.Summary}}
		bytes += query + int64(len(proto.Append(nil, report)))
		msgs += 2
	}
	return bytes, msgs
}
