package sim

import (
	"fmt"
	"sort"
	"time"

	"gridproxy/internal/failure"
	"gridproxy/internal/membership"
	"gridproxy/internal/proto"
)

// The round-based control-plane simulator behind E11 and E12. It drives
// N real membership.Directory instances (the code the proxies run) on a
// single goroutine with a logical clock, over a seeded failure.Chaos
// matrix. Each exchange is the directory's own Offer, Answer and Absorb,
// the halves core's gossip driver calls, with genuine
// proto.GossipSync/GossipDelta messages whose encoded bytes are counted,
// so convergence rounds, traffic and partition verdicts measure the
// actual protocol. No proxies, tunnels or TLS are instantiated: at
// N=1000 the control plane alone is under test. One seed replays a whole
// run bit-for-bit.
//
// Each simulated mechanism mirrors one code path in internal/core:
//
//	gossip round         gossipRound / gossipTo / handleGossipSync
//	failed exchange      dialOnDemand failure → suspectSite
//	indirect probe       (*Proxy).confirmUnreachable
//	resurrection probe   gossipRound's DeadProbeTargets exchange
//	reschedule + fence   rescheduleSite / addFence / deliverFences
//	fence receipt        handleFenceNotice / handlePrepareSpawn fencing
//
// The only modelled state beyond the directories is the job ledger (which ranks run where, at what epoch): exactly the state the
// fencing protocol exists to protect.

// The simulator's constants. Fanouts are core's defaults, and a round is
// one logical second. Dead entries are kept longer than any scenario, so
// resurrection probes have them to probe. The Lifeguard health cap is
// below production's, and the job's world size fixed: E12's bars are
// measured on these values.
const (
	gossipFanout  = 3
	probeFanout   = 2
	roundEvery    = time.Second
	deadRetention = time.Hour
	healthMax     = 4
	jobRanks      = 16
)

// GridConfig parameterizes a simulated grid. E11 and E12 differ only in
// it.
type GridConfig struct {
	// Sites is the grid size N (minimum 2).
	Sites int
	// Seed seeds the chaos matrix and every directory; 0 is replaced by 1.
	Seed int64
	// Mesh starts every directory knowing every site. Otherwise every
	// site knows only the bootstrap peer, site 0 — the worst case the
	// README quickstart describes.
	Mesh bool
	// SuspectAfter, DeadAfter and VouchWindow pass through to
	// membership.Config; zero takes its defaults.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	VouchWindow  time.Duration
	// RepublishEvery republishes each site's summary every this many
	// rounds, as the proxy's SummaryEvery does; 0 never republishes.
	RepublishEvery int
}

// RoundStats summarizes one simulated round across all proxies.
type RoundStats struct {
	Round int
	// Bytes and Msgs total the encoded GossipSync/GossipDelta bodies
	// sent grid-wide this round (wire framing adds a small constant per
	// message, identical for every scheme compared).
	Bytes int64
	Msgs  int64
}

// fence is the simulator's pendingFence: site must kill its copies of
// ranks below epoch before the ledger is safe against a heal.
type fence struct {
	site  int
	epoch uint64
	ranks []int
}

// Grid is N directories, a chaos matrix, and the job ledger.
type Grid struct {
	cfg   GridConfig
	chaos *failure.Chaos
	clock time.Time
	round int

	names []string
	dirs  []*membership.Directory
	index map[string]int

	// wasDead is directory i's previous Dead verdict about site j, for
	// transition counting; deadRow[i] counts row i's true cells.
	wasDead [][]bool
	deadRow []int

	// Job ledger (origin = site 0). assign is the origin's intent;
	// copies[rank][site] = epoch are the live copies actually running.
	epoch  uint64
	assign []int
	copies []map[int]uint64
	fences []*fence

	// Counters accumulated across Step calls.
	FalseDead       int
	DeadTransitions int
	Reschedules     int
	FencesDelivered int
	ProbeVetoes     int
	Escalations     int
}

// NewGrid builds the grid at logical time zero: every directory holds
// itself with a fresh status summary, and the sites its topology names.
func NewGrid(cfg GridConfig) (*Grid, error) {
	if cfg.Sites < 2 {
		return nil, fmt.Errorf("sim: grid needs at least 2 sites, got %d", cfg.Sites)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	g := &Grid{
		cfg:   cfg,
		chaos: failure.NewChaos(cfg.Seed, nil),
		// Any fixed epoch works: the clock is purely logical.
		clock:   time.Unix(1_700_000_000, 0),
		index:   make(map[string]int, cfg.Sites),
		deadRow: make([]int, cfg.Sites),
	}
	for i := 0; i < cfg.Sites; i++ {
		name := fmt.Sprintf("s%04d", i)
		g.names = append(g.names, name)
		g.index[name] = i
		g.wasDead = append(g.wasDead, make([]bool, cfg.Sites))
	}
	for i := 0; i < cfg.Sites; i++ {
		d := membership.New(membership.Config{
			Site:          g.names[i],
			Addr:          "wan." + g.names[i],
			SuspectAfter:  cfg.SuspectAfter,
			DeadAfter:     cfg.DeadAfter,
			DeadRetention: deadRetention,
			VouchWindow:   cfg.VouchWindow,
			HealthMax:     healthMax,
			Seed:          cfg.Seed*131 + int64(i) + 1,
			Now:           func() time.Time { return g.clock },
		})
		d.SetLocalSummary(g.summaryFor(i))
		for j := 0; j < cfg.Sites; j++ {
			if j != i && (cfg.Mesh || j == 0) {
				d.ObserveAlive(g.names[j], "wan."+g.names[j])
			}
		}
		g.dirs = append(g.dirs, d)
	}
	// The job, from origin site 0: its ranks spaced evenly across the
	// other sites (so a partition of any contiguous site range strands
	// some of them), at epoch 1 — the initial two-phase launch, before
	// any faults.
	g.epoch = 1
	for r := 0; r < jobRanks; r++ {
		site := 1 + r*(cfg.Sites-1)/jobRanks
		g.assign = append(g.assign, site)
		g.copies = append(g.copies, map[int]uint64{site: 1})
	}
	return g, nil
}

// Chaos exposes the fault controller for scenario scripting.
func (g *Grid) Chaos() *failure.Chaos { return g.chaos }

// Dir exposes one site's directory (tests poke failures in directly).
func (g *Grid) Dir(i int) *membership.Directory { return g.dirs[i] }

// Sites returns the grid size; Round the current logical round.
func (g *Grid) Sites() int { return g.cfg.Sites }
func (g *Grid) Round() int { return g.round }

// Name returns site i's name, for scenario scripts addressing the chaos
// controller.
func (g *Grid) Name(i int) string { return g.names[i] }

func (g *Grid) summaryFor(i int) proto.SiteStatus {
	return proto.SiteStatus{
		Site:          g.names[i],
		Nodes:         8,
		NodesUp:       8,
		CPUFreePct:    75,
		RAMFreeMB:     16 << 10,
		DiskFreeMB:    1 << 20,
		Load1:         0.5,
		RunningProcs:  3,
		CollectedUnix: g.clock.Unix(),
	}
}

// Step advances one round: apply the script, run the origin's job
// control (reschedules, fence delivery), republish summaries on cadence,
// run every site's gossip round against the chaos matrix in index order,
// and account Dead transitions. Deterministic given the seed.
func (g *Grid) Step() RoundStats {
	g.round++
	g.clock = g.clock.Add(roundEvery)
	g.chaos.AdvanceTo(g.round)
	g.originControl()
	g.deliverFences()
	republish := g.cfg.RepublishEvery > 0 && g.round%g.cfg.RepublishEvery == 0
	st := RoundStats{Round: g.round}
	for i, d := range g.dirs {
		if republish {
			d.SetLocalSummary(g.summaryFor(i))
		}
		g.siteRound(i, &st)
	}
	g.account()
	return st
}

// siteRound runs one site's gossip round as core.(*Proxy).gossipRound
// does: sweep, sample targets and one retained dead entry, one HotPush
// shared by every exchange, then an exchange with each target — a failed
// one takes the dial-failure path — and a forced-digest resurrection
// probe, whose failure changes nothing (the proxy's dial breaker
// fast-fails most of them).
func (g *Grid) siteRound(i int, st *RoundStats) {
	d := g.dirs[i]
	d.Sweep()
	targets := d.Sample(gossipFanout)
	dead := d.DeadProbeTargets(1)
	if len(targets)+len(dead) == 0 {
		return
	}
	push := d.HotPush()
	for _, t := range targets {
		sync := d.Offer(t.Site, push, false)
		if g.chaos.ExchangeOK(g.names[i], t.Site) {
			g.exchange(i, t, sync, st)
			continue
		}
		d.NoteLocalProbe(false)
		if g.confirmUnreachable(i, t.Site) {
			g.Escalations++
			d.ObserveSuspect(t.Site)
		} else {
			g.ProbeVetoes++
		}
	}
	for _, t := range dead {
		if g.chaos.ExchangeOK(g.names[i], t.Site) {
			g.exchange(i, t, d.Offer(t.Site, push, true), st)
		}
	}
}

// exchange carries one sync to its target and the answer back, counting
// both bodies' encoded bytes.
func (g *Grid) exchange(i int, t membership.Entry, sync *proto.GossipSync, st *RoundStats) {
	delta := g.dirs[g.index[t.Site]].Answer(sync)
	g.dirs[i].Absorb(t.Site, t.Addr, delta)
	st.Bytes += int64(len(proto.Append(nil, sync)) + len(proto.Append(nil, delta)))
	st.Msgs += 2
}

// confirmUnreachable emulates (*Proxy).confirmUnreachable: ask up to
// probeFanout confirmers; true means nobody reached the target and
// suspicion is warranted. A confirmation needs both the prober→confirmer
// exchange and the confirmer→target probe to succeed.
func (g *Grid) confirmUnreachable(i int, target string) bool {
	for _, c := range g.dirs[i].Confirmers(target, probeFanout) {
		if g.chaos.ExchangeOK(g.names[i], c.Site) && g.chaos.ExchangeOK(c.Site, target) {
			return false
		}
	}
	return true
}

// originControl is the origin proxy's reschedule reaction, as
// core.rescheduleSite: when the origin's directory convicts a site
// hosting ranks, move those ranks to a live site under a new epoch and
// record a fence for the convicted site. The convicted site's copies
// keep "running" — it is partitioned, not stopped — which is exactly
// the split-brain the fence exists to resolve.
func (g *Grid) originControl() {
	deadRanks := make(map[int][]int) // dead site -> its ranks
	for r, site := range g.assign {
		if site != 0 && g.originSees(site, membership.Dead) {
			deadRanks[site] = append(deadRanks[site], r)
		}
	}
	deadSites := make([]int, 0, len(deadRanks))
	for site := range deadRanks {
		deadSites = append(deadSites, site)
	}
	sort.Ints(deadSites)
	for _, dead := range deadSites {
		dest := g.pickAlive(dead)
		if dest < 0 {
			continue // nowhere to go; retry next round
		}
		g.epoch++
		for _, r := range deadRanks[dead] {
			g.assign[r] = dest
			g.copies[r][dest] = g.epoch
		}
		g.fences = append(g.fences, &fence{site: dead, epoch: g.epoch, ranks: deadRanks[dead]})
		g.Reschedules++
	}
}

// originSees reports whether the origin's directory holds site i in
// state s.
func (g *Grid) originSees(i int, s membership.State) bool {
	e, ok := g.dirs[0].Lookup(g.names[i])
	return ok && e.State == s
}

// pickAlive returns the lowest-indexed site the origin sees Alive,
// excluding the convicted one (0, the origin itself, is always a
// candidate — a proxy may host its own job's ranks).
func (g *Grid) pickAlive(exclude int) int {
	for i := 0; i < g.cfg.Sites; i++ {
		if i != exclude && (i == 0 || g.originSees(i, membership.Alive)) {
			return i
		}
	}
	return -1
}

// deliverFences retries pending fences, as (*Proxy).deliverFences: a
// fence lands once the origin↔site exchange works again, and the site
// kills its copies of the fenced ranks below the fence epoch.
func (g *Grid) deliverFences() {
	kept := g.fences[:0]
	for _, f := range g.fences {
		if !g.chaos.ExchangeOK(g.names[0], g.names[f.site]) {
			kept = append(kept, f)
			continue
		}
		for _, r := range f.ranks {
			if e, ok := g.copies[r][f.site]; ok && e < f.epoch {
				delete(g.copies[r], f.site)
			}
		}
		g.FencesDelivered++
	}
	g.fences = kept
}

// account counts Dead transitions, splitting off the false ones — a
// directory convicting a site it was never cut apart from. A directory
// that holds no verdict now and held none last round is skipped.
func (g *Grid) account() {
	for i, d := range g.dirs {
		if g.deadRow[i] == 0 && d.Convicted() == 0 {
			continue
		}
		for _, e := range d.Entries() {
			j := g.index[e.Site]
			dead := e.State == membership.Dead
			if dead && !g.wasDead[i][j] {
				g.DeadTransitions++
				g.deadRow[i]++
				if !g.chaos.EverCut(g.names[i], e.Site) {
					g.FalseDead++
				}
			} else if !dead && g.wasDead[i][j] {
				g.deadRow[i]--
			}
			g.wasDead[i][j] = dead
		}
	}
}

// DoubleRuns counts ranks with live copies at two or more sites — the
// split-brain double-execution the fencing protocol must clear.
func (g *Grid) DoubleRuns() int {
	n := 0
	for _, c := range g.copies {
		if len(c) > 1 {
			n++
		}
	}
	return n
}

// PendingFences returns how many fences await delivery.
func (g *Grid) PendingFences() int { return len(g.fences) }

// DeadLinks counts directory entries currently marked Dead, grid-wide;
// zero means every site again sees every other site as live.
func (g *Grid) DeadLinks() int {
	n := 0
	for _, dead := range g.deadRow {
		n += dead
	}
	return n
}

// Converged counts directories holding a status summary for every site.
func (g *Grid) Converged() int {
	n := 0
	for _, d := range g.dirs {
		if d.Len() == g.cfg.Sites && d.Summaries() == g.cfg.Sites {
			n++
		}
	}
	return n
}

// PendingRumors sums the hot-entry counts across every directory; zero
// means the rumor mill has drained and rounds carry only empty syncs
// plus the anti-entropy lottery.
func (g *Grid) PendingRumors() int {
	n := 0
	for _, d := range g.dirs {
		n += d.PendingRumors()
	}
	return n
}

// AllPairsRefresh computes the per-proxy control cost of ONE full status
// refresh under the pre-gossip baseline: a StatusQuery RPC to each of
// the other N-1 proxies, each answering a StatusReport carrying its
// local summary. The same real encodings (and each site's actual
// summary) are used, so the comparison is honest — and the baseline pays
// this O(N) cost per proxy on every refresh, over N-1 standing tunnels,
// where gossip's steady rounds cost O(gossipFanout).
func (g *Grid) AllPairsRefresh() (bytes, msgs int64) {
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
