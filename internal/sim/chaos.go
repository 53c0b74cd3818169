package sim

import (
	"fmt"
	"sort"
	"time"

	"gridproxy/internal/failure"
	"gridproxy/internal/membership"
	"gridproxy/internal/proto"
)

// The partition-tolerance simulator behind E12. Where GossipGrid
// measures dissemination cost on a healthy network, ChaosGrid puts the
// same real membership.Directory instances on top of a seeded
// failure.Chaos matrix and drives the full control-plane reaction the
// proxies implement: Lifeguard health feeding, indirect probing before
// suspicion, resurrection probes at retained dead entries, and the
// launch-epoch fencing that keeps a rescheduled job from running twice
// after a partition heals. One seed replays the whole scenario
// bit-for-bit: every random draw comes from the chaos controller or a
// per-directory seeded rng, and the clock is logical.
//
// Each simulated mechanism mirrors one code path in internal/core:
//
//	gossip exchange      gossipRound / gossipTo / handleGossipSync
//	failed exchange      dialOnDemand failure → suspectSite
//	indirect probe       (*Proxy).confirmUnreachable
//	resurrection probe   (*Proxy).deadProbe
//	reschedule + fence   rescheduleSite / addFence / deliverFences
//	fence receipt        handleFenceNotice / handlePrepareSpawn fencing
//
// The simulator trusts the real Directory for all membership state; the
// only modelled state is the job ledger (which ranks run where, at what
// epoch) — exactly the state the fencing protocol exists to protect.

// ChaosGrid's scenario constants. The suspicion timeouts are four
// rounds each, and HealthMax and DeadRetention differ from production's
// on purpose: E12's bars are measured on these values.
const (
	// probeFanout is how many confirmers are asked before a failed
	// exchange escalates to suspicion.
	probeFanout = 2
	// summaryEvery republishes every site's local summary each this many
	// rounds. Republish is what keeps heardAt fresh across the grid in
	// production; without it every entry eventually goes stale and the
	// suspicion sweep convicts healthy sites.
	summaryEvery      = 3
	chaosSuspectAfter = 4 * roundEvery
	chaosDeadAfter    = 4 * roundEvery
	// chaosDeadRetention keeps dead entries around for resurrection
	// probes: longer than any scenario.
	chaosDeadRetention = time.Hour
	// chaosHealthMax caps the Lifeguard local-health score.
	chaosHealthMax = 4
	// chaosRanks is the simulated job's world size, assigned across
	// sites 1..Sites-1 from origin site 0.
	chaosRanks = 16
)

// ChaosGridConfig parameterizes a simulated partition scenario.
type ChaosGridConfig struct {
	// Sites is the grid size N (minimum 3: prober, target, confirmer).
	Sites int
	// Seed makes the run reproducible; 0 is replaced by 1.
	Seed int64
}

// chaosFence is the simulator's pendingFence: site must kill its copies
// of ranks below epoch before the ledger is safe against a heal.
type chaosFence struct {
	site  int
	epoch uint64
	ranks []int
}

// ChaosGrid is N directories, a chaos matrix, and the job ledger the
// fencing protocol protects.
type ChaosGrid struct {
	cfg   ChaosGridConfig
	chaos *failure.Chaos
	clock time.Time
	round int

	names []string
	dirs  []*membership.Directory
	index map[string]int

	// everCut records (undirected) whether a pair's link was ever cut by
	// the script; Dead verdicts between never-cut pairs are false
	// positives — the gray-failure acceptance bar.
	everCut [][]bool
	// wasDead is directory i's previous Dead verdict about site j, for
	// transition counting.
	wasDead [][]bool

	// Job ledger (origin = site 0). assign is the origin's intent;
	// copies[rank][site] = epoch are the live copies actually running.
	epoch  uint64
	assign []int
	copies []map[int]uint64
	fences []*chaosFence

	// Counters accumulated across Step calls.
	FalseDead       int
	DeadTransitions int
	Reschedules     int
	FencesDelivered int
	ProbeVetoes     int
	Escalations     int
}

// NewChaosGrid builds the grid fully converged at logical time zero:
// unlike GossipGrid's bootstrap worst case, every directory starts
// knowing every site (the scenario under test is partition reaction,
// not initial dissemination — E12 still waits for summary convergence
// before injecting faults).
func NewChaosGrid(cfg ChaosGridConfig) (*ChaosGrid, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Sites < 3 {
		return nil, fmt.Errorf("sim: chaos grid needs at least 3 sites, got %d", cfg.Sites)
	}
	g := &ChaosGrid{
		cfg:   cfg,
		chaos: failure.NewChaos(cfg.Seed, nil),
		clock: time.Unix(1_700_000_000, 0),
		index: make(map[string]int, cfg.Sites),
	}
	for i := 0; i < cfg.Sites; i++ {
		name := fmt.Sprintf("s%04d", i)
		g.names = append(g.names, name)
		g.index[name] = i
		g.everCut = append(g.everCut, make([]bool, cfg.Sites))
		g.wasDead = append(g.wasDead, make([]bool, cfg.Sites))
	}
	for i := 0; i < cfg.Sites; i++ {
		d := membership.New(membership.Config{
			Site:          g.names[i],
			Addr:          "wan." + g.names[i],
			SuspectAfter:  chaosSuspectAfter,
			DeadAfter:     chaosDeadAfter,
			DeadRetention: chaosDeadRetention,
			HealthMax:     chaosHealthMax,
			Seed:          cfg.Seed*131 + int64(i) + 1,
			Now:           func() time.Time { return g.clock },
		})
		d.SetLocalSummary(g.summaryFor(i))
		for j := 0; j < cfg.Sites; j++ {
			if j != i {
				d.ObserveAlive(g.names[j], "wan."+g.names[j])
			}
		}
		g.dirs = append(g.dirs, d)
	}
	// Job: chaosRanks ranks spaced evenly across the non-origin sites (so a
	// partition of any contiguous site range strands some of them),
	// epoch 1 — the initial two-phase launch, before any faults.
	g.epoch = 1
	for r := 0; r < chaosRanks; r++ {
		site := 1 + r*(cfg.Sites-1)/chaosRanks
		g.assign = append(g.assign, site)
		g.copies = append(g.copies, map[int]uint64{site: 1})
	}
	return g, nil
}

// Chaos exposes the fault controller for scenario scripting.
func (g *ChaosGrid) Chaos() *failure.Chaos { return g.chaos }

// Dir exposes one site's directory.
func (g *ChaosGrid) Dir(i int) *membership.Directory { return g.dirs[i] }

// Sites returns the grid size; Round the current logical round.
func (g *ChaosGrid) Sites() int { return g.cfg.Sites }
func (g *ChaosGrid) Round() int { return g.round }

// Name returns site i's name, for scenario scripts addressing the
// chaos controller.
func (g *ChaosGrid) Name(i int) string { return g.names[i] }

func (g *ChaosGrid) summaryFor(i int) proto.SiteStatus {
	return proto.SiteStatus{
		Site:          g.names[i],
		Nodes:         8,
		NodesUp:       8,
		CPUFreePct:    75,
		RAMFreeMB:     16 << 10,
		Load1:         0.5,
		RunningProcs:  3,
		CollectedUnix: g.clock.Unix(),
	}
}

// Step advances one round: apply the script, run the origin's job
// control (reschedules, fence delivery), republish summaries on
// cadence, run every site's gossip round against the chaos matrix, and
// account Dead transitions. Deterministic given the seed.
func (g *ChaosGrid) Step() {
	g.round++
	g.clock = g.clock.Add(roundEvery)
	g.chaos.AdvanceTo(g.round)
	g.noteCuts()
	g.originControl()
	g.deliverFences()
	republish := g.round%summaryEvery == 0
	for i, d := range g.dirs {
		if republish {
			d.SetLocalSummary(g.summaryFor(i))
		}
		g.siteRound(i)
	}
	g.account()
}

// noteCuts samples the reachability matrix so false-dead accounting
// knows which pairs the script ever partitioned or flapped.
func (g *ChaosGrid) noteCuts() {
	for i := 0; i < g.cfg.Sites; i++ {
		for j := i + 1; j < g.cfg.Sites; j++ {
			if g.everCut[i][j] {
				continue
			}
			if !g.chaos.Reachable(g.names[i], g.names[j]) || !g.chaos.Reachable(g.names[j], g.names[i]) {
				g.everCut[i][j] = true
				g.everCut[j][i] = true
			}
		}
	}
}

// siteRound runs one site's gossip round, mirroring
// core.(*Proxy).gossipRound against the chaos matrix.
func (g *ChaosGrid) siteRound(i int) {
	d := g.dirs[i]
	d.Sweep()
	targets := d.Sample(gossipFanout)
	push := d.HotPush()
	for _, t := range targets {
		j := g.index[t.Site]
		if !g.chaos.ExchangeOK(g.names[i], t.Site) {
			// dialOnDemand failure: local-health evidence, then
			// indirect confirmation before suspicion.
			d.NoteLocalProbe(false)
			if g.confirmUnreachable(i, j) {
				g.Escalations++
				d.ObserveSuspect(t.Site)
			} else {
				g.ProbeVetoes++
			}
			continue
		}
		d.NoteLocalProbe(true)
		g.exchange(i, j, push, d.ShouldDigest(t.Site))
	}
	// Resurrection probe at one retained dead entry, as
	// core.(*Proxy).deadProbe: forced digest both ways.
	for _, t := range d.DeadProbeTargets(1) {
		j := g.index[t.Site]
		if g.chaos.ExchangeOK(g.names[i], t.Site) {
			g.exchange(i, j, push, true)
		}
	}
}

// exchange runs one sync/delta round trip between live directories,
// as core.gossipTo and core.handleGossipSync.
func (g *ChaosGrid) exchange(i, j int, push []proto.GossipEntry, digest bool) {
	d, peer := g.dirs[i], g.dirs[j]
	sync := &proto.GossipSync{From: g.names[i], Addr: "wan." + g.names[i], Entries: push}
	if digest {
		sync.HasDigest = true
		sync.Digest = d.Digest()
	}
	peer.ObserveAlive(sync.From, sync.Addr)
	if len(sync.Entries) > 0 {
		peer.Merge(sync.Entries)
	}
	delta := &proto.GossipDelta{From: g.names[j]}
	if sync.HasDigest {
		peer.ObserveDigest(sync.Digest)
		delta.Entries = peer.DeltaFor(sync.Digest)
	} else {
		delta.Entries = peer.HotPush()
	}
	d.ObserveAlive(g.names[j], "wan."+g.names[j])
	if len(delta.Entries) > 0 {
		d.Merge(delta.Entries)
	}
}

// confirmUnreachable emulates (*Proxy).confirmUnreachable: ask up to
// probeFanout confirmers; true means nobody reached the target and
// suspicion is warranted. A confirmation needs both the prober→confirmer
// exchange and the confirmer→target probe to succeed.
func (g *ChaosGrid) confirmUnreachable(i, j int) bool {
	confirmers := g.dirs[i].Confirmers(g.names[j], probeFanout)
	if len(confirmers) == 0 {
		return true
	}
	for _, c := range confirmers {
		if g.chaos.ExchangeOK(g.names[i], c.Site) && g.chaos.ExchangeOK(c.Site, g.names[j]) {
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
func (g *ChaosGrid) originControl() {
	origin := g.dirs[0]
	deadRanks := make(map[int][]int) // dead site -> its ranks
	for r, site := range g.assign {
		if site == 0 {
			continue
		}
		if e, ok := origin.Lookup(g.names[site]); ok && e.State == membership.Dead {
			deadRanks[site] = append(deadRanks[site], r)
		}
	}
	if len(deadRanks) == 0 {
		return
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
		g.fences = append(g.fences, &chaosFence{site: dead, epoch: g.epoch, ranks: deadRanks[dead]})
		g.Reschedules++
	}
}

// pickAlive returns the lowest-indexed site the origin sees Alive,
// excluding the convicted one (0, the origin itself, is always a
// candidate — a proxy may host its own job's ranks).
func (g *ChaosGrid) pickAlive(exclude int) int {
	origin := g.dirs[0]
	for i := 0; i < g.cfg.Sites; i++ {
		if i == exclude {
			continue
		}
		if i == 0 {
			return 0
		}
		if e, ok := origin.Lookup(g.names[i]); ok && e.State == membership.Alive {
			return i
		}
	}
	return -1
}

// deliverFences retries pending fences, as (*Proxy).deliverFences: a
// fence lands once the origin↔site exchange works again, and the site
// kills its copies of the fenced ranks below the fence epoch.
func (g *ChaosGrid) deliverFences() {
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
// directory convicting a site it was never partitioned from.
func (g *ChaosGrid) account() {
	for i, d := range g.dirs {
		for _, e := range d.Entries() {
			j := g.index[e.Site]
			dead := e.State == membership.Dead
			if dead && !g.wasDead[i][j] {
				g.DeadTransitions++
				if !g.everCut[i][j] {
					g.FalseDead++
				}
			}
			g.wasDead[i][j] = dead
		}
	}
}

// DoubleRuns counts ranks with live copies at two or more sites — the
// split-brain double-execution the fencing protocol must clear.
func (g *ChaosGrid) DoubleRuns() int {
	n := 0
	for _, c := range g.copies {
		if len(c) > 1 {
			n++
		}
	}
	return n
}

// PendingFences returns how many fences await delivery.
func (g *ChaosGrid) PendingFences() int { return len(g.fences) }

// DeadLinks counts directory entries currently marked Dead, grid-wide;
// zero means every site again sees every other site as live.
func (g *ChaosGrid) DeadLinks() int {
	n := 0
	for _, row := range g.wasDead {
		for _, dead := range row {
			if dead {
				n++
			}
		}
	}
	return n
}

// Converged reports whether every directory holds every site's summary
// (E12's precondition before injecting faults).
func (g *ChaosGrid) Converged() bool {
	for _, d := range g.dirs {
		if d.Len() != g.cfg.Sites || d.Summaries() != g.cfg.Sites {
			return false
		}
	}
	return true
}

// HealthOf returns a site's Lifeguard health score (tests).
func (g *ChaosGrid) HealthOf(i int) int { return g.dirs[i].HealthScore() }
