package experiments

import (
	"fmt"
	"time"

	"gridproxy/internal/failure"
	"gridproxy/internal/sim"
)

// e12Config parameterizes experiment E12.
type e12Config struct {
	// Sites is the grid size N; Minority is how many sites the script
	// partitions away from the rest.
	Sites    int
	Minority int
	// GrayLoss is the loss probability on every link touching the gray
	// site (a majority site that stays routed throughout).
	GrayLoss float64
	// ConvergeBudget bounds the pre-fault summary-convergence phase.
	ConvergeBudget int
	// PartitionRounds is how long the partition holds — longer than
	// the suspicion pipeline so the majority convicts the minority and
	// reschedules its ranks.
	PartitionRounds int
	// HealBudget is the reconvergence bar: rounds after the heal within
	// which no directory may still hold a Dead entry.
	HealBudget int
	// SettleRounds run after reconvergence so fences deliver and the
	// ledger quiesces before the final double-run check.
	SettleRounds int
	Seed         int64
}

// e12Row is one phase of the scenario with the counters it ended at.
type e12Row struct {
	Phase      string
	Rounds     int // rounds this phase took
	FalseDead  int // cumulative false-dead verdicts (bar: 0)
	DeadTrans  int // cumulative Dead transitions (legit + false)
	DoubleRuns int // ranks live at 2+ sites at phase end
	Resched    int // cumulative origin reschedules
	Fences     int // cumulative fences delivered
	Vetoes     int // cumulative indirect-probe vetoes of suspicion
}

// e12Result is one full run: its table rows, its bars, and the
// fingerprint the determinism bar compares across two runs from the same
// seed.
type e12Result struct {
	rows        []e12Row
	bars        []Bar
	fingerprint string
}

// e12 is the partition-tolerance run: an N-site simulated grid (real
// membership directories, real wire encodings, the seeded failure.Chaos
// matrix) is driven through a majority/minority partition, a gray (lossy
// but routed) site, and a link flap, then healed — twice from the same
// seed. Its bars:
//
//  1. zero false-dead verdicts between sites the script never cut
//     (the gray site must not be convicted; indirect probing and
//     Lifeguard health absorb its losses);
//  2. the scenario forces split-brain double-execution during the
//     partition (otherwise the fencing bar below proves nothing);
//  3. after the heal, every directory re-learns every site within
//     HealBudget gossip rounds (resurrection probes + refutation);
//  4. after fences deliver, zero ranks run at two sites — and the
//     second run replays the first bit-for-bit.
func e12(cfg e12Config) (Table, error) {
	first, err := e12Run(cfg)
	if err != nil {
		return Table{}, err
	}
	second, err := e12Run(cfg)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "E12: partition tolerance — false-dead, reconvergence, split-brain fencing",
		Claim:  "under partition+gray+flap, no mutually-reachable site is declared dead, the grid reconverges within 4 rounds of the heal, and epoch fences end every double-run",
		Header: []string{"phase", "rounds", "false-dead", "dead-trans", "double-runs", "resched", "fences", "probe-vetoes"},
		Bars: append(first.bars, holds(fmt.Sprintf("second run from seed %d replays the first", cfg.Seed),
			first.fingerprint == second.fingerprint)),
	}
	for _, r := range first.rows {
		t.Rows = append(t.Rows, []string{r.Phase, itoa(r.Rounds), itoa(r.FalseDead), itoa(r.DeadTrans),
			itoa(r.DoubleRuns), itoa(r.Resched), itoa(r.Fences), itoa(r.Vetoes)})
	}
	return t, nil
}

// e12Run executes one full scenario and measures every per-run bar.
func e12Run(cfg e12Config) (*e12Result, error) {
	if cfg.Minority < 1 || cfg.Minority >= cfg.Sites/2 {
		return nil, fmt.Errorf("e12: minority %d must be 1..N/2-1 of %d sites", cfg.Minority, cfg.Sites)
	}
	// A full mesh from round 0, four-round suspicion timeouts, and
	// summaries republished every three rounds (what keeps heardAt fresh
	// across the grid, as in production): E12's bars are measured on
	// these.
	g, err := sim.NewGrid(sim.GridConfig{Sites: cfg.Sites, Seed: cfg.Seed, Mesh: true,
		SuspectAfter: 4 * time.Second, DeadAfter: 4 * time.Second, RepublishEvery: 3})
	if err != nil {
		return nil, err
	}
	res := &e12Result{}

	// Phase 1: converge. Directories know all sites from round 0 but
	// summaries still spread by gossip; faults wait for a quiet grid.
	// Rounds past the budget read as budget+1.
	converged := 0
	for converged <= cfg.ConvergeBudget {
		g.Step()
		converged++
		if g.Converged() == cfg.Sites {
			break
		}
	}
	res.bars = append(res.bars, check("rounds to summary convergence", converged, "<=", cfg.ConvergeBudget))
	res.snap(g, "converge", converged)

	// Script the fault schedule. The minority is the top Minority site
	// indices; the gray site is a majority site whose links all lose
	// GrayLoss of exchanges; one majority pair flaps (an asymmetric cut
	// healed a few rounds later).
	majority := make([]string, 0, cfg.Sites-cfg.Minority)
	minority := make([]string, 0, cfg.Minority)
	for i := 0; i < cfg.Sites; i++ {
		if i >= cfg.Sites-cfg.Minority {
			minority = append(minority, g.Name(i))
		} else {
			majority = append(majority, g.Name(i))
		}
	}
	gray := g.Name(3 % (cfg.Sites - cfg.Minority))
	flapA, flapB := g.Name(1), g.Name(2)
	faultAt := g.Round() + 1
	healAt := faultAt + cfg.PartitionRounds
	ch := g.Chaos()
	ch.At(faultAt, func(c *failure.Chaos) {
		c.Partition(majority, minority)
		for i := 0; i < cfg.Sites; i++ {
			site := g.Name(i)
			if site == gray {
				continue
			}
			c.SetLoss(gray, site, cfg.GrayLoss)
			c.SetLoss(site, gray, cfg.GrayLoss)
		}
	})
	ch.At(faultAt+5, func(c *failure.Chaos) { c.CutOneWay(flapA, flapB) })
	ch.At(faultAt+8, func(c *failure.Chaos) { c.HealLink(flapA, flapB) })
	ch.At(healAt, func(c *failure.Chaos) {
		c.HealAll()
		for i := 0; i < cfg.Sites; i++ {
			site := g.Name(i)
			if site != gray {
				c.SetLoss(gray, site, 0)
				c.SetLoss(site, gray, 0)
			}
		}
	})

	// Phase 2: partition + gray + flap. The majority must convict the
	// minority and reschedule its ranks; the stale copies keep running
	// on the far side — the double-run the fence protocol exists for.
	maxDouble := 0
	for r := 0; r < cfg.PartitionRounds; r++ {
		g.Step()
		if d := g.DoubleRuns(); d > maxDouble {
			maxDouble = d
		}
	}
	res.snap(g, "partition", cfg.PartitionRounds)
	res.bars = append(res.bars, check("double-runs the partition forced, max", maxDouble, ">=", 1))

	// Phase 3: heal. The heal event fires on the first step of this
	// phase; every directory must drop its last Dead verdict within
	// HealBudget rounds of it. Rounds past the budget read as budget+1.
	healRounds := 0
	for healRounds <= cfg.HealBudget {
		g.Step()
		healRounds++
		if g.DeadLinks() == 0 {
			break
		}
	}
	res.bars = append(res.bars, check("rounds from the heal to no Dead verdict", healRounds, "<=", cfg.HealBudget))
	res.snap(g, "reconverge", healRounds)

	// Phase 4: settle. Fences deliver across the healed links and the
	// ledger must end single-copy.
	for r := 0; r < cfg.SettleRounds; r++ {
		g.Step()
	}
	res.snap(g, "settle", cfg.SettleRounds)
	res.bars = append(res.bars,
		check("false-dead verdicts between never-cut sites", g.FalseDead, "==", 0),
		check("ranks at two sites after heal and fences", g.DoubleRuns(), "==", 0),
		check("fences undelivered after settle", g.PendingFences(), "==", 0))
	return res, nil
}

// snap appends a phase row and extends the determinism fingerprint.
func (r *e12Result) snap(g *sim.Grid, phase string, rounds int) {
	row := e12Row{
		Phase:      phase,
		Rounds:     rounds,
		FalseDead:  g.FalseDead,
		DeadTrans:  g.DeadTransitions,
		DoubleRuns: g.DoubleRuns(),
		Resched:    g.Reschedules,
		Fences:     g.FencesDelivered,
		Vetoes:     g.ProbeVetoes,
	}
	r.rows = append(r.rows, row)
	r.fingerprint += fmt.Sprintf("[%s r%d fd%d dt%d dr%d rs%d fn%d vt%d esc%d]",
		phase, rounds, row.FalseDead, row.DeadTrans, row.DoubleRuns, row.Resched, row.Fences, row.Vetoes, g.Escalations)
}
