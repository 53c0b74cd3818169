package experiments

import (
	"fmt"

	"gridproxy/internal/failure"
	"gridproxy/internal/sim"
)

// E12 is the partition-tolerance acceptance run: an N-site simulated
// grid (real membership directories, real wire encodings, the seeded
// failure.Chaos matrix) is driven through a majority/minority
// partition, a gray (lossy but routed) site, and a link flap, then
// healed. The run FAILS — an error, not a table row — unless the
// control plane meets four bars:
//
//  1. zero false-dead verdicts between sites the script never cut
//     (the gray site must not be convicted; indirect probing and
//     Lifeguard health absorb its losses);
//  2. the scenario forces split-brain double-execution during the
//     partition (otherwise the fencing bar below proves nothing);
//  3. after the heal, every directory re-learns every site within
//     HealBudget gossip rounds (resurrection probes + refutation);
//  4. after fences deliver, zero ranks run at two sites — and the
//     whole run replays bit-for-bit from the printed seed.

// E12Config parameterizes experiment E12.
type E12Config struct {
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

// DefaultE12 returns the acceptance-run parameters: N=50 with a
// 10-site minority, a 30%-lossy gray site, and the 4-round
// reconvergence budget.
func DefaultE12() E12Config {
	return E12Config{
		Sites:           50,
		Minority:        10,
		GrayLoss:        0.3,
		ConvergeBudget:  80,
		PartitionRounds: 30,
		HealBudget:      4,
		SettleRounds:    8,
		Seed:            1,
	}
}

// E12Row is one phase of the scenario with the counters it ended at.
type E12Row struct {
	Phase      string
	Rounds     int // rounds this phase took
	FalseDead  int // cumulative false-dead verdicts (bar: 0)
	DeadTrans  int // cumulative Dead transitions (legit + false)
	DoubleRuns int // ranks live at 2+ sites at phase end
	Resched    int // cumulative origin reschedules
	Fences     int // cumulative fences delivered
	Vetoes     int // cumulative indirect-probe vetoes of suspicion
}

// e12Result is one full run: its table rows plus the fingerprint the
// determinism bar compares across two runs from the same seed.
type e12Result struct {
	rows        []E12Row
	fingerprint string
}

// E12 runs the scenario twice from the same seed and enforces all
// acceptance bars, including that both runs are identical.
func E12(cfg E12Config) ([]E12Row, error) {
	first, err := e12Run(cfg)
	if err != nil {
		return nil, err
	}
	second, err := e12Run(cfg)
	if err != nil {
		return nil, err
	}
	if first.fingerprint != second.fingerprint {
		return nil, fmt.Errorf("e12: run not reproducible from seed %d:\n  first:  %s\n  second: %s",
			cfg.Seed, first.fingerprint, second.fingerprint)
	}
	return first.rows, nil
}

// e12Run executes one full scenario and checks every per-run bar.
func e12Run(cfg E12Config) (*e12Result, error) {
	if cfg.Minority < 1 || cfg.Minority >= cfg.Sites/2 {
		return nil, fmt.Errorf("e12: minority %d must be 1..N/2-1 of %d sites", cfg.Minority, cfg.Sites)
	}
	g, err := sim.NewChaosGrid(sim.ChaosGridConfig{Sites: cfg.Sites, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	res := &e12Result{}

	// Phase 1: converge. Directories know all sites from round 0 but
	// summaries still spread by gossip; faults wait for a quiet grid.
	converged := 0
	for r := 1; r <= cfg.ConvergeBudget; r++ {
		g.Step()
		if g.Converged() {
			converged = r
			break
		}
	}
	if converged == 0 {
		return nil, fmt.Errorf("e12: no summary convergence within %d rounds (seed %d)", cfg.ConvergeBudget, cfg.Seed)
	}
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
	if maxDouble == 0 {
		return nil, fmt.Errorf("e12: partition forced no double-run ranks (seed %d) — scenario too weak to test fencing", cfg.Seed)
	}

	// Phase 3: heal. The heal event fires on the first step of this
	// phase; every directory must drop its last Dead verdict within
	// HealBudget rounds of it.
	healRounds := 0
	for r := 1; r <= cfg.HealBudget; r++ {
		g.Step()
		if g.DeadLinks() == 0 {
			healRounds = r
			break
		}
	}
	if healRounds == 0 {
		return nil, fmt.Errorf("e12: %d Dead verdicts still held %d rounds after heal (seed %d), budget %d",
			g.DeadLinks(), cfg.HealBudget, cfg.Seed, cfg.HealBudget)
	}
	res.snap(g, "reconverge", healRounds)

	// Phase 4: settle. Fences deliver across the healed links and the
	// ledger must end single-copy.
	for r := 0; r < cfg.SettleRounds; r++ {
		g.Step()
	}
	res.snap(g, "settle", cfg.SettleRounds)
	if g.FalseDead != 0 {
		return nil, fmt.Errorf("e12: %d false-dead verdicts between never-cut sites (seed %d)", g.FalseDead, cfg.Seed)
	}
	if d := g.DoubleRuns(); d != 0 {
		return nil, fmt.Errorf("e12: %d ranks still running at two sites after heal+fences (seed %d)", d, cfg.Seed)
	}
	if pf := g.PendingFences(); pf != 0 {
		return nil, fmt.Errorf("e12: %d fences undelivered after settle (seed %d)", pf, cfg.Seed)
	}
	return res, nil
}

// snap appends a phase row and extends the determinism fingerprint.
func (r *e12Result) snap(g *sim.ChaosGrid, phase string, rounds int) {
	row := E12Row{
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

// E12Table renders the phase table for EXPERIMENTS.md.
func E12Table(rows []E12Row) Table {
	t := Table{
		Title:  "E12: partition tolerance — false-dead, reconvergence, split-brain fencing",
		Claim:  "under partition+gray+flap, no mutually-reachable site is declared dead, the grid reconverges within 4 rounds of the heal, and epoch fences end every double-run",
		Header: []string{"phase", "rounds", "false-dead", "dead-trans", "double-runs", "resched", "fences", "probe-vetoes"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Phase,
			fmt.Sprintf("%d", r.Rounds),
			fmt.Sprintf("%d", r.FalseDead),
			fmt.Sprintf("%d", r.DeadTrans),
			fmt.Sprintf("%d", r.DoubleRuns),
			fmt.Sprintf("%d", r.Resched),
			fmt.Sprintf("%d", r.Fences),
			fmt.Sprintf("%d", r.Vetoes),
		})
	}
	return t
}
