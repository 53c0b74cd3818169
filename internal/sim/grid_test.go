package sim

import (
	"fmt"
	"math"
	"testing"
	"time"

	"gridproxy/internal/failure"
	"gridproxy/internal/membership"
)

// bootstrapConfig is E11's grid: every site starts knowing only site 0,
// and the sweep's suspicion timeout is an hour, effectively off, because
// the scenario studies dissemination of one status snapshot (nothing
// republishes summaries).
func bootstrapConfig(n int, seed int64) GridConfig {
	return GridConfig{Sites: n, Seed: seed, SuspectAfter: time.Hour}
}

// partitionConfig is E12's grid: a full mesh with four-round suspicion
// timeouts and summaries republished every three rounds.
func partitionConfig(n int, seed int64) GridConfig {
	return GridConfig{Sites: n, Seed: seed, Mesh: true, SuspectAfter: 4 * roundEvery, DeadAfter: 4 * roundEvery,
		RepublishEvery: 3}
}

// convergeWithin steps a single-bootstrap grid of n sites and checks
// every directory learns every site's summary within the c·⌈log₂N⌉
// round budget E11 asserts.
func convergeWithin(t *testing.T, n int) {
	g, err := NewGrid(bootstrapConfig(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	budget := 4 * int(math.Ceil(math.Log2(float64(n))))
	for r := 0; r < budget; r++ {
		if st := g.Step(); g.Converged() == n {
			t.Logf("converged in %d rounds (budget %d)", st.Round, budget)
			return
		}
	}
	t.Fatalf("not converged after %d rounds: %d/%d directories complete",
		budget, g.Converged(), n)
}

func TestGridBootstrapConverges(t *testing.T) { convergeWithin(t, 64) }

// TestGridBootstrapConvergesAt256: the size at which a digest that
// blocked the full entries it named left one directory a summary short
// for good.
func TestGridBootstrapConvergesAt256(t *testing.T) { convergeWithin(t, 256) }

// TestGridBootstrapDeterministic runs the same seeded grid twice and
// requires identical per-round byte and message counts: experiment
// tables must be reproducible run to run.
func TestGridBootstrapDeterministic(t *testing.T) {
	run := func() []RoundStats {
		g, err := NewGrid(bootstrapConfig(32, 7))
		if err != nil {
			t.Fatal(err)
		}
		var out []RoundStats
		for r := 0; r < 25; r++ {
			out = append(out, g.Step())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d diverged: %+v vs %+v", i+1, a[i], b[i])
		}
	}
}

// TestGridSteadyStateQuiet drains the rumor mill after convergence and
// checks steady rounds carry only near-empty syncs: the flat-traffic
// property E11's table quantifies.
func TestGridSteadyStateQuiet(t *testing.T) {
	const n = 32
	g, err := NewGrid(bootstrapConfig(n, 3))
	if err != nil {
		t.Fatal(err)
	}
	var convergedBytes int64
	for r := 0; r < 400; r++ {
		st := g.Step()
		if g.Converged() == n && convergedBytes == 0 {
			convergedBytes = st.Bytes
		}
		if convergedBytes != 0 && g.PendingRumors() == 0 {
			break
		}
	}
	if convergedBytes == 0 {
		t.Fatal("grid never converged")
	}
	if g.PendingRumors() != 0 {
		t.Fatal("rumor mill never drained")
	}
	var steady int64
	const window = 20
	for r := 0; r < window; r++ {
		steady += g.Step().Bytes
	}
	perProxyRound := steady / (window * n)
	// An empty sync+delta pair is tens of bytes; the anti-entropy
	// lottery amortizes its digests to O(1) per proxy per round. A loose
	// KB-level bound catches a regression that keeps rumors hot forever.
	if perProxyRound > 1024 {
		t.Fatalf("steady-state traffic %dB/proxy/round; rumors not draining", perProxyRound)
	}
}

// TestGridSpreadsDeath injects conclusive death evidence at one site and
// checks the two-stage dissemination the demotion rule (membership,
// DESIGN.md §17.2) prescribes: the rumor reaches every directory as
// *suspicion* in O(log N) rounds — nobody adopts a second-hand death
// verdict verbatim — and then every directory convicts on its own
// DeadAfter clock, so status compiled anywhere in the grid stops showing
// the dead site shortly after.
func TestGridSpreadsDeath(t *testing.T) {
	const n = 32
	const deadAfter = 5 * time.Second // 5 rounds at 1s/round
	// VouchWindow is disabled: with the 1h SuspectAfter the default
	// window is 30 logical minutes, and in a 32-site mesh every directory
	// has direct contact with s0001 that recent, so the whole grid would
	// (correctly) vouch the rumor down for the entire test. This test
	// studies dissemination; vouching has its own tests in membership.
	cfg := bootstrapConfig(n, 5)
	cfg.DeadAfter, cfg.VouchWindow = deadAfter, -1
	g, err := NewGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 40 && g.Converged() < n; r++ {
		g.Step()
	}
	if g.Converged() < n {
		t.Fatal("grid never converged")
	}
	// Site 1 goes down: every link to it is cut, and a proxy holding a
	// tunnel to it (site 4, say) sees the session die — straight to dead,
	// then the rumor mill takes over. Cutting the site first matters: a
	// reachable directory would refute its own death, which is exactly
	// the refutation machinery working.
	dead := "s0001"
	var rest []string
	for i := 0; i < n; i++ {
		if i != 1 {
			rest = append(rest, g.Name(i))
		}
	}
	g.Chaos().Partition([]string{dead}, rest)
	g.Dir(4).ObserveDead(dead)
	budget := 4 * int(math.Ceil(math.Log2(n)))
	count := func(want membership.State) int {
		aware := 0
		for i := 0; i < n; i++ {
			if i == 1 {
				continue // the dead site's own directory would refute
			}
			if e, ok := g.Dir(i).Lookup(dead); ok && e.State >= want {
				aware++
			}
		}
		return aware
	}

	// Stage 1: the rumor itself floods in O(log N) rounds, softened to
	// suspicion everywhere (only the direct observer holds Dead).
	spread := 0
	for r := 0; r < budget; r++ {
		g.Step()
		if count(membership.Suspect) == n-1 {
			spread = r + 1
			break
		}
	}
	if spread == 0 {
		t.Fatalf("death rumor did not reach every directory within %d rounds", budget)
	}
	t.Logf("rumor reached all %d directories as suspicion in %d rounds", n-1, spread)

	// Stage 2: with its own contact to the cut site broken, each
	// directory's sweep convicts once its DeadAfter clock runs out.
	convictBudget := int(deadAfter/time.Second) + budget
	for r := 0; r < convictBudget; r++ {
		g.Step()
		if count(membership.Dead) == n-1 {
			t.Logf("all %d directories convicted within %d further rounds", n-1, r+1)
			return
		}
	}
	t.Fatalf("only %d/%d directories convicted within %d rounds of the rumor",
		count(membership.Dead), n-1, convictBudget)
}

// partitionFingerprint reduces a grid's counters to one comparable
// string.
func partitionFingerprint(g *Grid) string {
	return fmt.Sprintf("r%d fd%d dt%d dr%d rs%d fn%d vt%d esc%d dl%d",
		g.Round(), g.FalseDead, g.DeadTransitions, g.DoubleRuns(), g.Reschedules,
		g.FencesDelivered, g.ProbeVetoes, g.Escalations, g.DeadLinks())
}

// TestGridPartitionDeterministic runs the same seeded partition scenario
// twice and requires identical counters every round: every E12 table and
// every failure report must replay bit-for-bit from its printed seed.
func TestGridPartitionDeterministic(t *testing.T) {
	run := func() []string {
		g, err := NewGrid(partitionConfig(12, 9))
		if err != nil {
			t.Fatal(err)
		}
		g.Chaos().At(5, func(c *failure.Chaos) {
			c.Partition(
				[]string{g.Name(0), g.Name(1), g.Name(2), g.Name(3), g.Name(4), g.Name(5), g.Name(6), g.Name(7)},
				[]string{g.Name(8), g.Name(9), g.Name(10), g.Name(11)})
			c.SetLoss(g.Name(2), g.Name(3), 0.5)
			c.SetLoss(g.Name(3), g.Name(2), 0.5)
		})
		g.Chaos().At(30, func(c *failure.Chaos) { c.HealAll() })
		var out []string
		for r := 0; r < 45; r++ {
			g.Step()
			out = append(out, partitionFingerprint(g))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d diverged:\n  first:  %s\n  second: %s", i+1, a[i], b[i])
		}
	}
}

// TestGridPartitionConvictsAndHeals walks the full arc on a small grid:
// a partition leads the majority to convict the minority (Dead verdicts,
// reschedules of its ranks), and the heal un-convicts everyone —
// resurrection probes and refutation leave no Dead entry behind and the
// fence ledger drains to single-copy.
func TestGridPartitionConvictsAndHeals(t *testing.T) {
	g, err := NewGrid(partitionConfig(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	var majority, minority []string
	for i := 0; i < g.Sites(); i++ {
		if i >= 7 {
			minority = append(minority, g.Name(i))
		} else {
			majority = append(majority, g.Name(i))
		}
	}

	// Settle, then split.
	for r := 0; r < 10; r++ {
		g.Step()
	}
	if g.DeadTransitions != 0 || g.FalseDead != 0 {
		t.Fatalf("healthy grid produced verdicts: dead=%d false=%d", g.DeadTransitions, g.FalseDead)
	}
	cutAt := g.Round() + 1
	g.Chaos().At(cutAt, func(c *failure.Chaos) { c.Partition(majority, minority) })

	// Hold the partition past the suspicion pipeline.
	for r := 0; r < 25; r++ {
		g.Step()
	}
	if g.DeadTransitions == 0 {
		t.Fatal("partition held but nobody was convicted")
	}
	if g.Reschedules == 0 {
		t.Fatal("minority sites convicted but their ranks never rescheduled")
	}
	if g.DeadLinks() == 0 {
		t.Fatal("no directory holds a Dead entry mid-partition")
	}
	// The origin (a majority site) must see every minority site as Dead.
	origin := g.Dir(0)
	for i := 7; i < g.Sites(); i++ {
		e, ok := origin.Lookup(g.Name(i))
		if !ok || e.State != membership.Dead {
			t.Fatalf("origin sees minority site %s as %v, want Dead", g.Name(i), e.State)
		}
	}

	// Heal and give resurrection probes a few rounds.
	g.Chaos().At(g.Round()+1, func(c *failure.Chaos) { c.HealAll() })
	for r := 0; r < 12 && (g.DeadLinks() > 0 || g.DoubleRuns() > 0 || g.PendingFences() > 0); r++ {
		g.Step()
	}
	if dl := g.DeadLinks(); dl != 0 {
		t.Fatalf("%d Dead verdicts survive the heal", dl)
	}
	if dr := g.DoubleRuns(); dr != 0 {
		t.Fatalf("%d double-run ranks survive the heal", dr)
	}
	if pf := g.PendingFences(); pf != 0 {
		t.Fatalf("%d fences undelivered after the heal", pf)
	}
	if g.FalseDead != 0 {
		t.Fatalf("%d false-dead verdicts between never-cut pairs", g.FalseDead)
	}
}
