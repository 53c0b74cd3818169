package sim

import (
	"fmt"
	"testing"

	"gridproxy/internal/failure"
	"gridproxy/internal/membership"
)

// chaosFingerprint reduces a grid's counters to one comparable string.
func chaosFingerprint(g *ChaosGrid) string {
	return fmt.Sprintf("r%d fd%d dt%d dr%d rs%d fn%d vt%d esc%d dl%d",
		g.Round(), g.FalseDead, g.DeadTransitions, g.DoubleRuns(), g.Reschedules,
		g.FencesDelivered, g.ProbeVetoes, g.Escalations, g.DeadLinks())
}

// TestChaosGridDeterministic runs the same seeded partition scenario
// twice and requires identical counters every round: every E12 table and
// every failure report must replay bit-for-bit from its printed seed.
func TestChaosGridDeterministic(t *testing.T) {
	run := func() []string {
		g, err := NewChaosGrid(ChaosGridConfig{Sites: 12, Seed: 9})
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
			out = append(out, chaosFingerprint(g))
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

// TestChaosGridPartitionConvictsAndHeals walks the full arc on a small
// grid: a partition leads the majority to convict the minority (Dead
// verdicts, reschedules of its ranks), and the heal un-convicts everyone
// — resurrection probes and refutation leave no Dead entry behind and
// the fence ledger drains to single-copy.
func TestChaosGridPartitionConvictsAndHeals(t *testing.T) {
	g, err := NewChaosGrid(ChaosGridConfig{Sites: 10, Seed: 3})
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
