package sim

import (
	"math"
	"testing"
	"time"

	"gridproxy/internal/membership"
)

// TestGossipGridConverges runs the single-bootstrap scenario at N=64 and
// checks every directory learns every site's summary within the
// c·⌈log₂N⌉ round budget E11 asserts.
func TestGossipGridConverges(t *testing.T) {
	const n = 64
	g, err := NewGossipGrid(GossipGridConfig{Sites: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	budget := 4 * int(math.Ceil(math.Log2(n)))
	for r := 0; r < budget; r++ {
		st := g.Step()
		if st.Converged == n {
			t.Logf("converged in %d rounds (budget %d)", st.Round, budget)
			return
		}
	}
	t.Fatalf("not converged after %d rounds: %d/%d directories complete",
		budget, g.Converged(), n)
}

// TestGossipGridDeterministic runs the same seeded grid twice and
// requires identical per-round byte and message counts: experiment
// tables must be reproducible run to run.
func TestGossipGridDeterministic(t *testing.T) {
	run := func() []GossipRoundStats {
		g, err := NewGossipGrid(GossipGridConfig{Sites: 32, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var out []GossipRoundStats
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

// TestGossipGridSteadyStateQuiet drains the rumor mill after
// convergence and checks steady rounds carry only near-empty syncs: the
// flat-traffic property E11's table quantifies.
func TestGossipGridSteadyStateQuiet(t *testing.T) {
	const n = 32
	g, err := NewGossipGrid(GossipGridConfig{Sites: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var convergedBytes int64
	for r := 0; r < 400; r++ {
		st := g.Step()
		if st.Converged == n && convergedBytes == 0 {
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

// TestGossipGridSpreadsDeath injects conclusive death evidence at one
// site and checks the two-stage dissemination the demotion rule
// (membership, DESIGN.md §17.2) prescribes: the rumor reaches every
// directory as *suspicion* in O(log N) rounds — nobody adopts a
// second-hand death verdict verbatim — and then every directory
// convicts on its own DeadAfter clock, so status compiled anywhere in
// the grid stops showing the dead site shortly after.
func TestGossipGridSpreadsDeath(t *testing.T) {
	const n = 32
	const deadAfter = 5 * time.Second // 5 rounds at the default 1s/round
	// VouchWindow is disabled: with the sim's 1h SuspectAfter the default
	// window is 30 logical minutes, and in a 32-site mesh every directory
	// has direct contact with s0001 that recent, so the whole grid would
	// (correctly) vouch the rumor down for the entire test. This test
	// studies dissemination; vouching has its own tests in membership.
	g, err := NewGossipGrid(GossipGridConfig{
		Sites: n, Seed: 5, DeadAfter: deadAfter, VouchWindow: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 40 && g.Converged() < n; r++ {
		g.Step()
	}
	if g.Converged() < n {
		t.Fatal("grid never converged")
	}
	// Site 1 goes down; a proxy holding a tunnel to it (site 4, say) sees
	// the session die: straight to dead, then the rumor mill takes over.
	// Stopping the site first matters — a running directory would refute
	// its own death, which is exactly the refutation machinery working.
	dead := "s0001"
	g.Stop(1)
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

	// Stage 2: with its own contact to the stopped site broken, each
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
