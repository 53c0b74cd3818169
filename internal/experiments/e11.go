package experiments

import (
	"fmt"
	"math"
	"time"

	"gridproxy/internal/sim"
)

// e11Row is one (scheme, grid size) control-plane scaling measurement.
type e11Row struct {
	Scheme string // "gossip" or "all-pairs"
	Sites  int
	// Rounds is how many gossip rounds full status convergence took
	// (every directory holding every site's summary); Budget is the
	// c·⌈log₂N⌉ ceiling it is asserted against. The all-pairs baseline
	// "converges" in its single synchronous fan-out.
	Rounds int
	Budget int
	// ConvBytes is mean control bytes per proxy per round during the
	// convergence phase; SteadyBytes the same after the rumor mill has
	// drained (for all-pairs, both are the recurring cost of every
	// refresh — it pays the full fan-out each time).
	ConvBytes   int64
	SteadyBytes int64
	// SteadyMsgs is mean messages per proxy per round at steady state.
	SteadyMsgs float64
	// Tunnels is how many live tunnels a proxy needs for the scheme.
	Tunnels string
}

// e11Config parameterizes experiment E11.
type e11Config struct {
	// Ns lists the grid sizes swept; the steady-state traffic of every
	// size must stay within FlatFactor× of the smallest.
	Ns []int
	// BudgetC is the c in the c·⌈log₂N⌉ convergence-round budget.
	BudgetC int
	// SteadyWindow is how many rounds the steady-state means average
	// over; MaxRounds bounds the whole run (convergence + rumor drain).
	SteadyWindow int
	MaxRounds    int
	// FlatFactor is the allowed steady-state growth across Ns.
	FlatFactor float64
	Seed       int64
}

// e11 measures how the gossip control plane scales against the all-pairs
// status fan-out it replaced. For each N it simulates the single-
// bootstrap worst case (every site initially knows only site 0) over
// real membership directories and real wire encodings, and records:
//
//   - rounds until every directory holds every site's summary, barred
//     by the c·⌈log₂N⌉ budget;
//   - per-proxy bytes/round during convergence — bounded by the gossip
//     fanout times membership's push limit, not by N, so it stays
//     roughly flat as the grid grows 10×;
//   - per-proxy bytes/round at steady state, barred flat within
//     FlatFactor across Ns (empty syncs plus the anti-entropy digest
//     lottery at 1/N a round, whose expected cost is N-independent);
//   - the all-pairs baseline measured in the same run from the same
//     summaries: one StatusQuery/StatusReport round trip per peer,
//     per proxy, per refresh, over N-1 standing tunnels.
func e11(cfg e11Config) (Table, error) {
	t := Table{
		Title:  "E11 — control-plane scaling: gossip directory vs all-pairs status fan-out",
		Claim:  "single-bootstrap status convergence in O(log N) rounds with per-proxy bytes/round flat in N; the all-pairs baseline pays O(N) per proxy per refresh over N-1 tunnels",
		Header: []string{"scheme", "sites", "rounds", "budget", "conv_B/proxy/rd", "steady_B/proxy/rd", "steady_msgs", "tunnels"},
	}
	var rows, baseline []e11Row
	var maxPending int
	for _, n := range cfg.Ns {
		// Suspicion is effectively off: nothing republishes summaries, so
		// the run studies the spread of one status snapshot.
		g, err := sim.NewGrid(sim.GridConfig{Sites: n, Seed: cfg.Seed, SuspectAfter: time.Hour})
		if err != nil {
			return Table{}, fmt.Errorf("e11 n=%d: %w", n, err)
		}
		budget := cfg.BudgetC * int(math.Ceil(math.Log2(float64(n))))

		// Phase 1: converge.
		var convBytes int64
		rounds := 0
		for g.Converged() < n && rounds < cfg.MaxRounds {
			st := g.Step()
			rounds++
			convBytes += st.Bytes
		}

		// Phase 2: drain the rumor mill (retransmit budgets running out)
		// so the steady window measures maintenance traffic, not the
		// tail of the initial flood.
		for total := rounds; g.PendingRumors() > 0 && total < cfg.MaxRounds; total++ {
			g.Step()
		}
		maxPending = max(maxPending, g.PendingRumors())

		// Phase 3: steady state.
		var steadyBytes, steadyMsgs int64
		for r := 0; r < cfg.SteadyWindow; r++ {
			st := g.Step()
			steadyBytes += st.Bytes
			steadyMsgs += st.Msgs
		}
		steady := steadyBytes / int64(cfg.SteadyWindow*n)
		gossip := e11Row{
			Scheme:      "gossip",
			Sites:       n,
			Rounds:      rounds,
			Budget:      budget,
			ConvBytes:   convBytes / int64(rounds*n),
			SteadyBytes: steady,
			SteadyMsgs:  float64(steadyMsgs) / float64(cfg.SteadyWindow*n),
			Tunnels:     "cache-bounded",
		}
		rows = append(rows, gossip)

		// The baseline, from the same run's summaries.
		apBytes, apMsgs := g.AllPairsRefresh()
		ap := e11Row{
			Scheme:      "all-pairs",
			Sites:       n,
			Rounds:      1,
			Budget:      1,
			ConvBytes:   apBytes,
			SteadyBytes: apBytes,
			SteadyMsgs:  float64(apMsgs),
			Tunnels:     itoa(n - 1),
		}
		baseline = append(baseline, ap)

		// Steady-state gossip must be far below the baseline's recurring
		// per-refresh cost, which is one round trip per peer.
		t.Bars = append(t.Bars,
			check(fmt.Sprintf("N=%d convergence rounds", n), rounds, "<=", budget),
			check(fmt.Sprintf("N=%d gossip steady_B x 4", n), gossip.SteadyBytes*4, "<=", ap.SteadyBytes),
			check(fmt.Sprintf("N=%d all-pairs steady_msgs", n), ap.SteadyMsgs, "==", float64(2*(n-1))))
		// Steady-state per-proxy traffic must not grow beyond
		// FlatFactor× across the swept grid sizes.
		if len(rows) > 1 {
			t.Bars = append(t.Bars, check(fmt.Sprintf("N=%d steady_B, at most %.0fx N=%d's", n, cfg.FlatFactor, cfg.Ns[0]),
				steady, "<=", int64(cfg.FlatFactor*float64(rows[0].SteadyBytes))))
		}
	}
	t.Bars = append(t.Bars,
		check("gossip convergence rounds, min", least(rows, func(r e11Row) int { return r.Rounds }), ">=", 1),
		check("rumors pending after the drain, max", maxPending, "==", 0))
	for _, r := range append(rows, baseline...) {
		t.Rows = append(t.Rows, []string{
			r.Scheme, itoa(r.Sites), itoa(r.Rounds), itoa(r.Budget),
			i64(r.ConvBytes), i64(r.SteadyBytes), f2(r.SteadyMsgs), r.Tunnels,
		})
	}
	return t, nil
}
