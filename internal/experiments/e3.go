package experiments

import (
	"fmt"

	"gridproxy/internal/balance"
	"gridproxy/internal/sim"
)

// e3Row is one (policy, node heterogeneity) scheduling measurement.
type e3Row struct {
	Policy        string
	Skew          float64 // max/min node speed
	Tasks         int
	Nodes         int
	Makespan      float64
	AvgCompletion float64
	Utilization   float64
	// SpeedupVsRR is the round-robin makespan divided by this policy's
	// (1.0 for round-robin itself).
	SpeedupVsRR float64
}

// e3Config parameterizes experiment E3.
type e3Config struct {
	Sites        int
	NodesPerSite int
	Tasks        int
	// TaskSkew spreads task work uniformly in [1, TaskSkew].
	TaskSkew float64
	// NodeSkews are the heterogeneity levels to sweep.
	NodeSkews []float64
	Policies  []string
	Seed      int64
}

// e3 sweeps placement policies against node heterogeneity. The paper:
// "In its original form, the MPI uses the round-robin method to
// distribute the processes among the nodes" and proposes proxy-side load
// balancing to "ensure the best possible use and optimization of the
// available resources". Expected shape: load-aware policies beat
// round-robin, and the gap widens with heterogeneity.
func e3(cfg e3Config) (Table, error) {
	t := Table{
		Title:  "E3 — placement policy vs node heterogeneity (makespan)",
		Claim:  "proxy load balancing beats MPI's default round-robin; gap widens with heterogeneity",
		Header: []string{"policy", "node_skew", "tasks", "nodes", "makespan", "avg_completion", "util", "speedup_vs_rr"},
	}
	var rows []e3Row
	for _, skew := range cfg.NodeSkews {
		nodes := sim.HeterogeneousNodes(cfg.Sites, cfg.NodesPerSite, skew, cfg.Seed)
		tasks := sim.SkewedTasks(cfg.Tasks, cfg.Seed+1, 1, cfg.TaskSkew)
		rrMakespan := 0.0
		for _, policyName := range cfg.Policies {
			policy, err := balance.New(policyName, cfg.Seed)
			if err != nil {
				return Table{}, err
			}
			result, err := sim.Simulate(nodes, tasks, policy)
			if err != nil {
				return Table{}, fmt.Errorf("e3 %s skew %.0f: %w", policyName, skew, err)
			}
			if policyName == "round-robin" {
				rrMakespan = result.Makespan
			}
			row := e3Row{
				Policy:        policyName,
				Skew:          skew,
				Tasks:         cfg.Tasks,
				Nodes:         len(nodes),
				Makespan:      result.Makespan,
				AvgCompletion: result.AvgCompletion,
				Utilization:   result.Utilization(),
			}
			if rrMakespan > 0 && result.Makespan > 0 {
				row.SpeedupVsRR = rrMakespan / result.Makespan
			}
			rows = append(rows, row)
			t.Rows = append(t.Rows, []string{
				row.Policy, f1(row.Skew), itoa(row.Tasks), itoa(row.Nodes),
				f2(row.Makespan), f2(row.AvgCompletion), f2(row.Utilization), f2(row.SpeedupVsRR),
			})
		}
	}
	// least-loaded's speedup on a homogeneous grid (round-robin is
	// already fine there) and at 8x node skew (it must clearly win).
	speedup := func(skew float64) float64 {
		return most(rows, func(r e3Row) float64 {
			if r.Policy == "least-loaded" && r.Skew == skew {
				return r.SpeedupVsRR
			}
			return 0
		})
	}
	t.Bars = []Bar{
		check("least-loaded speedup at skew 1", speedup(1), ">=", 0.95),
		check("least-loaded speedup at skew 8", speedup(8), ">=", 1.2),
	}
	return t, nil
}
