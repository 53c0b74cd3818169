// mpi-pi: a three-site virtual cluster computes π with an unmodified MPI
// program. The program body below contains no grid code whatsoever — it
// sees ranks and collectives; the proxies supply the illusion of one
// cluster (paper Figure 3b).
//
//	go run ./examples/mpi-pi
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"gridproxy/internal/core"
	"gridproxy/internal/mpi"
	"gridproxy/internal/mpirun"
	"gridproxy/internal/node"
	"gridproxy/internal/site"
	"gridproxy/internal/transport"
)

const steps = 2_000_000

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	tb, err := site.NewTestbed(site.TestbedConfig{
		GridName: "mpi-pi",
		Sites: []site.SiteSpec{
			{Name: "alpha", Nodes: site.UniformNodes(2, 1)},
			{Name: "beta", Nodes: site.UniformNodes(2, 1)},
			{Name: "gamma", Nodes: site.UniformNodes(2, 1)},
		},
		// Simulate a real WAN between the sites.
		WAN: transport.LinkParams{OneWay: 200 * time.Microsecond},
	})
	if err != nil {
		return err
	}
	defer tb.Close()
	if err := tb.ConnectAll(ctx); err != nil {
		return err
	}

	// This is the whole application: plain MPI, nothing else. It could
	// run unchanged on a laptop, one cluster, or this 3-site grid.
	results := make(chan float64, 1)
	tb.RegisterProgram("pi", mpirun.Program(
		func(ctx context.Context, w *mpi.World, env node.Env) error {
			h := 1.0 / float64(steps)
			var local float64
			for i := w.Rank(); i < steps; i += w.Size() {
				x := h * (float64(i) + 0.5)
				local += 4.0 / (1.0 + x*x)
			}
			sum, err := w.Allreduce(ctx, mpi.OpSum, []float64{local * h})
			if err != nil {
				return err
			}
			if w.Rank() == 0 {
				results <- sum[0]
			}
			return nil
		}))

	for _, procs := range []int{2, 6} {
		launch, err := tb.Sites[0].Proxy.LaunchMPI(ctx, core.LaunchSpec{
			Owner:   "admin",
			Program: "pi",
			Procs:   procs,
		})
		if err != nil {
			return err
		}
		// Show where the scheduler put the ranks.
		perSite := map[string]int{}
		for _, loc := range launch.Locations {
			perSite[loc.Site]++
		}
		fmt.Printf("procs=%d placement:", procs)
		for _, s := range tb.Sites {
			fmt.Printf(" %s=%d", s.Name, perSite[s.Name])
		}
		fmt.Println()
		if err := launch.Wait(ctx); err != nil {
			return err
		}
		estimate := <-results
		fmt.Printf("  π ≈ %.10f (error %.2e)\n", estimate, math.Abs(estimate-math.Pi))
	}
	return nil
}
