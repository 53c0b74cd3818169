// Command gridbench regenerates every experiment table of the
// reproduction (see DESIGN.md §5 and EXPERIMENTS.md). Each experiment
// corresponds to one claim in the paper's text; run all of them with
// `gridbench -exp all`, a single one with e.g. `gridbench -exp e2`, and
// list what exists with `gridbench -list`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gridproxy/internal/experiments"
)

// e11Sites overrides E11's default N sweep with a single grid size; the
// CI smoke step runs `-exp e11 -e11n 64` so a convergence regression
// fails the build without paying for the N=1000 acceptance run. E11
// itself enforces its round budget: exceeding it is an error, not a
// table row.
var e11Sites = flag.Int("e11n", 0, "run E11 at this single grid size instead of its default sweep")

// e12Sites shrinks E12's grid for the CI smoke step (`-exp e12 -e12n
// 16`): the partition/gray/flap script, all four acceptance bars, and
// the determinism double-run still execute, at a fraction of the N=50
// acceptance run's cost. The minority scales to N/5 (minimum 2).
var e12Sites = flag.Int("e12n", 0, "run E12 at this grid size instead of the N=50 acceptance run")

// e13Clients shrinks E13's offered load for the CI smoke step (`-exp
// e13 -e13c 5000`): the 1×/4×/16× sweep, the drain phase, and every
// acceptance bar still run, at a fraction of the ≥100k-client
// acceptance run's cost. The value is the total client count across the
// sweep; it is split evenly over the multiplier phases.
var e13Clients = flag.Int("e13c", 0, "run E13 with this many total simulated clients instead of the 102k acceptance run")

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		os.Exit(1)
	}
}

// runners lists every experiment with a one-line description (shown by
// -list) and the function that produces its table.
var runners = []struct {
	name string
	desc string
	fn   func() (experiments.Table, error)
}{
	{"e1", "MPI local vs proxy-multiplexed across sites", func() (experiments.Table, error) {
		rows, err := experiments.E1(experiments.DefaultE1())
		return experiments.E1Table(rows), err
	}},
	{"e2", "crypto cost at site edges vs on every node", func() (experiments.Table, error) {
		rows, err := experiments.E2(experiments.DefaultE2())
		return experiments.E2Table(rows), err
	}},
	{"e3", "load balancing vs MPI's round-robin placement", func() (experiments.Table, error) {
		rows, err := experiments.E3(experiments.DefaultE3())
		return experiments.E3Table(rows), err
	}},
	{"e4", "site-compiled monitoring vs polling every node", func() (experiments.Table, error) {
		rows, err := experiments.E4(experiments.DefaultE4())
		return experiments.E4Table(rows), err
	}},
	{"e5", "Kerberos-style tickets vs per-request auth", func() (experiments.Table, error) {
		rows, err := experiments.E5(experiments.DefaultE5())
		return experiments.E5Table(rows), err
	}},
	{"e6", "deployment footprint (modules per machine)", func() (experiments.Table, error) {
		return experiments.E6Table(experiments.E6(experiments.DefaultE6())), nil
	}},
	{"e7", "failure containment when a proxy dies", func() (experiments.Table, error) {
		rows, err := experiments.E7(experiments.DefaultE7())
		return experiments.E7Table(rows), err
	}},
	{"e8", "one multiplexed tunnel vs connection-per-stream", func() (experiments.Table, error) {
		rows, err := experiments.E8(experiments.DefaultE8())
		return experiments.E8Table(rows), err
	}},
	{"e9", "job survival: rank rescheduling across site death", func() (experiments.Table, error) {
		rows, err := experiments.E9(experiments.DefaultE9())
		return experiments.E9Table(rows), err
	}},
	{"e10", "data plane: striped cross-site staging, cold vs warm", func() (experiments.Table, error) {
		rows, err := experiments.E10(experiments.DefaultE10())
		return experiments.E10Table(rows), err
	}},
	{"e11", "control-plane scaling: gossip directory vs all-pairs", func() (experiments.Table, error) {
		cfg := experiments.DefaultE11()
		if *e11Sites > 0 {
			cfg.Ns = []int{*e11Sites}
		}
		rows, err := experiments.E11(cfg)
		return experiments.E11Table(rows), err
	}},
	{"e12", "partition tolerance: false-dead, reconvergence, fencing", func() (experiments.Table, error) {
		cfg := experiments.DefaultE12()
		if *e12Sites > 0 {
			cfg.Sites = *e12Sites
			cfg.Minority = *e12Sites / 5
			if cfg.Minority < 2 {
				cfg.Minority = 2
			}
		}
		rows, err := experiments.E12(cfg)
		return experiments.E12Table(rows), err
	}},
	{"e13", "gateway admission control: served/queued/shed under overload", func() (experiments.Table, error) {
		cfg := experiments.DefaultE13()
		if *e13Clients > 0 {
			per := *e13Clients / len(cfg.Multipliers)
			if per < len(cfg.Multipliers)*cfg.Capacity {
				// Keep at least one request per driver at the highest
				// multiplier so every phase exercises admission.
				per = len(cfg.Multipliers) * cfg.Capacity
			}
			cfg.Clients = per
		}
		rows, err := experiments.E13(cfg)
		return experiments.E13Table(rows), err
	}},
}

func run() error {
	exp := flag.String("exp", "all", "experiment to run: e1..e10, comma-separated, or all")
	list := flag.Bool("list", false, "list available experiments and exit")
	flag.Parse()

	if *list {
		for _, runner := range runners {
			fmt.Printf("%-4s %s\n", runner.name, runner.desc)
		}
		return nil
	}

	want := map[string]bool{}
	if *exp == "all" {
		for _, runner := range runners {
			want[runner.name] = true
		}
	} else {
		for _, name := range strings.Split(*exp, ",") {
			want[strings.TrimSpace(strings.ToLower(name))] = true
		}
	}

	ran := 0
	for _, runner := range runners {
		if !want[runner.name] {
			continue
		}
		table, err := runner.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", runner.name, err)
		}
		fmt.Println(table.Render())
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q (use -list to see e1..e11)", *exp)
	}
	return nil
}
