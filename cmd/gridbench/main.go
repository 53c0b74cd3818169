// Command gridbench regenerates every experiment table of the
// reproduction (see DESIGN.md §5 and EXPERIMENTS.md). Each experiment
// corresponds to one claim in the paper's text; run all of them with
// `gridbench -exp all`, a few with e.g. `gridbench -exp e2,e3`, each at
// the small scale tests and CI use with `-small`, and list what exists
// with `gridbench -list`. Every table prints with its bars; the run ends
// with the markdown summary EXPERIMENTS.md carries, and exits 1 if any
// experiment failed to run or missed a bar.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gridproxy/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiments to run: all, or names from -list, comma-separated")
	list := flag.Bool("list", false, "list available experiments and exit")
	small := flag.Bool("small", false, "run each experiment at its small (test and CI) scale")
	flag.Parse()

	if *list {
		for _, e := range experiments.All {
			fmt.Printf("%-4s %s\n", e.Name, e.Desc)
		}
		return
	}
	chosen, err := choose(experiments.All, *exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		os.Exit(2)
	}
	if !experiments.Report(os.Stdout, chosen, *small) {
		os.Exit(1)
	}
}

// choose resolves -exp to registry entries, in registry order. A name
// that matches no experiment is an error, raised before anything runs.
func choose(all []experiments.Experiment, spec string) ([]experiments.Experiment, error) {
	if spec == "all" {
		return all, nil
	}
	known := map[string]bool{}
	for _, e := range all {
		known[e.Name] = true
	}
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if !known[name] {
			return nil, fmt.Errorf("no experiment named %q (use -list to see e1..e13)", name)
		}
		want[name] = true
	}
	var chosen []experiments.Experiment
	for _, e := range all {
		if want[e.Name] {
			chosen = append(chosen, e)
		}
	}
	return chosen, nil
}
