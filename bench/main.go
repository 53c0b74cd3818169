// Command gridmark is the repository's benchmark: it assembles a real
// two-site grid from the public constructors (core.New, node.New,
// gate.New behind a net/http server, loopback TCP sockets, the WAN in
// TLS), drives it only through the HTTP front door, verifies every
// result, and prints every metric of BENCHMARK.json by name and unit.
//
//	bash bench/run.sh --workload bulk_lan --seed 1 --seconds 20 --trace 0
//
// See README.md next to this file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"time"
)

func main() {
	name := flag.String("workload", "", "bulk_lan | bulk_wan | control_mix | mpi_exchange | all")
	seed := flag.Int64("seed", 1, "drives blob bytes and request order")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1: record spans, run the layer ladder, print the per-layer metrics")
	appendTo := flag.String("append", "", "append the result as one JSON line to this file")
	commit := flag.String("commit", "unknown", "commit the result is recorded against")
	flag.Parse()

	if *name == "all" {
		os.Exit(runAll())
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "gridmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	o := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, commit: *commit}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, fp, err := run(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if *appendTo != "" {
		if err := appendRecord(*appendTo, fp, res); err != nil {
			fmt.Fprintf(os.Stderr, "gridmark: %v\n", err)
			os.Exit(1)
		}
	}
	humanTable(os.Stdout, fmt.Sprintf("%s seed=%d seconds=%g trace=%v", w.name, o.seed, o.seconds, o.trace), res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll re-executes the harness once per workload, so set-up time, CPU
// and peak RSS are each workload's own and not inherited from the one
// before.
func runAll() int {
	var passthrough []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" {
			passthrough = append(passthrough, "-"+f.Name+"="+f.Value.String())
		}
	})
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(os.Args[0], append([]string{"-workload", w.name}, passthrough...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "gridmark: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}
