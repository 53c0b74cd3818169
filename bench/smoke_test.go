package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func checkDeclared(t *testing.T, what string, want []declared, got map[string]metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: harness printed %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: %s is declared but was not printed", what, d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s: %s printed in %q, declared in %q", what, d.Name, m.Unit, d.Unit)
		}
	}
}

// TestSmoke runs every workload for a fraction of a second, and the traced
// run with both ladders once, so the harness stays compiling, correct, and
// in step with BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up real grids on loopback sockets")
	}
	// Run from the root of the checkout, as the command does: the traced
	// run writes under bench/out there.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(file.Workloads), len(workloads))
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness, or their reasons differ", i, file.Workloads[i].Name, w.name)
		}
		o := options{workload: w, seed: 7, seconds: 0.3}
		res, _, err := run(ctx, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.name, res.Correct, res.Failed, res.Attempted)
		}
		checkDeclared(t, w.name, file.EndToEnd, res.Metrics)
	}
	o := options{workload: findWorkload("control_mix"), seed: 7, seconds: 0.3, trace: true}
	res, _, err := run(ctx, o)
	if err != nil {
		t.Fatalf("traced control_mix: %v", err)
	}
	if !res.Correct {
		t.Errorf("traced control_mix: correct=false, failed=%d of %d", res.Failed, res.Attempted)
	}
	checkDeclared(t, "traced control_mix", file.PerLayer, res.Metrics)
	if hit := res.Metrics["stage.cache_hit_ratio"].Value; hit != 1 {
		t.Errorf("control_mix staged something: cache hit ratio %v, want 1", hit)
	}
	if rpcs := res.Metrics["core.rpcs_per_job"].Value; rpcs != 2 {
		t.Errorf("control_mix: %v launch RPCs per job, want exactly 2 (prepare, commit)", rpcs)
	}
}
