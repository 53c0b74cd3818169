// Package experiments implements the paper's evaluation harness. The
// paper (a workshop architecture paper) states its results as qualitative
// claims rather than numbered tables; each experiment here turns one claim
// into a measured table. See DESIGN.md §5 for the experiment index and
// EXPERIMENTS.md for recorded results.
//
// All is the registry: one entry per experiment, holding its full
// configuration (the run EXPERIMENTS.md records) and its small one (the
// run tests and CI make). Every run returns one Table: its rows, and the
// bars that decide whether the claim held — the same bars at both scales.
// cmd/gridbench prints the tables and the summary through Report,
// TestExperiments runs every entry small, and bench_test.go times them.
package experiments

import (
	"cmp"
	"fmt"
	"io"
	"strings"
	"time"

	"gridproxy/internal/transport"
)

// Experiment is one registry entry.
type Experiment struct {
	// Name is the entry's handle ("e1"); Desc is one line for listings.
	Name string
	Desc string
	// Run executes the experiment at its full scale, or at its small
	// one. An error is an infrastructure failure (a testbed that does
	// not start); a claim that does not hold is a missed Bar.
	Run func(small bool) (Table, error)
}

// entry closes an experiment's run over its two configurations.
func entry[C any](name, desc string, full, small C, run func(C) (Table, error)) Experiment {
	return Experiment{Name: name, Desc: desc, Run: func(isSmall bool) (Table, error) {
		if isSmall {
			return run(small)
		}
		return run(full)
	}}
}

// All lists every experiment, in order.
var All = []Experiment{
	entry("e1", "MPI local vs proxy-multiplexed across sites",
		e1Config{MsgSizes: []int{1 << 10, 16 << 10, 64 << 10}, Rounds: 50},
		e1Config{MsgSizes: []int{4096}, Rounds: 10},
		e1),
	entry("e2", "crypto cost at site edges vs on every node",
		e2Config{Sites: 3, NodesPerSite: 4, Flows: 60, BytesPerFlow: 32 << 10, IntraFracs: []float64{0.1, 0.5, 0.9}, Seed: 7},
		e2Config{Sites: 2, NodesPerSite: 2, Flows: 6, BytesPerFlow: 1024, IntraFracs: []float64{0.5}, Seed: 1},
		e2),
	entry("e3", "load balancing vs MPI's round-robin placement",
		e3Config{Sites: 4, NodesPerSite: 8, Tasks: 512, TaskSkew: 4, NodeSkews: []float64{1, 2, 4, 8},
			Policies: []string{"round-robin", "random", "weighted-speed", "least-loaded"}, Seed: 11},
		e3Config{Sites: 2, NodesPerSite: 4, Tasks: 64, TaskSkew: 4, NodeSkews: []float64{1, 8},
			Policies: []string{"round-robin", "least-loaded"}, Seed: 3},
		e3),
	entry("e4", "site-compiled monitoring vs polling every node",
		e4Config{Shapes: [][2]int{{2, 4}, {4, 8}, {4, 16}, {8, 16}}},
		e4Config{Shapes: [][2]int{{3, 8}}},
		e4),
	entry("e5", "Kerberos-style tickets vs per-request auth",
		e5Config{RequestCounts: []int{1, 10, 100, 1000}},
		e5Config{RequestCounts: []int{20}},
		e5),
	entry("e6", "deployment footprint (modules per machine)",
		e6Config{Shapes: [][2]int{{2, 8}, {4, 16}, {8, 32}, {16, 64}}},
		e6Config{Shapes: [][2]int{{4, 16}}},
		e6),
	entry("e7", "failure containment when a proxy dies",
		e7Config{Shapes: [][2]int{{2, 4}, {3, 4}, {5, 4}}},
		e7Config{Shapes: [][2]int{{3, 2}}},
		e7),
	entry("e8", "one multiplexed tunnel vs connection-per-stream",
		e8Config{StreamCounts: []int{1, 8, 32, 128}, BytesEach: 64 << 10},
		e8Config{StreamCounts: []int{8}, BytesEach: 8 << 10},
		e8),
	entry("e9", "job survival: rank rescheduling across site death",
		e9Config{Shapes: [][3]int{{3, 2, 6}, {4, 2, 8}, {5, 2, 10}}, Work: 1500 * time.Millisecond},
		e9Config{Shapes: [][3]int{{3, 2, 6}}, Work: 400 * time.Millisecond},
		e9),
	entry("e10", "data plane: striped cross-site staging, cold vs warm",
		e10Config{BlobBytes: 8 << 20, ChunkSize: 128 << 10, StripeCounts: []int{1, 2, 4, 8}, BondConns: []int{1, 4},
			// gridmark's bulk_wan link, so cold MB/s reads against its
			// tunnel.link_utilisation.
			WAN: transport.LinkParams{OneWay: 10 * time.Millisecond, Rate: 125e6}},
		e10Config{BlobBytes: 256 << 10, ChunkSize: 32 << 10, StripeCounts: []int{2}},
		e10),
	entry("e11", "control-plane scaling: gossip directory vs all-pairs",
		e11Config{Ns: []int{100, 1000}, BudgetC: 4, SteadyWindow: 25, MaxRounds: 400, FlatFactor: 2, Seed: 1},
		e11Config{Ns: []int{32, 64}, BudgetC: 4, SteadyWindow: 25, MaxRounds: 400, FlatFactor: 2, Seed: 1},
		e11),
	entry("e12", "partition tolerance: false-dead, reconvergence, fencing",
		e12Config{Sites: 50, Minority: 10, GrayLoss: 0.3, ConvergeBudget: 80, PartitionRounds: 30, HealBudget: 4, SettleRounds: 8, Seed: 1},
		e12Config{Sites: 16, Minority: 3, GrayLoss: 0.3, ConvergeBudget: 80, PartitionRounds: 30, HealBudget: 4, SettleRounds: 8, Seed: 1},
		e12),
	entry("e13", "gateway admission control: served/queued/shed under overload",
		e13Config{Capacity: 64, QueueWait: 200 * time.Millisecond, LANLatency: time.Millisecond, Clients: 34_000, Users: 64,
			Multipliers: []int{1, 4, 16}, AdmittedP99Budget: 500 * time.Millisecond, ShedP99Budget: 10 * time.Millisecond, DrainUploads: 32},
		e13Config{Capacity: 64, QueueWait: 200 * time.Millisecond, LANLatency: time.Millisecond, Clients: 1666, Users: 64,
			Multipliers: []int{1, 4, 16}, AdmittedP99Budget: 500 * time.Millisecond, ShedP99Budget: 10 * time.Millisecond, DrainUploads: 32},
		e13),
}

// Table is one experiment's result: a header, rows of cells, and the
// bars its claim is judged by.
type Table struct {
	Title  string
	Claim  string
	Header []string
	Rows   [][]string
	Bars   []Bar
}

// Bar is one acceptance check: what was measured, what the claim needs,
// and whether it held.
type Bar struct {
	Name string
	Got  string
	Want string
	Held bool
}

// missed lists the names of the bars that did not hold.
func (t Table) missed() []string {
	var names []string
	for _, b := range t.Bars {
		if !b.Held {
			names = append(names, b.Name)
		}
	}
	return names
}

// Render formats the table, then its bars, as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	grid(&b, t.Header, t.Rows)
	if len(t.Bars) > 0 {
		rows := make([][]string, len(t.Bars))
		for i, bar := range t.Bars {
			held := "held"
			if !bar.Held {
				held = "MISSED"
			}
			rows[i] = []string{bar.Name, bar.Got, bar.Want, held}
		}
		b.WriteByte('\n')
		grid(&b, []string{"bar", "got", "want", ""}, rows)
	}
	return b.String()
}

// grid writes header and rows as columns padded to their widest cell.
func grid(b *strings.Builder, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	for _, row := range rows {
		writeRow(row)
	}
}

// Report runs each experiment, writes its table with its bars (also when
// one misses) and ends with the markdown summary EXPERIMENTS.md carries.
// It reports whether every experiment ran and every bar held.
func Report(w io.Writer, exps []Experiment, small bool) bool {
	ok := true
	var summary strings.Builder
	summary.WriteString("| ID | Experiment | Bars held | Verdict |\n|----|------------|-----------|---------|\n")
	for _, e := range exps {
		t, err := e.Run(small)
		id := strings.ToUpper(e.Name)
		if err != nil {
			ok = false
			fmt.Fprintf(w, "%s: %v\n\n", e.Name, err)
			fmt.Fprintf(&summary, "| %s | %s | — | error: %v |\n", id, e.Desc, err)
			continue
		}
		fmt.Fprintln(w, t.Render())
		verdict, missed := "holds", t.missed()
		if len(missed) > 0 {
			ok = false
			verdict = "misses " + strings.Join(missed, "; ")
		}
		fmt.Fprintf(&summary, "| %s | %s | %d/%d | %s |\n", id, e.Desc, len(t.Bars)-len(missed), len(t.Bars), verdict)
	}
	fmt.Fprintf(w, "## Summary\n\n%s", summary.String())
	return ok
}

// check is the bar "got op want", op one of <, <=, ==, >=, >.
func check[T cmp.Ordered](name string, got T, op string, want T) Bar {
	c := cmp.Compare(got, want)
	held := map[string]bool{"<": c < 0, "<=": c <= 0, "==": c == 0, ">=": c >= 0, ">": c > 0}[op]
	return Bar{Name: name, Got: show(got), Want: op + " " + show(want), Held: held}
}

// holds is the bar "ok is true".
func holds(name string, ok bool) Bar {
	return Bar{Name: name, Got: fmt.Sprint(ok), Want: "true", Held: ok}
}

func show(v any) string {
	switch v := v.(type) {
	case time.Duration:
		return dur(v)
	case float64:
		return f2(v)
	}
	return fmt.Sprint(v)
}

// most and least are the extremes of f over rows (zero for no rows);
// count is how many rows satisfy f.
func most[R any, T cmp.Ordered](rows []R, f func(R) T) (m T) {
	for i, r := range rows {
		if v := f(r); i == 0 || v > m {
			m = v
		}
	}
	return m
}

func least[R any, T cmp.Ordered](rows []R, f func(R) T) (m T) {
	for i, r := range rows {
		if v := f(r); i == 0 || v < m {
			m = v
		}
	}
	return m
}

func count[R any](rows []R, f func(R) bool) (n int) {
	for _, r := range rows {
		if f(r) {
			n++
		}
	}
	return n
}

// cell helpers keep row construction terse.
func itoa(v int) string   { return fmt.Sprintf("%d", v) }
func i64(v int64) string  { return fmt.Sprintf("%d", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func dur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
