package experiments

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridproxy/internal/transport"
)

// TestExperiments runs every registry entry at its small scale: each
// must run, fill every row to its header's width, and hold every bar.
// Under the race detector a wall-clock ceiling is reported, not failed:
// gridbench -small checks it on a normal build.
func TestExperiments(t *testing.T) {
	for _, e := range All {
		t.Run(e.Name, func(t *testing.T) {
			table, err := e.Run(true)
			if err != nil {
				t.Fatal(err)
			}
			if len(table.Rows) == 0 || len(table.Bars) == 0 {
				t.Fatalf("%d rows, %d bars", len(table.Rows), len(table.Bars))
			}
			for i, row := range table.Rows {
				if len(row) != len(table.Header) {
					// Render pads each cell to its column's width; a longer
					// row would index past them.
					t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(table.Header))
				}
			}
			for _, b := range table.Bars {
				switch {
				case b.Held:
				case raceEnabled && latencyCeiling(b):
					t.Logf("bar %q missed under the race detector: got %s, want %s", b.Name, b.Got, b.Want)
				default:
					t.Errorf("bar %q missed: got %s, want %s", b.Name, b.Got, b.Want)
				}
			}
			if t.Failed() {
				t.Log("\n" + table.Render())
			}
		})
	}
}

// latencyCeiling reports whether b bounds a duration from above.
func latencyCeiling(b Bar) bool {
	_, err := time.ParseDuration(strings.TrimPrefix(b.Want, "<= "))
	return strings.HasPrefix(b.Want, "<= ") && err == nil
}

func TestTableRender(t *testing.T) {
	table := Table{
		Title:  "T",
		Claim:  "c",
		Header: []string{"a", "long_header"},
		Rows:   [][]string{{"xxxxxxx", "1"}},
		Bars:   []Bar{check("n", 2, "<=", 1)},
	}
	out := table.Render()
	for _, want := range []string{"== T ==", "claim: c", "long_header", "xxxxxxx", "MISSED"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 7 {
		t.Errorf("lines = %d", len(lines))
	}
}

// A login reply too short to hold a token is an error, not a panic.
func TestLoginToken(t *testing.T) {
	for body, want := range map[string]string{
		`{"token":"abc","user":"u000"}`: "abc",
		`{"to`:                          "",
		`{}`:                            "",
	} {
		rr := httptest.NewRecorder()
		rr.WriteString(body)
		got, err := loginToken(rr)
		if got != want || (err == nil) != (want != "") {
			t.Errorf("loginToken(%q) = %q, %v; want %q", body, got, err, want)
		}
	}
}

// BenchmarkE1CrossSiteLatency isolates the latency the proxy pair adds on
// one shaped WAN link (the headline Figure 3 comparison at bench speed).
func BenchmarkE1CrossSiteLatency(b *testing.B) {
	if _, err := e1(e1Config{
		MsgSizes: []int{1024},
		Rounds:   b.N + 1,
		WAN:      transport.LinkParams{OneWay: 50 * time.Microsecond},
	}); err != nil {
		b.Fatal(err)
	}
}
