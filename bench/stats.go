package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of samples by linear
// interpolation between order statistics. It sorts a copy.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

const mib = 1 << 20

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reads the process's resident high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fingerprint describes where and how a result was measured.
type fingerprint struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	Medium     string  `json:"medium"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Deviations string  `json:"knob_deviations"`
	When       string  `json:"when"`
}

func firstLineWith(path, prefix string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), prefix) {
			_, v, _ := strings.Cut(sc.Text(), ":")
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func newFingerprint(commit string, w *workload, seed int64, seconds float64, trace bool) fingerprint {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	medium := "loopback TCP + TLS, unshaped"
	if w.wan {
		p := wanParams
		medium = fmt.Sprintf("loopback TCP + TLS through wanem: %v one way, %.0f MB/s per direction shared, queue 2xBDP",
			p.OneWay, p.Rate/1e6)
	}
	return fingerprint{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   firstLineWith("/proc/cpuinfo", "model name"),
		Kernel:     strings.TrimSpace(string(kernel)),
		Medium:     medium,
		Workload:   w.name,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Deviations: fmt.Sprintf("gate user_rate=group_rate=%g req/s (defaults 50/200); core job-record TTL %v (default 15m)",
			float64(gateRate), jobRecordTTL),
		When: time.Now().UTC().Format(time.RFC3339),
	}
}

// appendRecord adds one JSON line to path and never rewrites an earlier
// one: the trajectory is append-only by construction (O_APPEND).
func appendRecord(path string, fp fingerprint, res result) error {
	line, err := json.Marshal(struct {
		Env    fingerprint `json:"env"`
		Result result      `json:"result"`
	}{fp, res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// humanTable renders metrics for people, sorted by name.
func humanTable(w io.Writer, title string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: ops_failed / ops_attempted = %d / %d, correct = %v\n", title, res.Failed, res.Attempted, res.Correct)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", name, v.Value, v.Unit)
	}
}
