package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/stage"
)

// options are one run's parameters.
type options struct {
	workload *workload
	seed     int64
	seconds  float64
	trace    bool
	commit   string
}

const (
	// setupRuns is how many times an untraced run brings the deployment
	// up; setup_s is the median and only the last one is kept and measured.
	// A traced run sets up once: setup_s belongs to the untraced run.
	setupRuns = 15
	// traceDir is where the traced run writes trace-<workload>.json,
	// relative to the root of the checkout the command runs from.
	traceDir = "bench/out"
)

// deployment is a started grid with its logged-in clients.
type deployment struct {
	workload *workload
	grid     *grid
	clients  []*client
}

func (d *deployment) close() {
	for _, c := range d.clients {
		c.close()
	}
	d.grid.close()
}

// setUp brings the deployment up until the first request is answered:
// CA, grid, gateway, peers connected, sessions logged in, GET /api/grid.
func setUp(ctx context.Context, o options) (*deployment, time.Duration, error) {
	start := time.Now()
	g, err := startGrid(ctx, o.workload.wan)
	if err != nil {
		return nil, 0, err
	}
	d := &deployment{workload: o.workload, grid: g}
	for i := 0; i < o.workload.clients; i++ {
		c := newClient(newSession(g.baseURL, users[i].name), o.seed, i, o.workload.inputBytes)
		d.clients = append(d.clients, c)
		if err := c.login(ctx, users[i].password); err != nil {
			d.close()
			return nil, 0, err
		}
		if err := c.gridView(ctx); err != nil {
			d.close()
			return nil, 0, err
		}
		c.queryMS = c.queryMS[:0]
	}
	return d, time.Since(start), nil
}

// prefillStores puts filler blobs straight into both stores until they
// sit at their cap, so every put of the timed window evicts: the steady
// state a long-running proxy is in. It is harness preconditioning, not
// part of setup_s.
func prefillStores(_ context.Context, d *deployment) error {
	filler := 0
	size := d.workload.inputBytes
	for _, s := range d.grid.sites {
		for stored := int64(0); stored < stage.DefaultMaxBytes; stored += int64(size) {
			data := make([]byte, size)
			filler++
			// Touch every page: the blobs that later replace these fillers
			// then reuse resident memory, as in a proxy that has been up
			// for a while, instead of faulting fresh pages in.
			for off := 0; off < len(data); off += 4096 {
				data[off] = byte(filler)
			}
			data[1], data[2] = byte(filler>>8), 0xF1
			s.proxy.Store().Put(data)
		}
	}
	return nil
}

// stageParams uploads each client's small input once, so every later job
// finds it in both stores.
func stageParams(ctx context.Context, d *deployment) error {
	for _, c := range d.clients {
		if err := c.stageParam(ctx); err != nil {
			return err
		}
	}
	return nil
}

// tally is everything one client loop observed in the timed window.
type tally struct {
	jobs      []jobSample
	attempted int
	failed    int
	busy      time.Duration
	// tracing is the time spent recording spans, between ops: the only
	// thing a traced window does that an untraced one does not.
	tracing time.Duration
}

// loop runs ops on one client until the deadline; an op that started
// before the deadline runs to completion.
func loop(ctx context.Context, w *workload, c *client, deadline time.Time, tr *tracer, t *tally) {
	for n := 0; time.Now().Before(deadline); n++ {
		start := time.Now()
		js, err := w.op(ctx, c)
		t.busy += time.Since(start)
		t.attempted++
		if err != nil {
			t.failed++
			if t.failed <= 3 {
				fmt.Fprintf(os.Stderr, "gridmark: %s: failed op: %v\n", w.name, err)
			}
			continue
		}
		if tr != nil {
			recording := time.Now()
			tr.addJob(fmt.Sprintf("%s-c%d-j%d", w.name, c.index, n), js)
			t.tracing += time.Since(recording)
		}
		t.jobs = append(t.jobs, js)
	}
}

// runClients runs every client's loop for d and merges what they saw.
func runClients(ctx context.Context, w *workload, clients []*client, d time.Duration, tr *tracer) tally {
	deadline := time.Now().Add(d)
	tallies := make([]tally, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			loop(ctx, w, c, deadline, tr, &tallies[i])
		}(i, c)
	}
	wg.Wait()
	var all tally
	for _, t := range tallies {
		all.jobs = append(all.jobs, t.jobs...)
		all.attempted += t.attempted
		all.failed += t.failed
		all.busy += t.busy
		all.tracing += t.tracing
	}
	return all
}

// snapshot is the process- and registry-level state around the window.
type snapshot struct {
	cpu      float64
	mem      runtime.MemStats
	origin   map[string]int64
	remote   map[string]int64
	gate     map[string]int64
	requests int
}

func takeSnapshot(d *deployment) snapshot {
	var s snapshot
	runtime.ReadMemStats(&s.mem)
	s.origin = d.grid.sites[0].reg.Snapshot()
	s.remote = d.grid.sites[1].reg.Snapshot()
	s.gate = d.grid.gateReg.Snapshot()
	for _, c := range d.clients {
		s.requests += c.requests
	}
	s.cpu = cpuSeconds()
	return s
}

// run measures one workload once and returns the printed result.
func run(ctx context.Context, o options) (result, fingerprint, error) {
	w := o.workload
	fp := newFingerprint(o.commit, w, o.seed, o.seconds, o.trace)
	res := result{Metrics: map[string]metric{}}

	var setupS []float64
	var d *deployment
	setups := setupRuns
	if o.trace {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		if d != nil {
			d.close()
		}
		var took time.Duration
		var err error
		d, took, err = setUp(ctx, o)
		if err != nil {
			return res, fp, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, took.Seconds())
	}
	defer d.close()

	if w.prepare != nil {
		if err := w.prepare(ctx, d); err != nil {
			return res, fp, fmt.Errorf("prepare: %w", err)
		}
	}

	// Warm-up: a fifth of the window, untimed, so caches fill, the
	// adaptive windows settle, lazy dials happen and the heap reaches the
	// size it recycles at before the clock starts. (A tenth was not
	// enough: bulk jobs ran at a third of their steady speed for the
	// first seconds, while the process was still faulting fresh pages in.)
	window := time.Duration(o.seconds * float64(time.Second))
	warm := runClients(ctx, w, d.clients, window/5, nil)
	if warm.failed > 0 {
		return res, fp, fmt.Errorf("%d of %d warm-up ops failed", warm.failed, warm.attempted)
	}
	for _, c := range d.clients {
		c.queryMS = c.queryMS[:0]
	}
	runtime.GC()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	before := takeSnapshot(d)
	t := runClients(ctx, w, d.clients, window, tr)
	after := takeSnapshot(d)

	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0 && len(t.jobs) > 0
	// A run that shed load or redialled a peer measured admission or
	// connection set-up, not service: that is a failed run.
	delta := func(a, b map[string]int64, name string) int64 { return b[name] - a[name] }
	shed := delta(before.gate, after.gate, metrics.GateShed)
	dials := delta(before.origin, after.origin, metrics.PeerDialsOnDemand) +
		delta(before.remote, after.remote, metrics.PeerDialsOnDemand)
	if shed != 0 || dials != 0 {
		fmt.Fprintf(os.Stderr, "gridmark: %s: gate.shed=%d peerlink.dials=%d in the timed window, want 0\n", w.name, shed, dials)
		res.Correct = false
	}
	if len(t.jobs) == 0 {
		return res, fp, fmt.Errorf("no job completed in %v", window)
	}

	if !o.trace {
		endToEnd(res.Metrics, d, t, before, after, setupS)
		return res, fp, nil
	}
	perLayer(res.Metrics, d, t, before, after)
	if err := ladder(ctx, o, d, tr, res.Metrics); err != nil {
		return res, fp, fmt.Errorf("ladder: %w", err)
	}
	if len(t.jobs[0].rttUS) > 0 {
		// The workload ran bench-exchange itself: its jobs are the larger
		// sample of the same program the ladder runs once.
		mpiMetrics(res.Metrics, t.jobs)
	}
	path, err := tr.write(traceDir, w.name, fp)
	if err != nil {
		return res, fp, err
	}
	fmt.Fprintf(os.Stderr, "gridmark: %d spans written to %s\n", len(tr.spans), path)
	return res, fp, nil
}

// series pulls one float per job out of the samples.
func series(jobs []jobSample, f func(jobSample) float64) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = f(j)
	}
	return out
}

func queryLatencies(d *deployment) []float64 {
	var all []float64
	for _, c := range d.clients {
		all = append(all, c.queryMS...)
	}
	return all
}

// total sums one quantity over the jobs.
func total(jobs []jobSample, f func(jobSample) float64) float64 {
	var sum float64
	for _, j := range jobs {
		sum += f(j)
	}
	return sum
}

// timedWall is the window as the clients lived it: the time they spent
// inside ops, averaged over the clients that ran concurrently.
func timedWall(d *deployment, t tally) float64 {
	return t.busy.Seconds() / float64(len(d.clients))
}

// endToEnd fills the metrics a user of the grid would see.
func endToEnd(m map[string]metric, d *deployment, t tally, before, after snapshot, setupS []float64) {
	turnaround := series(t.jobs, func(j jobSample) float64 { return ms(j.turnaround()) })
	submit := series(t.jobs, func(j jobSample) float64 { return ms(j.phases[1]) })
	jobs := float64(len(t.jobs))
	m["setup_s"] = metric{median(setupS), "s"}
	m["turnaround_ms_p50"] = metric{median(turnaround), "ms"}
	m["turnaround_ms_p90"] = metric{quantile(turnaround, 0.90), "ms"}
	m["submit_ms_p50"] = metric{median(submit), "ms"}
	m["jobs_per_s"] = metric{jobs / timedWall(d, t), "1/s"}
	m["cpu_ms_per_job"] = metric{(after.cpu - before.cpu) * 1e3 / jobs, "ms"}
	m["peak_rss_MiB"] = metric{peakRSSMiB(), "MiB"}
}

// ratio is a/b, or 0 when b is 0 (nothing of that kind happened).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer fills the metrics that come from the jobs' phase spans, the
// registries the harness handed to the proxies and the gateway, and the
// Go runtime. The ladder adds the rest.
func perLayer(m map[string]metric, d *deployment, t tally, before, after snapshot) {
	for i, name := range phaseNames {
		m["phase."+name+"_ms"] = metric{median(series(t.jobs, func(j jobSample) float64 { return ms(j.phases[i]) })), "ms"}
	}
	// The traced window's own median turnaround (not the sum of the phase
	// medians, which differs where a phase is bimodal, as the run phase of
	// control_mix is: one poll or two): to be set against the untraced
	// runs' turnaround_ms_p50.
	m["phase.total_ms"] = metric{median(series(t.jobs, func(j jobSample) float64 { return ms(j.turnaround()) })), "ms"}
	// The end-to-end metrics come from untraced runs. A traced window runs
	// the same ops and records their spans between them, so what tracing
	// costs is that recording time, measured directly as a share of the
	// time spent in ops. (phase.total_ms against the untraced runs'
	// turnaround_ms_p50 is in out/SPREADS.md; the difference cannot be told
	// from run-to-run drift.)
	m["trace_overhead_pct"] = metric{100 * t.tracing.Seconds() / t.busy.Seconds(), "%"}

	jobs := float64(len(t.jobs))
	payload := total(t.jobs, func(j jobSample) float64 { return float64(j.payload) })
	cpu := after.cpu - before.cpu
	submit := series(t.jobs, func(j jobSample) float64 { return ms(j.phases[1]) })
	m["goodput_MBps"] = metric{payload / 1e6 / timedWall(d, t), "MB/s"}
	m["cpu_s_per_GiB"] = metric{cpu / (payload / (1 << 30)), "s/GiB"}
	m["submit_ms_p99"] = metric{quantile(submit, 0.99), "ms"}
	queries := queryLatencies(d)
	m["query_ms_p50"] = metric{median(queries), "ms"}
	m["query_ms_p99"] = metric{quantile(queries, 0.99), "ms"}

	both := func(name string) float64 {
		return float64(after.origin[name] - before.origin[name] + after.remote[name] - before.remote[name])
	}
	gate := func(name string) float64 { return float64(after.gate[name] - before.gate[name]) }
	m["gate.queued"] = metric{gate(metrics.GateQueued), "count"}
	m["gate.shed"] = metric{gate(metrics.GateShed), "count"}
	m["gate.pool_dials"] = metric{gate(metrics.GatePoolDials), "count"}
	// Only the launch protocol's own calls, counted where they are served:
	// control.rpcs also counts heartbeats, gossip and status refreshes,
	// which tick with the clock and not with the jobs.
	m["core.rpcs_per_job"] = metric{(both(metrics.JobPrepares) + both(metrics.JobCommits) + both(metrics.JobAbortsServed)) / jobs, "count"}
	m["peerlink.dials"] = metric{both(metrics.PeerDialsOnDemand), "count"}

	hits, misses := both(metrics.StageCacheHits), both(metrics.StageCacheMisses)
	m["stage.cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	// Staged inputs travel origin → remote; what the remote received over
	// what the jobs staged is the transfer's amplification.
	received := float64(after.remote[metrics.StageBytesReceived] - before.remote[metrics.StageBytesReceived])
	staged := total(t.jobs, func(j jobSample) float64 { return float64(j.staged) })
	m["stage.bytes_amplification"] = metric{ratio(received, staged), "ratio"}
	m["stage.chunk_retries"] = metric{both(metrics.StageChunkRetries), "count"}

	flushes := both(metrics.TunnelFlushes)
	m["tunnel.frames_per_flush"] = metric{ratio(both(metrics.TunnelBatchFrames), flushes), "count"}
	m["tunnel.bytes_per_flush"] = metric{ratio(both(metrics.TunnelFlushBytes), flushes), "B"}
	m["tunnel.bond_retransmits"] = metric{both(metrics.TunnelBondRetransmits), "count"}
	m["tunnel.rtt_us"] = metric{float64(after.origin[metrics.TunnelRTTMicros]), "us"}
	// The share of the yardstick link's capacity, in the direction inputs
	// travel, that the window's staged bytes took up.
	m["tunnel.link_utilisation"] = metric{received / (timedWall(d, t) * wanParams.Rate), "ratio"}

	allocs := float64(after.mem.Mallocs - before.mem.Mallocs)
	m["runtime.allocs_per_MiB"] = metric{allocs / (payload / mib), "count"}
	m["runtime.allocs_per_req"] = metric{allocs / float64(after.requests-before.requests), "count"}
	m["runtime.gc_pause_ms"] = metric{float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6, "ms"}
	m["runtime.heap_peak_MiB"] = metric{float64(after.mem.HeapSys) / mib, "MiB"}
}

// mpiMetrics reports bench-exchange's own measurements.
func mpiMetrics(m map[string]metric, jobs []jobSample) {
	var rtt []float64
	for _, j := range jobs {
		rtt = append(rtt, j.rttUS...)
	}
	m["mpi_rtt_us_p50"] = metric{median(rtt), "us"}
	m["mpi_rtt_us_p99"] = metric{quantile(rtt, 0.99), "us"}
	m["mpi_stream_MBps"] = metric{median(series(jobs, func(j jobSample) float64 { return j.streamMBps })), "MB/s"}
}
