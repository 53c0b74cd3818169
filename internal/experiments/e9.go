package experiments

import (
	"context"
	"fmt"
	"time"

	"gridproxy/internal/core"
	"gridproxy/internal/metrics"
	"gridproxy/internal/node"
	"gridproxy/internal/site"
)

// e9Row is one job-survival measurement: a multi-site MPI launch whose
// hosting site is killed mid-run.
type e9Row struct {
	Sites        int
	NodesPerSite int
	Procs        int
	// RanksLost counts the ranks placed on the killed site.
	RanksLost int
	// Reschedules counts reschedule rounds the origin ran (expected 1).
	Reschedules int
	// TimeToReschedule is kill → lost ranks respawned on survivors.
	TimeToReschedule time.Duration
	// JobRuntime is launch → completion, including the recovery.
	JobRuntime time.Duration
	// Survived reports whether the launch still completed successfully.
	Survived bool
}

// e9Config parameterizes experiment E9.
type e9Config struct {
	// Shapes are (sites, nodes per site, procs) triples.
	Shapes [][3]int
	// Work is how long each rank computes; it must comfortably exceed
	// detection + reschedule so the kill lands mid-run.
	Work time.Duration
}

// e9 launches a grid-wide MPI application, kills one hosting site's
// proxy mid-run, and measures whether the job survives: the origin must
// consult the scheduler for replacement placements and respawn the lost
// ranks on the survivors (restart-from-scratch for those ranks), within
// the retry budget. This closes the loop E7 opened — there the *link*
// recovered in tens of milliseconds; here the *job* riding on it does.
func e9(cfg e9Config) (Table, error) {
	t := Table{
		Title:  "E9 — job survival: one hosting site dies mid-run",
		Claim:  "the origin proxy reschedules the lost ranks onto survivors and the application completes",
		Header: []string{"sites", "nodes/site", "procs", "ranks_lost", "reschedules", "time_to_resched", "job_runtime", "survived"},
	}
	var rows []e9Row
	for _, shape := range cfg.Shapes {
		r, err := runE9Shape(shape[0], shape[1], shape[2], cfg.Work)
		if err != nil {
			return Table{}, fmt.Errorf("e9 %dx%dx%d: %w", shape[0], shape[1], shape[2], err)
		}
		rows = append(rows, r)
		t.Rows = append(t.Rows, []string{
			itoa(r.Sites), itoa(r.NodesPerSite), itoa(r.Procs), itoa(r.RanksLost),
			itoa(r.Reschedules), dur(r.TimeToReschedule), dur(r.JobRuntime),
			fmt.Sprintf("%v", r.Survived),
		})
	}
	// Recovery must be control-plane fast, far below the rank runtime.
	resched := func(r e9Row) time.Duration { return r.TimeToReschedule }
	t.Bars = []Bar{
		check("ranks_lost, min", least(rows, func(r e9Row) int { return r.RanksLost }), ">=", 1),
		check("rows with survived", count(rows, func(r e9Row) bool { return r.Survived }), "==", len(rows)),
		check("reschedules, min", least(rows, func(r e9Row) int { return r.Reschedules }), ">=", 1),
		check("time_to_resched, min", least(rows, resched), ">", 0),
		check("time_to_resched, max", most(rows, resched), "<=", 10*time.Second),
	}
	return t, nil
}

func runE9Shape(sitesCount, nodesPerSite, procs int, work time.Duration) (e9Row, error) {
	reg := metrics.NewRegistry()
	tbCfg := site.TestbedConfig{
		GridName: "e9",
		Metrics:  reg,
	}
	for s := 0; s < sitesCount; s++ {
		tbCfg.Sites = append(tbCfg.Sites, site.SiteSpec{
			Name:  fmt.Sprintf("site%d", s),
			Nodes: site.UniformNodes(nodesPerSite, 1),
		})
	}
	tb, err := site.NewTestbed(tbCfg)
	if err != nil {
		return e9Row{}, err
	}
	defer tb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := tb.ConnectAll(ctx); err != nil {
		return e9Row{}, err
	}

	// Each rank computes for `work`, or aborts when killed.
	tb.RegisterProgram("e9work", func(ctx context.Context, env node.Env) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(work):
			return nil
		}
	})

	origin := tb.Sites[0].Proxy
	started := time.Now()
	launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{
		Owner: "admin", Program: "e9work", Procs: procs,
	})
	if err != nil {
		return e9Row{}, err
	}

	// Kill the non-origin site hosting the most ranks, mid-run.
	victim, lost := "", 0
	perSite := make(map[string]int)
	for _, loc := range launch.Locations {
		perSite[loc.Site]++
	}
	for s, n := range perSite {
		if s != tb.Sites[0].Name && (n > lost || (n == lost && s < victim)) {
			victim, lost = s, n
		}
	}
	row := e9Row{Sites: sitesCount, NodesPerSite: nodesPerSite, Procs: procs, RanksLost: lost}
	if victim == "" {
		// Placement kept everything local: nothing to kill, job trivially
		// survives.
		err := launch.Wait(ctx)
		row.Survived = err == nil
		row.JobRuntime = time.Since(started)
		return row, nil
	}
	time.Sleep(work / 10)
	// Time-to-reschedule: kill → the lost ranks respawned elsewhere. The
	// target is read before the kill: Close returns after the survivors
	// have seen the sessions die, and by then the ranks may be respawned.
	wantRanks := reg.Counter(metrics.RanksRescheduled).Value() + int64(lost)
	killed := time.Now()
	tb.Site(victim).Close()

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter(metrics.RanksRescheduled).Value() >= wantRanks {
			row.TimeToReschedule = time.Since(killed)
			break
		}
		time.Sleep(time.Millisecond)
	}

	err = launch.Wait(ctx)
	row.Survived = err == nil
	row.JobRuntime = time.Since(started)
	row.Reschedules = int(reg.Counter(metrics.JobReschedules).Value())
	return row, nil
}
