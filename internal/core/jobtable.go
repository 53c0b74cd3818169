package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/proto"
)

// JobPage is the most records one job listing returns.
const JobPage = 100

// jobPart is the origin part of an application's record: the job this
// proxy launched, kept for queries and listings until the janitor prunes
// it. Guarded by Proxy.mu.
type jobPart struct {
	// launch drives the job while it runs. A terminal job drops it and
	// keeps only what a query answers: owner, state, detail and final.
	launch *Launch
	owner  string
	// seq is the job's place in this proxy's submission order, from 1; a
	// listing's cursor names one. 0 means the record has no origin part.
	seq    uint64
	state  proto.JobState
	detail string
	final  []proto.StageRef // the output refs, once terminal
	// terminalAt is when the job reached a terminal state; zero while it
	// is queued or running. The janitor prunes jobs older than the
	// configured TTL.
	terminalAt time.Time
	// gone is set when the origin part lets go of the record; the logs
	// forget it lazily.
	gone bool
}

// jobLogs index the origin parts of this proxy's records, guarded by
// Proxy.mu: two logs in submission order — one of all owners' jobs, one
// per owner — so that a listing reads one page of one log and nothing
// else. Each origin part is in each of its two logs once; one that lets
// go is marked gone and its log entries are dropped lazily (see jobLog).
type jobLogs struct {
	all     jobLog
	owners  map[string]*jobLog
	seq     uint64
	tracked *metrics.Gauge // origin parts in the logs
}

// add enters a record's new origin part at the newest end of its logs.
func (t *jobLogs) add(a *app) {
	t.seq++
	a.seq = t.seq
	t.all.add(a)
	own := t.owners[a.owner]
	if own == nil {
		own = &jobLog{}
		t.owners[a.owner] = own
	}
	own.add(a)
	t.tracked.Set(int64(len(t.all.recs) - t.all.gone))
}

// remove takes a record's origin part out of its logs.
func (t *jobLogs) remove(a *app) {
	if a.seq == 0 || a.gone {
		return
	}
	a.gone = true
	t.all.drop()
	own := t.owners[a.owner]
	own.drop()
	if len(own.recs) == 0 {
		delete(t.owners, a.owner)
	}
	t.tracked.Set(int64(len(t.all.recs) - t.all.gone))
}

// jobLog is a submission-ordered log of job records, oldest first. Records
// leave the table in any order, so the log forgets them lazily: a gone
// record stays until it reaches the old end, which is trimmed at once —
// the janitor prunes mostly there — or until gone records are half the
// log, which is then compacted. Each entry is trimmed or compacted away
// once, so dropping costs O(1) amortised, and a page walks past at most
// as many gone entries as the log holds live ones.
type jobLog struct {
	recs []*app // ascending seq
	gone int    // entries of recs whose origin part is gone
}

func (l *jobLog) add(a *app) { l.recs = append(l.recs, a) }

// drop accounts for one of the log's records having been marked gone.
func (l *jobLog) drop() {
	l.gone++
	old := 0
	for old < len(l.recs) && l.recs[old].gone {
		old++
	}
	if old > 0 {
		clear(l.recs[:old])
		l.recs = l.recs[old:]
		l.gone -= old
	}
	if 2*l.gone > len(l.recs) {
		live := l.recs[:0]
		for _, a := range l.recs {
			if !a.gone {
				live = append(live, a)
			}
		}
		clear(l.recs[len(live):])
		l.recs = live
		l.gone = 0
	}
}

// page appends to out the newest JobPage records submitted before the
// cursor (every record when before is 0), newest first. The returned
// cursor continues the listing after the page; 0 means nothing is left.
func (l *jobLog) page(before uint64, out []JobInfo) ([]JobInfo, uint64) {
	i := len(l.recs)
	if before != 0 {
		i = sort.Search(len(l.recs), func(k int) bool { return l.recs[k].seq >= before })
	}
	var last uint64
	for i--; i >= 0; i-- {
		a := l.recs[i]
		if a.gone {
			continue
		}
		if len(out) == JobPage {
			return out, last
		}
		out = append(out, JobInfo{AppID: a.id, State: jobStateName(a.state), Detail: a.detail})
		last = a.seq
	}
	return out, 0
}

// JobInfo is a queryable job record (web/CLI interfaces).
type JobInfo struct {
	AppID  string
	State  string
	Detail string
}

// Jobs lists one page of the jobs launched from this proxy, newest first:
// at most JobPage of owner's jobs (every owner's when owner is empty)
// submitted before the cursor (the newest when before is 0). The cursor it
// returns fetches the next page; 0 means this page is the last.
func (p *Proxy) Jobs(owner string, before uint64) ([]JobInfo, uint64) {
	out := make([]JobInfo, 0, JobPage)
	p.mu.Lock()
	defer p.mu.Unlock()
	log := &p.jobs.all
	if owner != "" {
		if log = p.jobs.owners[owner]; log == nil {
			return out, 0
		}
	}
	return log.page(before, out)
}

func jobStateName(s proto.JobState) string {
	switch s {
	case proto.JobQueued:
		return "queued"
	case proto.JobRunning:
		return "running"
	case proto.JobDone:
		return "done"
	case proto.JobFailed:
		return "failed"
	case proto.JobCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// setJobTerminal records a job's terminal state and outputs, stamps it for
// the janitor, and lets the launch go.
func (p *Proxy) setJobTerminal(a *app, state proto.JobState, detail string) {
	p.mu.Lock()
	if a.launch != nil {
		// What a finished job keeps: its outputs here, its placement with
		// its Launch; the record lets both go.
		a.mu.Lock()
		a.final, a.outputs = a.outputs, nil
		a.launch.placed, a.locations = a.locations, nil
		a.mu.Unlock()
		a.state, a.detail, a.terminalAt, a.launch = state, detail, p.clock(), nil
	}
	p.mu.Unlock()
	p.settle(a, nil)
}

// unregisterJob takes an aborted launch's origin part out of its record.
func (p *Proxy) unregisterJob(a *app) {
	p.mu.Lock()
	p.jobs.remove(a)
	a.launch = nil
	p.mu.Unlock()
	p.settle(a, nil)
}

// pruneJobs takes the origin parts that turned terminal longer than the
// TTL before now out of their records.
func (p *Proxy) pruneJobs(now time.Time) {
	var pruned []*app
	p.mu.Lock()
	for _, a := range p.records {
		if a.seq != 0 && !a.gone && !a.terminalAt.IsZero() && now.Sub(a.terminalAt) >= p.jobcfg.TerminalTTL {
			p.jobs.remove(a)
			pruned = append(pruned, a)
		}
	}
	p.mu.Unlock()
	for _, a := range pruned {
		p.settle(a, nil)
	}
	p.reg.Counter(metrics.JobsPruned).Add(int64(len(pruned)))
}

// job returns the record of a job launched from this proxy and a copy of
// its origin part, read under one lock.
func (p *Proxy) job(appID string) (*app, jobPart, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	a, ok := p.records[appID]
	if !ok || a.seq == 0 || a.gone {
		return nil, jobPart{}, false
	}
	return a, a.jobPart, true
}

// outputRefs returns a job's output refs, in name order, for the caller
// to keep: those published so far while it runs, the final ones once
// terminal.
func (p *Proxy) outputRefs(a *app) []proto.StageRef {
	p.mu.Lock()
	defer p.mu.Unlock()
	if a.launch == nil {
		return slices.Clone(a.final)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.Clone(a.outputs)
}

// JobStatus reports a job's state by app id.
func (p *Proxy) JobStatus(appID string) (proto.JobState, string, error) {
	_, j, ok := p.job(appID)
	if !ok {
		return 0, "", notFound("no job %q", appID)
	}
	return j.state, j.detail, nil
}
