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

// jobState is one entry of the origin proxy's job table.
type jobState struct {
	appID string
	owner string
	// seq is the job's place in this proxy's submission order, from 1; a
	// listing's cursor names one.
	seq uint64
	// launch drives the job while it runs. A terminal record drops it and
	// keeps only what a query answers: state, detail and outputs.
	launch  *Launch
	state   proto.JobState
	detail  string
	outputs []proto.StageRef // the output refs, once terminal
	// terminalAt is when the job reached a terminal state; zero while it
	// is queued or running. The janitor prunes entries older than the
	// configured TTL.
	terminalAt time.Time
	// gone is set when the record leaves the table; the logs forget it
	// lazily.
	gone bool
}

// outputRefs returns the job's output refs, in name order, for the caller
// to keep: the launch's so far while it runs, the record's once terminal.
func (js *jobState) outputRefs() []proto.StageRef {
	if js.launch != nil {
		return js.launch.Outputs()
	}
	return slices.Clone(js.outputs)
}

// jobTable is the origin proxy's job table, guarded by Proxy.mu: every
// record by app id, and two logs over the same records in submission
// order — one of all owners' jobs, one per owner — so that a listing
// reads one page of one log and nothing else. Each record is in the table
// once and in each of its two logs once; a record taken out of the table
// is marked gone and its log entries are dropped lazily (see jobLog).
type jobTable struct {
	byID   map[string]*jobState
	all    jobLog
	owners map[string]*jobLog
	seq    uint64
}

func newJobTable() jobTable {
	return jobTable{byID: make(map[string]*jobState), owners: make(map[string]*jobLog)}
}

// add enters a new record at the newest end of its logs. An id the table
// still tracks is refused, finished or not.
func (t *jobTable) add(js *jobState) bool {
	if _, dup := t.byID[js.appID]; dup {
		return false
	}
	t.seq++
	js.seq = t.seq
	t.byID[js.appID] = js
	t.all.add(js)
	own := t.owners[js.owner]
	if own == nil {
		own = &jobLog{}
		t.owners[js.owner] = own
	}
	own.add(js)
	return true
}

// remove takes a record out of the table and its logs.
func (t *jobTable) remove(appID string) {
	js, ok := t.byID[appID]
	if !ok {
		return
	}
	delete(t.byID, appID)
	js.gone = true
	t.all.drop()
	own := t.owners[js.owner]
	own.drop()
	if len(own.recs) == 0 {
		delete(t.owners, js.owner)
	}
}

// jobLog is a submission-ordered log of job records, oldest first. Records
// leave the table in any order, so the log forgets them lazily: a gone
// record stays until it reaches the old end, which is trimmed at once —
// the janitor prunes mostly there — or until gone records are half the
// log, which is then compacted. Each entry is trimmed or compacted away
// once, so dropping costs O(1) amortised, and a page walks past at most
// as many gone entries as the log holds live ones.
type jobLog struct {
	recs []*jobState // ascending seq
	gone int         // entries of recs whose record is gone
}

func (l *jobLog) add(js *jobState) { l.recs = append(l.recs, js) }

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
		for _, js := range l.recs {
			if !js.gone {
				live = append(live, js)
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
		js := l.recs[i]
		if js.gone {
			continue
		}
		if len(out) == JobPage {
			return out, last
		}
		out = append(out, JobInfo{AppID: js.appID, State: jobStateName(js.state), Detail: js.detail})
		last = js.seq
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

func errDuplicateApp(appID string) error {
	return fmt.Errorf("core: duplicate app id %q", appID)
}

// registerJob installs a job-table entry before the launch can produce
// any completion report, so even an instantly-finishing remote group
// finds it. An id the table still tracks is refused: a finished job's
// record and outputs belong to whoever ran it until the janitor prunes it.
func (p *Proxy) registerJob(appID string, l *Launch) error {
	p.mu.Lock()
	ok := p.jobs.add(&jobState{appID: appID, owner: l.spec.Owner, launch: l, state: proto.JobQueued, detail: "preparing"})
	n := len(p.jobs.byID)
	p.mu.Unlock()
	if !ok {
		return errDuplicateApp(appID)
	}
	p.reg.Gauge(metrics.JobsTracked).Set(int64(n))
	return nil
}

// setJobRunning marks a job running unless it already reached a terminal
// state (an all-remote job can finish before the launcher gets here).
func (p *Proxy) setJobRunning(appID string) {
	p.mu.Lock()
	if js, ok := p.jobs.byID[appID]; ok && js.terminalAt.IsZero() {
		js.state = proto.JobRunning
		js.detail = "running"
	}
	p.mu.Unlock()
}

// setJobTerminal records a job's terminal state and outputs, stamps it for
// the janitor, and lets the launch go.
func (p *Proxy) setJobTerminal(appID string, state proto.JobState, detail string, outputs []proto.StageRef) {
	p.mu.Lock()
	if js, ok := p.jobs.byID[appID]; ok && js.terminalAt.IsZero() {
		js.state, js.detail, js.terminalAt = state, detail, p.clock()
		js.outputs, js.launch = outputs, nil
	}
	p.mu.Unlock()
}

// unregisterJob removes a job-table entry (aborted launches).
func (p *Proxy) unregisterJob(appID string) {
	p.mu.Lock()
	p.jobs.remove(appID)
	n := len(p.jobs.byID)
	p.mu.Unlock()
	p.reg.Gauge(metrics.JobsTracked).Set(int64(n))
}

// pruneJobs drops the terminal records older than the TTL at now.
func (p *Proxy) pruneJobs(now time.Time) {
	ttl := p.jobcfg.TerminalTTL
	pruned := 0
	p.mu.Lock()
	for id, js := range p.jobs.byID {
		if !js.terminalAt.IsZero() && now.Sub(js.terminalAt) >= ttl {
			p.jobs.remove(id)
			pruned++
		}
	}
	n := len(p.jobs.byID)
	p.mu.Unlock()
	if pruned > 0 {
		p.reg.Counter(metrics.JobsPruned).Add(int64(pruned))
		p.reg.Gauge(metrics.JobsTracked).Set(int64(n))
	}
}

// job returns a copy of a job's record, read under one lock.
func (p *Proxy) job(appID string) (jobState, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	js, ok := p.jobs.byID[appID]
	if !ok {
		return jobState{}, false
	}
	return *js, true
}

// JobStatus reports a job's state by app id.
func (p *Proxy) JobStatus(appID string) (proto.JobState, string, error) {
	js, ok := p.job(appID)
	if !ok {
		return 0, "", notFound("no job %q", appID)
	}
	return js.state, js.detail, nil
}
