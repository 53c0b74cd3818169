package core

// White-box tests for the job table's logs: a listing is one page of one
// submission-ordered log, so these drive open, setJobTerminal,
// unregisterJob and pruneJobs directly on a proxy that was never started
// (no janitor of its own) under a clock the test moves.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/proto"
	"gridproxy/internal/transport"
)

type jobClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *jobClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *jobClock) set(t time.Time) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

func (c *jobClock) advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

func newJobProxy(t testing.TB, ttl time.Duration) (*Proxy, *jobClock) {
	t.Helper()
	users, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	clock := &jobClock{t: time.Unix(1_700_000_000, 0)}
	p, err := New(Config{
		Site:  "org",
		WAN:   transport.NewMemNetwork(),
		Local: transport.NewMemNetwork(),
		Users: users,
		Jobs:  JobConfig{TerminalTTL: ttl},
		Clock: clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p, clock
}

// jobID names the i-th submission so that ids sort in submission order.
func jobID(i int) string { return fmt.Sprintf("job-%06d", i) }

func register(t testing.TB, p *Proxy, i int, owner string) {
	t.Helper()
	if err := p.registerJob(jobID(i), owner); err != nil {
		t.Fatal(err)
	}
}

// registerJob enters the origin part of a launch that never runs.
func (p *Proxy) registerJob(id, owner string) error {
	_, _, err := p.open(id, LaunchSpec{Owner: owner}, nil, &Launch{AppID: id, proxy: p}, nil)
	return err
}

// record returns the record of id; nil when the site holds none.
func (p *Proxy) record(id string) *app {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.records[id]
}

func finish(p *Proxy, i int) {
	p.setJobTerminal(p.record(jobID(i)), proto.JobDone, "completed")
}

// checkJobIndex asserts the table's invariant: every record is in the
// all-owners log once and in its owner's log once, every log entry not
// marked gone is a record of the table, and lazy deletion stays within
// its bounds (the old end is never gone; gone entries are at most half).
func checkJobIndex(t *testing.T, p *Proxy) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := make(map[*app]int)
	check := func(name string, l *jobLog, owner string, all bool) {
		var prev uint64
		gone := 0
		for _, a := range l.recs {
			if a.seq <= prev {
				t.Errorf("log %s: seq %d after %d", name, a.seq, prev)
			}
			prev = a.seq
			if a.gone {
				gone++
				continue
			}
			if p.records[a.id] != a {
				t.Errorf("log %s: %s is not a record of the table", name, a.id)
			}
			if !all && a.owner != owner {
				t.Errorf("log %s holds %s of %q", name, a.id, a.owner)
			}
			seen[a]++
		}
		if gone != l.gone {
			t.Errorf("log %s: %d gone entries, counted %d", name, gone, l.gone)
		}
		if 2*gone > len(l.recs) {
			t.Errorf("log %s: %d of %d entries gone, not compacted", name, gone, len(l.recs))
		}
		if len(l.recs) > 0 && l.recs[0].gone {
			t.Errorf("log %s: gone entry left at the old end", name)
		}
		if !all && len(l.recs) == 0 {
			t.Errorf("log %s kept empty", name)
		}
	}
	check("all", &p.jobs.all, "", true)
	for owner, l := range p.jobs.owners {
		check("owner "+owner, l, owner, false)
	}
	for id, a := range p.records {
		if a.seq != 0 && !a.gone && seen[a] != 2 {
			t.Errorf("record %s is in %d log entries, want 2", id, seen[a])
		}
	}
}

// TestJobsPageListsNewestFirstWhilePruned: 2 500 jobs of three owners,
// some rejected, most finished; the janitor prunes between every two
// pages, and the record each cursor names is pruned before it is used.
// Every listing — each owner's and all owners' — comes back newest first,
// in pages of at most JobPage, disjoint, and complete: every job still in
// the table when the listing ends was listed.
func TestJobsPageListsNewestFirstWhilePruned(t *testing.T) {
	const (
		n    = 2500
		ttl  = 3 * time.Second
		step = time.Millisecond
	)
	owners := []string{"ann", "ben", "cat"}
	for _, who := range append([]string{""}, owners...) {
		t.Run("owner="+who, func(t *testing.T) {
			p, clock := newJobProxy(t, ttl)
			rng := rand.New(rand.NewSource(1))
			ownerOf := make([]string, n)
			for i := range ownerOf {
				ownerOf[i] = owners[rng.Intn(len(owners))]
				clock.advance(step)
				register(t, p, i, ownerOf[i])
				switch r := rng.Intn(10); {
				case r == 0:
					p.unregisterJob(p.record(jobID(i))) // a rejected launch
				case r < 7:
					finish(p, i)
				}
			}
			checkJobIndex(t, p)

			index := make(map[string]int, n)
			for i := range ownerOf {
				index[jobID(i)] = i
			}
			var order []int // submission indices, as listed
			var before uint64
			cursorsPruned := 0
			for pages := 0; ; pages++ {
				if pages > n {
					t.Fatal("the listing does not end")
				}
				page, next := p.Jobs(who, before)
				if len(page) > JobPage || (next != 0 && len(page) != JobPage) {
					t.Fatalf("page %d: %d records, next %d", pages, len(page), next)
				}
				for _, job := range page {
					i, ok := index[job.JobID]
					if !ok {
						t.Fatalf("listed unknown job %q", job.JobID)
					}
					if who != "" && ownerOf[i] != who {
						t.Fatalf("%s of %q listed for %q", job.JobID, ownerOf[i], who)
					}
					if k := len(order); k > 0 && i >= order[k-1] {
						t.Fatalf("%s listed after %s: not newest first", job.JobID, jobID(order[k-1]))
					}
					order = append(order, i)
				}
				if next == 0 {
					break
				}
				// The janitor runs between the pages, and the record the
				// cursor names finished long ago.
				now := clock.advance(300 * time.Millisecond)
				if id, ok := p.idAt(next); ok {
					clock.set(now.Add(-2 * ttl))
					p.setJobTerminal(p.record(id), proto.JobDone, "completed")
					clock.set(now)
				}
				p.pruneJobs(now)
				if _, ok := p.idAt(next); !ok {
					cursorsPruned++
				}
				before = next
			}
			if cursorsPruned == 0 {
				t.Error("no cursor outlived its record")
			}
			listed := make(map[int]bool, len(order))
			for _, i := range order {
				listed[i] = true
			}
			for i, owner := range ownerOf {
				if _, _, ok := p.job(jobID(i)); ok && (who == "" || owner == who) && !listed[i] {
					t.Errorf("%s of %q is in the table but was not listed", jobID(i), owner)
				}
			}
			checkJobIndex(t, p)
		})
	}
}

// idAt returns the app id of the record with sequence number seq.
func (p *Proxy) idAt(seq uint64) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, a := range p.records {
		if a.seq == seq && !a.gone {
			return id, true
		}
	}
	return "", false
}

// TestJobListingAllocatesOnePage: a page call allocates the
// same at 1 000 records as at 100 000 — it copies one page, not the table.
func TestJobListingAllocatesOnePage(t *testing.T) {
	owners := []string{"ann", "ben", "cat"}
	allocs := func(n int) float64 {
		p, _ := newJobProxy(t, time.Hour)
		for i := 0; i < n; i++ {
			register(t, p, i, owners[i%len(owners)])
			if i%2 == 0 {
				finish(p, i)
			}
		}
		middle := uint64(n / 2)
		return testing.AllocsPerRun(50, func() {
			p.Jobs("", 0)
			p.Jobs("ben", middle)
		})
	}
	small, large := allocs(1_000), allocs(100_000)
	if small != large {
		t.Errorf("a page call allocates %v times at 1 000 records, %v at 100 000", small, large)
	}
}

// TestJobIndexUnderConcurrentChurn: a launcher registers (and sometimes
// rejects) jobs, a finisher ends them, a janitor prunes them, and two
// listers page through the table meanwhile. Every page is newest first,
// and afterwards each record is in exactly one entry of each of its logs.
func TestJobIndexUnderConcurrentChurn(t *testing.T) {
	const n = 3000
	p, clock := newJobProxy(t, 20*time.Millisecond)
	owners := []string{"ann", "ben", "cat"}
	finished := make(chan int)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // launcher
		defer wg.Done()
		defer close(finished)
		for i := 0; i < n; i++ {
			if err := p.registerJob(jobID(i), owners[i%len(owners)]); err != nil {
				t.Error(err)
				return
			}
			if i%10 == 0 {
				p.unregisterJob(p.record(jobID(i)))
				continue
			}
			finished <- i
		}
	}()
	go func() { // finisher
		defer wg.Done()
		defer close(done)
		for i := range finished {
			finish(p, i)
		}
	}()
	go func() { // janitor
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			p.pruneJobs(clock.advance(time.Millisecond))
		}
	}()
	var lwg sync.WaitGroup
	for _, owner := range []string{"", "ben"} {
		lwg.Add(1)
		go func() {
			defer lwg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var before uint64
				for {
					page, next := p.Jobs(owner, before)
					if len(page) > JobPage {
						t.Errorf("a page of %d", len(page))
						return
					}
					for k := 1; k < len(page); k++ {
						if page[k].JobID >= page[k-1].JobID {
							t.Errorf("%s listed after %s", page[k].JobID, page[k-1].JobID)
							return
						}
					}
					if next == 0 {
						break
					}
					before = next
				}
			}
		}()
	}
	wg.Wait()
	lwg.Wait()
	checkJobIndex(t, p)
}

// TestJobIndexRefusesTrackedID: an id the table still tracks cannot be
// registered again, finished or not, so no record is overwritten and no
// second log entry appears; once pruned, the id is free.
func TestJobIndexRefusesTrackedID(t *testing.T) {
	p, clock := newJobProxy(t, time.Minute)
	register(t, p, 1, "alice")
	if err := p.registerJob(jobID(1), "bob"); err == nil {
		t.Fatal("a running job's id was registered twice")
	}
	finish(p, 1)
	if err := p.registerJob(jobID(1), "bob"); err == nil {
		t.Fatal("a finished job's id was registered again")
	}
	if _, j, _ := p.job(jobID(1)); j.owner != "alice" || j.state != proto.JobDone {
		t.Errorf("record after the refusals: owner %q, state %v", j.owner, j.state)
	}
	checkJobIndex(t, p)
	p.pruneJobs(clock.advance(2 * time.Minute))
	register(t, p, 1, "bob")
	checkJobIndex(t, p)
}
