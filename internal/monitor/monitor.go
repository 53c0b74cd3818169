// Package monitor implements the grid's status collection (paper layer 3):
// "The control and collection of status information on the grid are done
// in a distributed form, with each proxy responsible for the collection and
// control of the site where it is located. The global status is obtained by
// compilation of all the sites' data."
//
// Node agents push NodeStats to their site's Collector (running inside the
// site proxy); the Collector compiles a SiteSummary on demand; Compile
// totals the summaries of many sites. Experiment E4 compares this
// site-compiled scheme against centrally polling every node.
package monitor

import (
	"sort"
	"sync"
	"time"

	"gridproxy/internal/membership"
	"gridproxy/internal/proto"
)

// DefaultStaleAfter is how long a node report stays fresh. Nodes that have
// not reported within this window count as down.
const DefaultStaleAfter = 30 * time.Second

// NodeStats is one node's self-reported state — the quantities the paper's
// Grid API exposes ("availability of RAM memory, CPU and HD").
type NodeStats struct {
	Node       string
	CPUFreePct float64
	RAMFreeMB  int64
	DiskFreeMB int64
	Load1      float64
	Procs      int
	Collected  time.Time
	Speed      float64 // relative compute speed
}

// ToReport converts stats to its wire form.
func (s NodeStats) ToReport() *proto.NodeReport {
	return &proto.NodeReport{
		Node:       s.Node,
		CPUFreePct: s.CPUFreePct,
		RAMFreeMB:  s.RAMFreeMB,
		DiskFreeMB: s.DiskFreeMB,
		Load1:      s.Load1,
		Procs:      uint32(s.Procs),
		UnixNano:   s.Collected.UnixNano(),
	}
}

// StatsFromReport converts the wire form back.
func StatsFromReport(r *proto.NodeReport) NodeStats {
	return NodeStats{
		Node:       r.Node,
		CPUFreePct: r.CPUFreePct,
		RAMFreeMB:  r.RAMFreeMB,
		DiskFreeMB: r.DiskFreeMB,
		Load1:      r.Load1,
		Procs:      int(r.Procs),
		Collected:  time.Unix(0, r.UnixNano),
	}
}

// SiteSummary is the compiled status of one site: counts plus aggregate
// resource availability. CPUFreePct and Load1 are averages over live
// nodes; RAM, disk and Speed are sums.
type SiteSummary struct {
	Site         string
	Nodes        int
	NodesUp      int
	CPUFreePct   float64
	RAMFreeMB    int64
	DiskFreeMB   int64
	Load1        float64
	RunningProcs int
	Speed        float64
	// Hosted counts the ranks the site runs for each origin site.
	Hosted    []proto.HostedProcs
	Collected time.Time
	// Age is how long ago the summary was collected, as accounted by the
	// proxy that served it (gossip hops included) — the staleness marker
	// consumers check instead of trusting Collected across skewed
	// clocks. Zero for a locally compiled summary.
	Age time.Duration
	// Incarnation and Member stamp the membership view under which the
	// summary was served: the site's incarnation number and liveness
	// state. Dead sites are never served, so Member is alive or suspect.
	Incarnation uint64
	Member      membership.State
}

// ToStatus converts the summary to its wire form.
func (s SiteSummary) ToStatus() proto.SiteStatus {
	return proto.SiteStatus{
		Site:          s.Site,
		Nodes:         uint32(s.Nodes),
		NodesUp:       uint32(s.NodesUp),
		CPUFreePct:    s.CPUFreePct,
		RAMFreeMB:     s.RAMFreeMB,
		DiskFreeMB:    s.DiskFreeMB,
		Load1:         s.Load1,
		RunningProcs:  uint32(s.RunningProcs),
		CollectedUnix: s.Collected.Unix(),
		AgeMillis:     s.Age.Milliseconds(),
		Incarnation:   s.Incarnation,
		Member:        uint8(s.Member),
		Speed:         s.Speed,
		Hosted:        s.Hosted,
	}
}

// SummaryFromStatus converts the wire form back.
func SummaryFromStatus(s proto.SiteStatus) SiteSummary {
	return SiteSummary{
		Site:         s.Site,
		Nodes:        int(s.Nodes),
		NodesUp:      int(s.NodesUp),
		CPUFreePct:   s.CPUFreePct,
		RAMFreeMB:    s.RAMFreeMB,
		DiskFreeMB:   s.DiskFreeMB,
		Load1:        s.Load1,
		RunningProcs: int(s.RunningProcs),
		Collected:    time.Unix(s.CollectedUnix, 0),
		Age:          time.Duration(s.AgeMillis) * time.Millisecond,
		Incarnation:  s.Incarnation,
		Member:       membership.State(s.Member),
		Speed:        s.Speed,
		Hosted:       s.Hosted,
	}
}

// Collector gathers node reports for one site. It is safe for concurrent
// use.
type Collector struct {
	site       string
	staleAfter time.Duration
	clock      func() time.Time

	mu    sync.RWMutex
	stats map[string]NodeStats
}

// CollectorOption configures a Collector.
type CollectorOption func(*Collector)

// WithStaleAfter overrides DefaultStaleAfter.
func WithStaleAfter(d time.Duration) CollectorOption {
	return func(c *Collector) { c.staleAfter = d }
}

// WithCollectorClock overrides the time source (tests).
func WithCollectorClock(clock func() time.Time) CollectorOption {
	return func(c *Collector) { c.clock = clock }
}

// NewCollector creates a collector for the named site.
func NewCollector(site string, opts ...CollectorOption) *Collector {
	c := &Collector{
		site:       site,
		staleAfter: DefaultStaleAfter,
		clock:      time.Now,
		stats:      make(map[string]NodeStats),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Site returns the collector's site name.
func (c *Collector) Site() string { return c.site }

// Report records one node's stats, replacing its previous report.
func (c *Collector) Report(s NodeStats) {
	if s.Collected.IsZero() {
		s.Collected = c.clock()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats[s.Node] = s
}

// Forget drops a node from the collector (node decommissioned).
func (c *Collector) Forget(node string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.stats, node)
}

// Node returns the latest report for one node.
func (c *Collector) Node(node string) (NodeStats, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.stats[node]
	return s, ok
}

// Nodes returns all known node reports sorted by node name.
func (c *Collector) Nodes() []NodeStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]NodeStats, 0, len(c.stats))
	for _, s := range c.stats {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Summary compiles the site's current status. Nodes whose last report is
// older than the staleness window count toward Nodes but not NodesUp, and
// are excluded from resource aggregates.
func (c *Collector) Summary() SiteSummary {
	now := c.clock()
	c.mu.RLock()
	defer c.mu.RUnlock()
	sum := SiteSummary{Site: c.site, Nodes: len(c.stats), Collected: now}
	var cpuTotal, loadTotal float64
	for _, s := range c.stats {
		if now.Sub(s.Collected) > c.staleAfter {
			continue
		}
		sum.NodesUp++
		cpuTotal += s.CPUFreePct
		loadTotal += s.Load1
		sum.RAMFreeMB += s.RAMFreeMB
		sum.DiskFreeMB += s.DiskFreeMB
		sum.RunningProcs += s.Procs
		sum.Speed += s.Speed
	}
	if sum.NodesUp > 0 {
		sum.CPUFreePct = cpuTotal / float64(sum.NodesUp)
		sum.Load1 = loadTotal / float64(sum.NodesUp)
	}
	return sum
}

// GridStatus is the compiled grid-wide totals.
type GridStatus struct {
	Sites        int   `json:"sites"`
	Nodes        int   `json:"nodes"`
	NodesUp      int   `json:"nodes_up"`
	RAMFreeMB    int64 `json:"ram_free_mb"`
	DiskFreeMB   int64 `json:"disk_free_mb"`
	RunningProcs int   `json:"running_procs"`
}

// Compile totals site summaries into the grid's status ("The global
// status is obtained by compilation of all the sites' data"). It keeps no
// state: the summaries are whatever the caller's view holds, normally
// the proxy's Status.
func Compile(sites []SiteSummary) GridStatus {
	status := GridStatus{Sites: len(sites)}
	for _, s := range sites {
		status.Nodes += s.Nodes
		status.NodesUp += s.NodesUp
		status.RAMFreeMB += s.RAMFreeMB
		status.DiskFreeMB += s.DiskFreeMB
		status.RunningProcs += s.RunningProcs
	}
	return status
}
