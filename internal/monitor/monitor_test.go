package monitor

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"gridproxy/internal/proto"
)

func TestCollectorSummary(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	c := NewCollector("siteA", WithCollectorClock(clock))
	c.Report(NodeStats{Node: "n1", CPUFreePct: 80, RAMFreeMB: 1000, DiskFreeMB: 5000, Load1: 0.5, Procs: 2})
	c.Report(NodeStats{Node: "n2", CPUFreePct: 40, RAMFreeMB: 3000, DiskFreeMB: 7000, Load1: 1.5, Procs: 4})

	sum := c.Summary()
	if sum.Site != "siteA" || sum.Nodes != 2 || sum.NodesUp != 2 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.CPUFreePct != 60 {
		t.Errorf("CPUFreePct = %v, want 60", sum.CPUFreePct)
	}
	if sum.RAMFreeMB != 4000 || sum.DiskFreeMB != 12000 {
		t.Errorf("RAM/Disk = %d/%d", sum.RAMFreeMB, sum.DiskFreeMB)
	}
	if sum.Load1 != 1.0 || sum.RunningProcs != 6 {
		t.Errorf("Load1=%v Procs=%d", sum.Load1, sum.RunningProcs)
	}
}

func TestCollectorStaleness(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	c := NewCollector("siteA", WithCollectorClock(clock), WithStaleAfter(10*time.Second))
	c.Report(NodeStats{Node: "n1", RAMFreeMB: 1000, Collected: now})
	now = now.Add(30 * time.Second)
	c.Report(NodeStats{Node: "n2", RAMFreeMB: 2000, Collected: now})

	sum := c.Summary()
	if sum.Nodes != 2 {
		t.Errorf("Nodes = %d", sum.Nodes)
	}
	if sum.NodesUp != 1 {
		t.Errorf("NodesUp = %d, want 1 (n1 stale)", sum.NodesUp)
	}
	if sum.RAMFreeMB != 2000 {
		t.Errorf("stale node included in aggregates: RAM = %d", sum.RAMFreeMB)
	}
}

func TestCollectorReportReplaces(t *testing.T) {
	c := NewCollector("s")
	c.Report(NodeStats{Node: "n1", RAMFreeMB: 100})
	c.Report(NodeStats{Node: "n1", RAMFreeMB: 900})
	got, ok := c.Node("n1")
	if !ok || got.RAMFreeMB != 900 {
		t.Errorf("Node = %+v, %v", got, ok)
	}
	if len(c.Nodes()) != 1 {
		t.Errorf("Nodes len = %d", len(c.Nodes()))
	}
}

func TestCollectorForget(t *testing.T) {
	c := NewCollector("s")
	c.Report(NodeStats{Node: "n1"})
	c.Forget("n1")
	if _, ok := c.Node("n1"); ok {
		t.Error("forgotten node still present")
	}
}

func TestCompile(t *testing.T) {
	a := SiteSummary{Site: "a", Nodes: 10, NodesUp: 9, CPUFreePct: 50, RAMFreeMB: 1000, DiskFreeMB: 100, Load1: 2, RunningProcs: 3}
	b := SiteSummary{Site: "b", Nodes: 20, NodesUp: 20, CPUFreePct: 10, RAMFreeMB: 2000, DiskFreeMB: 200, Load1: 4, RunningProcs: 7}
	for _, tc := range []struct {
		name  string
		sites []SiteSummary
		want  GridStatus
	}{
		{"empty", nil, GridStatus{}},
		{"one site", []SiteSummary{b}, GridStatus{Sites: 1, Nodes: 20, NodesUp: 20, RAMFreeMB: 2000, DiskFreeMB: 200, RunningProcs: 7}},
		{"two sites", []SiteSummary{a, b}, GridStatus{Sites: 2, Nodes: 30, NodesUp: 29, RAMFreeMB: 3000, DiskFreeMB: 300, RunningProcs: 10}},
		{"order does not matter", []SiteSummary{b, a}, GridStatus{Sites: 2, Nodes: 30, NodesUp: 29, RAMFreeMB: 3000, DiskFreeMB: 300, RunningProcs: 10}},
		{"a site with no nodes up", []SiteSummary{{Site: "c", Nodes: 4}}, GridStatus{Sites: 1, Nodes: 4}},
	} {
		if got := Compile(tc.sites); got != tc.want {
			t.Errorf("%s: Compile = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestWireRoundTrips(t *testing.T) {
	stats := NodeStats{
		Node: "n1", CPUFreePct: 33.5, RAMFreeMB: 512, DiskFreeMB: 9999,
		Load1: 2.25, Procs: 7, Collected: time.Unix(0, 123456789),
	}
	back := StatsFromReport(stats.ToReport())
	if back != stats {
		t.Errorf("NodeStats round trip:\n got %+v\nwant %+v", back, stats)
	}

	sum := SiteSummary{
		Site: "a", Nodes: 4, NodesUp: 3, CPUFreePct: 50, RAMFreeMB: 100,
		DiskFreeMB: 200, Load1: 0.5, RunningProcs: 2, Speed: 3.5, Collected: time.Unix(1_700_000_000, 0),
		Hosted: []proto.HostedProcs{{Origin: "b", Procs: 1}},
	}
	back2 := SummaryFromStatus(sum.ToStatus())
	if !reflect.DeepEqual(back2, sum) {
		t.Errorf("SiteSummary round trip:\n got %+v\nwant %+v", back2, sum)
	}
}

func TestQuickSummaryInvariants(t *testing.T) {
	// For any set of fresh reports: NodesUp == Nodes, RAM/Disk sums are
	// exact, and averages lie within the min/max of inputs.
	f := func(rams []int64) bool {
		if len(rams) == 0 {
			return true
		}
		now := time.Unix(1_700_000_000, 0)
		c := NewCollector("s", WithCollectorClock(func() time.Time { return now }))
		var want int64
		for i, ram := range rams {
			if ram < 0 {
				ram = -ram
			}
			ram %= 1 << 40
			want += ram
			c.Report(NodeStats{Node: nodeName(i), RAMFreeMB: ram, Collected: now})
		}
		sum := c.Summary()
		return sum.Nodes == len(rams) && sum.NodesUp == len(rams) && sum.RAMFreeMB == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func nodeName(i int) string {
	return "n" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
}

func TestStatusReportWireCompat(t *testing.T) {
	// A Collector summary must survive the proto StatusReport envelope.
	c := NewCollector("edge")
	c.Report(NodeStats{Node: "n1", CPUFreePct: 10, RAMFreeMB: 64, Collected: time.Now()})
	report := &proto.StatusReport{Sites: []proto.SiteStatus{c.Summary().ToStatus()}}
	msg := proto.Marshal(1, report)
	decoded, err := proto.Unmarshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	got := decoded.(*proto.StatusReport)
	if len(got.Sites) != 1 || got.Sites[0].Site != "edge" {
		t.Errorf("decoded = %+v", got)
	}
}
