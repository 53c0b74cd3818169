package core_test

import (
	"context"
	"testing"
	"time"

	"gridproxy/internal/balance"
	"gridproxy/internal/core"
	"gridproxy/internal/failure"
	"gridproxy/internal/membership"
	"gridproxy/internal/monitor"
	"gridproxy/internal/proto"
	"gridproxy/internal/wire"
)

// TestReconnectAfterPartition severs the WAN between two proxies with the
// failure injector, verifies the survivor evicts the peer, heals the
// link, and confirms the grid re-establishes itself WITHOUT any operator
// reconnect — the recovery side of the paper's "recovery of system
// flaws" requirement. Nothing supervises the link: each side's directory
// holds the other dead, each gossip round sends one resurrection probe
// through the connection cache, and the first one after the heal peers
// the sites again.
func TestReconnectAfterPartition(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	g := newHandGrid(t, "recovery")
	// Site A reaches the WAN through a kill switch.
	flaky := failure.New(g.wan)
	cfg := core.Config{Policy: balance.LeastLoaded{}, Gossip: core.GossipConfig{Interval: 20 * time.Millisecond}}
	proxyA := g.start("sitea", flaky, 1, nil, cfg)
	proxyB := g.start("siteb", g.wan, 1, nil, cfg)

	if err := proxyA.Connect(ctx, "siteb", "wan.siteb"); err != nil {
		t.Fatal(err)
	}
	if len(proxyA.Candidates()) != 2 {
		t.Fatal("initial grid incomplete")
	}

	// Partition: sever A's WAN. Both sides lose the tunnel and, with it,
	// the other site's resources; both directories hold the other dead.
	flaky.Fail()
	waitFor(t, 10*time.Second, func() bool { return len(proxyA.Peers()) == 0 })
	waitFor(t, 10*time.Second, func() bool { return len(proxyB.Peers()) == 0 })
	if got := len(proxyA.Candidates()); got != 1 {
		t.Fatalf("candidates during partition = %d", got)
	}
	if m, ok := memberOf(proxyA, "siteb"); !ok || m.State != membership.Dead {
		t.Fatalf("siteb in A's directory during partition = %v (known %v), want dead", m.State, ok)
	}

	// Heal. No reconnect call: a gossip round's probe must redial and
	// restore the grid on its own — tunnel, directory and inventory.
	flaky.Heal()
	waitFor(t, 10*time.Second, func() bool { return len(proxyA.Candidates()) == 2 })
	waitFor(t, 10*time.Second, func() bool {
		mA, _ := memberOf(proxyA, "siteb")
		mB, _ := memberOf(proxyB, "sitea")
		return mA.State == membership.Alive && mB.State == membership.Alive &&
			len(proxyA.Peers()) == 1 && len(proxyB.Peers()) == 1
	})
	summaries, err := proxyA.Status(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(summaries) != 2 {
		t.Fatalf("status after recovery = %+v", summaries)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never satisfied")
}

// TestNodeReportPush exercises the proxy's node-report service: an
// external agent (the gridnode daemon's protocol) pushes stats over the
// site network and they appear in the compiled summary.
func TestNodeReportPush(t *testing.T) {
	tb := newGrid(t, nil, 1)
	s := tb.Sites[0]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	conn, err := s.Local.Dial(ctx, s.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := wire.NewWriter(conn)
	report := monitor.NodeStats{
		Node: "external-agent", CPUFreePct: 55, RAMFreeMB: 777,
		DiskFreeMB: 888, Load1: 0.5, Procs: 1, Collected: time.Now(),
	}
	if err := proto.WriteMessage(w, proto.Marshal(0, report.ToReport())); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 10*time.Second, func() bool {
		sum := s.Proxy.LocalSummary()
		return sum.Nodes == 2 // 1 attached + 1 pushed
	})
	sum := s.Proxy.LocalSummary()
	if sum.RAMFreeMB < 777 {
		t.Errorf("pushed RAM not aggregated: %+v", sum)
	}
}
