package core_test

import (
	"context"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/balance"
	"gridproxy/internal/ca"
	"gridproxy/internal/core"
	"gridproxy/internal/failure"
	"gridproxy/internal/membership"
	"gridproxy/internal/metrics"
	"gridproxy/internal/node"
	"gridproxy/internal/peerlink"
	"gridproxy/internal/site"
	"gridproxy/internal/transport"
	"gridproxy/internal/tunnel"
)

// TestProxyRestartRecovers kills a whole site (proxy and nodes) and boots
// a fresh one at the same addresses, then asserts peering, inventory, and
// scheduling all recover WITHOUT operator action: the surviving proxy's
// gossip rounds redial the site through the connection cache, the
// connect re-exchanges inventories, and a multi-site MPI job placed
// across both sites completes.
func TestProxyRestartRecovers(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := site.TestbedConfig{
		GridName: "restart",
		Sites: []site.SiteSpec{
			{Name: "sitea", Nodes: site.UniformNodes(2, 1)},
			{Name: "siteb", Nodes: site.UniformNodes(2, 1)},
		},
		Gossip:  core.GossipConfig{Interval: 20 * time.Millisecond},
		Metrics: reg,
	}
	tb, err := site.NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := tb.ConnectAll(ctx); err != nil {
		t.Fatal(err)
	}
	tb.RegisterProgram("sumranks", sumRanksProgram(nil))

	a := tb.Sites[0].Proxy
	if got := len(a.Candidates()); got != 4 {
		t.Fatalf("initial candidates = %d, want 4", got)
	}

	// Kill site B and boot a replacement at the same addresses.
	fresh, err := tb.RestartSite("siteb")
	if err != nil {
		t.Fatal(err)
	}
	fresh.RegisterProgram("sumranks", sumRanksProgram(nil))

	// Peering: the tunnel must come back on its own, and the directory
	// must agree the site is alive again. RestartSite returns after the
	// old site is closed, so a tunnel held now that answers a ping is the
	// new one; the dial count says the proxy — not the test — built it.
	dialsBefore := reg.Counter(metrics.PeerDialsOnDemand).Value()
	waitFor(t, 15*time.Second, func() bool {
		m, _ := memberOf(a, "siteb")
		return m.State == membership.Alive && len(a.Peers()) == 1 && a.PingPeer(ctx, "siteb") == nil
	})
	if got := reg.Counter(metrics.PeerDialsOnDemand).Value(); got <= dialsBefore {
		t.Fatalf("peered again with no new dial (peer.dials_on_demand %d -> %d)", dialsBefore, got)
	}

	// Placement: the fresh site's summary offers its nodes again.
	waitFor(t, 15*time.Second, func() bool { return len(a.Candidates()) == 4 })

	// Scheduling: a job spanning both sites runs end to end.
	launch, err := a.LaunchMPI(ctx, core.LaunchSpec{
		Owner:   "admin",
		Program: "sumranks",
		Procs:   4,
	})
	if err != nil {
		t.Fatalf("launch after restart: %v", err)
	}
	remoteRanks := 0
	for _, loc := range launch.Locations {
		if loc.Site == "siteb" {
			remoteRanks++
		}
	}
	if remoteRanks == 0 {
		t.Error("no ranks placed at the restarted site")
	}
	if err := launch.Wait(ctx); err != nil {
		t.Fatalf("job after restart failed: %v", err)
	}
}

// TestStatusWithHungPeer injects a hung (connected but unresponsive) peer
// and checks Status still answers for the healthy sites within the
// per-peer deadline — O(slowest healthy peer), not O(hung peer).
func TestStatusWithHungPeer(t *testing.T) {
	authority, err := ca.New("hungpeer")
	if err != nil {
		t.Fatal(err)
	}
	users, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := users.AddUser("admin", "admin"); err != nil {
		t.Fatal(err)
	}
	if err := users.GrantUser("admin", auth.Permission{Action: "*", Resource: "*"}); err != nil {
		t.Fatal(err)
	}
	wanBase := transport.NewMemNetwork()
	defer wanBase.Close()
	flakyC := failure.New(wanBase)

	mk := func(name string, wanNet transport.Network) *core.Proxy {
		cred, err := authority.IssueHost("proxy." + name)
		if err != nil {
			t.Fatal(err)
		}
		local := transport.NewMemNetwork()
		proxy, err := core.New(core.Config{
			Site:      name,
			WANAddr:   "wan." + name,
			WAN:       transport.NewTLS(wanNet, cred, authority.CertPool(), nil),
			Local:     local,
			Users:     users,
			Policy:    balance.LeastLoaded{},
			Lifecycle: peerlink.Config{RPCTimeout: 500 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		agent := node.New(name+"-n0", name, local)
		proxy.AttachNode(agent)
		if err := proxy.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = proxy.Close()
			agent.Stop()
		})
		return proxy
	}

	proxyA := mk("sitea", wanBase)
	mk("siteb", wanBase)
	mk("sitec", flakyC)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := proxyA.Connect(ctx, "siteb", "wan.siteb"); err != nil {
		t.Fatal(err)
	}
	if err := proxyA.Connect(ctx, "sitec", "wan.sitec"); err != nil {
		t.Fatal(err)
	}

	// Site C hangs: its connections stall without dying. FreshStatus
	// queries every site synchronously, so it is the path a hung peer
	// could pin; the gossip-served Status never calls out (and would
	// legitimately serve C's connect-time summary until suspicion marks
	// it down).
	flakyC.Hang()
	defer flakyC.Heal()

	start := time.Now()
	summaries, err := proxyA.FreshStatus(ctx, nil)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("Status took %v with a hung peer; per-peer deadline not enforced", elapsed)
	}
	got := map[string]bool{}
	for _, s := range summaries {
		got[s.Site] = true
	}
	if !got["sitea"] || !got["siteb"] {
		t.Fatalf("healthy sites missing from status: %+v", summaries)
	}
	if got["sitec"] {
		t.Fatalf("hung site reported a summary: %+v", summaries)
	}
}

// TestInboundSessionWithoutHelloIsReaped opens a control stream to a
// proxy and never sends Hello; the session must be closed after the
// Hello deadline (shortened here) instead of leaking forever.
func TestInboundSessionWithoutHelloIsReaped(t *testing.T) {
	authority, err := ca.New("reaper")
	if err != nil {
		t.Fatal(err)
	}
	users, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	wan := transport.NewMemNetwork()
	defer wan.Close()

	cred, err := authority.IssueHost("proxy.sitea")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := core.New(core.Config{
		Site:    "sitea",
		WANAddr: "wan.sitea",
		WAN:     transport.NewTLS(wan, cred, authority.CertPool(), nil),
		Local:   transport.NewMemNetwork(),
		Users:   users,
	})
	if err != nil {
		t.Fatal(err)
	}
	core.SetHelloTimeout(proxy, 200*time.Millisecond)
	if err := proxy.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })

	// A silent client: valid grid certificate, opens the control stream,
	// never identifies itself.
	rogueCred, err := authority.IssueHost("proxy.rogue")
	if err != nil {
		t.Fatal(err)
	}
	rogueNet := transport.NewTLS(wan, rogueCred, authority.CertPool(), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	conn, err := rogueNet.Dial(ctx, "wan.sitea")
	if err != nil {
		t.Fatal(err)
	}
	session := tunnel.Client(conn, tunnel.Config{})
	defer session.Close()
	if _, err := session.Open(ctx, []byte("gridproxy-control")); err != nil {
		t.Fatal(err)
	}

	select {
	case <-session.Done():
		// Reaped, as required.
	case <-time.After(5 * time.Second):
		t.Fatal("silent session not reaped after Hello deadline")
	}
	if got := len(proxy.Peers()); got != 0 {
		t.Fatalf("silent session registered as peer: %d", got)
	}
}

// TestWANListenerSurvivesBadHandshake throws a non-TLS connection at the
// WAN listener and checks the accept loop survives it: a failed handshake
// is a per-connection event, and a real peer must still be able to
// connect afterwards.
func TestWANListenerSurvivesBadHandshake(t *testing.T) {
	authority, err := ca.New("badshake")
	if err != nil {
		t.Fatal(err)
	}
	users, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	wan := transport.NewMemNetwork()
	defer wan.Close()

	mk := func(name string) *core.Proxy {
		cred, err := authority.IssueHost("proxy." + name)
		if err != nil {
			t.Fatal(err)
		}
		proxy, err := core.New(core.Config{
			Site:    name,
			WANAddr: "wan." + name,
			WAN:     transport.NewTLS(wan, cred, authority.CertPool(), nil),
			Local:   transport.NewMemNetwork(),
			Users:   users,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := proxy.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = proxy.Close() })
		return proxy
	}
	proxyA := mk("sitea")
	proxyB := mk("siteb")

	// A client that speaks plain bytes, not TLS: the accept-side
	// handshake fails and must not take the listener down with it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	raw, err := wan.Dial(ctx, "wan.sitea")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("definitely not a ClientHello")); err != nil {
		t.Fatal(err)
	}
	_ = raw.Close()

	if err := proxyB.Connect(ctx, "sitea", "wan.sitea"); err != nil {
		t.Fatalf("peer connect after bad handshake: %v", err)
	}
	if got := len(proxyA.Peers()); got != 1 {
		t.Fatalf("peers after recovery = %d, want 1", got)
	}
}
