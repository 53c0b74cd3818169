package site_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/balance"
	"gridproxy/internal/ca"
	"gridproxy/internal/core"
	"gridproxy/internal/grid"
	"gridproxy/internal/mpirun"
	"gridproxy/internal/node"
	"gridproxy/internal/programs"
	"gridproxy/internal/site"
	"gridproxy/internal/transport"
)

func TestTestbedBuildAndClose(t *testing.T) {
	tb, err := site.NewTestbed(site.TestbedConfig{
		Sites: []site.SiteSpec{
			{Name: "a", Nodes: site.UniformNodes(2, 1)},
			{Name: "b", Nodes: site.UniformNodes(2, 2)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if len(tb.Sites) != 2 || tb.Site("a") == nil || tb.Site("b") == nil {
		t.Fatal("sites not assembled")
	}
	if tb.Site("missing") != nil {
		t.Error("phantom site")
	}
	if got := tb.Site("b").Nodes[0].Speed(); got != 2 {
		t.Errorf("node speed = %v", got)
	}
	// Default admin user works.
	if err := tb.Users.VerifyPassword("admin", "admin"); err != nil {
		t.Errorf("default admin: %v", err)
	}
}

func TestTestbedRejectsEmpty(t *testing.T) {
	if _, err := site.NewTestbed(site.TestbedConfig{}); err == nil {
		t.Error("empty testbed accepted")
	}
}

func TestUniformNodes(t *testing.T) {
	profiles := site.UniformNodes(3, 2.5)
	if len(profiles) != 3 {
		t.Fatalf("len = %d", len(profiles))
	}
	for _, p := range profiles {
		if p.Speed != 2.5 || p.RAMMB == 0 {
			t.Errorf("profile = %+v", p)
		}
	}
}

func TestRegisterProgramReachesEveryNode(t *testing.T) {
	tb, err := site.NewTestbed(site.TestbedConfig{
		Sites: []site.SiteSpec{
			{Name: "a", Nodes: site.UniformNodes(2, 1)},
			{Name: "b", Nodes: site.UniformNodes(3, 1)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tb.RegisterProgram("noop", func(ctx context.Context, env node.Env) error { return nil })
	for _, s := range tb.Sites {
		for _, agent := range s.Nodes {
			found := false
			for _, name := range agent.Programs() {
				if name == "noop" {
					found = true
				}
			}
			if !found {
				t.Errorf("node %s missing program", agent.Name())
			}
		}
	}
}

// TestRealTCPGrid runs the full architecture over genuine TCP loopback
// sockets with real TLS between the proxies — the deployment path the
// daemons use, not the in-memory testbed.
func TestRealTCPGrid(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	authority, err := ca.New("tcptest")
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

	mk := func(name, wanAddr, localAddr string, nodeCount int) (*core.Proxy, []*node.Agent) {
		cred, err := authority.IssueHost("proxy."+name, "127.0.0.1")
		if err != nil {
			t.Fatal(err)
		}
		wan := transport.NewTLS(transport.TCP{}, cred, authority.CertPool(), nil)
		// LabelTCP serves labeled endpoints (rank listeners, virtual
		// slaves) through one shared ephemeral port while the
		// configured host:port services stay on their fixed addresses.
		local := transport.NewLabelTCP()
		t.Cleanup(func() { _ = local.Close() })
		proxy, err := core.New(core.Config{
			Site:      name,
			WANAddr:   wanAddr,
			LocalAddr: localAddr,
			WAN:       wan,
			Local:     local,
			Users:     users,
			Policy:    balance.LeastLoaded{},
		})
		if err != nil {
			t.Fatal(err)
		}
		var agents []*node.Agent
		for i := 0; i < nodeCount; i++ {
			agent := node.New(fmt.Sprintf("%s-n%d", name, i), name, local)
			programs.RegisterAll(agent)
			agents = append(agents, agent)
			proxy.AttachNode(agent)
		}
		if err := proxy.Start(); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		return proxy, agents
	}

	// Any free ports: the proxies report what their listeners bound.
	proxyA, agentsA := mk("sitea", "127.0.0.1:0", "127.0.0.1:0", 2)
	proxyB, agentsB := mk("siteb", "127.0.0.1:0", "127.0.0.1:0", 2)
	t.Cleanup(func() {
		_ = proxyA.Close()
		_ = proxyB.Close()
		for _, a := range append(agentsA, agentsB...) {
			a.Stop()
		}
	})

	if err := proxyA.Connect(ctx, "siteb", proxyB.WANAddr()); err != nil {
		t.Fatalf("connect: %v", err)
	}

	// Cross-site MPI over real sockets: every rank listener, virtual
	// slave, and tunnel byte uses genuine TCP + TLS.
	if err := mpirun.Run(ctx, proxyA, core.LaunchSpec{
		Owner:   "admin",
		Program: "pi",
		Args:    []string{"100000"},
		Procs:   4,
	}); err != nil {
		t.Fatalf("MPI over TCP: %v", err)
	}

	// The grid client API over real sockets.
	client, err := grid.Dial(ctx, transport.TCP{}, proxyA.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Login(ctx, "admin", "admin"); err != nil {
		t.Fatal(err)
	}
	summaries, err := client.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(summaries) != 2 {
		t.Fatalf("summaries over TCP = %+v", summaries)
	}
	// Each site reports its own nodes; the other one is asked through
	// the tunnel.
	for _, s := range []string{"", "siteb"} {
		resources, err := client.Resources(ctx, s, "node")
		if err != nil {
			t.Fatal(err)
		}
		if len(resources) != 2 {
			t.Fatalf("resources of %q over TCP = %+v", s, resources)
		}
	}
	if err := client.Ping(ctx); err != nil {
		t.Fatal(err)
	}
}
