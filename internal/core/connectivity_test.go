package core_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/ca"
	"gridproxy/internal/core"
	"gridproxy/internal/failure"
	"gridproxy/internal/membership"
	"gridproxy/internal/metrics"
	"gridproxy/internal/mpi"
	"gridproxy/internal/mpirun"
	"gridproxy/internal/node"
	"gridproxy/internal/peerlink"
	"gridproxy/internal/site"
	"gridproxy/internal/transport"
)

// handGrid assembles proxies one at a time over a shared in-memory WAN,
// for tests that need what site.Testbed does not offer: a site that
// starts late, or one whose WAN goes through a failure injector.
type handGrid struct {
	t         *testing.T
	authority *ca.Authority
	users     *auth.Store
	wan       *transport.MemNetwork
}

func newHandGrid(t *testing.T, name string) *handGrid {
	t.Helper()
	authority, err := ca.New(name)
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
	wan := transport.NewMemNetwork()
	t.Cleanup(func() { _ = wan.Close() })
	return &handGrid{t: t, authority: authority, users: users, wan: wan}
}

// start boots site name with nodes node agents (each running every
// program in programs) behind wanNet, which is g.wan or a wrapper of it.
// cfg supplies the knobs; identity, networks and users are filled in.
func (g *handGrid) start(name string, wanNet transport.Network, nodes int, programs map[string]node.ProgramFunc, cfg core.Config) *core.Proxy {
	g.t.Helper()
	cred, err := g.authority.IssueHost("proxy." + name)
	if err != nil {
		g.t.Fatal(err)
	}
	local := transport.NewMemNetwork()
	cfg.Site = name
	cfg.WANAddr = "wan." + name
	cfg.WAN = transport.NewTLS(wanNet, cred, g.authority.CertPool(), nil)
	cfg.Local = local
	cfg.Users = g.users
	proxy, err := core.New(cfg)
	if err != nil {
		g.t.Fatal(err)
	}
	var agents []*node.Agent
	for i := 0; i < nodes; i++ {
		agent := node.New(fmt.Sprintf("%s-n%d", name, i), name, local)
		for prog, fn := range programs {
			agent.RegisterProgram(prog, fn)
		}
		proxy.AttachNode(agent)
		agents = append(agents, agent)
	}
	if err := proxy.Start(); err != nil {
		g.t.Fatal(err)
	}
	g.t.Cleanup(func() {
		_ = proxy.Close()
		for _, agent := range agents {
			agent.Stop()
		}
	})
	return proxy
}

// memberOf returns site's row in p's directory.
func memberOf(p *core.Proxy, site string) (membership.Entry, bool) {
	for _, m := range p.Members() {
		if m.Site == site {
			return m, true
		}
	}
	return membership.Entry{}, false
}

func candidatesAt(p *core.Proxy, site string) int {
	n := 0
	for _, c := range p.Candidates() {
		if c.Site == site {
			n++
		}
	}
	return n
}

// TestSeedDownAtStartupIsPeeredLater: a bootstrap peer that is down when
// the proxy starts costs Connect an error and nothing else. Its address
// is in the directory from then on, gossip rounds keep trying it (first
// as a suspect they sample, then — once the directory has given up on it
// — as a dead entry they probe), and when the site comes up it is peered
// and its nodes are schedulable with no second Connect.
func TestSeedDownAtStartupIsPeeredLater(t *testing.T) {
	for name, deadAfter := range map[string]time.Duration{
		"while-suspect": time.Hour,
		"once-dead":     20 * time.Millisecond,
	} {
		t.Run(name, func(t *testing.T) {
			g := newHandGrid(t, "seed")
			cfg := core.Config{
				Gossip: core.GossipConfig{Interval: 10 * time.Millisecond, DeadAfter: deadAfter},
				// The breaker's window is the redial backoff; keep it short.
				PeerCache: peerlink.CacheConfig{BreakerMinOpen: 10 * time.Millisecond, BreakerMaxOpen: 40 * time.Millisecond},
			}
			a := g.start("sitea", g.wan, 1, nil, cfg)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			if err := a.Connect(ctx, "siteb", "wan.siteb"); err == nil {
				t.Fatal("Connect to a site that is down succeeded")
			}
			if m, ok := memberOf(a, "siteb"); !ok || m.Addr != "wan.siteb" {
				t.Fatalf("siteb in the directory after a failed Connect = %+v (known %v), want its address kept", m, ok)
			}
			if deadAfter < time.Hour {
				waitFor(t, 15*time.Second, func() bool {
					m, _ := memberOf(a, "siteb")
					return m.State == membership.Dead
				})
			}

			g.start("siteb", g.wan, 2, nil, cfg)
			waitFor(t, 15*time.Second, func() bool {
				m, _ := memberOf(a, "siteb")
				return m.State == membership.Alive && len(a.Peers()) == 1 && candidatesAt(a, "siteb") == 2
			})
		})
	}
}

// TestHungSiteCannotStallGossip: a site that accepts the connection and
// then says nothing (hung before first contact) costs each attempt on it
// one RPCTimeout and no more. Connect returns an error instead of
// hanging, gossip rounds keep coming, the healthy pair keeps exchanging
// fresh summaries, and the hung site turns suspect.
func TestHungSiteCannotStallGossip(t *testing.T) {
	g := newHandGrid(t, "hungdial")
	reg := metrics.NewRegistry()
	cfg := core.Config{
		Lifecycle: peerlink.Config{RPCTimeout: 200 * time.Millisecond},
		Gossip:    core.GossipConfig{Interval: 10 * time.Millisecond, SummaryEvery: 20 * time.Millisecond},
	}
	cfgA := cfg
	cfgA.Metrics = reg
	a := g.start("sitea", g.wan, 1, nil, cfgA)
	g.start("siteb", g.wan, 1, nil, cfg)
	flakyC := failure.New(g.wan)
	g.start("sitec", flakyC, 1, nil, cfg)
	t.Cleanup(flakyC.Heal) // runs first, so sitec can close
	flakyC.Hang()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Connect(ctx, "siteb", "wan.siteb"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := a.Connect(ctx, "sitec", "wan.sitec"); err == nil {
		t.Fatal("Connect to a hung site succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Connect to a hung site took %v, want about RPCTimeout (200ms)", elapsed)
	}

	// Rounds keep advancing although every one of them samples sitec.
	rounds := reg.Counter(metrics.GossipRounds)
	for i := 0; i < 3; i++ {
		seen := rounds.Value()
		waitFor(t, 10*time.Second, func() bool { return rounds.Value() >= seen+3 })
	}
	// The healthy pair keeps converging: siteb republishes its summary
	// every 20ms and each version must still reach sitea.
	for i := 0; i < 3; i++ {
		m, _ := memberOf(a, "siteb")
		waitFor(t, 10*time.Second, func() bool {
			cur, _ := memberOf(a, "siteb")
			return cur.Version > m.Version
		})
	}
	waitFor(t, 10*time.Second, func() bool {
		m, _ := memberOf(a, "sitec")
		return m.State != membership.Alive
	})
	if m, _ := memberOf(a, "siteb"); m.State != membership.Alive {
		t.Fatalf("healthy siteb = %v beside a hung site, want alive", m.State)
	}
}

// TestHungHostingSiteIsRescheduled is the hung-peer case end to end: a
// site hosting ranks of a running job stops answering without its
// connections dying (failure.Hang, not a kill). No session ever closes
// on its own, so the directory's verdict is the only thing that can move
// the job: failed exchanges make the site suspect, DeadAfter makes it
// dead, the proxy kills the tunnel it still holds, and watchPeer
// reschedules the ranks onto the survivors — the same from either end of
// the dial, because neither the verdict nor the tunnel's owner knows who
// dialed. Bound stated here: rescheduled within 10s of the hang, with
// RPCTimeout 100ms and DeadAfter 100ms (one failed exchange, one
// indirect probe round, DeadAfter stretched by local health at most a
// few times — well under a second unloaded).
func TestHungHostingSiteIsRescheduled(t *testing.T) {
	for _, originDials := range []bool{true, false} {
		name := "origin-accepted"
		if originDials {
			name = "origin-dialed"
		}
		t.Run(name, func(t *testing.T) {
			g := newHandGrid(t, "hunghost")
			reg := metrics.NewRegistry()
			cfg := core.Config{
				Lifecycle: peerlink.Config{RPCTimeout: 100 * time.Millisecond},
				Gossip: core.GossipConfig{
					Interval:    10 * time.Millisecond,
					DeadAfter:   100 * time.Millisecond,
					VouchWindow: -1, // sitec talked to siteb a moment ago; its word is not evidence here
				},
			}
			programs := map[string]node.ProgramFunc{"work": workProgram(1500 * time.Millisecond)}
			cfgA := cfg
			cfgA.Metrics = reg
			a := g.start("sitea", g.wan, 2, programs, cfgA)
			flakyB := failure.New(g.wan)
			b := g.start("siteb", flakyB, 2, programs, cfg)
			c := g.start("sitec", g.wan, 2, programs, cfg)
			t.Cleanup(flakyB.Heal) // runs first, so siteb can close

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			connect := func(from *core.Proxy, to string) {
				t.Helper()
				if err := from.Connect(ctx, to, "wan."+to); err != nil {
					t.Fatal(err)
				}
			}
			if originDials {
				connect(a, "siteb")
				connect(a, "sitec")
			} else {
				connect(b, "sitea")
				connect(c, "sitea")
			}
			connect(c, "siteb")
			waitFor(t, 10*time.Second, func() bool { return len(a.Candidates()) == 6 })

			launch, err := a.LaunchMPI(ctx, core.LaunchSpec{Owner: "admin", Program: "work", Procs: 6})
			if err != nil {
				t.Fatal(err)
			}
			onB := 0
			for _, loc := range launch.Locations {
				if loc.Site == "siteb" {
					onB++
				}
			}
			if onB == 0 {
				t.Fatalf("no rank placed at siteb: %+v", launch.Locations)
			}

			flakyB.Hang()
			eventually(t, 10*time.Second, "siteb's ranks rescheduled", func() bool {
				return reg.Counter(metrics.RanksRescheduled).Value() >= int64(onB)
			})
			if m, _ := memberOf(a, "siteb"); m.State != membership.Dead {
				t.Errorf("siteb in the origin's directory = %v, want dead", m.State)
			}
			for _, site := range a.Peers() {
				if site == "siteb" {
					t.Error("origin still holds a tunnel to the site its directory holds dead")
				}
			}
			if err := launch.Wait(ctx); err != nil {
				t.Fatalf("job did not survive the hung site: %v", err)
			}
			for rank, loc := range launch.CurrentPlacement() {
				if loc.Site == "siteb" {
					t.Errorf("rank %d still placed on the hung site", rank)
				}
			}
		})
	}
}

// TestBusyTunnelOutlivesIdleClose: with gossip off nothing touches a
// tunnel but the job, and with IdleClose at a few milliseconds the idle
// janitor runs hundreds of times while two ranks on two sites talk. The
// streams they talk over hold no checkout — the tunnel survives because
// it is busy, not because Connect made it special.
func TestBusyTunnelOutlivesIdleClose(t *testing.T) {
	const idleClose = 4 * time.Millisecond
	reg := metrics.NewRegistry()
	tb, err := site.NewTestbed(site.TestbedConfig{
		GridName: "busy",
		Sites: []site.SiteSpec{
			{Name: "sitea", Nodes: site.UniformNodes(1, 1)},
			{Name: "siteb", Nodes: site.UniformNodes(1, 1)},
		},
		Gossip:    core.GossipConfig{Interval: -1},
		PeerCache: peerlink.CacheConfig{IdleClose: idleClose},
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := tb.ConnectAll(ctx); err != nil {
		t.Fatal(err)
	}
	// 50 round trips, each followed by a pause longer than IdleClose.
	tb.RegisterProgram("chat", mpirun.Program(func(ctx context.Context, w *mpi.World, env node.Env) error {
		peer := 1 - w.Rank()
		for i := 0; i < 50; i++ {
			if w.Rank() == 0 {
				if err := w.Send(ctx, peer, i, []byte("ping")); err != nil {
					return err
				}
				if _, err := w.Recv(ctx, peer, i); err != nil {
					return err
				}
			} else {
				if _, err := w.Recv(ctx, peer, i); err != nil {
					return err
				}
				if err := w.Send(ctx, peer, i, []byte("pong")); err != nil {
					return err
				}
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(2 * idleClose):
			}
		}
		return nil
	}))

	launch, err := tb.Sites[0].Proxy.LaunchMPI(ctx, core.LaunchSpec{Owner: "admin", Program: "chat", Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if launch.Locations[0].Site == launch.Locations[1].Site {
		t.Fatalf("both ranks at one site: %+v", launch.Locations)
	}
	if err := launch.Wait(ctx); err != nil {
		t.Fatalf("job whose ranks talk across sites for %v failed with idle_close=%v: %v", 100*2*idleClose, idleClose, err)
	}
}
