package grid_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/core"
	"gridproxy/internal/grid"
	"gridproxy/internal/metrics"
	"gridproxy/internal/mpi"
	"gridproxy/internal/mpirun"
	"gridproxy/internal/node"
	"gridproxy/internal/site"
	"gridproxy/internal/ticket"
)

type fixture struct {
	tb  *site.Testbed
	reg *metrics.Registry
}

func newFixture(t *testing.T, nodesPerSite ...int) *fixture {
	t.Helper()
	users, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := users.AddUser("alice", "secret"); err != nil {
		t.Fatal(err)
	}
	if err := users.AddToGroup("alice", "researchers"); err != nil {
		t.Fatal(err)
	}
	users.GrantGroup("researchers", auth.Permission{Action: "*", Resource: "*"})

	reg := metrics.NewRegistry()
	cfg := site.TestbedConfig{GridName: "gridtest", Users: users, Metrics: reg}
	for i, n := range nodesPerSite {
		cfg.Sites = append(cfg.Sites, site.SiteSpec{
			Name:  fmt.Sprintf("site%c", 'a'+i),
			Nodes: site.UniformNodes(n, 1),
		})
	}
	tb, err := site.NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tb.ConnectAll(ctx); err != nil {
		t.Fatal(err)
	}
	return &fixture{tb: tb, reg: reg}
}

func (f *fixture) dial(t *testing.T, siteIdx int) *grid.Client {
	t.Helper()
	s := f.tb.Sites[siteIdx]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := grid.Dial(ctx, s.Local, s.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestPasswordLoginAndStatus(t *testing.T) {
	f := newFixture(t, 2, 3)
	c := f.dial(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Status before login must be refused.
	if _, err := c.Status(ctx); err == nil {
		t.Fatal("unauthenticated status accepted")
	}
	if err := c.Login(ctx, "alice", "wrong"); !errors.Is(err, grid.ErrAuthFailed) {
		t.Fatalf("wrong password: %v", err)
	}
	if err := c.Login(ctx, "alice", "secret"); err != nil {
		t.Fatal(err)
	}
	if c.User() != "alice" || len(c.Token()) == 0 {
		t.Error("session not established")
	}
	summaries, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(summaries) != 2 {
		t.Fatalf("summaries = %+v", summaries)
	}
	total := 0
	for _, s := range summaries {
		total += s.Nodes
	}
	if total != 5 {
		t.Errorf("total nodes = %d", total)
	}
}

func TestMembers(t *testing.T) {
	f := newFixture(t, 1, 1, 1)
	c := f.dial(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Members(ctx); err == nil {
		t.Fatal("unauthenticated members accepted")
	}
	if err := c.Login(ctx, "alice", "secret"); err != nil {
		t.Fatal(err)
	}
	members, err := c.Members(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 3 {
		t.Fatalf("members = %+v", members)
	}
	byName := map[string]grid.Member{}
	for _, m := range members {
		byName[m.Site] = m
		if m.State != "alive" {
			t.Errorf("%s state = %s, want alive", m.Site, m.State)
		}
		if m.Incarnation == 0 {
			t.Errorf("%s incarnation = 0", m.Site)
		}
		// Connect-time status queries seed the directory, so every row
		// should carry a summary with a sane age.
		if !m.HasSummary {
			t.Errorf("%s has no summary", m.Site)
		}
		// Nobody is in the suspicion pipeline on a healthy mesh, and the
		// last-heard age of an alive row is recent by construction.
		if m.Suspected || m.SuspectFor != 0 {
			t.Errorf("%s suspected (%v) on a healthy mesh", m.Site, m.SuspectFor)
		}
		if m.LastHeard > time.Minute {
			t.Errorf("%s last heard %v ago, want recent", m.Site, m.LastHeard)
		}
	}
	// The directory row for the proxy's own site reports a tunnel (to
	// itself); the testbed's ConnectAll dialed the rest a moment ago, so
	// those tunnels are still cached and count as held too.
	for _, m := range members {
		if !m.Tunnel {
			t.Errorf("%s tunnel = n, want y under full testbed mesh", m.Site)
		}
		// A held tunnel reports the window its session has learned (at
		// least the protocol's floor); the proxy's own row has none.
		if own := m.Site == "sitea"; own != (m.Window == 0) || m.Window < 0 {
			t.Errorf("%s window = %d bytes", m.Site, m.Window)
		}
	}
	if _, ok := byName["sitea"]; !ok {
		t.Errorf("own site missing from directory: %+v", members)
	}
}

func TestSignatureLogin(t *testing.T) {
	f := newFixture(t, 1)
	// Issue alice a user certificate from the grid CA and register the
	// public key.
	cred, err := f.tb.CA.IssueUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.tb.Users.SetPublicKey("alice", &cred.Key.PublicKey); err != nil {
		t.Fatal(err)
	}
	c := f.dial(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.LoginWithSignature(ctx, "alice", cred.Key); err != nil {
		t.Fatalf("signature login: %v", err)
	}
	if _, err := c.Status(ctx); err != nil {
		t.Errorf("status after signature login: %v", err)
	}
}

func TestTicketSingleSignOn(t *testing.T) {
	f := newFixture(t, 1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Single expensive sign-on at the TGS.
	tgt, err := f.tb.TGS.SignOnPassword("alice", "secret")
	if err != nil {
		t.Fatal(err)
	}
	// Use a client at sitea to mint a ticket for siteb's proxy, then
	// log into siteb with the ticket alone (no password).
	ca := f.dial(t, 0)
	ticketB, err := ca.RequestTicket(ctx, tgt, core.ServiceName("siteb"))
	if err != nil {
		t.Fatal(err)
	}
	cb := f.dial(t, 1)
	if err := cb.LoginWithTicket(ctx, "alice", ticketB); err != nil {
		t.Fatalf("ticket login: %v", err)
	}
	if _, err := cb.Status(ctx); err != nil {
		t.Errorf("status after ticket login: %v", err)
	}
	// A ticket for siteb must not work at sitea.
	ca2 := f.dial(t, 0)
	if err := ca2.LoginWithTicket(ctx, "alice", ticketB); err == nil {
		t.Error("siteb ticket accepted at sitea")
	}
	_ = ticket.DefaultTicketLifetime // keep import for doc clarity
}

func TestSubmitAndWaitMPIJob(t *testing.T) {
	f := newFixture(t, 2, 2)
	f.tb.RegisterProgram("allsum", mpirun.Program(
		func(ctx context.Context, w *mpi.World, env node.Env) error {
			out, err := w.Allreduce(ctx, mpi.OpSum, []float64{1})
			if err != nil {
				return err
			}
			if out[0] != float64(w.Size()) {
				return fmt.Errorf("sum = %v", out[0])
			}
			return nil
		}))
	c := f.dial(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.Login(ctx, "alice", "secret"); err != nil {
		t.Fatal(err)
	}
	jobID, err := c.SubmitMPI(ctx, "allsum", nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitJob(ctx, jobID); err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
}

func TestSubmitRequiresAuth(t *testing.T) {
	f := newFixture(t, 1)
	c := f.dial(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.SubmitMPI(ctx, "x", nil, 1); !errors.Is(err, grid.ErrNotAuthenticated) {
		t.Errorf("unauthenticated submit = %v", err)
	}
}

func TestCancelJobAndList(t *testing.T) {
	f := newFixture(t, 2)
	f.tb.RegisterProgram("forever", func(ctx context.Context, env node.Env) error {
		<-ctx.Done()
		return ctx.Err()
	})
	c := f.dial(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.Login(ctx, "alice", "secret"); err != nil {
		t.Fatal(err)
	}
	jobID, err := c.SubmitMPI(ctx, "forever", nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, jobID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if err := c.WaitJob(ctx, jobID); !errors.Is(err, grid.ErrJobCanceled) {
		t.Fatalf("WaitJob after cancel = %v, want ErrJobCanceled", err)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range jobs {
		if j.ID == jobID {
			found = true
			if j.State != "cancelled" {
				t.Errorf("job state = %q, want cancelled", j.State)
			}
		}
	}
	if !found {
		t.Errorf("cancelled job %q missing from listing %v", jobID, jobs)
	}
	// Cancelling an unknown job is refused.
	if err := c.Cancel(ctx, "no-such-job"); err == nil {
		t.Error("cancel of unknown job accepted")
	}
}

func TestFailingJobReported(t *testing.T) {
	f := newFixture(t, 2)
	f.tb.RegisterProgram("crash", mpirun.Program(
		func(ctx context.Context, w *mpi.World, env node.Env) error {
			return errors.New("segfault, probably")
		}))
	c := f.dial(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Login(ctx, "alice", "secret"); err != nil {
		t.Fatal(err)
	}
	jobID, err := c.SubmitMPI(ctx, "crash", nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	err = c.WaitJob(ctx, jobID)
	if !errors.Is(err, grid.ErrJobFailed) {
		t.Fatalf("WaitJob = %v, want ErrJobFailed", err)
	}
	if !strings.Contains(err.Error(), "segfault") {
		t.Errorf("failure detail lost: %v", err)
	}
}

func TestResourcesQuery(t *testing.T) {
	f := newFixture(t, 3)
	c := f.dial(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Login(ctx, "alice", "secret"); err != nil {
		t.Fatal(err)
	}
	resources, err := c.Resources(ctx, "node", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resources) != 3 {
		t.Errorf("resources = %+v", resources)
	}
}

func TestPing(t *testing.T) {
	f := newFixture(t, 1)
	c := f.dial(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSecureTunnelEndToEnd(t *testing.T) {
	f := newFixture(t, 1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// An echo service listening inside siteb, NOT part of the grid.
	sb := f.tb.Sites[1]
	ln, err := sb.Local.Listen("legacy-echo")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, 1024)
				for {
					n, err := conn.Read(buf)
					if n > 0 {
						if _, werr := conn.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()

	// Register the tunnel app at the destination proxy (the explicit
	// secure-channel call).
	if err := sb.Proxy.RegisterTunnelApp("alice", "tunnel-1"); err != nil {
		t.Fatal(err)
	}

	// Client at sitea authenticates, then tunnels to siteb's echo.
	c := f.dial(t, 0)
	if err := c.Login(ctx, "alice", "secret"); err != nil {
		t.Fatal(err)
	}
	sa := f.tb.Sites[0]
	conn, err := c.Tunnel(ctx, core.SpliceAddr(sa.LocalAddr()), "tunnel-1", "siteb", "legacy-echo")
	if err != nil {
		t.Fatalf("Tunnel: %v", err)
	}
	defer conn.Close()
	msg := []byte("hello through two proxies and one TLS tunnel")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Errorf("echo = %q", got)
	}
}

func TestTunnelDeniedWithoutPermission(t *testing.T) {
	users, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := users.AddUser("bob", "pw"); err != nil {
		t.Fatal(err)
	}
	// bob can check status but not tunnel.
	if err := users.GrantUser("bob", auth.Permission{Action: "status", Resource: "*"}); err != nil {
		t.Fatal(err)
	}
	tb, err := site.NewTestbed(site.TestbedConfig{
		Sites: []site.SiteSpec{
			{Name: "sitea", Nodes: site.UniformNodes(1, 1)},
			{Name: "siteb", Nodes: site.UniformNodes(1, 1)},
		},
		Users: users,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tb.ConnectAll(ctx); err != nil {
		t.Fatal(err)
	}
	sa := tb.Sites[0]
	c, err := grid.Dial(ctx, sa.Local, sa.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Login(ctx, "bob", "pw"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tunnel(ctx, core.SpliceAddr(sa.LocalAddr()), "app", "siteb", "x"); err == nil {
		t.Error("tunnel without permission succeeded")
	}
}

func TestStagePutGetStat(t *testing.T) {
	f := newFixture(t, 1)
	c := f.dial(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Put(ctx, "x", []byte("data")); !errors.Is(err, grid.ErrNotAuthenticated) {
		t.Errorf("unauthenticated put = %v", err)
	}
	if err := c.Login(ctx, "alice", "secret"); err != nil {
		t.Fatal(err)
	}
	blob := []byte(strings.Repeat("grid data plane ", 1024))
	ref, err := c.Put(ctx, "payload.bin", blob)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Name != "payload.bin" || ref.Size != int64(len(blob)) || ref.Hash == "" {
		t.Fatalf("ref = %+v", ref)
	}
	// Same content, different name: same hash (dedupe).
	ref2, err := c.Put(ctx, "copy.bin", blob)
	if err != nil {
		t.Fatal(err)
	}
	if ref2.Hash != ref.Hash {
		t.Errorf("dedupe: hash %s != %s", ref2.Hash, ref.Hash)
	}
	size, ok, err := c.Stat(ctx, ref.Hash)
	if err != nil || !ok || size != int64(len(blob)) {
		t.Fatalf("stat = (%d, %v, %v)", size, ok, err)
	}
	back, err := c.Get(ctx, ref.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(blob) {
		t.Fatal("get returned different content")
	}
	if _, _, err := c.Stat(ctx, strings.Repeat("0", 64)); err != nil {
		t.Fatalf("stat of absent blob should not error: %v", err)
	}
	if _, err := c.Get(ctx, strings.Repeat("0", 64)); err == nil {
		t.Fatal("get of absent blob succeeded")
	}
}

func TestSubmitStagedJobEndToEnd(t *testing.T) {
	f := newFixture(t, 1, 1)
	f.tb.RegisterProgram("transform", func(ctx context.Context, env node.Env) error {
		in, ok := env.StagedInput("input.txt")
		if !ok {
			return fmt.Errorf("rank %d: no staged input", env.Rank)
		}
		out := strings.ToUpper(string(in))
		return env.PublishOutput(fmt.Sprintf("upper-%d.txt", env.Rank), []byte(out))
	})
	c := f.dial(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.Login(ctx, "alice", "secret"); err != nil {
		t.Fatal(err)
	}
	ref, err := c.Put(ctx, "input.txt", []byte("staged across sites"))
	if err != nil {
		t.Fatal(err)
	}
	jobID, err := c.SubmitJob(ctx, grid.JobSpec{
		Program: "transform",
		Procs:   2,
		StageIn: []grid.FileRef{ref},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitJob(ctx, jobID); err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	outputs, err := c.JobOutputs(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if len(outputs) != 2 {
		t.Fatalf("outputs = %+v, want 2", outputs)
	}
	for _, out := range outputs {
		data, err := c.Get(ctx, out.Hash)
		if err != nil {
			t.Fatalf("get output %q: %v", out.Name, err)
		}
		if string(data) != "STAGED ACROSS SITES" {
			t.Errorf("output %q = %q", out.Name, data)
		}
	}
}
