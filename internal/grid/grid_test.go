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
	"gridproxy/internal/proto"
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
	jobs, _, err := c.Jobs(ctx, "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range jobs {
		if j.JobID == jobID {
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

// TestJobQueryNeedsSessionAndStanding: a job's state and outputs are told
// to its owner and to users with "status" on the grid — not to a
// connection that never authenticated, nor to another user without it.
func TestJobQueryNeedsSessionAndStanding(t *testing.T) {
	f := newFixture(t, 2)
	f.tb.RegisterProgram("quick", func(ctx context.Context, env node.Env) error { return nil })
	for user, grant := range map[string]auth.Permission{
		"carol": {Action: "mpi", Resource: "site:*"},
		"dave":  {Action: "status", Resource: "grid"},
	} {
		if err := f.tb.Users.AddUser(user, "pw-"+user); err != nil {
			t.Fatal(err)
		}
		if err := f.tb.Users.GrantUser(user, grant); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	alice := f.dial(t, 0)
	if err := alice.Login(ctx, "alice", "secret"); err != nil {
		t.Fatal(err)
	}
	jobID, err := alice.SubmitMPI(ctx, "quick", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.WaitJob(ctx, jobID); err != nil {
		t.Fatal(err)
	}

	status := func(err error) uint16 {
		var re *grid.RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("err = %v, want a remote error", err)
		}
		return re.Status
	}
	anonymous := f.dial(t, 0)
	if _, _, err := anonymous.JobState(ctx, jobID); status(err) != proto.StatusUnauthorized {
		t.Errorf("unauthenticated query: %v", err)
	}
	if _, err := anonymous.JobOutputs(ctx, jobID); status(err) != proto.StatusUnauthorized {
		t.Errorf("unauthenticated outputs: %v", err)
	}
	for user, want := range map[string]uint16{"carol": proto.StatusDenied, "dave": 0} {
		c := f.dial(t, 0)
		if err := c.Login(ctx, user, "pw-"+user); err != nil {
			t.Fatal(err)
		}
		_, _, err := c.JobState(ctx, jobID)
		if want == 0 && err != nil {
			t.Errorf("%s, with status on the grid: %v", user, err)
		}
		if want != 0 && (err == nil || status(err) != want) {
			t.Errorf("%s, without status on the grid: %v", user, err)
		}
	}
	if state, _, err := alice.JobState(ctx, jobID); err != nil || state != proto.JobDone {
		t.Errorf("owner's query = %v, %v", state, err)
	}
	if _, err := alice.JobOutputs(ctx, jobID); err != nil {
		t.Errorf("owner's outputs: %v", err)
	}
}

// TestJobsPageThroughCursor: a listing longer than a page comes back a page
// at a time, newest first, and following the cursor yields every job once.
func TestJobsPageThroughCursor(t *testing.T) {
	f := newFixture(t, 2)
	f.tb.RegisterProgram("quick", func(ctx context.Context, env node.Env) error { return nil })
	c := f.dial(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.Login(ctx, "alice", "secret"); err != nil {
		t.Fatal(err)
	}
	const n = core.JobPage + 25
	submitted := make([]string, n)
	for i := range submitted {
		id, err := c.SubmitMPI(ctx, "quick", nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		submitted[i] = id
	}
	for _, owner := range []string{"alice", ""} {
		var got []string
		var before uint64
		for pages := 1; ; pages++ {
			jobs, next, err := c.Jobs(ctx, owner, before)
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) > core.JobPage {
				t.Fatalf("owner %q: a page of %d jobs", owner, len(jobs))
			}
			for _, j := range jobs {
				got = append(got, j.JobID)
			}
			if next == 0 {
				if pages != 2 {
					t.Errorf("owner %q: %d pages, want 2", owner, pages)
				}
				break
			}
			before = next
		}
		if len(got) != n {
			t.Fatalf("owner %q: listed %d jobs, want %d", owner, len(got), n)
		}
		for i, id := range got {
			if want := submitted[n-1-i]; id != want {
				t.Fatalf("owner %q: job %d is %s, want %s (newest first)", owner, i, id, want)
			}
		}
	}
	if jobs, next, err := c.Jobs(ctx, "nobody", 0); err != nil || len(jobs) != 0 || next != 0 {
		t.Errorf("an owner without jobs: %v, next %d, %v", jobs, next, err)
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
	f := newFixture(t, 3, 2)
	c := f.dial(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Login(ctx, "alice", "secret"); err != nil {
		t.Fatal(err)
	}
	// The proxy's own site, then one it forwards the query to: each
	// answers with its own nodes.
	for site, want := range map[string]int{"": 3, "sitea": 3, "siteb": 2} {
		resources, err := c.Resources(ctx, site, "node")
		if err != nil {
			t.Fatal(err)
		}
		if len(resources) != want {
			t.Errorf("resources of %q = %+v, want %d", site, resources, want)
		}
		for _, r := range resources {
			if site != "" && r.Site != site {
				t.Errorf("resource of %q reports site %q", site, r.Site)
			}
		}
	}
	if _, err := c.Resources(ctx, "nosuchsite", "node"); err == nil {
		t.Error("resources of an unknown site answered")
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
	serveEcho(t, sb, "legacy-echo")

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
	conn, err := c.Tunnel(ctx, "tunnel-1", "siteb", "legacy-echo")
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

// serveEcho runs an echo service at addr inside a site, outside the grid.
func serveEcho(t *testing.T, s *site.Site, addr string) {
	t.Helper()
	ln, err := s.Local.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
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
}

// TestTunnelNeedsARegistration: a data stream reaches an address inside
// siteb only under a tunnel registration there, which checked the
// owner's "tunnel" permission at siteb. The id of a job with a rank at
// siteb is not one: naming it opens nothing.
func TestTunnelNeedsARegistration(t *testing.T) {
	f := newFixture(t, 0, 1) // sitea has no nodes: every rank runs at siteb
	f.tb.RegisterProgram("forever", func(ctx context.Context, env node.Env) error {
		<-ctx.Done()
		return ctx.Err()
	})
	sb := f.tb.Sites[1]
	serveEcho(t, sb, "legacy-echo")
	c := f.dial(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Login(ctx, "alice", "secret"); err != nil {
		t.Fatal(err)
	}
	jobID, err := c.SubmitMPI(ctx, "forever", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := sb.Proxy.ActiveApps(); n != 1 {
		t.Fatalf("siteb holds %d applications, want the job's", n)
	}
	if conn, err := c.Tunnel(ctx, jobID, "siteb", "legacy-echo"); err == nil {
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		msg := []byte("through a job's id")
		got := make([]byte, len(msg))
		if _, err := conn.Write(msg); err == nil {
			if _, err := io.ReadFull(conn, got); err == nil {
				t.Errorf("a job's id opened a tunnel to siteb: echo %q", got)
			}
		}
	}
	if err := c.Cancel(ctx, jobID); err != nil {
		t.Fatal(err)
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
	if _, err := c.Tunnel(ctx, "app", "siteb", "x"); err == nil {
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
