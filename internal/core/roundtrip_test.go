package core_test

import (
	"context"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/balance"
	"gridproxy/internal/ca"
	"gridproxy/internal/core"
	"gridproxy/internal/metrics"
	"gridproxy/internal/node"
	"gridproxy/internal/proto"
	"gridproxy/internal/stage"
	"gridproxy/internal/transport"
)

// delayNet is a WAN whose every connection is a delay line: bytes become
// readable one-way delay d after the far end wrote them, however many
// they are (the same few lines as internal/tunnel's tests use; the link
// has no bandwidth limit, so what a test times is round trips).
type delayNet struct {
	transport.Network
	d time.Duration
}

func (n delayNet) Dial(ctx context.Context, addr string) (net.Conn, error) {
	c, err := n.Network.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return newDelayConn(c, n.d), nil
}

func (n delayNet) Listen(addr string) (net.Listener, error) {
	ln, err := n.Network.Listen(addr)
	if err != nil {
		return nil, err
	}
	return delayListener{ln, n.d}, nil
}

type delayListener struct {
	net.Listener
	d time.Duration
}

func (l delayListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newDelayConn(c, l.d), nil
}

type delayConn struct {
	net.Conn
	in   chan delayed
	head []byte
}

type delayed struct {
	due time.Time
	b   []byte
}

func newDelayConn(c net.Conn, d time.Duration) *delayConn {
	// The queue is the link's capacity: it never fills in these tests.
	dc := &delayConn{Conn: c, in: make(chan delayed, 1<<14)}
	go func() {
		defer close(dc.in)
		for {
			buf := make([]byte, 64<<10)
			n, err := c.Read(buf)
			if n > 0 {
				dc.in <- delayed{time.Now().Add(d), buf[:n]}
			}
			if err != nil {
				return
			}
		}
	}()
	return dc
}

func (dc *delayConn) Read(p []byte) (int, error) {
	if len(dc.head) == 0 {
		x, ok := <-dc.in
		if !ok {
			return 0, io.EOF
		}
		time.Sleep(time.Until(x.due))
		dc.head = x.b
	}
	n := copy(p, dc.head)
	dc.head = dc.head[n:]
	return n, nil
}

func (dc *delayConn) SetDeadline(time.Time) error     { return nil }
func (dc *delayConn) SetReadDeadline(time.Time) error { return nil }

// TestColdStagedLaunchRoundTrips is the round-trip budget of DESIGN §12
// as a stopwatch: over a 100 ms WAN a cold two-input launch onto another
// site costs PrepareSpawn, the stage plan inside it (stream opens and
// gets leave together) and CommitSpawn — three round trips, where waiting
// for each stream's SYNACK made it four. The counters say the plan itself
// is PR 13's: one stream per share, one get per blob, one prepare, one
// commit.
func TestColdStagedLaunchRoundTrips(t *testing.T) {
	const rtt = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	authority, err := ca.New("roundtrips")
	if err != nil {
		t.Fatal(err)
	}
	wanBase := transport.NewMemNetwork()
	defer wanBase.Close()
	users := newStoreWith(t, "alice", auth.Permission{Action: "*", Resource: "*"})
	reg := metrics.NewRegistry()
	stagecfg := stage.Config{ChunkSize: 32 << 10, Stripes: 2}

	mk := func(name string, nodes int) *core.Proxy {
		cred, err := authority.IssueHost("proxy." + name)
		if err != nil {
			t.Fatal(err)
		}
		local := transport.NewMemNetwork()
		proxy, err := core.New(core.Config{
			Site:    name,
			WANAddr: "wan." + name,
			WAN:     transport.NewTLS(delayNet{wanBase, rtt / 2}, cred, authority.CertPool(), nil),
			Local:   local,
			Users:   users,
			Policy:  balance.LeastLoaded{},
			Stage:   stagecfg,
			Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nodes; i++ {
			agent := node.New(name+"-n0", name, local)
			agent.RegisterProgram("noop", func(context.Context, node.Env) error { return nil })
			proxy.AttachNode(agent)
			t.Cleanup(agent.Stop)
		}
		if err := proxy.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = proxy.Close() })
		return proxy
	}
	// Every rank lands on the other site: the origin has no node.
	origin := mk("origin", 0)
	mk("remote", 1)
	if err := origin.Connect(ctx, "remote", "wan.remote"); err != nil {
		t.Fatal(err)
	}

	var stageIn []proto.StageRef
	for _, name := range []string{"a", "b"} {
		blob := make([]byte, 64<<10)
		rand.New(rand.NewSource(int64(name[0]))).Read(blob)
		ref := origin.Store().Put(blob)
		stageIn = append(stageIn, proto.StageRef{Name: name, Hash: ref.Hash, Size: ref.Size})
	}

	start := time.Now()
	launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{Owner: "alice", Program: "noop", Procs: 1, StageIn: stageIn})
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if took < 3*rtt || took > 3*rtt+rtt/2 {
		t.Errorf("cold two-input launch took %v, want 3 round trips of %v (under 3.5)", took, rtt)
	}
	if err := launch.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		metrics.StageStreamsDialed: 2, // two 64 KiB blobs over two stripes
		metrics.StageRequests:      2,
		metrics.JobPrepares:        1,
		metrics.JobCommits:         1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestCanceledSubmitStillAbortsDestination: the submit's context ends
// while the destination is staging the job's input. The launch fails on
// that context, and the abort must reach the destination regardless —
// which then holds the application half-prepared — or the destination
// keeps it for as long as the origin lives.
func TestCanceledSubmitStillAbortsDestination(t *testing.T) {
	reg := metrics.NewRegistry()
	staging := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	tb := newStagedGrid(t, reg, stage.Config{
		// A transfer connection exists only inside a stage-in; its first
		// read waits for the test.
		WrapConn: func(c net.Conn) net.Conn {
			once.Do(func() { close(staging) })
			return &gatedConn{Conn: c, open: release}
		},
	}, 0, 1)
	tb.RegisterProgram("noop", func(context.Context, node.Env) error { return nil })
	origin, dest := tb.Sites[0].Proxy, tb.Sites[1].Proxy
	ref := origin.Store().Put([]byte("input the destination does not hold"))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	failed := make(chan error, 1)
	go func() {
		_, err := origin.LaunchMPI(ctx, core.LaunchSpec{
			Owner:   "admin",
			Program: "noop",
			Procs:   1,
			StageIn: []proto.StageRef{{Name: "in", Hash: ref.Hash, Size: ref.Size}},
		})
		failed <- err
	}()
	<-staging
	cancel()
	if err := <-failed; err == nil {
		t.Fatal("launch succeeded on a canceled context")
	}
	// The launch does not return before its abort fan-out has.
	if got := reg.Counter(metrics.JobAbortsServed).Value(); got != 1 {
		t.Fatalf("job.aborts_served = %d, want 1: the destination was never told", got)
	}
	// Let the staging finish: the prepare it belongs to must not bring
	// the application back.
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter(metrics.StageBytesReceived).Value() < ref.Size {
		if time.Now().After(deadline) {
			t.Fatal("the destination's stage-in never finished")
		}
		time.Sleep(time.Millisecond)
	}
	for settle := time.Now().Add(50 * time.Millisecond); time.Now().Before(settle); time.Sleep(time.Millisecond) {
		if dest.ActiveApps() != 0 || origin.ActiveApps() != 0 {
			t.Fatalf("destination holds %d application(s), origin %d, after the abort", dest.ActiveApps(), origin.ActiveApps())
		}
	}
	if got := reg.Counter(metrics.JobCommits).Value(); got != 0 {
		t.Errorf("job.commits = %d after an aborted prepare", got)
	}
}

// gatedConn holds reads back until open is closed.
type gatedConn struct {
	net.Conn
	open <-chan struct{}
}

func (g *gatedConn) Read(p []byte) (int, error) {
	<-g.open
	return g.Conn.Read(p)
}
