package core_test

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
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

// delayGrid is two proxies over a WAN of the given round-trip time, a
// delay line with no rate limit, so what a test times is round trips:
// "origin", which has no node, so every rank lands on "remote", which has
// one. The remote site checks owners against remoteUsers.
func delayGrid(t *testing.T, ctx context.Context, rtt time.Duration, reg *metrics.Registry, remoteUsers *auth.Store, programs map[string]node.ProgramFunc) (origin, remote *core.Proxy) {
	t.Helper()
	authority, err := ca.New("roundtrips")
	if err != nil {
		t.Fatal(err)
	}
	wanBase := transport.NewMemNetwork()
	t.Cleanup(func() { wanBase.Close() })
	link := transport.NewLink(transport.LinkParams{OneWay: rtt / 2})
	mk := func(name string, side, nodes int, users *auth.Store) *core.Proxy {
		cred, err := authority.IssueHost("proxy." + name)
		if err != nil {
			t.Fatal(err)
		}
		local := transport.NewMemNetwork()
		proxy, err := core.New(core.Config{
			Site:    name,
			WANAddr: "wan." + name,
			WAN:     transport.NewTLS(link.Side(side, wanBase), cred, authority.CertPool(), nil),
			Local:   local,
			Users:   users,
			Policy:  balance.LeastLoaded{},
			Stage:   stage.Config{ChunkSize: 32 << 10, Stripes: 2},
			Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nodes; i++ {
			agent := node.New(name+"-n0", name, local)
			for prog, fn := range programs {
				agent.RegisterProgram(prog, fn)
			}
			proxy.AttachNode(agent)
			t.Cleanup(agent.Stop)
		}
		if err := proxy.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = proxy.Close() })
		return proxy
	}
	origin = mk("origin", 0, 0, newStoreWith(t, "alice", auth.Permission{Action: "*", Resource: "*"}))
	remote = mk("remote", 1, 1, remoteUsers)
	if err := origin.Connect(ctx, "remote", "wan.remote"); err != nil {
		t.Fatal(err)
	}
	return origin, remote
}

var noopProgram = map[string]node.ProgramFunc{
	"noop": func(context.Context, node.Env) error { return nil },
}

// TestColdStagedLaunchRoundTrips is the round-trip budget of DESIGN §12
// as a stopwatch: over a 100 ms WAN a cold two-input launch onto another
// site costs PrepareSpawn with CommitSpawn right behind it, and the stage
// plan inside the prepare (stream opens and gets leave together) — two
// round trips, where committing only after the prepare's reply made it
// three. The counters say it is still two RPCs, that the commit waited at
// the destination, and that the plan itself is PR 13's: one stream per
// share, one get per blob.
func TestColdStagedLaunchRoundTrips(t *testing.T) {
	const rtt = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reg := metrics.NewRegistry()
	origin, _ := delayGrid(t, ctx, rtt, reg, newStoreWith(t, "alice", auth.Permission{Action: "*", Resource: "*"}), noopProgram)

	var stageIn []proto.StageRef
	for _, name := range []string{"a", "b"} {
		// Under the 64 KiB no stream's window goes below: a blob of exactly
		// that size plus its chunk headers waits one more round trip for
		// credit whenever the session's learned window sits at that floor
		// (1 launch in 100-200, at the parent commit too), and this
		// stopwatch is about the protocol's round trips.
		blob := make([]byte, 48<<10)
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
	if took < 2*rtt || took >= 2*rtt+rtt/2 {
		t.Errorf("cold two-input launch took %v, want 2 round trips of %v (under 2.5)", took, rtt)
	}
	if err := launch.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		metrics.StageStreamsDialed: 2, // two 48 KiB blobs over two stripes
		metrics.StageRequests:      2,
		metrics.JobPrepares:        1,
		metrics.JobCommits:         1,
		metrics.JobCommitsHeld:     1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestRemoteOutputsArriveWithTheReport: a remote rank's small output is
// in the origin store half a round trip after the rank exits — the report
// carried it — where pulling it cost a round trip more. An output past
// the inline bound is still pulled, in the one plan.
func TestRemoteOutputsArriveWithTheReport(t *testing.T) {
	const rtt = 100 * time.Millisecond
	small := bytes.Repeat([]byte("o"), 1<<10)
	large := make([]byte, proto.MaxInlineOutputs+1<<10)
	rand.New(rand.NewSource(5)).Read(large)
	exited := make(chan time.Time, 1)
	publish := func(blobs map[string][]byte) node.ProgramFunc {
		return func(ctx context.Context, env node.Env) error {
			for name, data := range blobs {
				if err := env.PublishOutput(name, data); err != nil {
					return err
				}
			}
			exited <- time.Now()
			return nil
		}
	}
	for name, tc := range map[string]struct {
		blobs            map[string][]byte
		trips            int // round trips from the rank's exit to Wait's return, rounded down to halves: 1 = [0.5, 1)
		inlined, streams int64
	}{
		"one small output": {map[string][]byte{"result": small}, 1, 1, 0},
		// One plan: the large blob's two shares, a stream each.
		"a large and a small": {map[string][]byte{"big": large, "tiny": []byte("100 bytes, more or less")}, 3, 1, 2},
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			reg := metrics.NewRegistry()
			origin, _ := delayGrid(t, ctx, rtt, reg, newStoreWith(t, "alice", auth.Permission{Action: "*", Resource: "*"}),
				map[string]node.ProgramFunc{"publish": publish(tc.blobs)})
			launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{Owner: "alice", Program: "publish", Procs: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := launch.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			took := time.Since(<-exited)
			if lo := time.Duration(tc.trips) * rtt / 2; took < lo || took >= lo+rtt/2 {
				t.Errorf("Wait returned %v after the rank's exit, want [%v, %v)", took, lo, lo+rtt/2)
			}
			for name, want := range map[string]int64{
				metrics.StageOutputsInlined: tc.inlined,
				metrics.StageStreamsDialed:  tc.streams,
				metrics.StageOutputs:        int64(len(tc.blobs)),
			} {
				if got := reg.Counter(name).Value(); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			outputs := launch.Outputs()
			if len(outputs) != len(tc.blobs) {
				t.Fatalf("recorded outputs %v, want %d", outputs, len(tc.blobs))
			}
			for _, ref := range outputs {
				if got, ok := origin.Store().Get(ref.Hash); !ok || !bytes.Equal(got, tc.blobs[ref.Name]) {
					t.Errorf("output %q is not in the origin store as published", ref.Name)
				}
			}
		})
	}
}

// TestPipelinedCommitRefusedPrepare: the destination refuses the prepare
// at once (its own user store denies the owner), before or after the
// commit sent behind it is served. The origin hears the refusal in one
// round trip, and once its abort has been served the destination holds
// neither a waiting commit nor the application.
func TestPipelinedCommitRefusedPrepare(t *testing.T) {
	const rtt = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reg := metrics.NewRegistry()
	origin, remote := delayGrid(t, ctx, rtt, reg, newStoreWith(t, "alice", auth.Permission{Action: "status", Resource: "*"}), noopProgram)

	start := time.Now()
	_, err := origin.LaunchMPI(ctx, core.LaunchSpec{Owner: "alice", Program: "noop", Procs: 1})
	took := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "not permitted") {
		t.Fatalf("launch = %v, want the destination's refusal", err)
	}
	// One round trip for the refusal and one for the abort fan-out the
	// launch waits for: nowhere near RPCTimeout.
	if took >= 3*rtt {
		t.Errorf("refusal took %v, want the prepare's and the abort's round trips (%v)", took, 2*rtt)
	}
	// The abort's verdict reaches a commit that is still waiting at once;
	// RPCTimeout, which would free it too, is ten seconds away.
	eventually(t, time.Second, "destination holds no commit and no application", func() bool {
		return remote.HeldCommits() == 0 && remote.ActiveApps() == 0
	})
	if got := reg.Counter(metrics.JobCommits).Value(); got != 0 {
		t.Errorf("job.commits = %d after a refused prepare", got)
	}
	if got := origin.ActiveApps(); got != 0 {
		t.Errorf("origin holds %d application(s) after the refused launch", got)
	}
}

// TestCanceledSubmitStillAbortsDestination: the submit's context ends
// while the destination is staging the job's input. The launch fails on
// that context, and the abort must reach the destination regardless —
// which then holds the application half-prepared, and the commit that
// came behind the prepare — or the destination keeps both for as long as
// the origin lives. The held commit is refused: no rank ever starts.
func TestCanceledSubmitStillAbortsDestination(t *testing.T) {
	reg := metrics.NewRegistry()
	staging := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var started atomic.Int32
	tb := newStagedGrid(t, reg, stage.Config{
		// A transfer connection exists only inside a stage-in; its first
		// read waits for the test.
		WrapConn: func(c net.Conn) net.Conn {
			once.Do(func() { close(staging) })
			return &gatedConn{Conn: c, open: release}
		},
	}, 0, 1)
	tb.RegisterProgram("noop", func(context.Context, node.Env) error { started.Add(1); return nil })
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
	eventually(t, 10*time.Second, "the commit waits for its prepare", func() bool {
		return reg.Counter(metrics.JobCommitsHeld).Value() == 1 && dest.HeldCommits() == 1
	})
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
	if held, ranks := dest.HeldCommits(), started.Load(); held != 0 || ranks != 0 {
		t.Errorf("after the abort the destination holds %d commit(s) and %d rank(s) started", held, ranks)
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

// TestPipelinedCommitOnlyWithOneRemoteSite: with two remote sites a commit
// at one must not start ranks before the other has prepared, so the
// launch keeps its barrier — no commit travels unconfirmed, none is held,
// and while the slower site is still staging no rank runs anywhere.
func TestPipelinedCommitOnlyWithOneRemoteSite(t *testing.T) {
	reg := metrics.NewRegistry()
	staging := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var started atomic.Int32
	tb := newStagedGrid(t, reg, stage.Config{
		WrapConn: func(c net.Conn) net.Conn {
			once.Do(func() { close(staging) })
			return &gatedConn{Conn: c, open: release}
		},
	}, 0, 1, 1)
	tb.RegisterProgram("mark", func(context.Context, node.Env) error { started.Add(1); return nil })
	origin := tb.Sites[0].Proxy
	input := []byte("input one of the two destinations already holds")
	ref := origin.Store().Put(input)
	tb.Sites[1].Proxy.Store().Put(input)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	launched := make(chan error, 1)
	go func() {
		launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{
			Owner: "admin", Program: "mark", Procs: 2,
			StageIn: []proto.StageRef{{Name: "in", Hash: ref.Hash, Size: ref.Size}},
		})
		if err == nil {
			err = launch.Wait(ctx)
		}
		launched <- err
	}()
	<-staging
	eventually(t, 10*time.Second, "the warm site has prepared", func() bool {
		return reg.Counter(metrics.JobPrepares).Value() == 1
	})
	for settle := time.Now().Add(50 * time.Millisecond); time.Now().Before(settle); time.Sleep(time.Millisecond) {
		if n := started.Load(); n != 0 {
			t.Fatalf("%d rank(s) started while a site was still preparing", n)
		}
	}
	close(release)
	if err := <-launched; err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		metrics.JobPrepares:    2,
		metrics.JobCommits:     2,
		metrics.JobCommitsHeld: 0,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := started.Load(); got != 2 {
		t.Errorf("%d ranks ran, want 2", got)
	}
}

// TestPipelinedCommitOnReschedule: the ranks of a dead site land on their
// replacement the pipelined way — the commit is at the replacement while
// its prepare is still staging the input, which a commit sent after the
// prepare's reply could not be.
func TestPipelinedCommitOnReschedule(t *testing.T) {
	reg := metrics.NewRegistry()
	release := make(chan struct{})
	finish := make(chan struct{})
	var gate atomic.Bool
	tb := newStagedGrid(t, reg, stage.Config{
		WrapConn: func(c net.Conn) net.Conn {
			if !gate.Load() {
				return c
			}
			return &gatedConn{Conn: c, open: release}
		},
	}, 0, 1, 1)
	tb.RegisterProgram("until-told", func(ctx context.Context, _ node.Env) error {
		select {
		case <-finish:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	origin := tb.Sites[0].Proxy
	ref := origin.Store().Put([]byte("input neither destination holds"))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{
		Owner: "admin", Program: "until-told", Procs: 1,
		StageIn: []proto.StageRef{{Name: "in", Hash: ref.Hash, Size: ref.Size}},
	})
	if err != nil {
		t.Fatal(err)
	}
	heldAtLaunch := reg.Counter(metrics.JobCommitsHeld).Value()
	gate.Store(true)
	tb.Site(launch.Locations[0].Site).Close()
	eventually(t, 30*time.Second, "the replacement holds the commit while it stages", func() bool {
		return reg.Counter(metrics.JobCommitsHeld).Value() == heldAtLaunch+1
	})
	if got := reg.Counter(metrics.JobCommits).Value(); got != 1 {
		t.Errorf("job.commits = %d while the replacement's prepare is in flight, want the first launch's 1", got)
	}
	close(release)
	eventually(t, 30*time.Second, "the replacement runs the rank", func() bool {
		return reg.Counter(metrics.JobCommits).Value() == 2
	})
	close(finish)
	if err := launch.Wait(ctx); err != nil {
		t.Fatalf("job did not survive the site death: %v", err)
	}
	if got := reg.Counter(metrics.JobPrepares).Value(); got != 2 {
		t.Errorf("job.prepares = %d, want 2 (launch, reschedule)", got)
	}
}
