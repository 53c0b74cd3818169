package core_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/balance"
	"gridproxy/internal/ca"
	"gridproxy/internal/core"
	"gridproxy/internal/failure"
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
func delayGrid(t *testing.T, ctx context.Context, rtt time.Duration, reg *metrics.Registry, remoteUsers *auth.Store, programs map[string]node.ProgramFunc, tweaks ...delayTweak) (origin, remote *core.Proxy) {
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
		cfg := core.Config{
			Site:    name,
			WANAddr: "wan." + name,
			WAN:     transport.NewTLS(link.Side(side, wanBase), cred, authority.CertPool(), nil),
			Local:   local,
			Users:   users,
			Policy:  balance.LeastLoaded{},
			Stage:   stage.Config{ChunkSize: 32 << 10, Stripes: 2},
			Metrics: reg,
		}
		for _, tw := range tweaks {
			if tw.site == name && tw.config != nil {
				tw.config(&cfg)
			}
		}
		proxy, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tw := range tweaks {
			if tw.site == name && tw.proxy != nil {
				tw.proxy(proxy)
			}
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

// delayTweak adjusts one site of a delayGrid: its config before the proxy
// is built, then the proxy before it starts.
type delayTweak struct {
	site   string
	config func(*core.Config)
	proxy  func(*core.Proxy)
}

var noopProgram = map[string]node.ProgramFunc{
	"noop": func(context.Context, node.Env) error { return nil },
}

// TestColdStagedLaunchRoundTrips is the round-trip budget of DESIGN §12
// as a stopwatch: over a 100 ms WAN a cold two-input launch onto another
// site costs one round trip. The origin pushes the inputs on the inbox
// streams the destination opened when it connected, PrepareSpawn and
// CommitSpawn follow right behind, and the stage plan inside the prepare
// waits for the pushed bytes instead of asking for them. The counters say
// it is still two RPCs, that the commit waited at the destination, and
// that no get went out: both blobs came by push. The pushed bytes may
// also all settle before the destination steps the commit, which then
// finds the prepare done; so the destination reads its inbox streams only
// once it has stepped the commit, and the commit always waits.
func TestColdStagedLaunchRoundTrips(t *testing.T) {
	const rtt = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reg := metrics.NewRegistry()
	stepped := make(chan struct{})
	go func() {
		defer close(stepped)
		for reg.Counter(metrics.JobCommitsHeld).Value() == 0 && reg.Counter(metrics.JobCommits).Value() == 0 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
	}()
	holdInbox := delayTweak{site: "remote", config: func(cfg *core.Config) {
		cfg.Stage.WrapConn = func(c net.Conn) net.Conn { return &heldReads{Conn: c, open: stepped} }
	}}
	origin, _ := delayGrid(t, ctx, rtt, reg, newStoreWith(t, "alice", auth.Permission{Action: "*", Resource: "*"}), noopProgram, holdInbox)
	stageIn := coldInputs(t, origin, "a", "b")

	start := time.Now()
	launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{Owner: "alice", Program: "noop", Procs: 1, StageIn: stageIn})
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if took < rtt || took >= rtt+rtt/2 {
		t.Errorf("cold two-input launch took %v, want 1 round trip of %v (under 1.5)", took, rtt)
	}
	if err := launch.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		metrics.StageStreamsDialed: 0,
		metrics.StageRequests:      0,
		metrics.StagePushes:        2,
		metrics.StagePulls:         2,
		metrics.StageCacheMisses:   2,
		metrics.JobPrepares:        1,
		metrics.JobCommits:         1,
		metrics.JobCommitsHeld:     1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// heldReads lets the first frame read on a stage stream through (an
// inbox stream's handshake) and holds every later read until open is
// closed.
type heldReads struct {
	net.Conn
	open   <-chan struct{}
	prefix []byte // the first frame's length prefix, as read so far
	left   int    // bytes of the first frame still to let through
}

func (c *heldReads) Read(p []byte) (int, error) {
	if len(c.prefix) == 4 && c.left == 0 {
		<-c.open
		return c.Conn.Read(p)
	}
	if len(c.prefix) < 4 {
		p = p[:min(len(p), 4-len(c.prefix))]
	} else {
		p = p[:min(len(p), c.left)]
	}
	n, err := c.Conn.Read(p)
	if len(c.prefix) < 4 {
		if c.prefix = append(c.prefix, p[:n]...); len(c.prefix) == 4 {
			c.left = int(binary.BigEndian.Uint32(c.prefix))
		}
	} else {
		c.left -= n
	}
	return n, err
}

// coldInputs puts one random blob per name into origin's store and
// returns their refs.
func coldInputs(t *testing.T, origin *core.Proxy, names ...string) []proto.StageRef {
	t.Helper()
	var stageIn []proto.StageRef
	for _, name := range names {
		// Under the 64 KiB no stream's window goes below: a blob of exactly
		// that size plus its chunk headers waits one more round trip for
		// credit whenever the session's learned window sits at that floor,
		// and these stopwatches are about the protocol's round trips.
		blob := make([]byte, 48<<10)
		rand.New(rand.NewSource(int64(name[0]))).Read(blob)
		ref := origin.Store().Put(blob)
		stageIn = append(stageIn, proto.StageRef{Name: name, Hash: ref.Hash, Size: ref.Size})
	}
	return stageIn
}

// TestWarmRelaunchMovesNoBytes: the second launch of the same inputs
// finds them held. The origin's record says so from the first launch's
// acks, so nothing is pushed, and the destination's plan counts two cache
// hits and moves nothing.
func TestWarmRelaunchMovesNoBytes(t *testing.T) {
	const rtt = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reg := metrics.NewRegistry()
	origin, _ := delayGrid(t, ctx, rtt, reg, newStoreWith(t, "alice", auth.Permission{Action: "*", Resource: "*"}), noopProgram)
	stageIn := coldInputs(t, origin, "a", "b")
	launch := func() time.Duration {
		start := time.Now()
		l, err := origin.LaunchMPI(ctx, core.LaunchSpec{Owner: "alice", Program: "noop", Procs: 1, StageIn: stageIn})
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		return took
	}
	launch()
	outbox := core.PushesTo(origin, "remote")
	eventually(t, 10*time.Second, "the pushes are acknowledged", func() bool {
		return outbox.Held(stageIn[0].Hash) && outbox.Held(stageIn[1].Hash)
	})
	counters := []string{metrics.StageBytesReceived, metrics.StageBytesSent, metrics.StagePushes, metrics.StageRequests, metrics.StageCacheHits, metrics.StageCacheMisses}
	before := map[string]int64{}
	for _, name := range counters {
		before[name] = reg.Counter(name).Value()
	}
	if took := launch(); took >= rtt+rtt/2 {
		t.Errorf("warm launch took %v, want under 1.5 round trips of %v", took, rtt)
	}
	for _, name := range counters {
		want := int64(0)
		if name == metrics.StageCacheHits {
			want = 2
		}
		if got := reg.Counter(name).Value() - before[name]; got != want {
			t.Errorf("%s rose by %d in the warm launch, want %d", name, got, want)
		}
	}
}

// TestColdLaunchFromAPeerThatTakesNoPushes: a destination that opens no
// inbox streams (one that predates pushes) is pulled from, as before:
// two round trips, one get per blob.
func TestColdLaunchFromAPeerThatTakesNoPushes(t *testing.T) {
	const rtt = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reg := metrics.NewRegistry()
	origin, _ := delayGrid(t, ctx, rtt, reg, newStoreWith(t, "alice", auth.Permission{Action: "*", Resource: "*"}), noopProgram,
		delayTweak{site: "remote", proxy: func(p *core.Proxy) { core.SetInboxStreams(p, 0) }})
	stageIn := coldInputs(t, origin, "a", "b")
	start := time.Now()
	launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{Owner: "alice", Program: "noop", Procs: 1, StageIn: stageIn})
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if took < 2*rtt || took >= 2*rtt+rtt/2 {
		t.Errorf("cold launch by pull took %v, want 2 round trips of %v (under 2.5)", took, rtt)
	}
	if err := launch.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		metrics.StageStreamsDialed: 2,
		metrics.StageRequests:      2,
		metrics.StagePushes:        0,
		metrics.StagePulls:         2,
		metrics.StageBytesReceived: 96 << 10,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// lateInbox holds back a destination's inbox streams: the first read
// after the inbox handshake waits, so the prepare written behind the
// share headers is stepped before they register.
type lateInbox struct {
	net.Conn
	delay  time.Duration
	writes int
	reads  int
	inbox  bool
}

func (c *lateInbox) Write(p []byte) (int, error) {
	if c.writes++; c.writes == 1 && len(p) > 4 && p[4] == 2 { // the first frame is an inbox request
		c.inbox = true
	}
	return c.Conn.Write(p)
}

func (c *lateInbox) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.reads++; c.inbox && c.reads == 3 { // the share header's prefix, past the handshake
		time.Sleep(c.delay)
	}
	return n, err
}

// TestPushRacingItsPrepareCrossesOnce: when the destination steps the
// prepare before the pushed blobs register, its plan waits until the
// inbox streams have registered the headers they hold, then waits for
// the push instead of asking. Every input byte crosses the link once.
func TestPushRacingItsPrepareCrossesOnce(t *testing.T) {
	const rtt = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reg := metrics.NewRegistry()
	origin, _ := delayGrid(t, ctx, rtt, reg, newStoreWith(t, "alice", auth.Permission{Action: "*", Resource: "*"}), noopProgram,
		delayTweak{site: "remote", config: func(cfg *core.Config) {
			cfg.Stage.WrapConn = func(c net.Conn) net.Conn { return &lateInbox{Conn: c, delay: rtt / 2} }
		}})
	stageIn := coldInputs(t, origin, "a", "b")
	launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{Owner: "alice", Program: "noop", Procs: 1, StageIn: stageIn})
	if err != nil {
		t.Fatal(err)
	}
	if err := launch.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		metrics.StageRequests:      0,
		metrics.StagePushes:        2,
		metrics.StagePulls:         2,
		metrics.StageBytesReceived: 96 << 10,
		metrics.StageBytesSent:     96 << 10,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestCorruptPushedChunkIsMended: a pushed chunk that fails its checksum
// leaves a hole the plan requests again, alone; the chunks around it and
// the other blob are kept, so the destination still receives N bytes.
func TestCorruptPushedChunkIsMended(t *testing.T) {
	const rtt = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reg := metrics.NewRegistry()
	var corrupter failure.Corrupter
	corrupter.Arm(1)
	origin, _ := delayGrid(t, ctx, rtt, reg, newStoreWith(t, "alice", auth.Permission{Action: "*", Resource: "*"}), noopProgram,
		delayTweak{site: "origin", config: func(cfg *core.Config) { cfg.Stage.WrapConn = corrupter.Wrap }})
	stageIn := coldInputs(t, origin, "a", "b")
	launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{Owner: "alice", Program: "noop", Procs: 1, StageIn: stageIn})
	if err != nil {
		t.Fatal(err)
	}
	if err := launch.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		metrics.StageCorruptChunks: 1,
		metrics.StageChunkRetries:  1,
		metrics.StageRequests:      1,
		metrics.StagePushes:        1,
		metrics.StagePulls:         2,
		metrics.StageBytesReceived: 96 << 10,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if corrupter.Corrupted() != 1 {
		t.Fatalf("corrupter fired %d times, want 1", corrupter.Corrupted())
	}
}

// TestAbortMidPushSettlesTheRecord: a launch canceled while its input is
// still being pushed cuts the push. The destination fails the blob and
// gives its buffer back, the origin forgets the push without recording
// the blob as held, every inbox stream is free and in step again — the
// next launch pushes the same input whole — and no goroutine is left.
func TestAbortMidPushSettlesTheRecord(t *testing.T) {
	const rtt = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reg := metrics.NewRegistry()
	hold := make(chan struct{})
	var held atomic.Bool
	origin, remote := delayGrid(t, ctx, rtt, reg, newStoreWith(t, "alice", auth.Permission{Action: "*", Resource: "*"}), noopProgram,
		delayTweak{site: "remote", config: func(cfg *core.Config) {
			// The destination stops reading its inbox streams after the
			// first pushed bytes, until the test lets it go on.
			cfg.Stage.WrapConn = func(c net.Conn) net.Conn { return &heldInbox{Conn: c, hold: hold, held: &held} }
		}})
	outbox := core.PushesTo(origin, "remote")
	eventually(t, 10*time.Second, "the inbox streams are open", func() bool { return outbox.Streams() == stage.DefaultStripes })
	base := runtime.NumGoroutine()
	input := make([]byte, 1<<20)
	rand.New(rand.NewSource(41)).Read(input)
	ref := origin.Store().Put(input)
	stageIn := []proto.StageRef{{Name: "in", Hash: ref.Hash, Size: ref.Size}}

	lctx, abort := context.WithCancel(ctx)
	failed := make(chan error, 1)
	go func() {
		_, err := origin.LaunchMPI(lctx, core.LaunchSpec{Owner: "alice", Program: "noop", Procs: 1, StageIn: stageIn})
		failed <- err
	}()
	eventually(t, 10*time.Second, "the push stalls at the destination", held.Load)
	abort()
	if err := <-failed; err == nil {
		t.Fatal("launch succeeded on a canceled context")
	}
	close(hold)
	eventually(t, 10*time.Second, "the push is settled at both ends", func() bool {
		bytes, pins := remote.Store().Outstanding()
		return outbox.Pushing() == 0 && outbox.Streams() == stage.DefaultStripes && bytes == 0 && pins == 0 && remote.ActiveApps() == 0
	})
	if outbox.Held(ref.Hash) || remote.Store().Has(ref.Hash) {
		t.Fatalf("after the abort the record holds the input %v, the destination's store %v", outbox.Held(ref.Hash), remote.Store().Has(ref.Hash))
	}
	eventually(t, 10*time.Second, "goroutines back to their baseline", func() bool { return runtime.NumGoroutine() <= base })

	pushes := reg.Counter(metrics.StagePushes).Value()
	launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{Owner: "alice", Program: "noop", Procs: 1, StageIn: stageIn})
	if err != nil {
		t.Fatal(err)
	}
	if err := launch.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(metrics.StagePushes).Value() - pushes; got != 1 {
		t.Errorf("the relaunch pushed %d blobs, want the input whole (requests %d, bytes %d, hits %d, corrupt %d)", got, reg.Counter(metrics.StageRequests).Value(), reg.Counter(metrics.StageBytesReceived).Value(), reg.Counter(metrics.StageCacheHits).Value(), reg.Counter(metrics.StageCorruptChunks).Value())
	}
}

// heldInbox stops a destination's inbox stream once the first pushed
// chunk has arrived, until hold closes.
type heldInbox struct {
	net.Conn
	hold   <-chan struct{}
	held   *atomic.Bool
	writes int
	reads  int
	inbox  bool
}

func (c *heldInbox) Write(p []byte) (int, error) {
	if c.writes++; c.writes == 1 && len(p) > 4 && p[4] == 2 {
		c.inbox = true
	}
	return c.Conn.Write(p)
}

func (c *heldInbox) Read(p []byte) (int, error) {
	c.reads++
	if c.inbox && c.reads > 6 { // handshake, share header, first chunk header
		c.held.Store(true)
		<-c.hold
	}
	return c.Conn.Read(p)
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
	when *atomic.Bool // nil: always gated; else only while it is set
}

func (g *gatedConn) Read(p []byte) (int, error) {
	if g.when == nil || g.when.Load() {
		<-g.open
	}
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
		// Reads of every stage stream wait while the gate is set, those
		// of the inbox streams opened at connect time too: the replacement
		// stages its input by push.
		WrapConn: func(c net.Conn) net.Conn { return &gatedConn{Conn: c, open: release, when: &gate} },
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
	// The gate may hold a read of the dead site's own inbox streams, and
	// its Close waits for their readers: it returns once the gate opens.
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		tb.Site(launch.Locations[0].Site).Close()
	}()
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
	<-closed
}
