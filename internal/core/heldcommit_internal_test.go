package core

// White-box tests for the commit a destination holds: an unconfirmed
// CommitSpawn travels behind its PrepareSpawn, and rpc.readLoop serves the
// two on goroutines of their own, so the commit's handler may run before,
// during or after the prepare's. These drive the handlers directly in
// each order; the orders a real link produces are in roundtrip_test.go.

import (
	"context"
	"strings"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/metrics"
	"gridproxy/internal/peerlink"
	"gridproxy/internal/proto"
	"gridproxy/internal/transport"
)

// holdCommit serves an unconfirmed commit on a goroutine of its own, as
// the read loop would, and returns once the commit is waiting.
func holdCommit(t *testing.T, p *Proxy, reg *metrics.Registry, appID string, epoch uint64, token string) <-chan *proto.SpawnReply {
	t.Helper()
	held := reg.Counter(metrics.JobCommitsHeld)
	before := held.Value()
	out := make(chan *proto.SpawnReply, 1)
	go func() {
		body, err := p.handleCommitSpawn(context.Background(), &proto.CommitSpawn{
			AppID: appID, Epoch: epoch, Token: token, Unconfirmed: true,
		})
		if err != nil {
			t.Error(err)
		}
		out <- body.(*proto.SpawnReply)
	}()
	waitUntil(t, "the commit is held", func() bool { return held.Value() == before+1 })
	return out
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 10s", what)
		}
	}
}

func reply(t *testing.T, ch <-chan *proto.SpawnReply) *proto.SpawnReply {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("the held commit never replied")
		return nil
	}
}

// TestHeldCommitRunsWhenPrepareSettles: the commit got there first. It
// starts nothing until the prepare has succeeded, then runs as a
// confirmed one would — and one that arrives after the prepare is not
// held at all.
func TestHeldCommitRunsWhenPrepareSettles(t *testing.T) {
	p, fake, reg := newFenceProxy(t)

	early := holdCommit(t, p, reg, "app1", 1, "tok-1")
	if fake.spawnCount() != 0 || p.ActiveApps() != 0 {
		t.Fatalf("a held commit started %d rank(s), %d application(s)", fake.spawnCount(), p.ActiveApps())
	}
	if r := prepare(t, p, "app1", 1, 0, 1); !r.OK {
		t.Fatalf("prepare refused: %s", r.Reason)
	}
	if r := reply(t, early); !r.OK || len(r.Endpoints) != 2 || fake.spawnCount() != 2 {
		t.Fatalf("held commit: ok=%v reason=%q endpoints=%d spawns=%d", r.OK, r.Reason, len(r.Endpoints), fake.spawnCount())
	}

	if r := prepare(t, p, "app2", 1, 0); !r.OK {
		t.Fatalf("prepare refused: %s", r.Reason)
	}
	body, err := p.handleCommitSpawn(context.Background(), &proto.CommitSpawn{AppID: "app2", Epoch: 1, Token: "tok-2", Unconfirmed: true})
	if err != nil || !body.(*proto.SpawnReply).OK {
		t.Fatalf("commit behind a settled prepare: %v %+v", err, body)
	}
	if got := reg.Counter(metrics.JobCommitsHeld).Value(); got != 1 {
		t.Errorf("job.commits_held = %d, want 1: only the early commit waited", got)
	}
	if got := p.HeldCommits(); got != 0 {
		t.Errorf("%d commit(s) still recorded after both replied", got)
	}
}

// TestHeldCommitRetryUnderOneToken: a retry arrives while the first
// attempt is still held. Both get the one outcome; the ranks spawn once.
func TestHeldCommitRetryUnderOneToken(t *testing.T) {
	p, fake, reg := newFenceProxy(t)

	first := holdCommit(t, p, reg, "app1", 1, "tok-1")
	retry := make(chan *proto.SpawnReply, 1)
	go func() {
		body, _ := p.handleCommitSpawn(context.Background(), &proto.CommitSpawn{AppID: "app1", Epoch: 1, Token: "tok-1", Unconfirmed: true})
		retry <- body.(*proto.SpawnReply)
	}()
	if r := prepare(t, p, "app1", 1, 0, 1); !r.OK {
		t.Fatalf("prepare refused: %s", r.Reason)
	}
	a, b := reply(t, first), reply(t, retry)
	if !a.OK || !b.OK || len(a.Endpoints) != 2 || len(b.Endpoints) != 2 {
		t.Fatalf("first %+v, retry %+v: want the same two endpoints", a, b)
	}
	if got := fake.spawnCount(); got != 2 {
		t.Errorf("%d spawns for two ranks committed under one token", got)
	}
	if got := reg.Counter(metrics.JobCommits).Value(); got != 1 {
		t.Errorf("job.commits = %d, want 1", got)
	}
}

// TestHeldCommitRefusals: everything that settles a held commit without
// running it.
func TestHeldCommitRefusals(t *testing.T) {
	t.Run("the prepare is refused", func(t *testing.T) {
		p, fake, reg := newFenceProxy(t)
		held := holdCommit(t, p, reg, "app1", 1, "tok-1")
		req := &proto.PrepareSpawn{AppID: "app1", Origin: "org", Owner: "mallory", Program: "noop", WorldSize: 1, Epoch: 1}
		if body, _ := p.handlePrepareSpawn(context.Background(), req); body.(*proto.PrepareSpawnReply).OK {
			t.Fatal("prepare for an unknown owner succeeded")
		}
		if r := reply(t, held); r.OK || !strings.Contains(r.Reason, "prepare refused") {
			t.Fatalf("held commit: ok=%v reason=%q", r.OK, r.Reason)
		}
		if fake.spawnCount() != 0 || p.HeldCommits() != 0 || p.ActiveApps() != 0 {
			t.Errorf("left behind: %d spawn(s), %d held, %d application(s)", fake.spawnCount(), p.HeldCommits(), p.ActiveApps())
		}
	})
	t.Run("the application is aborted before any prepare", func(t *testing.T) {
		p, _, reg := newFenceProxy(t)
		held := holdCommit(t, p, reg, "app1", 1, "tok-1")
		p.handleAbortSpawn(&proto.AbortSpawn{AppID: "app1", Reason: "origin gave up"})
		if r := reply(t, held); r.OK || !strings.Contains(r.Reason, "aborted") {
			t.Fatalf("held commit: ok=%v reason=%q", r.OK, r.Reason)
		}
		if got := p.HeldCommits(); got != 0 {
			t.Errorf("%d commit(s) held after the abort", got)
		}
	})
	t.Run("the abort's goroutine runs before the commit's", func(t *testing.T) {
		// The read loop has seen the commit, then the abort; the abort's
		// goroutine is scheduled first. The commit was recorded on
		// arrival, so the abort's verdict is waiting for it.
		p, _, _ := newFenceProxy(t)
		serve := p.commitArrived(proto.Marshal(3, &proto.CommitSpawn{AppID: "app1", Epoch: 1, Token: "tok-1", Unconfirmed: true}))
		if serve == nil || p.HeldCommits() != 1 {
			t.Fatalf("an unconfirmed commit was not recorded on arrival (%d held)", p.HeldCommits())
		}
		p.handleAbortSpawn(&proto.AbortSpawn{AppID: "app1", Reason: "prepare refused"})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		body, err := serve(ctx)
		if r := body.(*proto.SpawnReply); err != nil || r.OK || !strings.Contains(r.Reason, "aborted") || ctx.Err() != nil {
			t.Fatalf("commit served after its abort: %+v, %v", r, err)
		}
		if got := p.HeldCommits(); got != 0 {
			t.Errorf("%d commit(s) held after the abort", got)
		}
		if serve := p.commitArrived(proto.Marshal(5, &proto.CommitSpawn{AppID: "app1", Epoch: 1, Token: "tok-2"})); serve != nil || p.HeldCommits() != 0 {
			t.Error("a confirmed commit was recorded on arrival")
		}
	})
	t.Run("a newer epoch prepares", func(t *testing.T) {
		p, fake, reg := newFenceProxy(t)
		held := holdCommit(t, p, reg, "app1", 2, "tok-2")
		if r := prepare(t, p, "app1", 3, 0); !r.OK {
			t.Fatalf("prepare refused: %s", r.Reason)
		}
		if r := reply(t, held); r.OK || !strings.Contains(r.Reason, "stale launch epoch") {
			t.Fatalf("held commit: ok=%v reason=%q", r.OK, r.Reason)
		}
		if got := reg.Counter(metrics.JobStaleCommits).Value(); got != 1 {
			t.Errorf("job.fence.stale_refused = %d, want 1", got)
		}
		if r := commit(t, p, "app1", 3, "tok-3"); !r.OK || fake.spawnCount() != 1 {
			t.Fatalf("current-epoch commit: ok=%v reason=%q spawns=%d", r.OK, r.Reason, fake.spawnCount())
		}
	})
	t.Run("no prepare within RPCTimeout", func(t *testing.T) {
		users, err := auth.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		p, err := New(Config{
			Site: "dst", WAN: transport.NewMemNetwork(), Local: transport.NewMemNetwork(), Users: users, Metrics: reg,
			Lifecycle: peerlink.Config{RPCTimeout: 20 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		if r := reply(t, holdCommit(t, p, reg, "app1", 1, "tok-1")); r.OK || !strings.Contains(r.Reason, "no prepare settled") {
			t.Fatalf("held commit: ok=%v reason=%q", r.OK, r.Reason)
		}
		if got := p.HeldCommits(); got != 0 {
			t.Errorf("%d commit(s) held after the timeout", got)
		}
	})
}

// TestCorruptInlinedOutputIsPulled: a completion report carries an output
// whose bytes were damaged on the way. It does not enter the store under
// the ref's name; the pull plan fetches the blob as if the report had
// carried none, and the job is done.
func TestCorruptInlinedOutputIsPulled(t *testing.T) {
	users, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	wan := transport.NewMemNetwork()
	reg := metrics.NewRegistry()
	mk := func(site string) *Proxy {
		p, err := New(Config{Site: site, WANAddr: "wan." + site, WAN: wan, Local: transport.NewMemNetwork(), Users: users, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		return p
	}
	origin, dest := mk("org"), mk("dst")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := origin.Connect(ctx, "dst", "wan.dst"); err != nil {
		t.Fatal(err)
	}

	published := []byte("what the remote rank published")
	ref := dest.Store().Put(published)
	launch := &Launch{AppID: "app1", proxy: origin, remote: map[string]int{"dst": 1}, done: make(chan struct{})}
	origin.registerJob("app1", launch)
	damaged := append([]byte(nil), published...)
	damaged[3] ^= 0x40
	origin.handleJobUpdate(ctx, &proto.JobUpdate{
		JobID: "app1", State: proto.JobDone, Site: "dst",
		Outputs: []proto.StageRef{{Name: "result", Hash: ref.Hash, Size: ref.Size}},
		Inline:  []proto.InlineOutput{{Ref: 0, Data: damaged}},
	})

	if err := launch.Wait(ctx); err != nil {
		t.Fatalf("job failed over a damaged inline output: %v", err)
	}
	if got, ok := origin.Store().Get(ref.Hash); !ok || string(got) != string(published) {
		t.Errorf("origin store holds %q under the output's hash, want what was published", got)
	}
	for name, want := range map[string]int64{
		metrics.StageOutputsInlined: 0,
		metrics.StagePulls:          1,
		metrics.StageOutputs:        1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if outs := launch.Outputs(); len(outs) != 1 || outs[0].Name != "result" {
		t.Errorf("recorded outputs %v, want the one ref", outs)
	}
}
