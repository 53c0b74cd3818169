package core

// Tests of the launch route at a destination: codes are stepped in the
// order they arrived, whatever order their goroutines then run in, and a
// prepare's staging belongs to its record, not to the session that
// carried it.

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/metrics"
	"gridproxy/internal/proto"
	"gridproxy/internal/stage"
	"gridproxy/internal/transport"
)

func prepareOf(appID string, ranks ...uint32) *proto.PrepareSpawn {
	req := &proto.PrepareSpawn{AppID: appID, Origin: "org", Owner: "alice", Program: "noop", WorldSize: uint32(len(ranks)), Epoch: 1, Ranks: ranks}
	for _, r := range ranks {
		req.Locations = append(req.Locations, proto.RankLocation{Rank: r, Site: "dst"})
	}
	return req
}

// TestLaunchRouteServesInArrivalOrder: a prepare, the commit sent behind
// it and an abort are stepped as they arrive; their goroutines then run
// in the reverse order, and each request still gets the answer of the
// order they arrived in. The commit parked behind the staging prepare,
// the abort refused both, nothing spawned and the record is gone.
func TestLaunchRouteServesInArrivalOrder(t *testing.T) {
	p, fake, reg := newFenceProxy(t)
	served := []proto.ServedBy{
		p.launchArrived(prepareOf("app1", 0)),
		p.launchArrived(&proto.CommitSpawn{AppID: "app1", Epoch: 1, Token: "tok-1", Unconfirmed: true}),
	}
	if got := p.HeldCommits(); got != 1 {
		t.Fatalf("%d commit(s) parked behind the staging prepare, want 1", got)
	}
	served = append(served, p.launchArrived(&proto.AbortSpawn{AppID: "app1", Reason: "origin gave up"}))
	replies := make([]proto.Body, len(served))
	for i := len(served) - 1; i >= 0; i-- {
		body, err := served[i](context.Background())
		if err != nil {
			t.Fatal(err)
		}
		replies[i] = body
	}
	if r := replies[0].(*proto.PrepareSpawnReply); r.OK || r.Reason != aborting {
		t.Errorf("prepare: %+v", r)
	}
	if r := replies[1].(*proto.SpawnReply); r.OK || r.Reason != aborting {
		t.Errorf("commit: %+v", r)
	}
	if r := replies[2].(*proto.AbortSpawnReply); !r.OK {
		t.Errorf("abort: %+v", r)
	}
	if fake.spawnCount() != 0 || p.HeldCommits() != 0 || p.ActiveApps() != 0 {
		t.Errorf("left behind: %d spawn(s), %d parked, %d application(s)", fake.spawnCount(), p.HeldCommits(), p.ActiveApps())
	}
	if got := reg.Counter(metrics.JobCommitsHeld).Value(); got != 1 {
		t.Errorf("job.commits_held = %d, want 1", got)
	}

	// A commit for an application this site holds no record of is refused
	// at once: nothing waits for a prepare that may never come.
	if r := serveLaunch(t, p, &proto.CommitSpawn{AppID: "app2", Epoch: 1, Token: "tok-2", Unconfirmed: true}).(*proto.SpawnReply); r.OK || !strings.Contains(r.Reason, "no prepared application") {
		t.Errorf("commit without a record: %+v", r)
	}
}

// TestLaunchRouteSpawnsParkedCommit: the commit's goroutine runs first
// and waits; the prepare's staging hands it the spawn, and it answers
// with the endpoints of the ranks started.
func TestLaunchRouteSpawnsParkedCommit(t *testing.T) {
	p, fake, _ := newFenceProxy(t)
	prep := p.launchArrived(prepareOf("app1", 0, 1))
	commit := p.launchArrived(&proto.CommitSpawn{AppID: "app1", Epoch: 1, Token: "tok-1", Unconfirmed: true})
	committed := make(chan *proto.SpawnReply, 1)
	go func() {
		body, _ := commit(context.Background())
		committed <- body.(*proto.SpawnReply)
	}()
	body, err := prep(context.Background())
	if r := body.(*proto.PrepareSpawnReply); err != nil || !r.OK {
		t.Fatalf("prepare: %+v, %v", r, err)
	}
	select {
	case r := <-committed:
		if !r.OK || len(r.Endpoints) != 2 || fake.spawnCount() != 2 {
			t.Fatalf("commit: %+v, %d spawn(s)", r, fake.spawnCount())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the parked commit never replied")
	}
	if got := p.HeldCommits(); got != 0 {
		t.Errorf("%d commit(s) parked after both replied", got)
	}
}

// TestPrepareOutlivesItsSession: the tunnel that carried a PrepareSpawn
// closes while the destination pulls the job's input over a slow link. The
// staging belongs to the application's record, so it goes on: the pull
// redials and resumes, and the blob reaches the destination's store. An
// AbortSpawn that reaches the destination over a fresh tunnel then ends
// the record.
func TestPrepareOutlivesItsSession(t *testing.T) {
	users, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := users.AddUser("alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := users.GrantUser("alice", auth.Permission{Action: "*", Resource: "*"}); err != nil {
		t.Fatal(err)
	}
	wan := transport.NewMemNetwork()
	t.Cleanup(func() { _ = wan.Close() })
	// 64 KiB/s: the 96 KiB input takes a second and a half.
	link := transport.NewLink(transport.LinkParams{OneWay: time.Millisecond, Rate: 64 << 10})
	regs := map[string]*metrics.Registry{}
	mk := func(site string, side int) *Proxy {
		regs[site] = metrics.NewRegistry()
		p, err := New(Config{
			Site: site, WANAddr: "wan." + site, WAN: link.Side(side, wan), Local: transport.NewMemNetwork(),
			Users: users, Metrics: regs[site], Stage: stage.Config{ChunkSize: 16 << 10, Stripes: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		return p
	}
	origin, dest := mk("org", 0), mk("dst", 1)
	dest.AttachNode(newFenceNode("n0"))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := origin.Connect(ctx, "dst", "wan.dst"); err != nil {
		t.Fatal(err)
	}
	input := make([]byte, 96<<10)
	rand.New(rand.NewSource(12)).Read(input)
	ref := origin.Store().Put(input)

	pr, err := origin.peerFor(ctx, "dst")
	if err != nil {
		t.Fatal(err)
	}
	prep := prepareOf("app1", 0)
	prep.StageIn = []proto.StageRef{{Name: "in", Hash: ref.Hash, Size: ref.Size}}
	call := origin.sendPeer(ctx, pr, prep)
	received := regs["dst"].Counter(metrics.StageBytesReceived)
	waitUntil(t, "the destination is pulling the input", func() bool { return received.Value() > 0 })
	if received.Value() >= ref.Size {
		t.Fatal("the input arrived before the tunnel could be cut")
	}
	// The destination's connection cache drops the tunnel: the PeerBye
	// tells the origin the close says nothing about either site's health,
	// and the connection goes at once, the staging's stream with it.
	carried, err := dest.peerBySite("org")
	if err != nil {
		t.Fatal(err)
	}
	dest.evictPeer("org", carried)
	carried.abort()
	origin.releasePeer(pr)
	if _, err := call.reply(ctx); err == nil {
		t.Fatal("the prepare was answered over a dead tunnel")
	}

	waitUntil(t, "the input reaches the destination's store", func() bool { return dest.Store().Has(ref.Hash) })
	if got, _ := dest.Store().Get(ref.Hash); !bytes.Equal(got, input) {
		t.Fatal("the destination's store holds other bytes under the input's hash")
	}
	if got := regs["dst"].Counter(metrics.StageResumes).Value(); got == 0 {
		t.Error("stage.resumes = 0: the pull did not resume after the tunnel died")
	}
	waitUntil(t, "the prepare is through", func() bool { return regs["dst"].Counter(metrics.JobPrepares).Value() == 1 })
	if got := dest.ActiveApps(); got != 1 {
		t.Fatalf("the destination holds %d application(s), want the prepared one", got)
	}

	fresh, err := origin.peerFor(ctx, "dst")
	if err != nil {
		t.Fatal(err)
	}
	defer origin.releasePeer(fresh)
	if fresh == pr {
		t.Fatal("the dead tunnel is still cached")
	}
	body, err := origin.callPeer(ctx, fresh, &proto.AbortSpawn{AppID: "app1", Reason: "origin gave up"})
	if r, ok := body.(*proto.AbortSpawnReply); err != nil || !ok || !r.OK {
		t.Fatalf("abort over a fresh tunnel: %+v, %v", body, err)
	}
	waitUntil(t, "the destination lets the application go", func() bool { return dest.ActiveApps() == 0 })
}
