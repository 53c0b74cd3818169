package core

// White-box tests for the split-brain fencing protocol at a destination
// proxy: stale-epoch refusal, FenceNotice kills, and CommitSpawn token
// idempotency. These drive the launch route directly — the epoch rules are
// destination-local invariants, and exercising them through a full grid
// would need a real partition (experiment E12 covers that end to end).

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/metrics"
	"gridproxy/internal/monitor"
	"gridproxy/internal/node"
	"gridproxy/internal/proto"
	"gridproxy/internal/transport"
)

// fenceNode is a NodeHandle fake: Spawn records the rank, Wait blocks
// until Kill (or ctx), Kill closes the done channel of the rank's latest
// copy and counts.
type fenceNode struct {
	name string

	mu     sync.Mutex
	spawns int
	kills  map[string]int
	done   map[string]chan struct{}
}

func newFenceNode(name string) *fenceNode {
	return &fenceNode{
		name:  name,
		kills: make(map[string]int),
		done:  make(map[string]chan struct{}),
	}
}

func rankKey(appID string, rank int) string { return fmt.Sprintf("%s/%d", appID, rank) }

func (f *fenceNode) Name() string             { return f.name }
func (f *fenceNode) Speed() float64           { return 1 }
func (f *fenceNode) Stats() monitor.NodeStats { return monitor.NodeStats{Node: f.name} }
func (f *fenceNode) Release(string, int)      {}

func (f *fenceNode) Spawn(_ context.Context, spec node.SpawnSpec) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.spawns++
	// Each copy of a rank is its own process: a copy spawned after an
	// earlier one was killed is alive, not born dead.
	key := rankKey(spec.AppID, spec.Rank)
	f.done[key] = make(chan struct{})
	return key, nil
}

func (f *fenceNode) Wait(ctx context.Context, appID string, rank int) error {
	f.mu.Lock()
	ch, ok := f.done[rankKey(appID, rank)]
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("wait for unspawned rank %d", rank)
	}
	select {
	case <-ch:
		return fmt.Errorf("rank %d killed", rank)
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (f *fenceNode) Kill(appID string, rank int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := rankKey(appID, rank)
	f.kills[key]++
	if ch, ok := f.done[key]; ok {
		select {
		case <-ch:
		default:
			close(ch)
		}
	}
	return nil
}

func (f *fenceNode) spawnCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.spawns
}

func (f *fenceNode) killCount(appID string, rank int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.kills[rankKey(appID, rank)]
}

// newFenceProxy assembles a destination proxy with one fake node and no
// listeners — the handlers under test never leave the process.
func newFenceProxy(t *testing.T) (*Proxy, *fenceNode, *metrics.Registry) {
	t.Helper()
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
	reg := metrics.NewRegistry()
	p, err := New(Config{
		Site:    "dst",
		WAN:     transport.NewMemNetwork(),
		Local:   transport.NewMemNetwork(),
		Users:   users,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	fake := newFenceNode("n0")
	p.AttachNode(fake)
	t.Cleanup(func() { _ = p.Close() })
	return p, fake, reg
}

// prepare sends a PrepareSpawn for the given ranks at the given epoch and
// returns the reply; the proxy places them on its one (fake) node.
func prepare(t *testing.T, p *Proxy, appID string, epoch uint64, ranks ...int) *proto.PrepareSpawnReply {
	t.Helper()
	req := &proto.PrepareSpawn{
		AppID:     appID,
		Origin:    "org",
		Owner:     "alice",
		Program:   "noop",
		WorldSize: uint32(len(ranks)),
		Epoch:     epoch,
	}
	for _, r := range ranks {
		req.Ranks = append(req.Ranks, uint32(r))
		req.Locations = append(req.Locations, proto.RankLocation{Rank: uint32(r), Site: "dst"})
	}
	return serveLaunch(t, p, req).(*proto.PrepareSpawnReply)
}

func commit(t *testing.T, p *Proxy, appID string, epoch uint64, token string) *proto.SpawnReply {
	t.Helper()
	return serveLaunch(t, p, &proto.CommitSpawn{AppID: appID, Epoch: epoch, Token: token}).(*proto.SpawnReply)
}

// serveLaunch serves one launch request as a peer link does: stepped on
// arrival, then served.
func serveLaunch(t *testing.T, p *Proxy, req proto.Body) proto.Body {
	t.Helper()
	body, err := p.launchArrived(req)(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func fence(t *testing.T, p *Proxy, req *proto.FenceNotice) *proto.FenceReply {
	t.Helper()
	return serveLaunch(t, p, req).(*proto.FenceReply)
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 10s", what)
		}
	}
}

func TestCommitSpawnTokenIdempotent(t *testing.T) {
	p, fake, _ := newFenceProxy(t)

	if r := prepare(t, p, "app1", 1, 0, 1); !r.OK {
		t.Fatalf("prepare refused: %s", r.Reason)
	}
	first := commit(t, p, "app1", 1, "tok-1")
	if !first.OK {
		t.Fatalf("commit refused: %s", first.Reason)
	}
	if len(first.Endpoints) != 2 || fake.spawnCount() != 2 {
		t.Fatalf("endpoints %d spawns %d, want 2/2", len(first.Endpoints), fake.spawnCount())
	}

	// The retry whose first reply was lost in transit: same token must
	// re-report the cached reply without spawning the group again.
	replay := commit(t, p, "app1", 1, "tok-1")
	if !replay.OK || len(replay.Endpoints) != 2 {
		t.Fatalf("replay not served from cache: ok=%v endpoints=%d", replay.OK, len(replay.Endpoints))
	}
	if fake.spawnCount() != 2 {
		t.Fatalf("replayed token spawned again: %d spawns", fake.spawnCount())
	}

	// A genuinely new commit (fresh token) with nothing prepared is a
	// protocol error, not a silent double-spawn.
	fresh := commit(t, p, "app1", 1, "tok-2")
	if fresh.OK || !strings.Contains(fresh.Reason, "no pending ranks") {
		t.Fatalf("fresh token without prepare: ok=%v reason=%q", fresh.OK, fresh.Reason)
	}
}

func TestCommitSpawnStaleEpochRefused(t *testing.T) {
	p, fake, reg := newFenceProxy(t)

	if r := prepare(t, p, "app1", 1, 0); !r.OK {
		t.Fatalf("prepare refused: %s", r.Reason)
	}
	if r := commit(t, p, "app1", 1, "tok-1"); !r.OK {
		t.Fatalf("commit refused: %s", r.Reason)
	}

	// A reschedule brought rank 0 back at epoch 3. The prepare itself
	// fences the epoch-1 copy still running here...
	if r := prepare(t, p, "app1", 3, 0); !r.OK {
		t.Fatalf("re-prepare refused: %s", r.Reason)
	}
	if got := fake.killCount("app1", 0); got != 1 {
		t.Fatalf("newer-epoch prepare killed stale copy %d times, want 1", got)
	}

	// ...and a commit delayed from the in-between epoch 2 must be
	// refused: its prepare was superseded.
	stale := commit(t, p, "app1", 2, "tok-stale")
	if stale.OK || !strings.Contains(stale.Reason, "stale launch epoch") {
		t.Fatalf("stale-epoch commit: ok=%v reason=%q", stale.OK, stale.Reason)
	}
	if got := reg.Counter(metrics.JobStaleCommits).Value(); got < 1 {
		t.Fatalf("JobStaleCommits = %d, want >= 1", got)
	}

	// The current epoch commits fine.
	if r := commit(t, p, "app1", 3, "tok-3"); !r.OK {
		t.Fatalf("current-epoch commit refused: %s", r.Reason)
	}

	// An even older prepare must also bounce.
	old := prepare(t, p, "app1", 2, 0)
	if old.OK || !strings.Contains(old.Reason, "stale launch epoch") {
		t.Fatalf("stale-epoch prepare: ok=%v reason=%q", old.OK, old.Reason)
	}
}

func TestFenceNoticeKillsStaleRanks(t *testing.T) {
	p, fake, reg := newFenceProxy(t)

	if r := prepare(t, p, "app1", 1, 0, 1); !r.OK {
		t.Fatalf("prepare refused: %s", r.Reason)
	}
	if r := commit(t, p, "app1", 1, "tok-1"); !r.OK {
		t.Fatalf("commit refused: %s", r.Reason)
	}

	// The origin rescheduled rank 0 elsewhere at epoch 2 while this site
	// was unreachable; the fence names only that rank.
	reply := fence(t, p, &proto.FenceNotice{AppID: "app1", Epoch: 2, Ranks: []uint32{0}})
	if reply.Killed != 1 {
		t.Fatalf("fence killed %d ranks, want 1", reply.Killed)
	}
	if got := fake.killCount("app1", 0); got != 1 {
		t.Fatalf("rank 0 killed %d times, want 1", got)
	}
	if got := fake.killCount("app1", 1); got != 0 {
		t.Fatalf("rank 1 (current epoch, unnamed) killed %d times, want 0", got)
	}
	if got := reg.Counter(metrics.JobFencedRanks).Value(); got != 1 {
		t.Fatalf("JobFencedRanks = %d, want 1", got)
	}

	// Fences for applications this site never hosted are a no-op.
	ghost := fence(t, p, &proto.FenceNotice{AppID: "nope", Epoch: 9, Ranks: []uint32{0}})
	if ghost.Killed != 0 {
		t.Fatalf("fence for unknown app killed %d", ghost.Killed)
	}

	// A fence at-or-below the running epoch kills nothing: rank 1 runs
	// at epoch 1 and a fence AT epoch 1 is not newer.
	same := fence(t, p, &proto.FenceNotice{AppID: "app1", Epoch: 1, Ranks: []uint32{1}})
	if same.Killed != 0 {
		t.Fatalf("same-epoch fence killed %d ranks, want 0", same.Killed)
	}
}

// TestStreamOpenNamesAHostedRank: an MPI stream names a rank, and the
// destination resolves it through the application's address space here —
// to the node its own prepare placed the rank on. A rank this site does
// not host is refused, whatever address the peer puts beside it.
func TestStreamOpenNamesAHostedRank(t *testing.T) {
	p, _, _ := newFenceProxy(t)
	req := &proto.PrepareSpawn{
		AppID: "app1", Origin: "org", Owner: "alice", Program: "noop", WorldSize: 2, Epoch: 1,
		Ranks:     []uint32{1},
		Locations: []proto.RankLocation{{Rank: 0, Site: "org"}, {Rank: 1, Site: "dst"}},
	}
	if r := serveLaunch(t, p, req).(*proto.PrepareSpawnReply); !r.OK {
		t.Fatalf("prepare refused: %s", r.Reason)
	}
	hosted := node.EndpointAddr("n0", "app1", 1)
	target, err := p.inboundTarget(&proto.StreamOpen{AppID: "app1", Rank: 1, Kind: proto.StreamMPI})
	if err != nil || target != hosted {
		t.Fatalf("stream to hosted rank 1 resolves to %q (%v), want %q", target, err, hosted)
	}
	for _, rank := range []uint32{0, 7} {
		open := &proto.StreamOpen{AppID: "app1", Rank: rank, Kind: proto.StreamMPI, TargetAddr: hosted}
		if target, err := p.inboundTarget(open); err == nil {
			t.Errorf("stream to rank %d, which dst does not host, resolves to %q", rank, target)
		}
	}
}

var _ NodeHandle = (*fenceNode)(nil)
