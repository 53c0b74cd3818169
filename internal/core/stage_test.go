package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/core"
	"gridproxy/internal/failure"
	"gridproxy/internal/metrics"
	"gridproxy/internal/node"
	"gridproxy/internal/proto"
	"gridproxy/internal/site"
	"gridproxy/internal/stage"
)

// newStagedGrid builds a connected testbed whose proxies share the given
// stage configuration.
func newStagedGrid(t *testing.T, reg *metrics.Registry, stagecfg stage.Config, nodesPerSite ...int) *site.Testbed {
	t.Helper()
	cfg := site.TestbedConfig{GridName: "stagetest", Metrics: reg, Stage: stagecfg}
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
	return tb
}

// stagedEchoProgram verifies the staged input and publishes one output
// per rank whose content depends only on the rank (so relaunches publish
// identical blobs).
func stagedEchoProgram(t *testing.T, want []byte) node.ProgramFunc {
	return func(ctx context.Context, env node.Env) error {
		data, ok := env.StagedInput("params")
		if !ok {
			return fmt.Errorf("rank %d: staged input missing", env.Rank)
		}
		if !bytes.Equal(data, want) {
			return fmt.Errorf("rank %d: staged input corrupted", env.Rank)
		}
		return env.PublishOutput(fmt.Sprintf("result-%d", env.Rank), []byte(fmt.Sprintf("ok %d", env.Rank)))
	}
}

// TestStagedLaunchWarmCache is the tentpole acceptance test: a cross-site
// launch stages its input to the destination during prepare, outputs flow
// back to the origin, and an identical relaunch moves ~0 payload bytes
// because every blob is already cached.
func TestStagedLaunchWarmCache(t *testing.T) {
	reg := metrics.NewRegistry()
	tb := newStagedGrid(t, reg, stage.Config{ChunkSize: 16 << 10, Stripes: 2}, 1, 1)
	params := make([]byte, 96<<10)
	rand.New(rand.NewSource(7)).Read(params)
	tb.RegisterProgram("staged-echo", stagedEchoProgram(t, params))

	origin := tb.Sites[0].Proxy
	ref := origin.Store().Put(params)
	ref.Name = "params"
	stageIn := []proto.StageRef{{Name: ref.Name, Hash: ref.Hash, Size: ref.Size}}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	run := func(appID string) *core.Launch {
		launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{
			Owner:   "admin",
			Program: "staged-echo",
			Procs:   2,
			AppID:   appID,
			StageIn: stageIn,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := launch.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		return launch
	}

	launch := run("stage-job-1")

	// The destination pulled the input once (cold); the remote rank's
	// output came inside its site's report.
	if misses := reg.Counter(metrics.StageCacheMisses).Value(); misses != 1 {
		t.Errorf("cold cache misses = %d, want 1 (input at destination)", misses)
	}
	if inlined := reg.Counter(metrics.StageOutputsInlined).Value(); inlined != 1 {
		t.Errorf("stage.outputs_inlined = %d, want 1 (output at origin)", inlined)
	}
	coldBytes := reg.Counter(metrics.StageBytesReceived).Value()
	if coldBytes < int64(len(params)) {
		t.Errorf("cold bytes_received = %d, want >= %d", coldBytes, len(params))
	}

	// Outputs of both ranks are back at the origin.
	outputs := launch.Outputs()
	if len(outputs) != 2 {
		t.Fatalf("outputs = %+v, want 2 refs", outputs)
	}
	for i, out := range outputs {
		data, ok := origin.Store().Get(out.Hash)
		if !ok {
			t.Fatalf("output %q not in origin store", out.Name)
		}
		if want := fmt.Sprintf("ok %d", i); string(data) != want {
			t.Errorf("output %q = %q, want %q", out.Name, data, want)
		}
	}
	if got := origin.JobOutputs("stage-job-1"); len(got) != 2 {
		t.Errorf("JobOutputs = %+v, want 2 refs", got)
	}

	// Warm relaunch: everything is cached on both sides, so no payload
	// bytes move and every stage lookup is a hit.
	hitsBefore := reg.Counter(metrics.StageCacheHits).Value()
	streamsBefore := reg.Counter(metrics.StageStreamsDialed).Value()
	run("stage-job-2")
	if delta := reg.Counter(metrics.StageStreamsDialed).Value() - streamsBefore; delta != 0 {
		t.Errorf("warm relaunch opened %d stage streams, want 0", delta)
	}
	if delta := reg.Counter(metrics.StageBytesReceived).Value() - coldBytes; delta != 0 {
		t.Errorf("warm relaunch transferred %d payload bytes, want 0", delta)
	}
	if hits := reg.Counter(metrics.StageCacheHits).Value() - hitsBefore; hits != 2 {
		t.Errorf("warm relaunch cache hits = %d, want 2", hits)
	}
	if misses := reg.Counter(metrics.StageCacheMisses).Value(); misses != 1 {
		t.Errorf("warm relaunch added cache misses (total %d, want 1)", misses)
	}
	if inlined := reg.Counter(metrics.StageOutputsInlined).Value(); inlined != 1 {
		t.Errorf("warm relaunch entered an output the origin already held (stage.outputs_inlined = %d)", inlined)
	}
}

// TestReusedJobIDRefused: a finished job's id belongs to its owner while
// the record is tracked. Another user submitting under it is refused with
// the duplicate-id error, and the finished record — state, owner, outputs
// — is what it was; so is the answer to a cancel ("already finished").
func TestReusedJobIDRefused(t *testing.T) {
	reg := metrics.NewRegistry()
	tb := newStagedGrid(t, reg, stage.Config{}, 1, 1)
	if err := tb.Users.AddUser("bob", "pw"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Users.GrantUser("bob", auth.Permission{Action: "*", Resource: "*"}); err != nil {
		t.Fatal(err)
	}
	tb.RegisterProgram("publish", func(ctx context.Context, env node.Env) error {
		return env.PublishOutput(fmt.Sprintf("result-%d", env.Rank), []byte(fmt.Sprintf("ok %d", env.Rank)))
	})
	origin := tb.Sites[0].Proxy
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{Owner: "admin", Program: "publish", Procs: 2, AppID: "shared-id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := launch.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	outputs := origin.JobOutputs("shared-id")
	if len(outputs) != 2 {
		t.Fatalf("outputs = %+v, want 2 refs", outputs)
	}

	_, err = origin.LaunchMPI(ctx, core.LaunchSpec{Owner: "bob", Program: "publish", Procs: 2, AppID: "shared-id"})
	if err == nil || !strings.Contains(err.Error(), "duplicate app id") {
		t.Fatalf("bob's launch under admin's finished id: %v, want a duplicate app id refusal", err)
	}
	if state, detail, err := origin.JobStatus("shared-id"); err != nil || state != proto.JobDone || detail != "completed" {
		t.Errorf("admin's record after the refusal: %v %q %v", state, detail, err)
	}
	if got := origin.JobOutputs("shared-id"); !reflect.DeepEqual(got, outputs) {
		t.Errorf("outputs after the refusal = %+v, want %+v", got, outputs)
	}
	if jobs, _ := origin.Jobs("bob", 0); len(jobs) != 0 {
		t.Errorf("bob lists %+v", jobs)
	}
	if jobs, _ := origin.Jobs("admin", 0); len(jobs) != 1 || jobs[0].JobID != "shared-id" {
		t.Errorf("admin lists %+v", jobs)
	}
	if err := origin.Cancel(ctx, "shared-id"); err == nil || !strings.Contains(err.Error(), "already finished") {
		t.Errorf("cancel of the finished job: %v", err)
	}
}

// TestStagedLaunchSurvivesCorruptChunk injects a flipped byte into one
// transfer chunk: the per-chunk checksum must reject it and the re-request
// must succeed without failing the job.
func TestStagedLaunchSurvivesCorruptChunk(t *testing.T) {
	reg := metrics.NewRegistry()
	var corrupter failure.Corrupter
	corrupter.Arm(1)
	tb := newStagedGrid(t, reg, stage.Config{
		ChunkSize: 8 << 10,
		Stripes:   1,
		WrapConn:  func(c net.Conn) net.Conn { return corrupter.Wrap(c) },
	}, 1, 1)
	params := make([]byte, 64<<10)
	rand.New(rand.NewSource(11)).Read(params)
	tb.RegisterProgram("staged-echo", stagedEchoProgram(t, params))

	origin := tb.Sites[0].Proxy
	ref := origin.Store().Put(params)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{
		Owner:   "admin",
		Program: "staged-echo",
		Procs:   2,
		StageIn: []proto.StageRef{{Name: "params", Hash: ref.Hash, Size: ref.Size}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := launch.Wait(ctx); err != nil {
		t.Fatalf("launch failed despite chunk retry: %v", err)
	}
	if corrupter.Corrupted() == 0 {
		t.Fatal("corrupter never fired; test exercised nothing")
	}
	if got := reg.Counter(metrics.StageCorruptChunks).Value(); got < 1 {
		t.Errorf("stage.corrupt_chunks = %d, want >= 1", got)
	}
	if got := reg.Counter(metrics.StageChunkRetries).Value(); got < 1 {
		t.Errorf("stage.chunk_retries = %d, want >= 1", got)
	}
}

// TestStagedLaunchHashesOncePerStore counts the bytes each site's store
// fed to SHA-256 across one cold two-site launch of N input bytes: the
// origin hashes them when they are put, the destination when the pulled
// blob enters its store, and neither hashes anything per chunk moved. A
// chunk corrupted in flight is found by its CRC and moved again, and the
// destination still hashes N. (With per-chunk SHA-256 on both ends each
// side would read 2N.)
func TestStagedLaunchHashesOncePerStore(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt int
	}{{"clean link", 0}, {"corrupt chunk", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			var corrupter failure.Corrupter
			corrupter.Arm(tc.corrupt)
			regs := []*metrics.Registry{metrics.NewRegistry(), metrics.NewRegistry()}
			tb, err := site.NewTestbed(site.TestbedConfig{
				GridName: "hashonce",
				Stage: stage.Config{
					ChunkSize: 8 << 10,
					Stripes:   2,
					WrapConn:  func(c net.Conn) net.Conn { return corrupter.Wrap(c) },
				},
				Sites: []site.SiteSpec{
					{Name: "sitea", Nodes: site.UniformNodes(1, 1), Metrics: regs[0]},
					{Name: "siteb", Nodes: site.UniformNodes(1, 1), Metrics: regs[1]},
				},
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
			params := make([]byte, 96<<10)
			rand.New(rand.NewSource(23)).Read(params)
			tb.RegisterProgram("staged-echo", stagedEchoProgram(t, params))

			origin := tb.Sites[0].Proxy
			ref := origin.Store().Put(params)
			launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{
				Owner:   "admin",
				Program: "staged-echo",
				Procs:   2,
				StageIn: []proto.StageRef{{Name: "params", Hash: ref.Hash, Size: ref.Size}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := launch.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			outputs := launch.Outputs()
			if len(outputs) != 2 {
				t.Fatalf("outputs = %+v, want one per rank", outputs)
			}
			// One rank ran on each site. The origin hashed the input, its
			// own rank's output and the other rank's, pulled back; the
			// destination hashed the pulled input and its rank's output.
			n := int64(len(params))
			originWant := n + outputs[0].Size + outputs[1].Size
			if got := regs[0].Counter(metrics.StageHashedBytes).Value(); got != originWant {
				t.Errorf("origin stage.hashed_bytes = %d, want %d (N = %d)", got, originWant, n)
			}
			remoteOut := outputs[0].Size // "ok 0" and "ok 1" are the same length
			if got := regs[1].Counter(metrics.StageHashedBytes).Value(); got != n+remoteOut {
				t.Errorf("destination stage.hashed_bytes = %d, want %d (N = %d)", got, n+remoteOut, n)
			}
			if got := regs[1].Counter(metrics.StageBytesReceived).Value(); got != n {
				t.Errorf("destination stage.bytes_received = %d, want N = %d", got, n)
			}
			corrupt := regs[1].Counter(metrics.StageCorruptChunks).Value()
			retries := regs[1].Counter(metrics.StageChunkRetries).Value()
			if corrupter.Corrupted() != tc.corrupt || corrupt != int64(tc.corrupt) || (retries >= 1) != (tc.corrupt > 0) {
				t.Errorf("corrupter fired %d times, stage.corrupt_chunks = %d, stage.chunk_retries = %d; armed for %d",
					corrupter.Corrupted(), corrupt, retries, tc.corrupt)
			}
		})
	}
}

// TestLaunchRefusedWithoutStagedBlob: launching with a ref the origin
// store does not hold is refused before anything runs.
func TestLaunchRefusedWithoutStagedBlob(t *testing.T) {
	tb := newStagedGrid(t, nil, stage.Config{}, 1)
	origin := tb.Sites[0].Proxy
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := origin.LaunchMPI(ctx, core.LaunchSpec{
		Owner:   "admin",
		Program: "anything",
		Procs:   1,
		StageIn: []proto.StageRef{{Name: "ghost", Hash: stage.Hash([]byte("nope")), Size: 4}},
	})
	if err == nil {
		t.Fatal("launch with unstaged blob succeeded, want refusal")
	}
}

// TestStagedInputPinnedUntilRankReturns: a rank's staged input evicted
// while the rank still reads it keeps its bytes, and leaves the store's
// memory once the rank's process is over.
func TestStagedInputPinnedUntilRankReturns(t *testing.T) {
	tb := newStagedGrid(t, nil, stage.Config{MaxBytes: 1 << 20}, 1)
	origin := tb.Sites[0].Proxy
	store := origin.Store()
	input := seededBlob(30, 512<<10)
	ref := store.Put(input)
	read, evicted := make(chan struct{}), make(chan struct{})
	tb.RegisterProgram("slow-reader", func(ctx context.Context, env node.Env) error {
		data, ok := env.StagedInput("input")
		close(read)
		<-evicted
		if !ok || !bytes.Equal(data, input) {
			return fmt.Errorf("staged input missing or changed after its eviction")
		}
		return nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{
		Owner:   "admin",
		Program: "slow-reader",
		Procs:   1,
		StageIn: []proto.StageRef{{Name: "input", Hash: ref.Hash, Size: ref.Size}},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-read
	store.Put(seededBlob(31, 1<<20))
	if store.Has(ref.Hash) {
		t.Fatal("the input was not evicted")
	}
	if bytes, pins := store.Outstanding(); bytes < ref.Size || pins != 1 {
		t.Errorf("while the rank reads its evicted input: %d bytes beyond the store, %d pins", bytes, pins)
	}
	close(evicted)
	if err := launch.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	waitQuiet(t, store)
}

// TestStagedLaunchRestampsClientSizes: a submit arriving through the gate
// carries whatever sizes the client wrote. The origin's store is the
// authority: refs saying 0 bytes or the wrong number stage correctly,
// because destinations size their buffers from restamped refs.
func TestStagedLaunchRestampsClientSizes(t *testing.T) {
	reg := metrics.NewRegistry()
	tb := newStagedGrid(t, reg, stage.Config{ChunkSize: 16 << 10, Stripes: 2}, 1, 1)
	inputs := map[string][]byte{"unsized": make([]byte, 96<<10), "missized": make([]byte, 40<<10)}
	rand.New(rand.NewSource(17)).Read(inputs["unsized"])
	rand.New(rand.NewSource(18)).Read(inputs["missized"])
	tb.RegisterProgram("check-inputs", func(ctx context.Context, env node.Env) error {
		for name, want := range inputs {
			if data, ok := env.StagedInput(name); !ok || !bytes.Equal(data, want) {
				return fmt.Errorf("rank %d: staged input %q missing or wrong", env.Rank, name)
			}
		}
		return nil
	})

	origin := tb.Sites[0].Proxy
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{
		Owner:   "admin",
		Program: "check-inputs",
		Procs:   2,
		StageIn: []proto.StageRef{
			{Name: "unsized", Hash: origin.Store().Put(inputs["unsized"]).Hash, Size: 0},
			{Name: "missized", Hash: origin.Store().Put(inputs["missized"]).Hash, Size: 40<<10 + 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := launch.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// Both inputs were pushed, sized by the origin, two inbox streams of
	// 68 KiB each (the first input is cut at the boundary): no request
	// went out at all, least of all one only to learn a size. A ref left
	// unsized would not have been pushed, and one pushed at the client's
	// size would not have verified.
	if got := reg.Counter(metrics.StagePushes).Value(); got != 2 {
		t.Errorf("stage.pushes = %d, want 2", got)
	}
	if got := reg.Counter(metrics.StageRequests).Value(); got != 0 {
		t.Errorf("stage.requests = %d, want 0", got)
	}
	if got := reg.Counter(metrics.StageStreamsDialed).Value(); got != 0 {
		t.Errorf("stage.streams_dialed = %d, want 0", got)
	}
	if got := reg.Counter(metrics.StageBytesReceived).Value(); got != 136<<10 {
		t.Errorf("stage.bytes_received = %d, want %d", got, 136<<10)
	}
}

// TestStagedLaunchEmptyBlobs: an empty input beside a small one, and an
// empty output beside a small one, cross the sites. The origin's honest
// size for them is 0, which a pull plan otherwise reads as "unknown".
func TestStagedLaunchEmptyBlobs(t *testing.T) {
	tb := newStagedGrid(t, metrics.NewRegistry(), stage.Config{Stripes: 4}, 1, 1)
	small := make([]byte, 100)
	rand.New(rand.NewSource(19)).Read(small)
	tb.RegisterProgram("empties", func(ctx context.Context, env node.Env) error {
		if data, ok := env.StagedInput("small"); !ok || !bytes.Equal(data, small) {
			return fmt.Errorf("rank %d: staged input \"small\" missing or wrong", env.Rank)
		}
		if data, ok := env.StagedInput("empty"); !ok || len(data) != 0 {
			return fmt.Errorf("rank %d: staged input \"empty\" missing or wrong", env.Rank)
		}
		if err := env.PublishOutput(fmt.Sprintf("none-%d", env.Rank), nil); err != nil {
			return err
		}
		return env.PublishOutput(fmt.Sprintf("some-%d", env.Rank), []byte(fmt.Sprintf("ok %d", env.Rank)))
	})

	origin := tb.Sites[0].Proxy
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	smallRef, emptyRef := origin.Store().Put(small), origin.Store().Put(nil)
	launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{
		Owner:   "admin",
		Program: "empties",
		Procs:   2,
		StageIn: []proto.StageRef{
			{Name: "small", Hash: smallRef.Hash, Size: smallRef.Size},
			{Name: "empty", Hash: emptyRef.Hash, Size: emptyRef.Size},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := launch.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	outputs := launch.Outputs()
	if len(outputs) != 4 {
		t.Fatalf("recorded %d outputs, want 4: %v", len(outputs), outputs)
	}
	for _, ref := range outputs {
		if !origin.Store().Has(ref.Hash) {
			t.Errorf("output %q is not in the origin store", ref.Name)
		}
	}
}

// TestUnpulledOutputFailsReport: a remote site advertises two outputs
// and one of them cannot be pulled (every attempt arrives corrupted until
// the retries run out). Launch.Wait returning means the recorded outputs
// are local, so the origin records only the one it holds and the site's
// report turns into a failure naming the other.
func TestUnpulledOutputFailsReport(t *testing.T) {
	// "keep" rides its site's report. "lose" is past what a report
	// carries, and the corrupter damages every write of 128 bytes or more:
	// its chunk frames never pass.
	var corrupter failure.Corrupter
	corrupter.Arm(1 << 20)
	tb := newStagedGrid(t, metrics.NewRegistry(), stage.Config{
		WrapConn: func(c net.Conn) net.Conn { return corrupter.Wrap(c) },
	}, 1, 1)
	tb.RegisterProgram("keep-lose", func(ctx context.Context, env node.Env) error {
		if err := env.PublishOutput(fmt.Sprintf("keep-%d", env.Rank), []byte(fmt.Sprintf("keep %d", env.Rank))); err != nil {
			return err
		}
		return env.PublishOutput(fmt.Sprintf("lose-%d", env.Rank), bytes.Repeat([]byte{byte(env.Rank)}, proto.MaxInlineOutputs+1))
	})

	origin := tb.Sites[0].Proxy
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	launch, err := origin.LaunchMPI(ctx, core.LaunchSpec{Owner: "admin", Program: "keep-lose", Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var remote int
	for rank, loc := range launch.Locations {
		if loc.Site != tb.Sites[0].Name {
			remote = rank
		}
	}
	lost := fmt.Sprintf("lose-%d", remote)
	err = launch.Wait(ctx)
	if err == nil || !strings.Contains(err.Error(), lost) {
		t.Fatalf("Wait = %v, want a failure naming output %q", err, lost)
	}
	var names []string
	for _, out := range launch.Outputs() {
		names = append(names, out.Name)
		if !origin.Store().Has(out.Hash) {
			t.Errorf("recorded output %q is not in the origin store", out.Name)
		}
	}
	want := []string{"keep-0", "keep-1", fmt.Sprintf("lose-%d", 1-remote)}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("recorded outputs = %v, want %v", names, want)
	}
}
