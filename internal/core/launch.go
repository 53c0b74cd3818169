package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"gridproxy/internal/balance"
	"gridproxy/internal/metrics"
	"gridproxy/internal/node"
	"gridproxy/internal/peerlink"
	"gridproxy/internal/proto"
)

// ErrCanceled is the failure Launch.Wait surfaces for jobs terminated by
// an operator Cancel, so callers can tell cancellation from site failure.
var ErrCanceled = errors.New("core: job canceled")

// LaunchSpec describes an MPI application launch.
type LaunchSpec struct {
	// Owner is the submitting user (permission checks at origin and at
	// every destination site).
	Owner string
	// Program names a program installed on the nodes.
	Program string
	// Args are passed to every rank.
	Args []string
	// Procs is the world size.
	Procs int
	// AppID, if empty, is generated.
	AppID string
	// StageIn lists blobs (previously Put into the origin proxy's store)
	// that must be present at every destination site before ranks start;
	// ranks read them via node.Env.StagedInput. Destinations pull only
	// the blobs they do not already hold — a warm cache transfers
	// nothing.
	StageIn []proto.StageRef
	// StageOut filters which published outputs flow back to the origin
	// when the job completes; empty means all of them.
	StageOut []string
}

// RankPlacement is the public view of where one rank runs. Only the site
// running a rank knows its Node: it placed the rank itself.
type RankPlacement struct {
	Site string
	Node string
}

// Launch tracks a running MPI application from the origin proxy.
type Launch struct {
	AppID string
	// Locations maps every rank to its initial placement. Rescheduling
	// may move ranks afterwards; see CurrentPlacement.
	Locations map[int]RankPlacement

	proxy *Proxy
	// app is the application's record here: its mu guards the fields
	// below, and its placement is the launch's current one.
	app *app

	// localPending counts outstanding local rank watcher groups (the
	// initial spawn plus one per local reschedule).
	localPending int
	// remote counts outstanding completion reports per site: the initial
	// commit contributes one, each reschedule landing ranks there one
	// more.
	remote      map[string]int
	reschedules int
	// epoch is the launch's fencing clock: 1 for the initial spawn,
	// incremented by every reschedule. Prepares and commits carry it;
	// destinations refuse epochs older than the newest they accepted and
	// kill ranks a fence names as rescheduled away (split-brain safety).
	epoch     uint64
	committed bool // two-phase launch completed; rescheduling may act
	canceled  bool
	done      chan struct{}
	failed    error
	finished  bool
	placed    map[int]rankLoc // the final placement, handed over by the record
}

// Outputs returns the refs of the job's output blobs staged back to the
// origin store so far (all once Wait has returned): Proxy.Store().Open reads one.
func (l *Launch) Outputs() []proto.StageRef { return l.proxy.outputRefs(l.app) }

// Placement computes where each rank would run without launching —
// exposed for the scheduling experiments and dry runs.
func (p *Proxy) Placement(procs int) (map[int]RankPlacement, error) {
	locations, err := p.placement(procs)
	if err != nil {
		return nil, err
	}
	return exportLocations(locations), nil
}

func (p *Proxy) placement(procs int) (map[int]rankLoc, error) {
	if procs <= 0 {
		return nil, badRequest("procs must be positive, got %d", procs)
	}
	chosen, err := p.pickNodes(procs, "")
	if err != nil {
		return nil, err
	}
	locations := make(map[int]rankLoc, procs)
	for rank, loc := range chosen {
		locations[rank] = loc
	}
	return locations, nil
}

// pickNodes places each of n processes among the current candidates
// outside site exclude ("" excludes none), with the proxy's placement
// policy. Initial placement and rank rescheduling both place through it.
// A rank placed at another site carries only the site: that site picks
// the node when it prepares (prepareArrived).
func (p *Proxy) pickNodes(n int, exclude string) ([]rankLoc, error) {
	candidates := slices.DeleteFunc(p.Candidates(), func(c balance.NodeInfo) bool { return c.Site == exclude })
	if len(candidates) == 0 {
		return nil, errors.New("core: no candidate nodes in the grid")
	}
	return p.assign(candidates, n)
}

// assign distributes n processes over candidates with the placement
// policy.
func (p *Proxy) assign(candidates []balance.NodeInfo, n int) ([]rankLoc, error) {
	idxs, err := balance.Assign(p.policy, candidates, n)
	if err != nil {
		return nil, fmt.Errorf("core: placement: %w", err)
	}
	chosen := make([]rankLoc, n)
	for i, idx := range idxs {
		chosen[i] = rankLoc{site: candidates[idx].Site, node: candidates[idx].Name}
	}
	return chosen, nil
}

func exportLocations(locations map[int]rankLoc) map[int]RankPlacement {
	out := make(map[int]RankPlacement, len(locations))
	for rank, loc := range locations {
		out[rank] = RankPlacement{Site: loc.site, Node: loc.node}
	}
	return out
}

// LaunchMPI places and starts an MPI application across the grid. It
// returns once every rank has been spawned; use Launch.Wait for
// completion.
func (p *Proxy) LaunchMPI(ctx context.Context, spec LaunchSpec) (*Launch, error) {
	if spec.Program == "" {
		return nil, badRequest("empty program name")
	}
	if spec.Owner == "" {
		return nil, unauthorized("launch requires an authenticated owner")
	}
	locations, err := p.placement(spec.Procs)
	if err != nil {
		return nil, err
	}
	return p.launchAt(ctx, spec, locations)
}

// launchAt starts spec with an explicit placement (used directly by
// experiments that sweep policies). The multi-site part runs as a
// two-phase commit: every remote site first PREPARES (validates the
// owner, creates the address space, stages the inputs, records its ranks
// — nothing runs), then every site COMMITS (spawns). With one remote site
// the commit travels behind the prepare (spawnAt); with more, every
// prepare is awaited first (spawnBehindBarrier). A failure in either
// phase triggers a best-effort AbortSpawn fan-out, so a launch that dies
// half-way strands no address spaces or ranks anywhere.
func (p *Proxy) launchAt(ctx context.Context, spec LaunchSpec, locations map[int]rankLoc) (*Launch, error) {
	appID := spec.AppID
	if appID == "" {
		appID = p.newAppID()
	}

	// Origin-side permission validation for every involved site.
	sites := map[string][]int{} // site -> ranks
	for rank, loc := range locations {
		sites[loc.site] = append(sites[loc.site], rank)
	}
	for site := range sites {
		if err := p.users.Allowed(spec.Owner, "mpi", "site:"+site); err != nil {
			return nil, denied("user %q may not run MPI at site %q", spec.Owner, site)
		}
	}
	// Every staged input must already be in the origin store: destinations
	// pull the blobs from us during their PrepareSpawn, sized by what our
	// store says they are.
	var err error
	if spec.StageIn, err = p.originStageRefs(spec.StageIn); err != nil {
		return nil, err
	}
	// All remote sites must be live directory members before any process
	// starts; tunnels to them are dialed on demand by the phases below.
	var remoteSites []string
	for site := range sites {
		if site == p.site {
			continue
		}
		if !p.siteUp(site) {
			return nil, fmt.Errorf("%w: %q", ErrUnknownPeer, site)
		}
		remoteSites = append(remoteSites, site)
	}
	sort.Strings(remoteSites)
	localRanks := append([]int(nil), sites[p.site]...)
	sort.Ints(localRanks)

	launch := &Launch{
		AppID:     appID,
		Locations: exportLocations(locations),
		proxy:     p,
		remote:    make(map[string]int, len(remoteSites)),
		epoch:     1,
		done:      make(chan struct{}),
	}
	if len(localRanks) > 0 {
		launch.localPending = 1
	}
	for _, site := range remoteSites {
		launch.remote[site] = 1
	}

	// Enter the record before any site can report completion, so even an
	// instantly-finishing remote rank group finds its launch.
	spec.Procs = len(locations)
	a, _, err := p.open(appID, spec, locations, launch, nil)
	if err != nil {
		return nil, err
	}

	// The origin's own commit: its ranks start once every remote prepare
	// has succeeded. Inputs are already in the origin store (verified
	// above), so local ranks read them directly and publish outputs
	// straight back into it.
	localUp := false
	spawnLocal := func() error {
		err := p.spawnLocalRanks(ctx, appID, spec, locations, localRanks, a.recordOutput)
		localUp = err == nil
		return err
	}
	prepares := make(map[string]*proto.PrepareSpawn, len(remoteSites))
	for _, site := range remoteSites {
		prepares[site] = launch.prepareFor(spec, sites[site], locations, 1)
	}
	switch len(remoteSites) {
	case 0:
		err = spawnLocal()
	case 1:
		err = p.spawnAt(ctx, remoteSites[0], prepares[remoteSites[0]], spawnLocal)
	default:
		err = p.spawnBehindBarrier(ctx, remoteSites, prepares, spawnLocal)
	}
	if err != nil {
		// Commit is not atomic across sites: some may already run ranks.
		// Abort everywhere (idempotent) and kill our own ranks so nothing
		// survives a failed launch.
		if localUp {
			p.reapLocalRanks(appID, locations, localRanks)
		}
		p.abortRemote(ctx, appID, remoteSites, err.Error())
		p.unregisterJob(a)
		return nil, err
	}

	// The job runs unless it already reached a terminal state: an
	// all-remote job can finish before the launcher gets here.
	p.mu.Lock()
	a.mu.Lock()
	launch.committed = true
	a.mu.Unlock()
	if a.launch != nil {
		a.state, a.detail = proto.JobRunning, "running"
	}
	p.mu.Unlock()

	// Completion watcher for local ranks.
	if len(localRanks) > 0 {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			launch.groupDone(p.site, p.waitLocalRanks(appID, locations, localRanks))
		}()
	}

	// A remote site can die between its commit reply and our committed
	// flag; its watchPeer-triggered reschedule would have found the
	// launch uncommitted and deferred to us. Re-check liveness so those
	// deaths are handled exactly once.
	for _, site := range remoteSites {
		if !p.siteUp(site) {
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.rescheduleSite(launch, site)
			}()
		}
	}
	launch.groupDone("", nil)
	return launch, nil
}

// spawnLocalRanks starts this site's share of an application on its nodes.
// On failure the ranks already started are killed, so a half-spawned group
// never outlives its launch. The spec's StageIn and record wire the
// processes to the data plane: staged inputs resolve out of this site's
// store, published outputs land in it and their refs flow to record.
func (p *Proxy) spawnLocalRanks(ctx context.Context, appID string, spec LaunchSpec, locations map[int]rankLoc, ranks []int, record func(proto.StageRef)) error {
	table := p.buildRankTable(appID, locations)
	input, publish := p.stageEnv(appID, spec.StageIn, record)
	for i, rank := range ranks {
		loc := locations[rank]
		handle, err := p.nodeHandle(loc.node)
		if err == nil {
			_, err = handle.Spawn(ctx, node.SpawnSpec{
				AppID:     appID,
				Program:   spec.Program,
				Args:      spec.Args,
				Rank:      rank,
				WorldSize: spec.Procs,
				RankTable: table,
				Input:     input(rank, handle),
				Publish:   publish,
			})
		}
		if err != nil {
			p.reapLocalRanks(appID, locations, ranks[:i])
			return fmt.Errorf("core: spawn rank %d on %s: %w", rank, loc.node, err)
		}
	}
	return nil
}

// reapLocalRanks best-effort kills local ranks. Each kill is followed by
// an asynchronous wait-and-release: Release only frees a process slot
// once the process is done, which a just-killed rank may not be yet.
func (p *Proxy) reapLocalRanks(appID string, locations map[int]rankLoc, ranks []int) {
	for _, rank := range ranks {
		loc := locations[rank]
		if loc.site != p.site {
			continue
		}
		handle, err := p.nodeHandle(loc.node)
		if err != nil {
			continue
		}
		if err := handle.Kill(appID, rank); err != nil {
			continue
		}
		rank := rank
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			_ = handle.Wait(p.ctx, appID, rank)
			handle.Release(appID, rank)
		}()
	}
}

// buildRankTable maps every rank to the address processes of THIS site
// should dial: local ranks directly, remote ranks through this proxy's
// virtual slaves.
func (p *Proxy) buildRankTable(appID string, locations map[int]rankLoc) map[int]string {
	table := make(map[int]string, len(locations))
	for rank, loc := range locations {
		if loc.site == p.site {
			table[rank] = node.EndpointAddr(loc.node, appID, rank)
		} else {
			table[rank] = p.vsAddr(appID, rank)
		}
	}
	return table
}

// waitLocalRanks blocks until every local rank of the app exits, then
// releases the process slots.
func (p *Proxy) waitLocalRanks(appID string, locations map[int]rankLoc, ranks []int) error {
	var firstErr error
	for _, rank := range ranks {
		loc := locations[rank]
		handle, err := p.nodeHandle(loc.node)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if err := handle.Wait(p.ctx, appID, rank); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rank %d on %s: %w", rank, loc.node, err)
		}
		handle.Release(appID, rank)
	}
	return firstErr
}

// locationsToWire renders the site of every rank; nodes stay with the
// sites that chose them.
func locationsToWire(locations map[int]rankLoc) []proto.RankLocation {
	out := make([]proto.RankLocation, 0, len(locations))
	for rank, loc := range locations {
		out = append(out, proto.RankLocation{Rank: uint32(rank), Site: loc.site})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

func locationsFromWire(locs []proto.RankLocation) map[int]rankLoc {
	out := make(map[int]rankLoc, len(locs))
	for _, l := range locs {
		out[int(l.Rank)] = rankLoc{site: l.Site}
	}
	return out
}

// CurrentPlacement returns where each rank runs right now, reflecting any
// rescheduling since the launch.
func (l *Launch) CurrentPlacement() map[int]RankPlacement {
	l.app.mu.Lock()
	defer l.app.mu.Unlock()
	if l.placed == nil {
		return exportLocations(l.app.locations)
	}
	return exportLocations(l.placed)
}

// awaitsSite reports whether the launch still waits on a site's
// completion report.
func (l *Launch) awaitsSite(site string) bool {
	l.app.mu.Lock()
	defer l.app.mu.Unlock()
	return l.remote[site] > 0
}

// groupDone records the end of a rank group the launch waits on — the
// local one when site is this one, else a remote site's completion report
// (one per committed group) — and finishes the launch once none is
// outstanding. Reports from sites the launch no longer tracks, for
// example after their ranks were rescheduled away, are ignored. Site ""
// records only err: a launch-level failure (e.g. no capacity left for
// rescheduling), or with none, a check whether the launch is through.
func (l *Launch) groupDone(site string, err error) {
	l.app.mu.Lock()
	switch n := l.remote[site]; {
	case site == l.proxy.site:
		l.localPending = max(l.localPending-1, 0)
		site = ""
	case site == "":
	case n == 0:
		l.app.mu.Unlock()
		return
	case n == 1:
		delete(l.remote, site)
	default:
		l.remote[site] = n - 1
	}
	if err != nil && site != "" {
		err = fmt.Errorf("site %s: %w", site, err)
	}
	if err != nil && l.failed == nil {
		l.failed = err
	}
	through := !l.finished && l.localPending == 0 && len(l.remote) == 0
	l.finished = l.finished || through
	failed, canceled := l.failed, l.canceled
	l.app.mu.Unlock()
	if through {
		l.finish(failed, canceled)
	}
}

// finish records the terminal job state, which lets the launch's virtual
// slaves go, and releases waiters. Exactly one goroutine reaches it (the
// one that flips finished).
func (l *Launch) finish(failed error, canceled bool) {
	state, detail := proto.JobDone, "completed"
	switch {
	case canceled:
		state, detail = proto.JobCancelled, "canceled by operator"
	case failed != nil:
		state, detail = proto.JobFailed, failed.Error()
	}
	l.proxy.setJobTerminal(l.app, state, detail)
	close(l.done)
}

// Wait blocks until every rank (local and remote) finished. It returns
// the first failure, if any; for operator-cancelled jobs that failure is
// ErrCanceled.
func (l *Launch) Wait(ctx context.Context) error {
	select {
	case <-l.done:
		l.app.mu.Lock()
		defer l.app.mu.Unlock()
		return l.failed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// prepareFor renders the PrepareSpawn that lands ranks of the launch at
// one site, under the spec, placement and launch epoch given.
func (l *Launch) prepareFor(spec LaunchSpec, ranks []int, locations map[int]rankLoc, epoch uint64) *proto.PrepareSpawn {
	share := make([]uint32, len(ranks))
	for i, rank := range ranks {
		share[i] = uint32(rank)
	}
	slices.Sort(share)
	return &proto.PrepareSpawn{
		AppID:     l.AppID,
		Origin:    l.proxy.site,
		Owner:     spec.Owner,
		Program:   spec.Program,
		Args:      spec.Args,
		WorldSize: uint32(len(locations)),
		Ranks:     share,
		Locations: locationsToWire(locations),
		StageIn:   spec.StageIn,
		StageOut:  spec.StageOut,
		Epoch:     epoch,
	}
}

// spawnAt prepares and commits a rank group at a remote site that is the
// only remote participant of its step (a two-site launch, any
// reschedule), so no other site's prepare gates the commit. PrepareSpawn
// and a CommitSpawn leave back to back on one control stream. The
// destination's read loop steps them in that order (launchRoute): the
// commit parks behind the prepare's staging and spawns when it is
// through, so the commit's reply is one propagation delay behind the
// prepare's where it used to be a round trip. prepared runs between the
// two replies — the origin's own ranks start there, only after the
// destination's prepare succeeded, but possibly after its ranks did. The
// commit is flagged Unconfirmed for destinations that still hold such a
// commit apart; this one does not look at the flag.
func (p *Proxy) spawnAt(ctx context.Context, site string, prep *proto.PrepareSpawn, prepared func() error) error {
	pr, err := p.peerFor(ctx, site)
	if err != nil {
		return err
	}
	defer p.releasePeer(pr)
	commit := p.newCommit(prep.AppID, prep.Epoch)
	commit.Unconfirmed = true

	pctx, cancel := p.rpcDeadline(ctx)
	defer cancel()
	defer p.pushInputs(pctx, pr, prep.StageIn)()
	prepCall := p.sendPeer(pctx, pr, prep)
	commitCall := p.sendPeer(pctx, pr, commit)
	// On every early return the commit is no longer waited for here; the
	// caller's abort settles it at the destination.
	defer commitCall.Forget()
	if err := prepareOutcome(pctx, site, prepCall); err != nil {
		return err
	}
	if err := prepared(); err != nil {
		return err
	}
	_, err = p.commitAt(ctx, site, commit, commitCall)
	return err
}

// spawnBehindBarrier prepares and commits rank groups at several remote
// sites: a commit at one must not start ranks before every other site
// has prepared, so each phase fans out and is awaited whole. Requests fan
// out concurrently with a per-peer deadline: a phase costs one
// slowest-site round trip, not the sum over sites.
func (p *Proxy) spawnBehindBarrier(ctx context.Context, sites []string, prepares map[string]*proto.PrepareSpawn, prepared func() error) error {
	phase := func(step func(ctx context.Context, site string) error) error {
		results := peerlink.FanOut(ctx, sites, p.lifecycle.RPCTimeout, func(ctx context.Context, site string) (struct{}, error) {
			return struct{}{}, step(ctx, site)
		})
		for _, res := range results {
			if res.Err != nil {
				return res.Err
			}
		}
		return nil
	}
	if err := phase(func(ctx context.Context, site string) error {
		return p.prepareAt(ctx, site, prepares[site])
	}); err != nil {
		return err
	}
	if err := prepared(); err != nil {
		return err
	}
	return phase(func(ctx context.Context, site string) error {
		_, err := p.commitAt(ctx, site, p.newCommit(prepares[site].AppID, prepares[site].Epoch), nil)
		return err
	})
}

// prepareAt runs launch phase one at a remote site.
func (p *Proxy) prepareAt(ctx context.Context, site string, req *proto.PrepareSpawn) error {
	pr, err := p.peerFor(ctx, site)
	if err != nil {
		return err
	}
	defer p.releasePeer(pr)
	defer p.pushInputs(ctx, pr, req.StageIn)()
	return prepareOutcome(ctx, site, p.sendPeer(ctx, pr, req))
}

// prepareOutcome collects a PrepareSpawn's reply: nil when the site
// prepared.
func prepareOutcome(ctx context.Context, site string, call *peerCall) error {
	reply, err := call.reply(ctx)
	if err != nil {
		return fmt.Errorf("core: prepare at %s: %w", site, err)
	}
	pre, ok := reply.(*proto.PrepareSpawnReply)
	if !ok || !pre.OK {
		reason := "unexpected reply"
		if ok {
			reason = pre.Reason
		}
		return fmt.Errorf("core: prepare at %s refused: %s", site, reason)
	}
	return nil
}

// newCommit mints the CommitSpawn of one rank group, with the idempotency
// token every attempt at it shares.
func (p *Proxy) newCommit(appID string, epoch uint64) *proto.CommitSpawn {
	return &proto.CommitSpawn{
		AppID: appID,
		Epoch: epoch,
		Token: fmt.Sprintf("%s-%d", p.site, p.appSeq.Add(1)),
	}
}

// commitAt runs launch phase two at a remote site; sent, if not nil, is a
// first attempt already on the wire. Transport failures are retried with
// jittered backoff under ONE idempotency token: if the first attempt
// spawned the group but its reply was lost, the retry re-reports that
// outcome from the destination's token cache instead of spawning a
// second copy of every rank. Refusals are terminal — the destination
// answered; asking again changes nothing.
func (p *Proxy) commitAt(ctx context.Context, site string, req *proto.CommitSpawn, sent *peerCall) (*proto.SpawnReply, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(retryDelay(20*time.Millisecond, attempt-1)):
			case <-ctx.Done():
				return nil, lastErr
			}
		}
		var (
			reply proto.Body
			err   error
		)
		if attempt == 0 && sent != nil {
			rctx, cancel := p.rpcDeadline(ctx)
			reply, err = sent.reply(rctx)
			cancel()
		} else {
			var pr *peer
			if pr, err = p.peerFor(ctx, site); err != nil {
				lastErr = err
				continue
			}
			reply, err = p.callPeer(ctx, pr, req)
			p.releasePeer(pr)
		}
		if err != nil {
			var se *proto.StatusError
			if errors.As(err, &se) {
				return nil, fmt.Errorf("core: commit at %s: %w", site, err)
			}
			lastErr = fmt.Errorf("core: commit at %s: %w", site, err)
			continue
		}
		sr, ok := reply.(*proto.SpawnReply)
		if !ok || !sr.OK {
			reason := "unexpected reply"
			if ok {
				reason = sr.Reason
			}
			return nil, fmt.Errorf("core: commit at %s refused: %s", site, reason)
		}
		return sr, nil
	}
	return nil, lastErr
}

// abortRemote fans AbortSpawn out to the named sites (best effort:
// unreachable peers are skipped — their state dies with them or is reaped
// by their orphan reaper). The fan-out outlives the caller's context and
// is bounded by RPCTimeout per site instead: a launch is often aborted
// because that very context ended (the client went away mid-stage-in),
// and a destination that is never told keeps the prepared application
// for as long as this origin lives.
func (p *Proxy) abortRemote(ctx context.Context, appID string, sites []string, reason string) {
	if len(sites) == 0 {
		return
	}
	ctx = context.WithoutCancel(ctx)
	p.reg.Counter(metrics.JobAborts).Inc()
	peerlink.FanOut(ctx, sites, p.lifecycle.RPCTimeout, func(ctx context.Context, site string) (struct{}, error) {
		pr, err := p.peerFor(ctx, site)
		if err != nil {
			return struct{}{}, nil // unreachable: nothing to abort there
		}
		defer p.releasePeer(pr)
		if _, err := p.callPeer(ctx, pr, &proto.AbortSpawn{AppID: appID, Reason: reason}); err != nil {
			p.log.Warn("abort fan-out failed", "app", appID, "site", site, "err", err)
		}
		return struct{}{}, nil
	})
}
