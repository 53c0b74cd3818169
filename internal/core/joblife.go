package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/peerlink"
	"gridproxy/internal/proto"
)

// JobConfig carries the fault-tolerance knobs of the job lifecycle.
// Zero values select defaults; negative values disable the feature.
type JobConfig struct {
	// OrphanGrace is how long a destination site keeps hosting an
	// application whose origin proxy is disconnected before reaping it
	// autonomously. Negative disables orphan reaping.
	OrphanGrace time.Duration
	// TerminalTTL is how long terminal job records (done, failed,
	// cancelled) stay queryable before the janitor prunes them from the
	// job table. Negative keeps records forever.
	TerminalTTL time.Duration
	// RescheduleBudget bounds how many site deaths a single launch
	// survives by respawning the lost ranks on surviving sites. Negative
	// disables rescheduling (a site death fails the job, the pre-existing
	// behaviour).
	RescheduleBudget int
}

// Job-lifecycle defaults.
const (
	DefaultOrphanGrace      = 45 * time.Second
	DefaultTerminalTTL      = 15 * time.Minute
	DefaultRescheduleBudget = 2
)

// WithDefaults fills zero fields with defaults.
func (c JobConfig) WithDefaults() JobConfig {
	if c.OrphanGrace == 0 {
		c.OrphanGrace = DefaultOrphanGrace
	}
	if c.TerminalTTL == 0 {
		c.TerminalTTL = DefaultTerminalTTL
	}
	if c.RescheduleBudget == 0 {
		c.RescheduleBudget = DefaultRescheduleBudget
	}
	return c
}

// jobsJanitor prunes terminal job records past the TTL, bounding the job
// table of a long-lived proxy.
func (p *Proxy) jobsJanitor() {
	defer p.wg.Done()
	interval := p.jobcfg.TerminalTTL / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-ticker.C:
		}
		p.pruneJobs(p.clock())
	}
}

// Cancel terminates a running job launched from this proxy: local ranks
// are killed, every destination site gets an AbortSpawn, and the job
// moves to the cancelled terminal state. Launch.Wait then returns
// ErrCanceled. Cancelling an already-cancelled job is a no-op; jobs still
// in their launch phases or already finished are refused.
func (p *Proxy) Cancel(ctx context.Context, appID string) error {
	a, j, ok := p.job(appID)
	if !ok {
		return notFound("no job %q", appID)
	}
	l := j.launch
	if l == nil {
		return badRequest("job %q already finished", appID)
	}
	//lint:allow-wallclock monotonic cancel-latency measurement for metrics; injected clocks have no monotonic reading
	start := time.Now()

	a.mu.Lock()
	if l.finished {
		a.mu.Unlock()
		return badRequest("job %q already finished", appID)
	}
	if !l.committed {
		a.mu.Unlock()
		return badRequest("job %q is still launching; retry", appID)
	}
	if l.canceled {
		a.mu.Unlock()
		return nil
	}
	// Claim the finished transition here: the watchers' groupDone then
	// becomes a no-op, so exactly one goroutine (this one) runs finish.
	l.canceled = true
	l.finished = true
	l.failed = ErrCanceled
	l.localPending = 0
	sites := make([]string, 0, len(l.remote))
	for site := range l.remote {
		sites = append(sites, site)
	}
	l.remote = map[string]int{}
	locations := a.locations
	a.mu.Unlock()
	sort.Strings(sites)

	ranks := make([]int, 0, len(locations))
	for rank := range locations {
		ranks = append(ranks, rank) // reapLocalRanks skips the remote ones
	}
	p.reapLocalRanks(appID, locations, ranks)
	p.abortRemote(ctx, appID, sites, "canceled by operator")
	l.finish(ErrCanceled, true)

	p.reg.Counter(metrics.JobCancels).Inc()
	//lint:allow-wallclock monotonic cancel-latency measurement for metrics; injected clocks have no monotonic reading
	p.reg.Counter(metrics.JobCancelMicros).Add(time.Since(start).Microseconds())
	p.log.Info("job canceled", "app", appID, "sites_aborted", len(sites))
	return nil
}

// ActiveApps returns how many application address spaces this proxy
// holds: records with a part that runs. Tests assert it reaches zero
// after aborts, cancellations, and completions: no leaked address spaces.
func (p *Proxy) ActiveApps() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, a := range p.records {
		if a.runs() {
			n++
		}
	}
	return n
}

// hostPart is the host part of an application's record: this site runs
// ranks of it for a remote origin, from the moment a PrepareSpawn starts
// staging until the last rank group finishes or the application is
// aborted or reaped. Its fields are guarded by the record's mu.
type hostPart struct {
	*app
	origin string

	pending []int           // ranks prepared but not yet committed
	running map[int]rankRun // rank -> placement+epoch, committed and not yet done
	groups  int             // committed rank groups still being watched
	aborted bool            // the part is over: aborted, reaped or released
	// epoch is the highest launch epoch accepted in a prepare; prepares
	// and commits below it are stale leftovers of a reschedule this site
	// missed (it was partitioned away) and are refused. pendingEpoch
	// stamps the ranks of the current pending group.
	epoch        uint64
	pendingEpoch uint64
	// commits caches commit outcomes by idempotency token, so a commit
	// retried after a lost reply re-reports the first outcome instead of
	// double-spawning the group.
	commits map[string]*proto.SpawnReply

	// originLost is when the reaper first saw the origin's link down;
	// touched only by the orphanReaper goroutine.
	originLost time.Time
}

// rankRun is one committed, not-yet-done rank at a destination: where it
// runs and under which launch epoch it was committed. The epoch is what
// a fence compares against — ranks from epochs below the fence's were
// rescheduled elsewhere while this site was unreachable and must die.
type rankRun struct {
	node  string
	epoch uint64
}

// lookupHosted returns the host part of an application's record, if this
// site runs ranks of it for a remote origin.
func (p *Proxy) lookupHosted(appID string) (*hostPart, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if a, ok := p.records[appID]; ok && a.host != nil {
		return a.host, true
	}
	return nil, false
}

// handlePrepareSpawn serves launch phase one at a destination: validate
// the owner (the paper validates permissions at originating AND
// destination proxies), record the application with its address space,
// stage the job's input blobs into the site store, and place this site's
// ranks on its own nodes — without starting anything. The origin chose
// only the site; which node runs a rank is decided here, with this site's
// policy and its nodes' stats as of now. Staging inside prepare means
// the data plane runs strictly between PrepareSpawn and CommitSpawn: the
// origin only fans out commits once every site holds every input, and a
// site that already holds the blobs (warm cache) transfers nothing. The
// record exists before the staging starts, so an AbortSpawn that arrives
// meanwhile — the origin gave up on a launch whose inputs are still in
// flight — finds something to abort, and the prepare refuses when its
// staging ends. A later reschedule landing more ranks on a site that
// already hosts the app merges into the existing record.
func (p *Proxy) handlePrepareSpawn(ctx context.Context, req *proto.PrepareSpawn) (proto.Body, error) {
	reply := p.prepareSpawn(ctx, req)
	// Whichever way the prepare went, a commit sent behind it may be
	// waiting for exactly this.
	p.settleHeld(req.AppID, req.Epoch, reply)
	return reply, nil
}

func (p *Proxy) prepareSpawn(ctx context.Context, req *proto.PrepareSpawn) *proto.PrepareSpawnReply {
	refuse := func(reason string) *proto.PrepareSpawnReply {
		return &proto.PrepareSpawnReply{AppID: req.AppID, OK: false, Reason: reason}
	}
	if err := p.users.Allowed(req.Owner, "mpi", "site:"+p.site); err != nil {
		return refuse(fmt.Sprintf("owner %q not permitted at site %s", req.Owner, p.site))
	}
	locations := locationsFromWire(req.Locations)
	ranks := make([]int, 0, len(req.Ranks))
	for _, r := range req.Ranks {
		if locations[int(r)].site != p.site {
			return refuse(fmt.Sprintf("rank %d is not placed at site %s", r, p.site))
		}
		ranks = append(ranks, int(r))
	}
	sort.Ints(ranks)
	// A later prepare lands rescheduled ranks of the same launch: the spec stays.
	spec := LaunchSpec{Owner: req.Owner, Program: req.Program, Args: req.Args, Procs: int(req.WorldSize), StageIn: req.StageIn, StageOut: req.StageOut}
	fresh := &hostPart{origin: req.Origin, running: make(map[int]rankRun), epoch: req.Epoch, commits: make(map[string]*proto.SpawnReply)}
	_, ha, err := p.open(req.AppID, spec, locations, nil, fresh)
	if err != nil {
		return refuse(err.Error())
	}
	if err := p.stageIn(ctx, req.Origin, req.StageIn); err != nil {
		if ha == fresh {
			p.reapHosted(ha, "stage-in failed")
		}
		return refuse(err.Error())
	}
	placed, err := p.assign(p.localCandidates(), len(ranks))
	if err != nil {
		if ha == fresh {
			p.reapHosted(ha, "placement failed")
		}
		return refuse(err.Error())
	}

	epoch := req.Epoch
	ha.mu.Lock()
	if ha.aborted {
		ha.mu.Unlock()
		return refuse("application is being aborted")
	}
	if ha.origin != req.Origin {
		ha.mu.Unlock()
		return refuse(fmt.Sprintf("application belongs to origin %q", ha.origin))
	}
	if epoch < ha.epoch {
		cur := ha.epoch
		ha.mu.Unlock()
		p.reg.Counter(metrics.JobStaleCommits).Inc()
		return refuse(staleEpoch(epoch, cur))
	}
	newEpoch := epoch > ha.epoch
	if newEpoch {
		ha.epoch = epoch
	}
	ha.pending = ranks
	ha.pendingEpoch = epoch
	// The origin's sites, with a node for each rank here (placed now or by
	// an earlier prepare), change with the pending ranks: a commit never
	// spawns a rank whose node is not set yet.
	merged := make(map[int]rankLoc, len(locations))
	for rank, loc := range locations {
		if prev := ha.locations[rank]; loc.site == p.site && prev.site == p.site {
			loc = prev
		}
		merged[rank] = loc
	}
	for i, rank := range ranks {
		merged[rank] = placed[i]
	}
	ha.locations = merged
	ha.mu.Unlock()
	if newEpoch {
		// A newer epoch assigning ranks this site still runs from an
		// older one means those copies were rescheduled elsewhere and
		// came BACK — the old copies are stale split-brain survivors
		// and die now, before the new ones are committed.
		p.fenceStaleRanks(ha, epoch, ranks)
	}
	p.reg.Counter(metrics.JobPrepares).Inc()
	return &proto.PrepareSpawnReply{AppID: req.AppID, OK: true}
}

func staleEpoch(epoch, current uint64) string {
	return fmt.Sprintf("stale launch epoch %d (current %d)", epoch, current)
}

// handleCommitSpawn serves launch phase two. A commit the origin sent
// after its prepare's reply runs at once; one sent unconfirmed, behind
// the prepare, first waits for that prepare to settle.
func (p *Proxy) handleCommitSpawn(ctx context.Context, req *proto.CommitSpawn) (proto.Body, error) {
	if !req.Unconfirmed {
		return p.commitSpawn(ctx, req), nil
	}
	h, first := p.enterHeld(req)
	return p.serveHeld(ctx, req, h, first), nil
}

// commitArrived is a peer link's rpc.arrival: it records an unconfirmed
// commit as held on the read loop, in arrival order, and returns what
// serves it. The origin aborts a refused launch right after the refusal,
// so the AbortSpawn can be read a moment after the commit and its
// goroutine run first; the abort still finds the commit recorded and
// refuses it, where it would otherwise wait out RPCTimeout for a verdict
// that had already been given.
func (p *Proxy) commitArrived(msg proto.Message) servedBy {
	if msg.Code != proto.CodeCommitSpawn {
		return nil
	}
	body, err := proto.Unmarshal(msg)
	if err != nil {
		return nil // the handler says what is wrong with it
	}
	req := body.(*proto.CommitSpawn)
	if !req.Unconfirmed {
		return nil
	}
	h, first := p.enterHeld(req)
	return func(ctx context.Context) (proto.Body, error) {
		return p.serveHeld(ctx, req, h, first), nil
	}
}

// serveHeld answers an unconfirmed commit that enterHeld has recorded.
func (p *Proxy) serveHeld(ctx context.Context, req *proto.CommitSpawn, h *heldCommit, first bool) *proto.SpawnReply {
	if !first {
		// A retry under the token of an attempt that has not replied yet
		// gets that attempt's outcome.
		select {
		case <-h.done:
			return h.reply
		case <-ctx.Done():
			return &proto.SpawnReply{AppID: req.AppID, OK: false, Reason: ctx.Err().Error()}
		}
	}
	var reply *proto.SpawnReply
	if reason := p.awaitPrepare(ctx, req, h); reason != "" {
		reply = &proto.SpawnReply{AppID: req.AppID, OK: false, Reason: reason}
	} else {
		reply = p.commitSpawn(ctx, req)
	}
	p.leaveHeld(req.AppID, h, reply)
	return reply
}

// heldCommit is an unconfirmed CommitSpawn at a destination, from its
// arrival to its reply. rpc.readLoop serves every request on its own
// goroutine, so the commit's can run before its prepare has recorded the
// application, while the prepare is staging, or after it is through; the
// table of held commits (Proxy.held, by application) is where the two
// meet whatever the order.
type heldCommit struct {
	epoch uint64
	token string
	// verdict receives the outcome of the prepare the commit was sent
	// behind: "" when it succeeded, otherwise why the commit is refused.
	// Buffered and written without blocking — the first verdict counts.
	verdict chan string
	// done is closed once reply is set, for retries under the same token.
	done  chan struct{}
	reply *proto.SpawnReply
}

// enterHeld records an unconfirmed commit, or finds the earlier attempt
// under the same token that has not replied yet.
func (p *Proxy) enterHeld(req *proto.CommitSpawn) (_ *heldCommit, first bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range p.held[req.AppID] {
		if req.Token != "" && h.token == req.Token {
			return h, false
		}
	}
	h := &heldCommit{epoch: req.Epoch, token: req.Token, verdict: make(chan string, 1), done: make(chan struct{})}
	p.held[req.AppID] = append(p.held[req.AppID], h)
	return h, true
}

func (p *Proxy) leaveHeld(appID string, h *heldCommit, reply *proto.SpawnReply) {
	p.mu.Lock()
	held := p.held[appID]
	for i := range held {
		if held[i] == h {
			held = append(held[:i], held[i+1:]...)
			break
		}
	}
	if len(held) == 0 {
		delete(p.held, appID)
	} else {
		p.held[appID] = held
	}
	p.mu.Unlock()
	h.reply = reply
	close(h.done)
}

// awaitPrepare holds an unconfirmed commit until the prepare it was sent
// behind has settled, and returns why the commit is refused ("" to run
// it). It blocks on the verdict that every exit of handlePrepareSpawn and
// handleAbortSpawn deliver; a prepare that never arrives, or one that
// refused before this commit arrived and whose origin then never aborts,
// costs one RPCTimeout — as long as the origin itself waits.
func (p *Proxy) awaitPrepare(ctx context.Context, req *proto.CommitSpawn, h *heldCommit) string {
	if ha, ok := p.lookupHosted(req.AppID); ok && !ha.awaitsPrepare(req) {
		return ""
	}
	p.reg.Counter(metrics.JobCommitsHeld).Inc()
	p.log.Debug("commit held for its prepare", "app", req.AppID, "epoch", req.Epoch)
	if d := p.lifecycle.RPCTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	select {
	case reason := <-h.verdict:
		return reason
	case <-ctx.Done():
		return fmt.Sprintf("no prepare settled for the commit: %v", ctx.Err())
	}
}

// awaitsPrepare reports whether a commit at req's epoch has a prepare
// still to wait for: not when the commit body would answer it as things
// stand — a replayed token, an aborted application, a newer epoch, ranks
// pending at its epoch.
func (ha *hostPart) awaitsPrepare(req *proto.CommitSpawn) bool {
	ha.mu.Lock()
	defer ha.mu.Unlock()
	if _, replay := ha.commits[req.Token]; replay || ha.aborted || req.Epoch < ha.epoch {
		return false
	}
	return ha.pendingEpoch != req.Epoch || len(ha.pending) == 0
}

// settleHeld tells the commits held for an application how the prepare at
// epoch went: those at that epoch run or are refused with it, and a
// prepare that succeeded makes the ones from older epochs stale.
func (p *Proxy) settleHeld(appID string, epoch uint64, reply *proto.PrepareSpawnReply) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range p.held[appID] {
		switch {
		case h.epoch == epoch && reply.OK:
			h.settle("")
		case h.epoch == epoch:
			h.settle("prepare refused: " + reply.Reason)
		case h.epoch < epoch && reply.OK:
			p.reg.Counter(metrics.JobStaleCommits).Inc()
			h.settle(staleEpoch(h.epoch, epoch))
		}
	}
}

// refuseHeld refuses every commit held for an application.
func (p *Proxy) refuseHeld(appID, reason string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range p.held[appID] {
		h.settle(reason)
	}
}

func (h *heldCommit) settle(verdict string) {
	select {
	case h.verdict <- verdict:
	default:
	}
}

// commitSpawn is the commit body: spawn the prepared ranks and watch
// them. The reply lists the virtual-slave endpoints of the started ranks,
// mirroring the old single-phase SpawnReply.
func (p *Proxy) commitSpawn(ctx context.Context, req *proto.CommitSpawn) *proto.SpawnReply {
	refuse := func(reason string) *proto.SpawnReply {
		return &proto.SpawnReply{AppID: req.AppID, OK: false, Reason: reason}
	}
	ha, ok := p.lookupHosted(req.AppID)
	if !ok {
		return refuse("no prepared application")
	}
	ha.mu.Lock()
	if req.Token != "" {
		if cached, ok := ha.commits[req.Token]; ok {
			// Idempotent retry: the first attempt's reply was lost in
			// transit, not the spawn. Re-report it instead of spawning
			// the group twice.
			ha.mu.Unlock()
			return cached
		}
	}
	if ha.aborted {
		ha.mu.Unlock()
		return refuse("application is being aborted")
	}
	if req.Epoch != 0 && req.Epoch < ha.epoch {
		cur := ha.epoch
		ha.mu.Unlock()
		p.reg.Counter(metrics.JobStaleCommits).Inc()
		return refuse(staleEpoch(req.Epoch, cur))
	}
	if len(ha.pending) == 0 {
		ha.mu.Unlock()
		return refuse("no pending ranks (commit without prepare)")
	}
	ranks := ha.pending
	epoch := ha.pendingEpoch
	ha.pending = nil
	ha.groups++
	spec, locations := ha.spec, ha.locations
	ha.mu.Unlock()

	if err := p.spawnLocalRanks(ctx, req.AppID, spec, locations, ranks, ha.recordOutput); err != nil {
		p.releaseHostedGroup(ha, nil)
		return refuse(err.Error())
	}

	ha.mu.Lock()
	if ha.aborted {
		// An abort raced in while we were spawning; undo.
		ha.mu.Unlock()
		p.reapLocalRanks(req.AppID, locations, ranks)
		p.releaseHostedGroup(ha, nil)
		return refuse("application is being aborted")
	}
	for _, rank := range ranks {
		ha.running[rank] = rankRun{node: locations[rank].node, epoch: epoch}
	}
	ha.mu.Unlock()
	p.countHosted(ha.origin, len(ranks))
	p.reg.Counter(metrics.JobCommits).Inc()

	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		err := p.waitLocalRanks(req.AppID, locations, ranks)
		p.finishHostedGroup(ha, ranks, err)
	}()

	reply := &proto.SpawnReply{AppID: req.AppID, OK: true}
	for _, rank := range ranks {
		reply.Endpoints = append(reply.Endpoints, proto.RankEndpoint{
			Rank: uint32(rank),
			Addr: p.vsAddr(req.AppID, rank),
		})
	}
	if req.Token != "" {
		ha.mu.Lock()
		ha.commits[req.Token] = reply
		ha.mu.Unlock()
	}
	return reply
}

// fenceStaleRanks kills this site's copies of the listed ranks (all
// running ranks when the list is empty) committed under an epoch below
// the fence's, returning how many died. The kills surface through the
// normal group watchers — waitLocalRanks observes the deaths and
// releases the groups — so no bookkeeping happens here. Idempotent.
func (p *Proxy) fenceStaleRanks(ha *hostPart, epoch uint64, ranks []int) int {
	ha.mu.Lock()
	victims := make(map[int]string)
	for rank, run := range ha.running {
		if run.epoch < epoch && (len(ranks) == 0 || slices.Contains(ranks, rank)) {
			victims[rank] = run.node
		}
	}
	ha.mu.Unlock()
	for rank, nodeName := range victims {
		if h, err := p.nodeHandle(nodeName); err == nil {
			_ = h.Kill(ha.id, rank)
		}
	}
	if len(victims) > 0 {
		p.reg.Counter(metrics.JobFencedRanks).Add(int64(len(victims)))
		p.log.Info("fenced stale ranks", "app", ha.id, "epoch", epoch, "killed", len(victims))
	}
	return len(victims)
}

// handleFenceNotice serves a split-brain fence from an origin: every
// listed rank still running from an epoch below the notice's was
// rescheduled elsewhere while this site was unreachable, and dies here.
// Idempotent: unknown applications and already-gone ranks fence to zero.
func (p *Proxy) handleFenceNotice(req *proto.FenceNotice) *proto.FenceReply {
	reply := &proto.FenceReply{AppID: req.AppID}
	ha, ok := p.lookupHosted(req.AppID)
	if !ok {
		return reply
	}
	ranks := make([]int, 0, len(req.Ranks))
	for _, r := range req.Ranks {
		ranks = append(ranks, int(r))
	}
	reply.Killed = uint32(p.fenceStaleRanks(ha, req.Epoch, ranks))
	return reply
}

// releaseHostedGroup undoes one group increment without a completion
// report (failed or aborted commit), releasing the host part if nothing
// else references it.
func (p *Proxy) releaseHostedGroup(ha *hostPart, ranks []int) {
	ha.mu.Lock()
	for _, rank := range ranks {
		delete(ha.running, rank)
	}
	ha.groups--
	last := ha.groups == 0 && len(ha.pending) == 0
	ha.aborted = ha.aborted || last
	ha.mu.Unlock()
	p.countHosted(ha.origin, -len(ranks))
	if last {
		p.settle(ha.app, ha)
	}
}

// finishHostedGroup records one committed rank group's completion: report
// it to the origin (unless the app was aborted — then the origin asked
// for the teardown or is gone) and release the app when it was the last
// group.
func (p *Proxy) finishHostedGroup(ha *hostPart, ranks []int, err error) {
	ha.mu.Lock()
	aborted := ha.aborted
	outputs := slices.Clone(ha.outputs)
	ha.mu.Unlock()
	p.releaseHostedGroup(ha, ranks)
	if aborted {
		return
	}
	if p.ctx.Err() != nil {
		// The proxy itself is shutting down, so the ranks died of the
		// teardown, not of the job. Stay silent: to the origin this site
		// is simply dead, and its link-death rescheduling — not a
		// spurious JobFailed racing the link teardown — decides the
		// job's fate.
		return
	}
	// The update advertises the refs of every output published here so
	// far, and carries the small ones; the origin pulls the rest over the
	// data plane before it counts this group done.
	update := &proto.JobUpdate{JobID: ha.id, State: proto.JobDone, Detail: p.site, Site: p.site, Outputs: outputs, Inline: p.inlineOutputs(outputs)}
	if err != nil {
		update.State = proto.JobFailed
		update.Detail = fmt.Sprintf("%s: %v", p.site, err)
	}
	p.reportToOrigin(ha.origin, update)
}

// reportToOrigin delivers a completion report to the proxy that launched
// the application. The tunnel the launch arrived over is usually still
// there, but nothing holds it for the job's sake — a job whose ranks
// never talk across sites leaves it idle, and idle tunnels get closed —
// so the report goes out through peerFor, which dials when it has to. An
// origin that cannot be reached is, to this site, dead: its own watchPeer
// (or the orphan reaper here) settles the job.
func (p *Proxy) reportToOrigin(origin string, update *proto.JobUpdate) {
	pr, err := p.peerFor(p.ctx, origin)
	if err != nil {
		p.log.Debug("job update undeliverable", "origin", origin, "err", err)
		return
	}
	defer p.releasePeer(pr)
	if err := pr.ctrl.notify(update); err != nil && !errors.Is(err, errRPCClosed) {
		p.log.Debug("job update notify failed", "origin", origin, "err", err)
	}
}

// handleAbortSpawn tears a prepared or running hosted application down.
// Idempotent: aborting an unknown (or already-aborted) app succeeds, so
// origin-side abort fan-outs can safely over-approximate.
func (p *Proxy) handleAbortSpawn(req *proto.AbortSpawn) proto.Body {
	// A commit may be held for an application no prepare has recorded
	// (yet, or any more).
	p.refuseHeld(req.AppID, "application is being aborted")
	ha, ok := p.lookupHosted(req.AppID)
	if !ok {
		return &proto.AbortSpawnReply{AppID: req.AppID, OK: true}
	}
	killed, reaped := p.reapHosted(ha, req.Reason)
	if reaped {
		p.reg.Counter(metrics.JobAbortsServed).Inc()
	}
	return &proto.AbortSpawnReply{AppID: req.AppID, OK: true, Killed: uint32(killed)}
}

// reapHosted aborts a hosted app: pending ranks are forgotten, running
// ranks killed (their group watchers observe the deaths and release the
// app), and an idle app is torn down immediately. Returns how many ranks
// were running and whether this call performed the abort.
func (p *Proxy) reapHosted(ha *hostPart, reason string) (running int, reaped bool) {
	ha.mu.Lock()
	running = len(ha.running)
	if ha.aborted {
		ha.mu.Unlock()
		return running, false
	}
	ha.aborted = true
	ha.pending = nil
	victims := make(map[int]string, len(ha.running))
	for rank, run := range ha.running {
		victims[rank] = run.node
	}
	groups := ha.groups
	ha.mu.Unlock()

	for rank, nodeName := range victims {
		if h, err := p.nodeHandle(nodeName); err == nil {
			_ = h.Kill(ha.id, rank)
		}
	}
	if groups == 0 {
		p.settle(ha.app, ha)
	}
	p.log.Info("hosted application aborted", "app", ha.id, "reason", reason)
	return running, true
}

// orphanReaper autonomously reaps hosted applications whose origin proxy
// has stayed disconnected past the grace period. Without it, an origin
// crash would leave its remote rank groups running (and their address
// spaces held) at every destination forever.
func (p *Proxy) orphanReaper() {
	defer p.wg.Done()
	grace := p.jobcfg.OrphanGrace
	interval := grace / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > 5*time.Second {
		interval = 5 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-ticker.C:
		}
		now := p.clock()
		var hosted, reap []*hostPart
		p.mu.Lock()
		for _, a := range p.records {
			if a.host != nil {
				hosted = append(hosted, a.host)
			}
		}
		p.mu.Unlock()
		// Origin liveness comes from the membership directory, not from
		// "do I hold a tunnel": with on-demand dialing, an idle-closed
		// tunnel to a healthy origin must not start the orphan clock.
		// originLost is only ever touched by this goroutine.
		for _, ha := range hosted {
			if p.siteUp(ha.origin) {
				ha.originLost = time.Time{}
				continue
			}
			if ha.originLost.IsZero() {
				ha.originLost = now
				continue
			}
			if now.Sub(ha.originLost) >= grace {
				reap = append(reap, ha)
			}
		}
		for _, ha := range reap {
			p.log.Warn("reaping orphaned application", "app", ha.id, "origin", ha.origin)
			if _, reaped := p.reapHosted(ha, fmt.Sprintf("origin proxy %s lost", ha.origin)); reaped {
				p.reg.Counter(metrics.OrphanReaps).Inc()
			}
		}
	}
}

// rescheduleSite recovers a committed launch from the death of one
// destination site: the lost ranks are placed on surviving nodes and
// respawned (restart from scratch — surviving ranks keep running; see
// DESIGN.md for the model's limits), bounded by the reschedule budget.
func (p *Proxy) rescheduleSite(l *Launch, deadSite string) {
	a := l.app
	a.mu.Lock()
	if l.finished || l.canceled || !l.committed {
		// Uncommitted launches handle peer failure in their own phase
		// error paths; finished/cancelled ones have nothing to recover.
		a.mu.Unlock()
		return
	}
	if _, ok := l.remote[deadSite]; !ok {
		a.mu.Unlock()
		return
	}
	delete(l.remote, deadSite)
	budget := p.jobcfg.RescheduleBudget
	if budget <= 0 || l.reschedules >= budget {
		a.mu.Unlock()
		l.groupDone("", fmt.Errorf("core: proxy of site %s disconnected", deadSite))
		return
	}
	l.reschedules++
	l.epoch++
	epoch := l.epoch
	var lost []int
	for rank, loc := range a.locations {
		if loc.site == deadSite {
			lost = append(lost, rank)
		}
	}
	sort.Ints(lost)
	a.mu.Unlock()
	if len(lost) == 0 {
		l.groupDone("", nil)
		return
	}

	p.reg.Counter(metrics.JobReschedules).Inc()
	p.log.Warn("rescheduling ranks of dead site",
		"app", l.AppID, "site", deadSite, "ranks", len(lost), "epoch", epoch)
	// The dead site may only be dead TO US (a partition): if its copies
	// of the lost ranks are still running, the grid now double-runs them
	// until the partition heals. Record a fence so the moment the site
	// rejoins the directory, its stale-epoch copies are killed.
	p.addFence(l.AppID, deadSite, epoch, lost)

	chosen, err := p.pickNodes(len(lost), deadSite)
	if err != nil {
		l.groupDone("", fmt.Errorf("core: reschedule %s after %s died: %w", l.AppID, deadSite, err))
		return
	}

	newSites := map[string][]int{}
	a.mu.Lock()
	if l.finished || l.canceled {
		a.mu.Unlock()
		return
	}
	// One write re-routes the launch and the virtual slaves alike.
	locations := maps.Clone(a.locations)
	for i, rank := range lost {
		loc := chosen[i]
		locations[rank] = loc
		newSites[loc.site] = append(newSites[loc.site], rank)
	}
	a.locations = locations
	spec := a.spec
	// Register the outstanding groups before any spawn so a
	// lightning-fast replacement cannot finish the launch early.
	var localRanks []int
	var remoteSites []string
	for site, ranks := range newSites {
		if site == p.site {
			l.localPending++
			localRanks = ranks
		} else {
			l.remote[site]++
			remoteSites = append(remoteSites, site)
		}
	}
	a.mu.Unlock()
	sort.Strings(remoteSites)

	if len(localRanks) > 0 {
		if err := p.spawnLocalRanks(p.ctx, l.AppID, spec, locations, localRanks, a.recordOutput); err != nil {
			l.groupDone(p.site, err)
		} else {
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				l.groupDone(p.site, p.waitLocalRanks(l.AppID, locations, localRanks))
			}()
		}
	}
	// Replacement sites do not wait for each other (the surviving ranks
	// are running already), so each takes the pipelined form.
	if len(remoteSites) > 0 {
		results := peerlink.FanOut(p.ctx, remoteSites, p.lifecycle.RPCTimeout, func(ctx context.Context, site string) (struct{}, error) {
			return struct{}{}, p.spawnAt(ctx, site, l.prepareFor(spec, newSites[site], locations, epoch), func() error { return nil })
		})
		for _, res := range results {
			if res.Err != nil {
				l.groupDone(res.Target, res.Err)
			}
		}
	}
	// If a cancel raced with the respawn, the replacement sites missed
	// the abort fan-out; re-abort them.
	a.mu.Lock()
	canceled := l.canceled
	a.mu.Unlock()
	if canceled && len(remoteSites) > 0 {
		p.abortRemote(p.ctx, l.AppID, remoteSites, "canceled by operator")
	}
	p.reg.Counter(metrics.RanksRescheduled).Add(int64(len(lost)))
	l.groupDone("", nil)
}
