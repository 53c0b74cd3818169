package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gridproxy/internal/balance"
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
	// FenceRetry is how often undelivered split-brain fences are
	// retried against sites that rejoined the directory (see probe.go).
	// Negative disables fencing — a healed site's stale ranks then run
	// until its own orphan reaper or the job's natural end.
	FenceRetry time.Duration
}

// Job-lifecycle defaults.
const (
	DefaultOrphanGrace      = 45 * time.Second
	DefaultTerminalTTL      = 15 * time.Minute
	DefaultRescheduleBudget = 2
	DefaultFenceRetry       = 2 * time.Second
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
	if c.FenceRetry == 0 {
		c.FenceRetry = DefaultFenceRetry
	}
	return c
}

// jobState is one entry of the origin proxy's job table.
type jobState struct {
	launch *Launch
	state  proto.JobState
	detail string
	// terminalAt is when the job reached a terminal state; zero while it
	// is queued or running. The janitor prunes entries older than the
	// configured TTL.
	terminalAt time.Time
}

// registerJob installs a job-table entry before the launch can produce
// any completion report, so even an instantly-finishing remote group
// finds it.
func (p *Proxy) registerJob(appID string, l *Launch) {
	p.mu.Lock()
	p.jobs[appID] = &jobState{launch: l, state: proto.JobQueued, detail: "preparing"}
	n := len(p.jobs)
	p.mu.Unlock()
	p.reg.Gauge(metrics.JobsTracked).Set(int64(n))
}

// setJobRunning marks a job running unless it already reached a terminal
// state (an all-remote job can finish before the launcher gets here).
func (p *Proxy) setJobRunning(appID string) {
	p.mu.Lock()
	if js, ok := p.jobs[appID]; ok && js.terminalAt.IsZero() {
		js.state = proto.JobRunning
		js.detail = "running"
	}
	p.mu.Unlock()
}

// setJobTerminal records a job's terminal state and stamps it for the
// janitor.
func (p *Proxy) setJobTerminal(appID string, state proto.JobState, detail string) {
	p.mu.Lock()
	if js, ok := p.jobs[appID]; ok && js.terminalAt.IsZero() {
		js.state, js.detail, js.terminalAt = state, detail, p.clock()
	}
	p.mu.Unlock()
}

// unregisterJob removes a job-table entry (aborted launches).
func (p *Proxy) unregisterJob(appID string) {
	p.mu.Lock()
	delete(p.jobs, appID)
	n := len(p.jobs)
	p.mu.Unlock()
	p.reg.Gauge(metrics.JobsTracked).Set(int64(n))
}

// jobsJanitor prunes terminal job records past the TTL, bounding the job
// table of a long-lived proxy.
func (p *Proxy) jobsJanitor() {
	defer p.wg.Done()
	ttl := p.jobcfg.TerminalTTL
	interval := ttl / 4
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
		now := p.clock()
		pruned := 0
		p.mu.Lock()
		for id, js := range p.jobs {
			if !js.terminalAt.IsZero() && now.Sub(js.terminalAt) >= ttl {
				delete(p.jobs, id)
				pruned++
			}
		}
		n := len(p.jobs)
		p.mu.Unlock()
		if pruned > 0 {
			p.reg.Counter(metrics.JobsPruned).Add(int64(pruned))
			p.reg.Gauge(metrics.JobsTracked).Set(int64(n))
		}
	}
}

// Cancel terminates a running job launched from this proxy: local ranks
// are killed, every destination site gets an AbortSpawn, and the job
// moves to the cancelled terminal state. Launch.Wait then returns
// ErrCanceled. Cancelling an already-cancelled job is a no-op; jobs still
// in their launch phases or already finished are refused.
func (p *Proxy) Cancel(ctx context.Context, appID string) error {
	p.mu.Lock()
	js, ok := p.jobs[appID]
	p.mu.Unlock()
	if !ok || js.launch == nil {
		return notFound("no job %q", appID)
	}
	l := js.launch
	//lint:allow-wallclock monotonic cancel-latency measurement for metrics; injected clocks have no monotonic reading
	start := time.Now()

	l.mu.Lock()
	if l.finished {
		l.mu.Unlock()
		return badRequest("job %q already finished", appID)
	}
	if !l.committed {
		l.mu.Unlock()
		return badRequest("job %q is still launching; retry", appID)
	}
	if l.canceled {
		l.mu.Unlock()
		return nil
	}
	// Claim the finished transition here: the watchers' maybeFinish then
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
	locations := copyLocations(l.locations)
	l.mu.Unlock()
	sort.Strings(sites)

	var localRanks []int
	for rank, loc := range locations {
		if loc.site == p.site {
			localRanks = append(localRanks, rank)
		}
	}
	p.reapLocalRanks(appID, locations, localRanks)
	p.abortRemote(ctx, appID, sites, "canceled by operator")
	l.finish(ErrCanceled, true)

	p.reg.Counter(metrics.JobCancels).Inc()
	//lint:allow-wallclock monotonic cancel-latency measurement for metrics; injected clocks have no monotonic reading
	p.reg.Counter(metrics.JobCancelMicros).Add(time.Since(start).Microseconds())
	p.log.Info("job canceled", "app", appID, "sites_aborted", len(sites))
	return nil
}

func copyLocations(locations map[int]rankLoc) map[int]rankLoc {
	out := make(map[int]rankLoc, len(locations))
	for rank, loc := range locations {
		out[rank] = loc
	}
	return out
}

// ActiveApps returns how many application address spaces this proxy
// currently holds (origin-side and hosted). Tests assert it reaches zero
// after aborts, cancellations, and completions: no leaked address spaces.
func (p *Proxy) ActiveApps() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.apps)
}

// hostedApp is the destination-side record of an application this site
// runs ranks for on behalf of a remote origin proxy. It exists from the
// moment a PrepareSpawn starts staging until the last rank group finishes
// or the app is aborted or reaped.
type hostedApp struct {
	appID     string
	origin    string
	owner     string
	program   string
	args      []string
	worldSize int
	as        *addressSpace

	mu      sync.Mutex
	pending []int           // ranks prepared but not yet committed
	running map[int]rankRun // rank -> placement+epoch, committed and not yet done
	groups  int             // committed rank groups still being watched
	aborted bool
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
	// stageIn and stageOut carry the launch's data-plane manifest; the
	// blobs themselves were pulled into the site store during prepare.
	stageIn  []proto.StageRef
	stageOut []string
	// outputs are the refs local ranks published, reported to the origin
	// in the completion JobUpdate.
	outputs []proto.StageRef

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

// recordOutput registers one published output blob under the app's
// StageOut filter. A re-publish under the same name replaces the ref.
func (ha *hostedApp) recordOutput(ref proto.StageRef) {
	ha.mu.Lock()
	defer ha.mu.Unlock()
	if !wantOutput(ha.stageOut, ref.Name) {
		return
	}
	for i, have := range ha.outputs {
		if have.Name == ref.Name {
			ha.outputs[i] = ref
			return
		}
	}
	ha.outputs = append(ha.outputs, ref)
}

func (p *Proxy) lookupHosted(appID string) (*hostedApp, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ha, ok := p.hosted[appID]
	return ha, ok
}

func (p *Proxy) dropHosted(appID string) {
	p.mu.Lock()
	delete(p.hosted, appID)
	p.mu.Unlock()
}

// handlePrepareSpawn serves launch phase one at a destination: validate
// the owner (the paper validates permissions at originating AND
// destination proxies), record the application with its address space,
// stage the job's input blobs into the site store, and record the rank
// assignments — without starting anything. Staging inside prepare means
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
	ha, created, err := p.hostedFor(req, locations)
	if err != nil {
		return refuse(err.Error())
	}
	if err := p.stageIn(ctx, req.Origin, req.StageIn); err != nil {
		if created {
			p.reapHosted(ha, "stage-in failed")
		}
		return refuse(err.Error())
	}
	ranks := make([]int, 0, len(req.Ranks))
	for _, ra := range req.Ranks {
		ranks = append(ranks, int(ra.Rank))
	}
	sort.Ints(ranks)

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
	ha.worldSize = int(req.WorldSize)
	ha.program, ha.args = req.Program, req.Args
	ha.stageIn, ha.stageOut = req.StageIn, req.StageOut
	ha.mu.Unlock()
	if newEpoch {
		// A newer epoch assigning ranks this site still runs from an
		// older one means those copies were rescheduled elsewhere and
		// came BACK — the old copies are stale split-brain survivors
		// and die now, before the new ones are committed.
		p.fenceStaleRanks(ha, epoch, ranks)
	}
	ha.as.setLocations(locations)
	p.reg.Counter(metrics.JobPrepares).Inc()
	return &proto.PrepareSpawnReply{AppID: req.AppID, OK: true}
}

func staleEpoch(epoch, current uint64) string {
	return fmt.Sprintf("stale launch epoch %d (current %d)", epoch, current)
}

// hostedFor returns the record of the application a prepare names,
// creating it — with its address space, at the prepare's epoch and with
// no ranks yet — if this site does not host the application.
func (p *Proxy) hostedFor(req *proto.PrepareSpawn, locations map[int]rankLoc) (_ *hostedApp, created bool, _ error) {
	if ha, ok := p.lookupHosted(req.AppID); ok {
		return ha, false, nil
	}
	as, err := p.createAddressSpace(req.AppID, req.Owner, locations)
	if err != nil {
		return nil, false, err
	}
	ha := &hostedApp{
		appID:   req.AppID,
		origin:  req.Origin,
		owner:   req.Owner,
		as:      as,
		running: make(map[int]rankRun),
		epoch:   req.Epoch,
		commits: make(map[string]*proto.SpawnReply),
	}
	p.mu.Lock()
	p.hosted[req.AppID] = ha
	p.mu.Unlock()
	return ha, true, nil
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
func (ha *hostedApp) awaitsPrepare(req *proto.CommitSpawn) bool {
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
	program, args, worldSize := ha.program, ha.args, ha.worldSize
	stageIn := ha.stageIn
	ha.mu.Unlock()

	locations := ha.as.locationsSnapshot()
	if err := p.spawnLocalRanks(ctx, req.AppID, ha.owner, program, args, worldSize, locations, ranks, stageIn, ha.recordOutput); err != nil {
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
		if ha.commits == nil {
			ha.commits = make(map[string]*proto.SpawnReply)
		}
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
func (p *Proxy) fenceStaleRanks(ha *hostedApp, epoch uint64, ranks []int) int {
	ha.mu.Lock()
	victims := make(map[int]string)
	if len(ranks) == 0 {
		for rank, run := range ha.running {
			if run.epoch < epoch {
				victims[rank] = run.node
			}
		}
	} else {
		for _, rank := range ranks {
			if run, ok := ha.running[rank]; ok && run.epoch < epoch {
				victims[rank] = run.node
			}
		}
	}
	ha.mu.Unlock()
	for rank, nodeName := range victims {
		if h, err := p.nodeHandle(nodeName); err == nil {
			_ = h.Kill(ha.appID, rank)
		}
	}
	if n := len(victims); n > 0 {
		p.reg.Counter(metrics.JobFencedRanks).Add(int64(n))
		p.log.Info("fenced stale ranks", "app", ha.appID, "epoch", epoch, "killed", n)
		return n
	}
	return 0
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
// report (failed or aborted commit), tearing the app down if nothing else
// references it.
func (p *Proxy) releaseHostedGroup(ha *hostedApp, ranks []int) {
	ha.mu.Lock()
	for _, rank := range ranks {
		delete(ha.running, rank)
	}
	ha.groups--
	last := ha.groups == 0 && len(ha.pending) == 0
	ha.mu.Unlock()
	if last {
		p.dropHosted(ha.appID)
		ha.as.close()
		p.dropAddressSpace(ha.appID)
	}
}

// finishHostedGroup records one committed rank group's completion: report
// it to the origin (unless the app was aborted — then the origin asked
// for the teardown or is gone) and release the app when it was the last
// group.
func (p *Proxy) finishHostedGroup(ha *hostedApp, ranks []int, err error) {
	ha.mu.Lock()
	aborted := ha.aborted
	outputs := append([]proto.StageRef(nil), ha.outputs...)
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
	update := &proto.JobUpdate{JobID: ha.appID, State: proto.JobDone, Detail: p.site, Site: p.site, Outputs: outputs, Inline: p.inlineOutputs(outputs)}
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
	ha.mu.Lock()
	killed := uint32(len(ha.running))
	ha.mu.Unlock()
	if p.reapHosted(ha, req.Reason) {
		p.reg.Counter(metrics.JobAbortsServed).Inc()
	}
	return &proto.AbortSpawnReply{AppID: req.AppID, OK: true, Killed: killed}
}

// reapHosted aborts a hosted app: pending ranks are forgotten, running
// ranks killed (their group watchers observe the deaths and release the
// app), and an idle app is torn down immediately. Returns whether this
// call performed the abort.
func (p *Proxy) reapHosted(ha *hostedApp, reason string) bool {
	ha.mu.Lock()
	if ha.aborted {
		ha.mu.Unlock()
		return false
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
			_ = h.Kill(ha.appID, rank)
		}
	}
	if groups == 0 {
		p.dropHosted(ha.appID)
		ha.as.close()
		p.dropAddressSpace(ha.appID)
	}
	p.log.Info("hosted application aborted", "app", ha.appID, "reason", reason)
	return true
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
		p.mu.Lock()
		hosted := make([]*hostedApp, 0, len(p.hosted))
		for _, ha := range p.hosted {
			hosted = append(hosted, ha)
		}
		p.mu.Unlock()
		var reap []*hostedApp
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
			p.log.Warn("reaping orphaned application", "app", ha.appID, "origin", ha.origin)
			if p.reapHosted(ha, fmt.Sprintf("origin proxy %s lost", ha.origin)) {
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
	disconnect := fmt.Errorf("core: proxy of site %s disconnected", deadSite)
	l.mu.Lock()
	if l.finished || l.canceled || !l.committed {
		// Uncommitted launches handle peer failure in their own phase
		// error paths; finished/cancelled ones have nothing to recover.
		l.mu.Unlock()
		return
	}
	if _, ok := l.remote[deadSite]; !ok {
		l.mu.Unlock()
		return
	}
	delete(l.remote, deadSite)
	budget := p.jobcfg.RescheduleBudget
	if budget <= 0 || l.reschedules >= budget {
		if l.failed == nil {
			l.failed = disconnect
		}
		l.mu.Unlock()
		l.maybeFinish()
		return
	}
	l.reschedules++
	l.epoch++
	epoch := l.epoch
	var lost []int
	for rank, loc := range l.locations {
		if loc.site == deadSite {
			lost = append(lost, rank)
		}
	}
	sort.Ints(lost)
	l.mu.Unlock()
	if len(lost) == 0 {
		l.maybeFinish()
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

	var candidates []balance.NodeInfo
	for _, n := range p.Candidates() {
		if n.Site != deadSite {
			candidates = append(candidates, n)
		}
	}
	chosen, err := p.sched.Replacements(candidates, len(lost))
	if err != nil {
		l.fail(fmt.Errorf("core: reschedule %s after %s died: %w", l.AppID, deadSite, err))
		return
	}

	newSites := map[string][]int{}
	l.mu.Lock()
	if l.finished || l.canceled {
		l.mu.Unlock()
		return
	}
	for i, rank := range lost {
		loc := rankLoc{site: chosen[i].Site, node: chosen[i].Name}
		l.locations[rank] = loc
		newSites[loc.site] = append(newSites[loc.site], rank)
	}
	locations := copyLocations(l.locations)
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
	l.mu.Unlock()
	sort.Strings(remoteSites)

	// Re-route the origin's virtual slaves to the new placements.
	if as, err := p.addressSpace(l.AppID); err == nil {
		as.setLocations(locations)
	}

	spec := l.spec
	if len(localRanks) > 0 {
		if err := p.spawnLocalRanks(p.ctx, l.AppID, spec.Owner, spec.Program, spec.Args, len(locations), locations, localRanks, spec.StageIn, l.recordOutput); err != nil {
			l.localDone(err)
		} else {
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				l.localDone(p.waitLocalRanks(l.AppID, locations, localRanks))
			}()
		}
	}
	if len(remoteSites) > 0 {
		results := peerlink.FanOut(p.ctx, remoteSites, p.lifecycle.RPCTimeout, func(ctx context.Context, site string) (struct{}, error) {
			return struct{}{}, p.spawnAtSite(ctx, l, site, newSites[site], locations, epoch)
		})
		for _, res := range results {
			if res.Err != nil {
				l.remoteDone(res.Target, res.Err)
			}
		}
	}
	// If a cancel raced with the respawn, the replacement sites missed
	// the abort fan-out; re-abort them.
	l.mu.Lock()
	canceled := l.canceled
	l.mu.Unlock()
	if canceled && len(remoteSites) > 0 {
		p.abortRemote(p.ctx, l.AppID, remoteSites, "canceled by operator")
	}
	p.reg.Counter(metrics.RanksRescheduled).Add(int64(len(lost)))
	l.maybeFinish()
}

// spawnAtSite lands a reschedule's ranks at one site, stamped with the
// reschedule's launch epoch. Replacement sites do not wait for each other
// (the surviving ranks are running already), so each takes the pipelined
// form.
func (p *Proxy) spawnAtSite(ctx context.Context, l *Launch, site string, ranks []int, locations map[int]rankLoc, epoch uint64) error {
	return p.spawnAt(ctx, site, l.prepareFor(ranks, locations, epoch), func() error { return nil })
}
