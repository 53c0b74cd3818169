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
// ranks of it for a remote origin, from the moment its first PrepareSpawn
// is stepped until step releases it. Its launch state changes only by
// step (launchstep.go), under the record's mu.
type hostPart struct {
	*app
	origin string

	st    hostState
	calls map[callID]*launchCall // the requests step has not answered
	last  callID

	// originLost is when the reaper first saw the origin's link down;
	// touched only by the orphanReaper goroutine.
	originLost time.Time
}

// launchCall is one launch request from its arrival to its reply. Its
// goroutine runs the effects step leaves to it; what a step on another
// goroutine leaves it — its reply, or a parked commit's spawn — arrives
// on inbox. A prepare's stage runs under a context that cancel ends: at
// its answer, or RPCTimeout after it arrived, when the origin gave up.
type launchCall struct {
	inbox  chan effect
	cancel context.CancelFunc
	stage  func() error
	sites  map[int]rankLoc // a prepare's: the site of every rank
	placed map[int]rankLoc // and the node of each of its ranks, once staged
}

// hostedParts returns the host parts of this site's records.
func (p *Proxy) hostedParts() []*hostPart {
	p.mu.Lock()
	defer p.mu.Unlock()
	var hosted []*hostPart
	for _, a := range p.records {
		if a.host != nil {
			hosted = append(hosted, a.host)
		}
	}
	return hosted
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

// launchRoute is a peer control channel's proto.RPC.Arrival: the four
// launch codes are decoded and stepped on the read loop, in the order
// they arrived, and served on their goroutines. ready, when not nil, says
// whether the channel has said Hello; until it has, the handler answers.
func (p *Proxy) launchRoute(ready func() bool) func(proto.Message) proto.ServedBy {
	return func(msg proto.Message) proto.ServedBy {
		switch msg.Code {
		case proto.CodePrepareSpawn, proto.CodeCommitSpawn, proto.CodeAbortSpawn, proto.CodeFenceNotice:
		default:
			return nil
		}
		if ready != nil && !ready() {
			return nil
		}
		body, err := proto.Unmarshal(msg)
		if err != nil {
			return nil // the handler says what is wrong with it
		}
		return p.launchArrived(body)
	}
}

// launchArrived steps a launch request and returns what serves it. A
// commit, abort or fence for an application this site hosts no ranks of
// is answered at once.
func (p *Proxy) launchArrived(body proto.Body) proto.ServedBy {
	var (
		id    string
		ev    event
		reply func(effect) proto.Body
	)
	switch req := body.(type) {
	case *proto.PrepareSpawn:
		return p.prepareArrived(req)
	case *proto.CommitSpawn:
		id, ev = req.AppID, event{kind: evCommit, epoch: req.Epoch, token: req.Token}
		reply = func(e effect) proto.Body {
			r := &proto.SpawnReply{AppID: req.AppID, OK: e.ok, Reason: e.reason}
			for _, rank := range e.ranks {
				r.Endpoints = append(r.Endpoints, proto.RankEndpoint{Rank: uint32(rank), Addr: p.vsAddr(req.AppID, rank)})
			}
			return r
		}
	case *proto.AbortSpawn:
		p.log.Debug("abort arrived", "app", req.AppID, "reason", req.Reason)
		id, ev = req.AppID, event{kind: evAbort}
		reply = func(e effect) proto.Body {
			return &proto.AbortSpawnReply{AppID: req.AppID, OK: true, Killed: uint32(e.n)}
		}
	case *proto.FenceNotice:
		id, ev = req.AppID, event{kind: evFence, epoch: req.Epoch}
		for _, r := range req.Ranks {
			ev.ranks = append(ev.ranks, int(r))
		}
		reply = func(e effect) proto.Body { return &proto.FenceReply{AppID: req.AppID, Killed: uint32(e.n)} }
	default:
		return nil
	}
	ha, ok := p.lookupHosted(id)
	if !ok {
		// Only a commit's reply reads the reason: an abort or a fence of
		// nothing succeeds.
		return answer(reply(effect{reason: "no prepared application"}))
	}
	return p.arrive(ha, &launchCall{}, ev, reply)
}

func answer(body proto.Body) proto.ServedBy {
	return func(context.Context) (proto.Body, error) { return body, nil }
}

// prepareArrived serves launch phase one at a destination: validate the
// owner (the paper validates permissions at originating AND destination
// proxies), open the application's record with its address space, stage
// the job's input blobs into the site store and place this site's ranks
// on its own nodes — without starting anything. The origin chose only
// the site; which node runs a rank is decided here, with this site's
// policy and its nodes' stats once the inputs are in. A site that already
// holds the blobs (warm cache) transfers nothing, and a later reschedule
// landing ranks on a site that already hosts the app merges into its
// record.
func (p *Proxy) prepareArrived(req *proto.PrepareSpawn) proto.ServedBy {
	reply := func(e effect) proto.Body {
		return &proto.PrepareSpawnReply{AppID: req.AppID, OK: e.ok, Reason: e.reason}
	}
	refuse := func(reason string) proto.ServedBy { return answer(reply(effect{reason: reason})) }
	if err := p.users.Allowed(req.Owner, "mpi", "site:"+p.site); err != nil {
		return refuse(fmt.Sprintf("owner %q not permitted at site %s", req.Owner, p.site))
	}
	c := &launchCall{sites: locationsFromWire(req.Locations)}
	ranks := make([]int, 0, len(req.Ranks))
	for _, r := range req.Ranks {
		if c.sites[int(r)].site != p.site {
			return refuse(fmt.Sprintf("rank %d is not placed at site %s", r, p.site))
		}
		ranks = append(ranks, int(r))
	}
	sort.Ints(ranks)
	// A later prepare lands rescheduled ranks of the same launch: the spec stays.
	spec := LaunchSpec{Owner: req.Owner, Program: req.Program, Args: req.Args, Procs: int(req.WorldSize), StageIn: req.StageIn, StageOut: req.StageOut}
	_, ha, err := p.open(req.AppID, spec, c.sites, nil, &hostPart{origin: req.Origin, st: hostState{origin: req.Origin}, calls: make(map[callID]*launchCall)})
	if err != nil {
		return refuse(err.Error())
	}
	var ctx context.Context
	if d := p.lifecycle.RPCTimeout; d > 0 {
		ctx, c.cancel = context.WithTimeout(p.ctx, d)
	} else {
		ctx, c.cancel = context.WithCancel(p.ctx)
	}
	c.stage = func() error {
		if err := p.stageIn(ctx, req.Origin, req.StageIn); err != nil {
			return err
		}
		placed, err := p.assign(p.localCandidates(), len(ranks))
		c.placed = make(map[int]rankLoc, len(ranks))
		for i := range placed {
			c.placed[ranks[i]] = placed[i]
		}
		return err
	}
	return p.arrive(ha, c, event{kind: evPrepare, epoch: req.Epoch, origin: req.Origin, ranks: ranks}, reply)
}

// arrive steps the event request c opened and returns what serves c on
// its goroutine: the effects left to it, then the reply.
func (p *Proxy) arrive(ha *hostPart, c *launchCall, ev event, reply func(effect) proto.Body) proto.ServedBy {
	ha.mu.Lock()
	ha.last++
	ev.call = ha.last
	ha.calls[ev.call] = c
	ha.mu.Unlock()
	fx := p.apply(ha, ev)
	return func(context.Context) (proto.Body, error) {
		return reply(p.serveCall(ha, ev.call, c, fx)), nil
	}
}

// apply steps ev on the host part under the record's lock, and installs
// a staged prepare's placement there. A reply or a spawn addressed to
// another request goes to that request's goroutine; the other effects
// are the caller's to run.
func (p *Proxy) apply(ha *hostPart, ev event) []effect {
	type handoff struct {
		c *launchCall
		e effect
	}
	var (
		sendBuf   [2]handoff
		cancelBuf [1]context.CancelFunc
	)
	sends, cancels := sendBuf[:0], cancelBuf[:0]
	ha.mu.Lock()
	st, fx := step(ha.st, ev)
	ha.st = st
	mine := fx[:0]
	for _, e := range fx {
		c := ha.calls[e.call]
		switch {
		case e.kind == effPlace:
			merged := make(map[int]rankLoc, len(c.sites))
			for rank, loc := range c.sites {
				if prev := ha.locations[rank]; prev.node != "" && prev.site == loc.site {
					loc = prev // placed here by an earlier prepare
				}
				merged[rank] = loc
			}
			maps.Copy(merged, c.placed)
			ha.locations = merged
			continue
		case e.kind == effReply && c != nil:
			delete(ha.calls, e.call)
			if c.cancel != nil {
				cancels = append(cancels, c.cancel) // a prepare's staging ends with its answer
			}
		}
		if e.call != 0 && e.call != ev.call {
			if c != nil {
				if c.inbox == nil {
					c.inbox = make(chan effect, 1) // step leaves a request one effect at most
				}
				sends = append(sends, handoff{c, e})
			}
			continue
		}
		mine = append(mine, e)
	}
	ha.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	for _, h := range sends {
		h.c.inbox <- h.e
	}
	return mine
}

// serveCall runs request c's effects on its goroutine until a step has
// answered it, and returns the answer.
func (p *Proxy) serveCall(ha *hostPart, id callID, c *launchCall, fx []effect) effect {
	for {
		var reply effect
		for i := 0; i < len(fx); i++ {
			switch e := fx[i]; e.kind {
			case effReply:
				reply = e
			case effStage:
				ev := event{kind: evStaged, call: id, ok: true}
				if err := c.stage(); err != nil {
					ev.ok, ev.reason = false, err.Error()
				}
				fx = append(fx, p.apply(ha, ev)...)
			case effSpawn:
				ha.mu.Lock()
				spec, locations := ha.spec, ha.locations
				ha.mu.Unlock()
				ev := event{kind: evSpawned, call: id}
				if err := p.spawnLocalRanks(p.ctx, ha.id, spec, locations, e.ranks, ha.recordOutput); err != nil {
					ev.reason = err.Error()
				} else {
					ev.ok = true
					for _, rank := range e.ranks {
						ev.nodes = append(ev.nodes, locations[rank].node)
					}
				}
				fx = append(fx, p.apply(ha, ev)...)
			default:
				p.run(ha, e)
			}
		}
		if reply.kind == effReply {
			return reply
		}
		p.log.Debug("launch request parked", "app", ha.id)
		ha.mu.Lock()
		if c.inbox == nil {
			c.inbox = make(chan effect, 1)
		}
		inbox := c.inbox
		ha.mu.Unlock()
		select {
		case e := <-inbox:
			fx = append(fx[:0], e)
		case <-p.ctx.Done():
			return effect{reason: "proxy stopping"}
		}
	}
}

// stepHosted steps an event no request made and runs its effects.
func (p *Proxy) stepHosted(ha *hostPart, ev event) {
	for _, e := range p.apply(ha, ev) {
		p.run(ha, e)
	}
}

// hostedAt renders rank copies on this site's nodes as a placement, and
// their ranks in order.
func (p *Proxy) hostedAt(runs map[int]rankRun) (map[int]rankLoc, []int) {
	locations := make(map[int]rankLoc, len(runs))
	ranks := make([]int, 0, len(runs))
	for rank, run := range runs {
		locations[rank] = rankLoc{site: p.site, node: run.node}
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	return locations, ranks
}

// run carries out an effect any goroutine may run.
func (p *Proxy) run(ha *hostPart, e effect) {
	switch e.kind {
	case effKill:
		locations, ranks := p.hostedAt(e.runs)
		if e.reap {
			p.reapLocalRanks(ha.id, locations, ranks)
			return
		}
		for _, rank := range ranks {
			if h, err := p.nodeHandle(locations[rank].node); err == nil {
				_ = h.Kill(ha.id, rank)
			}
		}
		p.log.Info("killed hosted ranks", "app", ha.id, "ranks", ranks)
	case effWatch:
		locations, ranks := p.hostedAt(e.runs)
		p.countHosted(ha.origin, len(ranks))
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			err := p.waitLocalRanks(ha.id, locations, ranks)
			p.countHosted(ha.origin, -len(ranks))
			ev := event{kind: evGroupDone, epoch: e.epoch, ranks: ranks, ok: err == nil}
			if err != nil {
				ev.reason = err.Error()
			}
			p.stepHosted(ha, ev)
		}()
	case effReport:
		// The update advertises the refs of every output published here
		// so far, and carries the small ones; the origin pulls the rest
		// over the data plane before it counts this group done.
		ha.mu.Lock()
		outputs := slices.Clone(ha.outputs)
		ha.mu.Unlock()
		update := &proto.JobUpdate{JobID: ha.id, State: proto.JobDone, Detail: p.site, Site: p.site, Outputs: outputs, Inline: p.inlineOutputs(outputs)}
		if !e.ok {
			update.State = proto.JobFailed
			update.Detail = fmt.Sprintf("%s: %s", p.site, e.reason)
		}
		p.reportToOrigin(ha.origin, update)
	case effRelease:
		p.settle(ha.app, ha)
	case effCount:
		p.reg.Counter(e.metric).Add(int64(e.n))
	}
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
	if err := pr.ctrl.Notify(update); err != nil && !errors.Is(err, proto.ErrClosed) {
		p.log.Debug("job update notify failed", "origin", origin, "err", err)
	}
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
		var reap []*hostPart
		hosted := p.hostedParts()
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
			p.stepHosted(ha, event{kind: evOriginDead})
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
