package core

import (
	"context"
	"fmt"
	"time"

	"gridproxy/internal/membership"
	"gridproxy/internal/metrics"
	"gridproxy/internal/peerlink"
	"gridproxy/internal/proto"
)

// The gossip driver: the proxy side of the membership split. The
// membership directory (internal/membership) decides WHAT to say — hot
// rumors, digests, deltas — and this file decides WHEN and TO WHOM,
// carrying the exchanges over the same control lanes every other
// proxy-to-proxy RPC uses. Tunnels to gossip targets are dialed on
// demand through the connection cache and are subject to its LRU and
// idle close like any other tunnel: a 1000-site grid holds a handful of
// live tunnels per proxy, not 999.

// GossipConfig carries the gossip-driver knobs. The zero value means
// "use defaults"; a negative Interval disables the gossip loop (the
// directory then only learns from connects and direct queries, which is
// the pre-gossip behaviour some experiments want as a baseline).
type GossipConfig struct {
	// Interval is the gossip round period. Default 1s; negative
	// disables the loop.
	Interval time.Duration
	// SummaryEvery is how often the local site summary is re-published
	// into the directory. It is deliberately much slower than Interval:
	// publishing bumps the entry's version and makes it hot, so doing it
	// per round would make rumor traffic O(N) per proxy. Default 15s.
	SummaryEvery time.Duration
	// Fanout is how many peers each round gossips to. Default 3.
	Fanout int
	// ProbeFanout is how many confirmers an indirect probe asks before a
	// failed direct contact escalates into suspicion (see probe.go).
	// Default 2; negative escalates immediately (the pre-probe
	// behaviour).
	ProbeFanout int
	// PushLimit, RetransmitFactor, AntiEntropyFactor, BootstrapDigests,
	// SuspectAfter, DeadAfter, DeadRetention, VouchWindow, HealthMax and
	// Seed pass through to membership.Config; zero values take the
	// membership defaults.
	PushLimit         int
	RetransmitFactor  int
	AntiEntropyFactor float64
	BootstrapDigests  int
	SuspectAfter      time.Duration
	DeadAfter         time.Duration
	DeadRetention     time.Duration
	VouchWindow       time.Duration
	HealthMax         int
	Seed              int64
}

// WithDefaults fills zero fields with defaults.
func (c GossipConfig) WithDefaults() GossipConfig {
	if c.Interval == 0 {
		c.Interval = time.Second
	}
	if c.SummaryEvery == 0 {
		c.SummaryEvery = 15 * time.Second
	}
	if c.Fanout <= 0 {
		c.Fanout = 3
	}
	if c.ProbeFanout == 0 {
		c.ProbeFanout = 2
	}
	return c
}

// Members returns the proxy's full membership directory, sorted by site.
func (p *Proxy) Members() []membership.Entry {
	return p.members.Entries()
}

// peerFor returns a live control session to site, dialing on demand
// through the membership directory. This is the partial-mesh path: job
// placement, staging, status and gossip all call it instead of assuming
// a standing all-pairs mesh.
func (p *Proxy) peerFor(ctx context.Context, site string) (*peer, error) {
	return p.cache.Get(ctx, site)
}

// releasePeer hands a peerFor checkout back to the connection cache,
// re-exposing the session to LRU eviction and idle close. Every peerFor
// success must be paired with a releasePeer once the RPC or stream-open
// is done; without the checkout a fan-out wider than the cache cap
// closes tunnels under its own in-flight calls.
func (p *Proxy) releasePeer(pr *peer) {
	p.cache.Release(pr.site, pr)
}

// dialOnDemand is the connection cache's dial function, and so the one
// path by which this proxy ever dials another: resolve the site through
// the directory, then run the connect handshake. A site the directory
// does not know is not dialable, and neither is one it holds dead —
// except for the callers whose business is exactly that site's verdict
// (an operator's Connect, the resurrection probe), which say so with
// withDeadDialable.
func (p *Proxy) dialOnDemand(ctx context.Context, site string) (*peer, error) {
	e, ok := p.members.Lookup(site)
	if !ok || e.Addr == "" {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPeer, site)
	}
	if e.State == membership.Dead && ctx.Value(deadDialable{}) == nil {
		return nil, fmt.Errorf("%w: %q is dead", ErrUnknownPeer, site)
	}
	pr, err := p.connectOnce(ctx, site, e.Addr)
	if err != nil {
		// A failed dial is evidence against the site only if other
		// members cannot reach it either; it is always evidence about
		// our own connectivity (Lifeguard's local health).
		p.members.NoteLocalProbe(false)
		p.suspectSite(site)
		return nil, err
	}
	p.members.NoteLocalProbe(true)
	return pr, nil
}

// deadDialable is the context key withDeadDialable sets.
type deadDialable struct{}

// withDeadDialable marks ctx so a peerFor under it dials a site even when
// the directory holds it dead.
func withDeadDialable(ctx context.Context) context.Context {
	return context.WithValue(ctx, deadDialable{}, true)
}

// siteUp reports whether the directory still counts a site as a member
// (alive or suspect). Liveness checks use this instead of "do I hold a
// tunnel": with on-demand dialing, an idle-closed tunnel says nothing
// about the site, and treating it as down would wrongly reap orphans or
// refuse launches.
func (p *Proxy) siteUp(site string) bool {
	if site == p.site {
		return true
	}
	e, ok := p.members.Lookup(site)
	return ok && e.State != membership.Dead
}

// gossipLoop drives periodic gossip rounds and the slow republication of
// the local summary until the proxy stops.
func (p *Proxy) gossipLoop() {
	defer p.wg.Done()
	round := time.NewTicker(p.gossipcfg.Interval)
	defer round.Stop()
	summary := time.NewTicker(p.gossipcfg.SummaryEvery)
	defer summary.Stop()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-summary.C:
			p.members.SetLocalSummary(p.LocalSummary().ToStatus())
		case <-round.C:
			p.gossipRound(p.ctx)
		}
	}
}

// gossipRound runs one round: advance the failure-detection sweep, pick
// Fanout random targets, push hot rumors at each (attaching a full
// digest when membership.ShouldDigest says so — the bootstrap pull on
// early first contacts, the AntiEntropyFactor/N lottery after), and
// merge whatever comes back. The targets are contacted concurrently and
// each delta is merged as it arrives, so a hung target costs the round
// its own RPCTimeout and delays no other exchange.
func (p *Proxy) gossipRound(ctx context.Context) {
	p.reg.Counter(metrics.GossipRounds).Inc()
	p.members.Sweep()
	targets := p.members.Sample(p.gossipcfg.Fanout)
	// Resurrection probe: Sample excludes dead entries, so after a
	// partition long enough for mutual death verdicts nobody would ever
	// gossip across the healed boundary again. One direct probe per
	// round at a retained dead entry (with a forced digest, so both
	// sides reconcile their whole views) re-merges a healed split — and
	// is what peers a two-site grid again, where the only other site
	// being dead leaves nobody to sample.
	dead := p.members.DeadProbeTargets(1)
	if len(targets)+len(dead) > 0 {
		push := p.members.HotPush()
		bySite := make(map[string]membership.Entry, len(targets))
		sites := make([]string, len(targets))
		for i, target := range targets {
			bySite[target.Site] = target
			sites[i] = target.Site
		}
		// No deadline of the fan-out's own: the dial and the exchange are
		// each bounded by RPCTimeout already.
		peerlink.FanOut(ctx, sites, 0, func(ctx context.Context, site string) (struct{}, error) {
			sync := &proto.GossipSync{From: p.site, Addr: p.wanAddr, Entries: push}
			if p.members.ShouldDigest(site) {
				sync.HasDigest = true
				sync.Digest = p.members.Digest()
				p.reg.Counter(metrics.GossipAntiEntropy).Inc()
			}
			p.gossipTo(ctx, bySite[site], sync)
			return struct{}{}, nil
		})
		for _, target := range dead {
			p.deadProbe(ctx, target, push)
		}
	}
	p.closeDeadTunnels()
}

// deadProbe attempts one gossip exchange with a dead-marked site, through
// the same cache and the same bounded connect as any other contact (so
// the site's circuit breaker paces the probes). Success revives the entry
// (connectOnce's ObserveAlive) and the forced digest exchange repairs
// both directories; failure is the expected outcome and changes nothing.
func (p *Proxy) deadProbe(ctx context.Context, target membership.Entry, push []proto.GossipEntry) {
	pr, err := p.peerFor(withDeadDialable(ctx), target.Site)
	if err != nil {
		return
	}
	defer p.releasePeer(pr)
	sync := &proto.GossipSync{From: p.site, Addr: p.wanAddr, Entries: push,
		HasDigest: true, Digest: p.members.Digest()}
	p.reg.Counter(metrics.GossipSyncs).Inc()
	p.reg.Counter(metrics.GossipAntiEntropy).Inc()
	reply, err := p.callPeer(ctx, pr, sync)
	if err != nil {
		return
	}
	if delta, ok := reply.(*proto.GossipDelta); ok && len(delta.Entries) > 0 {
		p.members.Merge(delta.Entries)
	}
	p.closeDeadTunnels()
}

// gossipTo runs one push-pull exchange with one sampled target. Both a
// failed dial and a failed RPC are direct evidence against the target.
func (p *Proxy) gossipTo(ctx context.Context, target membership.Entry, sync *proto.GossipSync) {
	pr, err := p.peerFor(ctx, target.Site)
	if err != nil {
		// dialOnDemand already escalated a genuine dial failure through
		// the indirect-probe machinery; a breaker fast-fail changes no
		// membership state (the failures that opened it already did).
		return
	}
	defer p.releasePeer(pr)
	p.reg.Counter(metrics.GossipSyncs).Inc()
	reply, err := p.callPeer(ctx, pr, sync)
	if err != nil {
		p.members.NoteLocalProbe(false)
		p.suspectSite(target.Site)
		return
	}
	delta, ok := reply.(*proto.GossipDelta)
	if !ok {
		p.log.Warn("gossip exchange: unexpected reply", "peer", target.Site, "reply", fmt.Sprintf("%T", reply))
		return
	}
	// An exchange that worked is evidence about this proxy's own
	// connectivity as much as a failed one is: without the credit, one
	// hung peer failing every round pins the health score at its cap and
	// stretches every verdict ninefold though the other exchanges succeed.
	p.members.NoteLocalProbe(true)
	p.members.ObserveAlive(target.Site, target.Addr)
	if len(delta.Entries) > 0 {
		p.members.Merge(delta.Entries)
	}
}

// handleGossipSync serves one inbound gossip exchange: learn that the
// sender is alive at its claimed address, merge its rumors, and answer
// with a delta — everything we know better than its digest when one was
// attached, or our own hot rumors otherwise (push-pull: replies carry
// rumors too, doubling the spread rate per exchange).
func (p *Proxy) handleGossipSync(req *proto.GossipSync) *proto.GossipDelta {
	if req.From != "" && req.From != p.site {
		p.members.ObserveAlive(req.From, req.Addr)
	}
	if len(req.Entries) > 0 {
		p.members.Merge(req.Entries)
	}
	delta := &proto.GossipDelta{From: p.site}
	if req.HasDigest {
		// Reconcile the digest's liveness claims BEFORE computing the
		// delta: a conflict (their tuple newer than ours) would
		// otherwise be dropped silently — DeltaFor sends nothing for it
		// and Merge never sees it — which is exactly how a partition's
		// death verdicts dodge refutation. See membership.ObserveDigest.
		p.members.ObserveDigest(req.Digest)
		delta.Entries = p.members.DeltaFor(req.Digest)
	} else {
		delta.Entries = p.members.HotPush()
	}
	p.closeDeadTunnels()
	return delta
}

// handleMemberList answers a local client's directory listing: every
// entry, its liveness state, summary age (-1 when no summary has been
// gossiped yet), and whether this proxy currently holds a live tunnel
// to it — the operator's view of the membership/connectivity split.
func (p *Proxy) handleMemberList() *proto.MemberListReply {
	reply := &proto.MemberListReply{}
	for _, e := range p.members.Entries() {
		mi := proto.MemberInfo{
			Site:          e.Site,
			Addr:          e.Addr,
			State:         uint8(e.State),
			Incarnation:   e.Incarnation,
			Version:       e.Version,
			AgeMillis:     -1,
			Tunnel:        e.Site == p.site || p.cache.Has(e.Site),
			HeardMillis:   e.LastHeard.Milliseconds(),
			SuspectMillis: -1,
		}
		if e.State == membership.Suspect {
			mi.SuspectMillis = e.SuspectFor.Milliseconds()
		}
		if e.HasSummary {
			mi.AgeMillis = e.SummaryAge.Milliseconds()
		}
		// Bond width, smoothed RTT and learned window come from the live
		// session, not the directory: they describe this proxy's tunnel,
		// and vanish with it.
		if pr, ok := p.cache.Peek(e.Site); ok {
			mi.BondConns = uint8(min(pr.session.BondWidth(), 255))
			mi.RTTMicros = pr.session.SmoothedRTT().Microseconds()
			mi.WindowBytes = pr.session.Window()
		}
		reply.Members = append(reply.Members, mi)
	}
	return reply
}

// closeDeadTunnels makes the proxy's tunnels agree with the directory,
// once per gossip round and per inbound exchange: a tunnel still held to
// a site the directory holds dead is killed. The directory is the one
// judge of liveness, so a site it has given up on (hung but connected is
// the case nothing else catches) must look to watchPeer like any other
// lost peer — resources dropped, launches waiting on it rescheduled —
// whichever side dialed.
func (p *Proxy) closeDeadTunnels() {
	for _, e := range p.members.Entries() {
		if e.Site == p.site || e.State != membership.Dead {
			continue
		}
		// Ask the directory again once the tunnel is in hand: a session
		// enters the cache only after the contact that built it was
		// recorded, so a verdict read now cannot predate a tunnel this
		// snapshot raced with.
		if pr, ok := p.cache.Peek(e.Site); ok && !p.siteUp(e.Site) && p.cache.DropIf(e.Site, pr) {
			p.log.Warn("directory holds site dead; closing its tunnel", "site", e.Site)
			pr.abort()
		}
	}
}
