package core

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/peerlink"
	"gridproxy/internal/proto"
)

// Indirect probing: one failed contact is evidence about a PATH, not a
// site. Before a dial or RPC failure escalates into membership
// suspicion, the proxy asks up to ProbeFanout other members to try the
// target themselves; if any of them still reaches it, the target stays
// alive locally and only the local health score (Lifeguard) records the
// trouble. This is what keeps a gray link — lossy, one-way, or just
// slow — from convicting a healthy site.

// suspectSite escalates a failed direct contact with site into
// suspicion, after indirect confirmation. At most one probe per site
// runs at a time; repeat failures while one is in flight are absorbed
// by it. With probing disabled (ProbeFanout < 0) the escalation is
// immediate, preserving the pre-probe behaviour.
func (p *Proxy) suspectSite(site string) {
	if site == "" || site == p.site {
		return
	}
	if p.gossipcfg.ProbeFanout < 0 {
		p.members.ObserveSuspect(site)
		return
	}
	p.mu.Lock()
	if p.stopped || p.probing[site] {
		p.mu.Unlock()
		return
	}
	p.probing[site] = true
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer func() {
			p.mu.Lock()
			delete(p.probing, site)
			p.mu.Unlock()
		}()
		if p.confirmUnreachable(p.ctx, site) {
			p.members.ObserveSuspect(site)
		}
	}()
}

// confirmUnreachable asks up to ProbeFanout confirmers whether they can
// reach site, reporting true when nobody can (suspicion is warranted).
// A confirmer that cannot be reached itself contributes nothing — its
// own dial failure escalates separately. No confirmers available (a
// two-site grid, or everyone else already suspect) means the local
// verdict stands unchallenged.
func (p *Proxy) confirmUnreachable(ctx context.Context, site string) bool {
	confirmers := p.members.Confirmers(site, p.gossipcfg.ProbeFanout)
	if len(confirmers) == 0 {
		return true
	}
	p.reg.Counter(metrics.MemberProbes).Inc()
	targets := make([]string, 0, len(confirmers))
	for _, c := range confirmers {
		targets = append(targets, c.Site)
	}
	results := peerlink.FanOut(ctx, targets, p.lifecycle.RPCTimeout, func(ctx context.Context, confirmer string) (bool, error) {
		pr, err := p.peerFor(ctx, confirmer)
		if err != nil {
			return false, err
		}
		defer p.releasePeer(pr)
		reply, err := p.callPeer(ctx, pr, &proto.ProbeRequest{Target: site})
		if err != nil {
			return false, err
		}
		pb, ok := reply.(*proto.ProbeReply)
		return ok && pb.OK, nil
	})
	for _, res := range results {
		if res.Err == nil && res.Value {
			p.reg.Counter(metrics.MemberProbeConfirms).Inc()
			p.log.Debug("indirect probe vetoed suspicion", "site", site, "confirmer", res.Target)
			return false
		}
	}
	return true
}

// handleProbeRequest serves a confirmer's side of an indirect probe: try
// to reach the target ourselves (dialing on demand) and report the
// verdict. The ping round trip — not just a successful dial — is the
// evidence, matching what the prober failed to get.
func (p *Proxy) handleProbeRequest(ctx context.Context, req *proto.ProbeRequest) *proto.ProbeReply {
	reply := &proto.ProbeReply{Target: req.Target}
	if req.Target == "" {
		return reply
	}
	if req.Target == p.site {
		reply.OK = true
		return reply
	}
	pr, err := p.peerFor(ctx, req.Target)
	if err != nil {
		return reply
	}
	defer p.releasePeer(pr)
	//lint:allow-wallclock nonce entropy, not a timestamp; a frozen test clock would repeat nonces
	nonce := uint64(time.Now().UnixNano())
	ans, err := p.callPeer(ctx, pr, &proto.Ping{Nonce: nonce})
	if err != nil {
		return reply
	}
	pong, ok := ans.(*proto.Pong)
	reply.OK = ok && pong.Nonce == nonce
	return reply
}

// retryDelay computes the wait before retry attempt n (0-based) of a
// control-plane RPC: exponential growth from base with ±20% jitter, so
// a fleet of retriers spreads out instead of hammering a recovering
// peer in lockstep.
func retryDelay(base time.Duration, attempt int) time.Duration {
	d := float64(base)
	for i := 0; i < attempt; i++ {
		d *= 2
	}
	d *= 1 + 0.2*(2*rand.Float64()-1)
	return time.Duration(d)
}

// pendingFence is one undelivered split-brain fence: the named site must
// kill its copies of the listed ranks below epoch before the launch's
// reschedule history is safe against a heal. Fences are recorded when a
// launch reschedules around an unreachable site and retried until the
// site answers or the directory forgets it entirely.
type pendingFence struct {
	appID string
	site  string
	epoch uint64
	ranks []uint32
}

// addFence records a fence for later delivery.
func (p *Proxy) addFence(appID, site string, epoch uint64, ranks []int) {
	f := &pendingFence{appID: appID, site: site, epoch: epoch}
	for _, r := range ranks {
		f.ranks = append(f.ranks, uint32(r))
	}
	p.mu.Lock()
	p.fences = append(p.fences, f)
	p.mu.Unlock()
}

// fenceRetry is how often undelivered split-brain fences are retried
// against sites that rejoined the directory.
const fenceRetry = 2 * time.Second

// fenceDeliverer retries pending fences every fenceRetry until each is
// acknowledged. A fence for a site the directory has pruned entirely
// (dead past retention) is dropped: if that site ever returns it does so
// as a fresh join, and its orphan reaper — having lost its origin for
// the whole partition — has long since killed the stale ranks.
func (p *Proxy) fenceDeliverer() {
	defer p.wg.Done()
	ticker := time.NewTicker(fenceRetry)
	defer ticker.Stop()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-ticker.C:
		}
		p.deliverFences(p.ctx)
	}
}

// deliverFences attempts one delivery pass over the pending fences.
func (p *Proxy) deliverFences(ctx context.Context) {
	p.mu.Lock()
	pending := make([]*pendingFence, len(p.fences))
	copy(pending, p.fences)
	p.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	done := make(map[*pendingFence]bool)
	for _, f := range pending {
		if _, known := p.members.Lookup(f.site); !known {
			done[f] = true // pruned from the directory; see fenceDeliverer
			continue
		}
		if !p.siteUp(f.site) {
			continue // still partitioned; retry next tick
		}
		if p.sendFence(ctx, f) {
			done[f] = true
		}
	}
	if len(done) == 0 {
		return
	}
	p.mu.Lock()
	kept := p.fences[:0]
	for _, f := range p.fences {
		if !done[f] {
			kept = append(kept, f)
		}
	}
	p.fences = kept
	p.mu.Unlock()
}

// sendFence delivers one fence, reporting whether it was acknowledged.
func (p *Proxy) sendFence(ctx context.Context, f *pendingFence) bool {
	pr, err := p.peerFor(ctx, f.site)
	if err != nil {
		return false
	}
	defer p.releasePeer(pr)
	reply, err := p.callPeer(ctx, pr, &proto.FenceNotice{AppID: f.appID, Epoch: f.epoch, Ranks: f.ranks})
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			p.log.Debug("fence delivery failed", "app", f.appID, "site", f.site, "err", err)
		}
		return false
	}
	fr, ok := reply.(*proto.FenceReply)
	if !ok {
		return false
	}
	p.reg.Counter(metrics.JobFencesSent).Inc()
	p.log.Info("fence delivered", "app", f.appID, "site", f.site, "epoch", f.epoch, "killed", fr.Killed)
	return true
}
