package core

import (
	"time"

	"gridproxy/internal/stage"
)

// SetHelloTimeout shortens how long an inbound session of p may take to
// say Hello. Call it before Start.
func SetHelloTimeout(p *Proxy, d time.Duration) { p.helloWait = d }

// SetInboxStreams sets how many stage streams p opens to every peer for
// the peer to push on; 0 makes p a proxy that takes no pushes. Call it
// before Start.
func SetInboxStreams(p *Proxy, n int) { p.inboxStreams = n }

// TunnelDone returns the Done channel of the tunnel p's connection cache
// holds to site, or nil when it holds none.
func (p *Proxy) TunnelDone(site string) <-chan struct{} {
	if pr, ok := p.cache.Peek(site); ok {
		return pr.Done()
	}
	return nil
}

// PushesTo returns p's pushing side towards site.
func PushesTo(p *Proxy, site string) *stage.Outbox { return p.outbox(site) }

// ObserveDead records a death verdict for site in the directory — what a
// gossiped conviction amounts to once this proxy's sweep confirms it.
func (p *Proxy) ObserveDead(site string) { p.members.ObserveDead(site) }

// HeldCommits reports how many commits this proxy's records hold parked
// behind a prepare that is staging; tests assert it returns to zero.
func (p *Proxy) HeldCommits() int {
	n := 0
	for _, ha := range p.hostedParts() {
		ha.mu.Lock()
		n += len(ha.st.parked)
		ha.mu.Unlock()
	}
	return n
}

// GossipRound runs one gossip round now, as the gossip loop does every
// Interval.
func (p *Proxy) GossipRound() { p.gossipRound(p.ctx) }

// PublishSummary republishes this site's summary into its directory, as
// the gossip loop does every SummaryEvery.
func (p *Proxy) PublishSummary() { p.members.SetLocalSummary(p.LocalSummary().ToStatus()) }

// HostedNodes reports the node this site placed each of its ranks of a
// hosted application on; nil when it hosts no such application.
func (p *Proxy) HostedNodes(appID string) map[int]string {
	ha, ok := p.lookupHosted(appID)
	if !ok {
		return nil
	}
	out := make(map[int]string)
	for rank, loc := range ha.placement() {
		if loc.site == p.site {
			out[rank] = loc.node
		}
	}
	return out
}
