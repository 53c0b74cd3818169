package core

// ObserveDead records a death verdict for site in the directory — what a
// gossiped conviction amounts to once this proxy's sweep confirms it.
func (p *Proxy) ObserveDead(site string) { p.members.ObserveDead(site) }

// HeldCommits reports how many unconfirmed commits this proxy holds that
// have not replied yet; tests assert it returns to zero.
func (p *Proxy) HeldCommits() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, held := range p.held {
		n += len(held)
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
