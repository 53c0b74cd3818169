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
