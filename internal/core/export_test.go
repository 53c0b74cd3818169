package core

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
