package membership

import (
	"sort"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/proto"
)

// Partition hardening for the gossip directory. The mechanisms here
// exist because a WAN partition breaks the base protocol in three
// specific ways experiment E12 reproduces:
//
//   - death rumors cross reachability boundaries: X, cut off from Y,
//     gossips "Y dead" to Z, who can reach Y fine. Vouching lets Z
//     override the rumor instead of adopting it.
//   - anti-entropy drops conflicts silently: a digest claiming "Y dead
//     at (i, v+1)" against a local "Y alive at (i, v)" makes the delta
//     send nothing and Merge learn nothing. observeDigest resolves the
//     conflict (refuteLocked, vouch, or adopt) before Answer computes
//     the delta.
//   - a healed split never re-merges: Sample excludes dead entries, so
//     two sides that declared each other dead stop gossiping at each
//     other forever. DeadProbeTargets nominates retained dead entries
//     as resurrection probes.

// vouchLocked decides whether an incoming suspect/dead claim about
// `local` should be overridden by fresh direct contact: if the local
// proxy itself touched the site within VouchWindow (directAt, never
// refreshed by rumors — third-hand "alive" gossip must not veto death
// verdicts), the entry is revived past the rumor's incarnation
// (version 0, hot) — the same "direct contact outranks rumor" jump
// ObserveAlive performs — and the caller must not adopt. Callers hold
// d.mu.
func (d *Directory) vouchLocked(local *entry, rumor State, rumorInc uint64, now time.Time) bool {
	if d.cfg.VouchWindow < 0 || rumor == Alive || local.state != Alive {
		return false
	}
	if local.directAt.IsZero() || now.Sub(local.directAt) > d.cfg.VouchWindow {
		return false
	}
	if rumorInc+1 > local.incarnation {
		local.incarnation = rumorInc + 1
	} else {
		local.incarnation++
	}
	local.version = 0
	local.heardAt = now
	d.markHotLocked(local)
	d.cfg.Metrics.Counter(metrics.MemberVouches).Inc()
	if d.cfg.Logger != nil {
		d.cfg.Logger.Info("membership vouching against rumor", "site", local.site,
			"rumor", rumor.String(), "incarnation", local.incarnation)
	}
	return true
}

// demoteLocked adopts a Dead rumor as locally-timed suspicion instead:
// the entry takes the rumor's exact (incarnation, version) tuple but
// state Suspect, and the local sweep's own DeadAfter clock decides
// death. Adopting second-hand death verdicts verbatim would let one
// partitioned observer's sweep kill a site in every directory that can
// still reach it, with no grace for the refutation to arrive; demotion
// converts "X says Y is dead" into "start my own timer on Y", which
// only a refutation, direct contact, or genuine unreachability can
// resolve.
//
// The demoted entry re-gossips (markHotLocked) so the *suspicion* spreads
// epidemically — a directory that never contacts the dead site itself
// must still learn something is wrong — but at the rumor's own version,
// never version+1. That version discipline is load-bearing: a demotion
// re-gossiped at a higher version would reach the convicting site as
// strictly-newer Suspect state, be adopted, reset its death timer, and
// ping-pong forever — no directory in a genuinely partitioned grid
// would ever hold a Dead verdict long enough to reschedule around it.
// At the same (incarnation, version), the convicting site's Dead is the
// worse state and wins, so the echo is simply skipped; every other
// receiver adopts the suspicion, starts its own clock, and convicts
// (or vouches, or sees the refutation) independently. Callers hold
// d.mu.
func (d *Directory) demoteLocked(local *entry, ge *proto.GossipEntry, now time.Time) {
	d.setStateLocked(local, Suspect, now)
	local.incarnation = ge.Incarnation
	local.version = ge.Version
	if ge.Addr != "" {
		local.addr = ge.Addr
	}
	local.heardAt = now
	d.markHotLocked(local)
	if d.cfg.Logger != nil {
		d.cfg.Logger.Info("membership demoting death rumor to suspicion",
			"site", local.site, "incarnation", local.incarnation)
	}
}

// observeDigest folds the liveness claims of a received anti-entropy
// digest into the directory: ignoring them would lose exactly the
// conflicts a partition creates. A digest item carries no address and no
// summary, so it only ever changes a row's liveness; rows themselves, and
// alive-over-alive progress, come from full entries (Merge): a tuple
// adopted here would make the entry that carries it "not newer" and drop
// its address and summary. For each item strictly newer than the local
// row:
//
//   - about the local site and not alive → self-refutation (the digest
//     is how a healed proxy usually first learns the far side declared
//     it dead);
//   - suspect/dead about a site heard from within VouchWindow → vouch;
//   - suspect/dead otherwise, or alive over a local suspect/dead row →
//     adopt (a death claim demoted to suspicion).
func (d *Directory) observeDigest(items []proto.GossipDigestItem) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	for i := range items {
		item := &items[i]
		if item.Site == d.cfg.Site {
			ge := proto.GossipEntry{Site: item.Site, State: item.State,
				Incarnation: item.Incarnation, Version: item.Version}
			d.refuteLocked(&ge, now)
			continue
		}
		local, ok := d.entries[item.Site]
		// Skip what a digest may not change (no row, alive over alive),
		// what is not news, and what a vouch overrides.
		if !ok || State(item.State) == Alive && local.state == Alive ||
			!newer(item.Incarnation, item.Version, item.State, local.incarnation, local.version, uint8(local.state)) ||
			stickyDead(local, State(item.State), item.Incarnation) ||
			d.vouchLocked(local, State(item.State), item.Incarnation, now) {
			continue
		}
		ge := proto.GossipEntry{Site: item.Site, State: item.State,
			Incarnation: item.Incarnation, Version: item.Version}
		if State(item.State) == Dead && local.state != Dead {
			d.demoteLocked(local, &ge, now)
		} else {
			d.adopt(local, &ge, now)
		}
	}
	d.publishGaugesLocked()
}

// Confirmers returns up to k alive, addressable sites (excluding the
// local site and target) to ask for indirect confirmation before a
// failed contact with target escalates into suspicion.
func (d *Directory) Confirmers(target string, k int) []Entry {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	candidates := make([]*entry, 0, len(d.entries))
	for _, e := range d.entries {
		if e.site == d.cfg.Site || e.site == target || e.addr == "" || e.state != Alive {
			continue
		}
		candidates = append(candidates, e)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].site < candidates[j].site })
	d.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if k > len(candidates) {
		k = len(candidates)
	}
	out := make([]Entry, 0, k)
	for _, e := range candidates[:k] {
		out = append(out, d.export(e, now))
	}
	return out
}

// DeadProbeTargets returns up to k dead-but-retained, addressable
// entries to use as resurrection probes. Sample deliberately excludes
// dead entries, so after a partition long enough for both sides to
// declare each other dead, nobody would ever gossip across the healed
// boundary again — the directories stay split forever. One probe per
// round at a random retained dead entry (with a forced digest on that
// exchange) bounds the cost and guarantees a healed split re-merges.
func (d *Directory) DeadProbeTargets(k int) []Entry {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	candidates := make([]*entry, 0, 4)
	for _, e := range d.entries {
		if e.state == Dead && e.addr != "" && e.site != d.cfg.Site {
			candidates = append(candidates, e)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].site < candidates[j].site })
	d.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if k > len(candidates) {
		k = len(candidates)
	}
	out := make([]Entry, 0, k)
	for _, e := range candidates[:k] {
		out = append(out, d.export(e, now))
	}
	return out
}

// NoteLocalProbe feeds the Lifeguard local-health score: a failed
// outbound contact raises it (capped at HealthMax), a success lowers
// it. The sweep stretches SuspectAfter/DeadAfter by (1 + score), so a
// proxy that cannot reach anyone slows its own accusations instead of
// flooding the grid with false suspicion.
func (d *Directory) NoteLocalProbe(ok bool) {
	d.mu.Lock()
	if ok {
		if d.health > 0 {
			d.health--
		}
	} else if d.health < d.cfg.HealthMax {
		d.health++
	}
	score := d.health
	d.mu.Unlock()
	d.cfg.Metrics.Gauge(metrics.MemberHealth).Set(int64(score))
}

// HealthScore returns the current local-health score (0 = healthy).
func (d *Directory) HealthScore() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.health
}
