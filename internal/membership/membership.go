// Package membership maintains each proxy's directory of grid sites and
// disseminates it epidemically. It splits "who exists" from "who I hold a
// tunnel to": the directory knows every site in the grid (name, dialable
// address, liveness state, versioned status summary) while the connection
// layer (internal/peerlink) holds live tunnels to only a handful of them.
//
// The protocol is SWIM-flavoured gossip:
//
//   - Every directory entry is ordered by (Incarnation, Version, State):
//     a higher incarnation always wins; at equal incarnations a higher
//     version wins; at equal versions the "worse" state (alive < suspect
//     < dead) wins so a rumor of failure is not lost to reordering.
//   - Only a site itself increments its incarnation. It does so to refuteLocked
//     rumors: on hearing itself called suspect or dead at incarnation i,
//     it re-announces as alive at incarnation i+1. An alive copy of itself
//     numbered past its own (direct contact revives and re-stamps a site)
//     it catches up with, so its next summary outranks every copy.
//   - Changed entries become "hot" and are pushed to sampled peers for a
//     retransmit budget of retransmitFactor·⌈log₂N⌉ rounds, which is what
//     gives rumors O(log N) convergence.
//   - A slow push-pull anti-entropy (a digest of the full directory, the
//     peer answering with everything it knows better) repairs anything
//     rumor-mongering missed and performs the one-round bootstrap pull a
//     brand-new proxy uses to learn the whole grid from a single peer.
//
// Failure detection is evidence-driven rather than heartbeat-driven: the
// owning proxy reports failed dials or RPCs (ObserveSuspect) and dead
// held-tunnel sessions (ObserveDead); a time-based sweep turns silence
// into suspicion as a backstop and suspicion into death after a grace
// period. This keeps steady-state gossip traffic per proxy flat in N —
// nothing bumps versions just because time passed.
package membership

import (
	"log/slog"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/proto"
)

// The dissemination constants.
const (
	// pushLimit caps the hot entries carried by one GossipSync.
	pushLimit = 128
	// retransmitFactor scales the per-change retransmit budget of
	// retransmitFactor·⌈log₂N⌉ hot pushes.
	retransmitFactor = 3
	// antiEntropyFactor sets the per-round probability of a full-digest
	// push-pull exchange to antiEntropyFactor/N, keeping the amortized
	// anti-entropy traffic per proxy flat as the grid grows.
	antiEntropyFactor = 1.0
	// bootstrapDigests is how many first-contact exchanges carry a full
	// digest unconditionally (the bootstrap pull). After the budget is
	// spent only the antiEntropyFactor/N lottery triggers digests: without
	// a budget, every first contact in a 1000-site grid would carry an
	// O(N) digest until the random mesh saturates, and steady-state
	// traffic would stop being flat in N.
	bootstrapDigests = 3
)

// State is a directory entry's liveness state.
type State uint8

// Membership states, ordered by precedence at equal (incarnation,
// version): a worse state wins so failure rumors survive reordering.
const (
	Alive State = iota
	Suspect
	Dead
)

// String renders the state for operators.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return "unknown"
	}
}

// Entry is one site's row in the directory, as seen by callers. It is a
// snapshot copy; mutating it does not touch the directory.
type Entry struct {
	// Site is the site name; Addr its inter-site (WAN) listen address,
	// empty until learned.
	Site string
	Addr string
	// State, Incarnation and Version order this entry against other
	// proxies' copies of it.
	State       State
	Incarnation uint64
	Version     uint64
	// HasSummary reports whether a status summary has been received;
	// Summary is its wire form and SummaryAge how long ago it was
	// collected (gossip hops included).
	HasSummary bool
	Summary    proto.SiteStatus
	SummaryAge time.Duration
	// LastHeard is how long ago fresher information about the site last
	// arrived; SuspectFor is how long the entry has been suspect (zero
	// unless State == Suspect). Operators watch these to see a
	// partition forming before the dead verdict lands.
	LastHeard  time.Duration
	SuspectFor time.Duration
}

// entry is the directory's internal row: the Entry fields plus rumor and
// sweep bookkeeping.
type entry struct {
	site        string
	addr        string
	state       State
	incarnation uint64
	version     uint64
	hasSummary  bool
	summary     proto.SiteStatus
	// summaryAt is the local time the summary was collected (receipt
	// time minus the age the sender stamped).
	summaryAt time.Time
	// heardAt is the last time fresher information about the site
	// arrived (merge or direct observation); the suspicion sweep turns
	// long silence into suspicion.
	heardAt time.Time
	// directAt is the last time the local proxy touched the site
	// itself (a session, RPC, or gossip exchange with it succeeded) —
	// unlike heardAt it is never refreshed by rumors, which is what
	// makes it safe evidence for vouching against death rumors.
	directAt time.Time
	// suspectAt / deadAt record when the local view entered those
	// states, for the sweep's grace periods.
	suspectAt time.Time
	deadAt    time.Time
	// retransmit is the remaining hot-push budget; zero means cold.
	retransmit int
	// seed marks a site the operator configured (AddSeed): it is never
	// pruned, so a bootstrap peer is retried for as long as the proxy
	// runs. A seed nothing has been heard from yet sits at incarnation 0
	// (every real row is at 1 or above) and is kept off the wire: the
	// directory does not vouch for a site on the strength of a config
	// line.
	seed bool
}

// unmet reports whether the row is a seed that neither a contact nor a
// rumor has filled in yet.
func (e *entry) unmet() bool { return e.incarnation == 0 }

// Config parameterizes a Directory.
type Config struct {
	// Site and Addr identify the local proxy; its own entry is created
	// alive at incarnation 1.
	Site string
	Addr string
	// SuspectAfter is how long an alive entry may go unheard-from before
	// the sweep marks it suspect. Default 60s.
	SuspectAfter time.Duration
	// DeadAfter is how long an entry may stay suspect, unrefuted, before
	// the sweep declares it dead. Default 30s.
	DeadAfter time.Duration
	// DeadRetention is how long a dead entry is remembered (so the death
	// rumor keeps spreading) before it is pruned. Default 5m.
	DeadRetention time.Duration
	// VouchWindow is how recently the local proxy must have heard from a
	// site to vouch for it against an incoming suspect/dead rumor:
	// instead of adopting the rumor, the entry is revived past the
	// rumor's incarnation (fresh direct contact outranks gossip). This
	// is what keeps one partitioned observer's death verdicts from
	// propagating through proxies that can still reach the victim.
	// Default SuspectAfter/2; negative disables vouching.
	VouchWindow time.Duration
	// HealthMax caps the Lifeguard-style local-health score. Each failed
	// local probe raises the score by one (capped here), each success
	// lowers it; the sweep stretches SuspectAfter/DeadAfter by
	// (1 + score), so a proxy whose own links are degraded accuses the
	// world more slowly. Default 8.
	HealthMax int
	// Now supplies time; nil means time.Now. The simulator injects a
	// logical clock here.
	Now func() time.Time
	// Seed seeds peer sampling; 0 derives a seed from the site name so
	// distinct proxies sample differently but deterministically.
	Seed int64
	// Metrics may be nil.
	Metrics *metrics.Registry
	// Logger may be nil, which logs nothing.
	Logger *slog.Logger
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 60 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 30 * time.Second
	}
	if c.DeadRetention <= 0 {
		c.DeadRetention = 5 * time.Minute
	}
	if c.VouchWindow == 0 {
		c.VouchWindow = c.SuspectAfter / 2
	}
	if c.HealthMax <= 0 {
		c.HealthMax = 8
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Seed == 0 {
		for _, b := range []byte(c.Site) {
			c.Seed = c.Seed*131 + int64(b)
		}
		c.Seed++
	}
	return c
}

// Directory is one proxy's view of the grid's membership. All methods are
// safe for concurrent use.
type Directory struct {
	cfg Config

	mu      sync.Mutex
	entries map[string]*entry
	rng     *rand.Rand
	// stateCount tracks entries per state for the member gauges.
	stateCount [3]int
	// introduced records peers already granted a bootstrap digest, so the
	// budget is spent on distinct first contacts.
	introduced map[string]bool
	// health is the Lifeguard-style local-health score (see
	// Config.HealthMax and NoteLocalProbe).
	health int
	// hot names the entries with retransmit budget left, in name order.
	hot []string
}

// New builds a directory holding only the local site, alive at
// incarnation 1 and hot (so a bootstrapping proxy announces itself on its
// first gossip round).
func New(cfg Config) *Directory {
	cfg = cfg.withDefaults()
	d := &Directory{
		cfg:        cfg,
		entries:    make(map[string]*entry),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		introduced: make(map[string]bool),
	}
	now := cfg.Now()
	self := &entry{
		site:        cfg.Site,
		addr:        cfg.Addr,
		state:       Alive,
		incarnation: 1,
		heardAt:     now,
	}
	d.entries[cfg.Site] = self
	d.stateCount[Alive]++
	d.markHotLocked(self)
	d.publishGaugesLocked()
	return d
}

// markHotLocked gives e a fresh retransmit budget of retransmitFactor·⌈log₂N⌉.
// An unmet seed has nothing to spread and stays cold. Callers hold d.mu.
func (d *Directory) markHotLocked(e *entry) {
	if e.unmet() {
		return
	}
	if e.retransmit == 0 {
		i, _ := slices.BinarySearch(d.hot, e.site)
		d.hot = slices.Insert(d.hot, i, e.site)
	}
	n := len(d.entries)
	if n < 2 {
		n = 2
	}
	e.retransmit = retransmitFactor * int(math.Ceil(math.Log2(float64(n))))
}

// setStateLocked moves e between states, maintaining gauge counts and
// transition counters. Callers hold d.mu.
func (d *Directory) setStateLocked(e *entry, s State, now time.Time) {
	if e.state == s {
		return
	}
	d.stateCount[e.state]--
	d.stateCount[s]++
	switch s {
	case Suspect:
		e.suspectAt = now
		d.cfg.Metrics.Counter(metrics.MemberSuspicions).Inc()
	case Dead:
		e.deadAt = now
		d.cfg.Metrics.Counter(metrics.MemberDeaths).Inc()
	case Alive:
		d.cfg.Metrics.Counter(metrics.MemberRefutations).Inc()
	}
	e.state = s
}

// publishGaugesLocked pushes the per-state entry counts. Callers hold d.mu.
func (d *Directory) publishGaugesLocked() {
	d.cfg.Metrics.Gauge(metrics.MembersAlive).Set(int64(d.stateCount[Alive]))
	d.cfg.Metrics.Gauge(metrics.MembersSuspect).Set(int64(d.stateCount[Suspect]))
	d.cfg.Metrics.Gauge(metrics.MembersDead).Set(int64(d.stateCount[Dead]))
}

// SetAddr sets the local site's own address, as the directory advertises
// it: a proxy learns it when its listener binds.
func (d *Directory) SetAddr(addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cfg.Addr = addr
	if self := d.entries[d.cfg.Site]; self != nil {
		self.addr = addr
		d.markHotLocked(self)
	}
}

// Site returns the local site name.
func (d *Directory) Site() string { return d.cfg.Site }

// Len returns the number of directory entries (dead-but-retained
// included).
func (d *Directory) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// Lookup returns the entry for a site and whether it exists.
func (d *Directory) Lookup(site string) (Entry, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[site]
	if !ok {
		return Entry{}, false
	}
	return d.export(e, d.cfg.Now()), true
}

// Entries returns a snapshot of the whole directory sorted by site name.
func (d *Directory) Entries() []Entry {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	out := make([]Entry, 0, len(d.entries))
	for _, e := range d.entries {
		out = append(out, d.export(e, now))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// export copies an internal row to the caller-facing form. Callers hold
// d.mu.
func (d *Directory) export(e *entry, now time.Time) Entry {
	out := Entry{
		Site:        e.site,
		Addr:        e.addr,
		State:       e.state,
		Incarnation: e.incarnation,
		Version:     e.version,
		HasSummary:  e.hasSummary,
		Summary:     e.summary,
	}
	if e.hasSummary {
		out.SummaryAge = now.Sub(e.summaryAt)
	}
	if !e.heardAt.IsZero() {
		out.LastHeard = now.Sub(e.heardAt)
	}
	if e.state == Suspect && !e.suspectAt.IsZero() {
		out.SuspectFor = now.Sub(e.suspectAt)
	}
	return out
}

// SetLocalSummary installs a fresh status summary for the local site,
// bumping its version so the change gossips out. The proxy calls this on
// a slow cadence — versions must not move per gossip round or rumor
// traffic stops being flat in N.
func (d *Directory) SetLocalSummary(s proto.SiteStatus) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	self := d.entries[d.cfg.Site]
	self.version++
	self.hasSummary = true
	self.summary = s
	self.summaryAt = now
	self.heardAt = now
	d.markHotLocked(self)
}

// Sample returns up to k distinct gossip targets: non-local entries with
// a known address that are not dead, uniformly at random. Suspect sites
// stay in the pool — gossiping at them is how they get the chance to
// refuteLocked.
func (d *Directory) Sample(k int) []Entry {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	candidates := make([]*entry, 0, len(d.entries))
	for _, e := range d.entries {
		if e.site == d.cfg.Site || e.addr == "" || e.state == Dead {
			continue
		}
		candidates = append(candidates, e)
	}
	// Deterministic candidate order, then a seeded shuffle: map order
	// must not leak into experiment results.
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

// WantAntiEntropy reports whether this round should carry a full digest.
// The probability is antiEntropyFactor/N, so the amortized anti-entropy
// cost per proxy stays flat as the grid grows.
func (d *Directory) WantAntiEntropy() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.entries)
	if n <= 1 {
		return true
	}
	p := antiEntropyFactor / float64(n)
	if p > 1 {
		p = 1
	}
	return d.rng.Float64() < p
}

// ShouldDigest reports whether a sync to peer should carry a full
// directory digest. Two triggers: a never-before-contacted peer while
// the bootstrapDigests budget lasts — the bootstrap pull that lets a
// fresh proxy learn the whole grid from its single configured peer in
// one round — and the WantAntiEntropy lottery that repairs anything
// rumor-mongering missed.
func (d *Directory) ShouldDigest(peer string) bool {
	d.mu.Lock()
	if !d.introduced[peer] && len(d.introduced) < bootstrapDigests {
		d.introduced[peer] = true
		d.mu.Unlock()
		return true
	}
	d.mu.Unlock()
	return d.WantAntiEntropy()
}

// Summaries counts entries carrying a status summary — the convergence
// measure E11 watches (cheaper than exporting Entries per round at
// N=1000).
func (d *Directory) Summaries() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, e := range d.entries {
		if e.hasSummary {
			n++
		}
	}
	return n
}

// Convicted counts entries held dead (retained, not yet pruned).
func (d *Directory) Convicted() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stateCount[Dead]
}

// PendingRumors counts entries still holding hot-push retransmit budget.
// Zero means the rumor mill has drained: subsequent rounds carry only
// empty syncs and the occasional anti-entropy digest. The simulator uses
// this to find the steady state.
func (d *Directory) PendingRumors() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.hot)
}

// HotPush returns up to pushLimit hot entries in wire form, the first in
// site name order (so simulated byte counts are reproducible),
// decrementing their retransmit budgets.
func (d *Directory) HotPush() []proto.GossipEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	var out []proto.GossipEntry
	first := d.hot[:min(pushLimit, len(d.hot))]
	for _, site := range first {
		e := d.entries[site]
		e.retransmit--
		out = append(out, d.wireEntry(e, now))
	}
	warm := slices.DeleteFunc(first, func(site string) bool { return d.entries[site].retransmit == 0 })
	d.hot = append(warm, d.hot[len(first):]...)
	return out
}

// Digest summarizes every entry for a push-pull anti-entropy exchange.
func (d *Directory) Digest() []proto.GossipDigestItem {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]proto.GossipDigestItem, 0, len(d.entries))
	sites := make([]string, 0, len(d.entries))
	for site := range d.entries {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		e := d.entries[site]
		if e.unmet() {
			continue
		}
		out = append(out, proto.GossipDigestItem{
			Site:        e.site,
			Incarnation: e.incarnation,
			Version:     e.version,
			State:       uint8(e.state),
		})
	}
	return out
}

// The two halves of one push-pull exchange. The proxy carries them over
// its control lanes and the simulator over its chaos matrix; the order of
// the steps inside each half is the protocol, and lives only here.

// Offer builds the sync that opens an exchange with peer: this round's
// hot rumors (one HotPush, shared by the round's targets) and a full
// digest when forceDigest is set (a resurrection probe) or ShouldDigest
// says so.
func (d *Directory) Offer(peer string, push []proto.GossipEntry, forceDigest bool) *proto.GossipSync {
	sync := &proto.GossipSync{From: d.cfg.Site, Addr: d.cfg.Addr, Entries: push}
	if forceDigest || d.ShouldDigest(peer) {
		sync.HasDigest = true
		sync.Digest = d.Digest()
		d.cfg.Metrics.Counter(metrics.GossipAntiEntropy).Inc()
	}
	return sync
}

// Answer serves the receiving half: the sender is alive at the address it
// gives and its rumors merge. A digest's liveness claims are folded in
// before the reply is computed (a conflict would otherwise be dropped
// silently, see observeDigest), and the reply carries everything this
// directory knows better than the digest; without a digest it carries
// this directory's own hot rumors, so replies spread rumors too.
func (d *Directory) Answer(sync *proto.GossipSync) *proto.GossipDelta {
	d.ObserveAlive(sync.From, sync.Addr)
	d.Merge(sync.Entries)
	delta := &proto.GossipDelta{From: d.cfg.Site}
	if sync.HasDigest {
		d.observeDigest(sync.Digest)
		delta.Entries = d.deltaFor(sync.Digest)
	} else {
		delta.Entries = d.HotPush()
	}
	return delta
}

// Absorb completes an exchange this directory opened with peer at addr:
// the answer is a successful local probe and direct contact with peer,
// and its entries merge. A hung peer failing every round must not pin the
// health score at its cap while the other exchanges succeed.
func (d *Directory) Absorb(peer, addr string, delta *proto.GossipDelta) {
	d.NoteLocalProbe(true)
	d.ObserveAlive(peer, addr)
	d.Merge(delta.Entries)
}

// deltaFor answers a digest with every entry the directory knows better:
// entries absent from the digest and entries the digest holds an older
// copy of.
func (d *Directory) deltaFor(digest []proto.GossipDigestItem) []proto.GossipEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	seen := make(map[string]proto.GossipDigestItem, len(digest))
	for _, item := range digest {
		seen[item.Site] = item
	}
	sites := make([]string, 0, len(d.entries))
	for site := range d.entries {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	var out []proto.GossipEntry
	for _, site := range sites {
		e := d.entries[site]
		if e.unmet() {
			continue
		}
		item, ok := seen[site]
		if ok && !newer(e.incarnation, e.version, uint8(e.state), item.Incarnation, item.Version, item.State) {
			continue
		}
		out = append(out, d.wireEntry(e, now))
	}
	return out
}

// wireEntry renders an internal row in wire form, stamping the summary's
// age so the receiver can reconstruct collection time across hops.
// Callers hold d.mu.
func (d *Directory) wireEntry(e *entry, now time.Time) proto.GossipEntry {
	ge := proto.GossipEntry{
		Site:        e.site,
		Addr:        e.addr,
		State:       uint8(e.state),
		Incarnation: e.incarnation,
		Version:     e.version,
		HasSummary:  e.hasSummary,
	}
	if e.hasSummary {
		ge.Summary = e.summary
		ge.Summary.AgeMillis = now.Sub(e.summaryAt).Milliseconds()
		ge.Summary.Incarnation = e.incarnation
		ge.Summary.Member = uint8(e.state)
	}
	return ge
}

// Merge folds gossiped entries into the directory, returning how many
// were accepted (strictly newer than the local copy). Rumors about the
// local site that are not "alive" are refuted: the local incarnation
// jumps past the rumor's and the refutation becomes hot. An "alive" copy
// of the local site numbered past the local one is caught up with.
func (d *Directory) Merge(entries []proto.GossipEntry) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	merged := 0
	for i := range entries {
		ge := &entries[i]
		if ge.Site == "" {
			continue
		}
		if ge.Site == d.cfg.Site {
			d.refuteLocked(ge, now)
			continue
		}
		local, ok := d.entries[ge.Site]
		if !ok {
			local = &entry{site: ge.Site}
			d.entries[ge.Site] = local
			d.stateCount[Alive]++ // placeholder; adopt() fixes the state below
			local.state = Alive
			d.adopt(local, ge, now)
			merged++
			continue
		}
		if !newer(ge.Incarnation, ge.Version, ge.State, local.incarnation, local.version, uint8(local.state)) {
			continue
		}
		if stickyDead(local, State(ge.State), ge.Incarnation) {
			continue
		}
		if d.vouchLocked(local, State(ge.State), ge.Incarnation, now) {
			merged++
			continue
		}
		if State(ge.State) == Dead && local.state != Dead {
			d.demoteLocked(local, ge, now)
			merged++
			continue
		}
		d.adopt(local, ge, now)
		merged++
	}
	if merged > 0 {
		d.cfg.Metrics.Counter(metrics.GossipEntriesMerged).Add(int64(merged))
		d.publishGaugesLocked()
	}
	return merged
}

// stickyDead reports whether an incoming rumor must be ignored because
// the local Dead verdict outranks it despite the rumor being "newer" by
// version. A Suspect rumor at the SAME incarnation as a local Dead
// entry is just the demoted echo of somebody's death evidence — news
// this directory already acted on — but it can still win the version
// race: every independent conviction bumps the version (Sweep), every
// demotion of that conviction re-gossips Suspect at the bumped version
// (demoteLocked), and that higher-version Suspect would un-convict any
// Dead verdict minted one bump earlier. At N sites convicting on
// staggered clocks the grid never settles (E12's reconvergence bar
// catches this as a perpetual Dead↔Suspect oscillation). So death is
// sticky at its incarnation: only a genuine refutation or vouch — both
// of which raise the incarnation — or direct contact revives the entry.
// Callers hold d.mu.
func stickyDead(local *entry, rumor State, rumorInc uint64) bool {
	return local.state == Dead && rumor == Suspect && rumorInc == local.incarnation
}

// adopt copies a strictly-newer wire entry over the local row and marks
// it hot so the news keeps spreading. Callers hold d.mu.
func (d *Directory) adopt(local *entry, ge *proto.GossipEntry, now time.Time) {
	state := State(ge.State)
	if state > Dead {
		state = Dead
	}
	d.setStateLocked(local, state, now)
	local.incarnation = ge.Incarnation
	local.version = ge.Version
	if ge.Addr != "" {
		local.addr = ge.Addr
	}
	if ge.HasSummary {
		local.hasSummary = true
		local.summary = ge.Summary
		age := time.Duration(ge.Summary.AgeMillis) * time.Millisecond
		if age < 0 {
			age = 0
		}
		local.summaryAt = now.Add(-age)
	}
	local.heardAt = now
	d.markHotLocked(local)
	if d.cfg.Logger != nil && state != Alive {
		d.cfg.Logger.Info("membership state change", "site", local.site,
			"state", state.String(), "incarnation", local.incarnation)
	}
}

// refuteLocked handles a gossiped rumor about the local site. Callers hold
// d.mu.
func (d *Directory) refuteLocked(ge *proto.GossipEntry, now time.Time) {
	self := d.entries[d.cfg.Site]
	if State(ge.State) == Alive {
		// Direct contact (ObserveAlive, ObserveSummary) numbers the
		// observer's copy of us past our own. Catch up, or the next
		// summary we publish would lose to that copy and be dropped
		// wherever it is held: placement elsewhere reads our summaries.
		if newer(ge.Incarnation, ge.Version, ge.State, self.incarnation, self.version, uint8(self.state)) {
			self.incarnation, self.version = ge.Incarnation, ge.Version
		}
		return
	}
	if ge.Incarnation < self.incarnation {
		return
	}
	// Someone is spreading that we are suspect or dead at an incarnation
	// at least as new as ours: jump past it and re-announce.
	self.incarnation = ge.Incarnation + 1
	self.version++
	self.heardAt = now
	d.markHotLocked(self)
	d.cfg.Metrics.Counter(metrics.MemberRefutations).Inc()
	if d.cfg.Logger != nil {
		d.cfg.Logger.Info("membership refuting rumor about self",
			"rumor", State(ge.State).String(), "incarnation", self.incarnation)
	}
}

// AddSeed records a site the operator configured, before anything has
// been heard from it. The row is dialable at once (Sample and, once the
// sweep has given up on it, DeadProbeTargets return it), is never pruned,
// and stays off the wire until a contact or a rumor fills it in. A site
// the directory already knows keeps its state and becomes a seed at the
// operator's address.
func (d *Directory) AddSeed(site, addr string) {
	if site == "" || site == d.cfg.Site {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[site]
	if !ok {
		e = &entry{site: site, state: Alive, heardAt: d.cfg.Now()}
		d.entries[site] = e
		d.stateCount[Alive]++
		d.publishGaugesLocked()
	}
	e.seed = true
	if addr != "" {
		e.addr = addr
	}
}

// ObserveAlive records direct evidence that a site is up (a session or
// RPC to it just succeeded). A suspect or dead entry is revived past its
// current incarnation — direct contact outranks any rumor — and an unmet
// seed gets its first.
func (d *Directory) ObserveAlive(site, addr string) {
	if site == "" || site == d.cfg.Site {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	e, ok := d.entries[site]
	if !ok {
		e = &entry{site: site, state: Alive, incarnation: 1, heardAt: now, directAt: now}
		d.entries[site] = e
		d.stateCount[Alive]++
		if addr != "" {
			e.addr = addr
		}
		d.markHotLocked(e)
		d.publishGaugesLocked()
		return
	}
	if addr != "" {
		e.addr = addr
	}
	e.heardAt = now
	e.directAt = now
	if e.state != Alive || e.unmet() {
		e.incarnation++
		e.version = 0
		d.setStateLocked(e, Alive, now)
		d.markHotLocked(e)
		d.publishGaugesLocked()
	}
}

// ObserveSummary records a status summary obtained by talking to the site
// directly (connect-time status query, a pushed StatusReport). It implies
// ObserveAlive and bumps the entry's version so the fresher summary wins
// over older gossiped copies.
func (d *Directory) ObserveSummary(site, addr string, s proto.SiteStatus) {
	if site == "" || site == d.cfg.Site {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	e, ok := d.entries[site]
	if !ok {
		e = &entry{site: site, state: Alive, incarnation: 1}
		d.entries[site] = e
		d.stateCount[Alive]++
		d.publishGaugesLocked()
	}
	if addr != "" {
		e.addr = addr
	}
	if e.state != Alive || e.unmet() {
		e.incarnation++
		d.setStateLocked(e, Alive, now)
		d.publishGaugesLocked()
	}
	e.version++
	e.hasSummary = true
	e.summary = s
	e.summaryAt = now
	e.heardAt = now
	e.directAt = now
	d.markHotLocked(e)
}

// ObserveSuspect records direct evidence against a site (a dial or RPC to
// it just failed). An alive entry becomes suspect at its current
// incarnation; the site can refuteLocked by re-announcing at a higher one.
func (d *Directory) ObserveSuspect(site string) {
	if site == "" || site == d.cfg.Site {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[site]
	if !ok || e.state != Alive {
		return
	}
	e.version++
	d.setStateLocked(e, Suspect, d.cfg.Now())
	d.markHotLocked(e)
	d.publishGaugesLocked()
}

// ObserveDead records conclusive evidence a site is down (the tunnel held
// to it died unannounced). The entry goes straight to dead
// — preserving the old roster semantics where a dead peer drops out of
// the compiled global view immediately.
func (d *Directory) ObserveDead(site string) {
	if site == "" || site == d.cfg.Site {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[site]
	if !ok || e.state == Dead {
		return
	}
	e.version++
	d.setStateLocked(e, Dead, d.cfg.Now())
	d.markHotLocked(e)
	d.publishGaugesLocked()
}

// Sweep advances the time-driven half of the state machine: long-silent
// alive entries become suspect, unrefuted suspects become dead, and dead
// entries past retention are pruned — except seeds, which stay dead and
// probed. The proxy calls this once per gossip round.
func (d *Directory) Sweep() {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	// A degraded local proxy (failed probes raised its health score) is
	// the likeliest explanation for widespread silence; stretch the
	// timeouts rather than declare the grid dying (Lifeguard's local
	// health multiplier).
	mult := time.Duration(1 + d.health)
	suspectAfter := d.cfg.SuspectAfter * mult
	deadAfter := d.cfg.DeadAfter * mult
	changed := false
	for site, e := range d.entries {
		if site == d.cfg.Site {
			continue
		}
		switch e.state {
		case Alive:
			if now.Sub(e.heardAt) > suspectAfter {
				e.version++
				d.setStateLocked(e, Suspect, now)
				d.markHotLocked(e)
				changed = true
			}
		case Suspect:
			if now.Sub(e.suspectAt) > deadAfter {
				e.version++
				d.setStateLocked(e, Dead, now)
				d.markHotLocked(e)
				changed = true
			}
		case Dead:
			if !e.seed && now.Sub(e.deadAt) > d.cfg.DeadRetention {
				d.stateCount[Dead]--
				if i, hot := slices.BinarySearch(d.hot, site); hot {
					d.hot = slices.Delete(d.hot, i, i+1)
				}
				delete(d.entries, site)
				d.cfg.Metrics.Counter(metrics.MemberPrunes).Inc()
				changed = true
			}
		}
	}
	if changed {
		d.publishGaugesLocked()
	}
}

// newer reports whether (incA, verA, stateA) should replace
// (incB, verB, stateB): higher incarnation wins, then higher version,
// then the worse state.
func newer(incA, verA uint64, stateA uint8, incB, verB uint64, stateB uint8) bool {
	if incA != incB {
		return incA > incB
	}
	if verA != verB {
		return verA > verB
	}
	return stateA > stateB
}
