package membership

import (
	"testing"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/proto"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newDir(site string, c *fakeClock) *Directory {
	return New(Config{Site: site, Addr: "wan." + site, Now: c.now})
}

func TestNewDirectoryHoldsSelf(t *testing.T) {
	c := newFakeClock()
	d := newDir("sitea", c)
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
	e, ok := d.Lookup("sitea")
	if !ok || e.State != Alive || e.Incarnation != 1 {
		t.Fatalf("self entry = %+v ok=%v, want alive inc=1", e, ok)
	}
	if push := d.HotPush(); len(push) != 1 || push[0].Site != "sitea" {
		t.Fatalf("HotPush = %+v, want the self entry", push)
	}
}

func TestMergeOrdering(t *testing.T) {
	c := newFakeClock()
	d := newDir("sitea", c)
	if n := d.Merge([]proto.GossipEntry{{Site: "siteb", Addr: "wan.siteb", Incarnation: 2, Version: 5}}); n != 1 {
		t.Fatalf("merge new entry = %d, want 1", n)
	}
	// Older incarnation loses.
	if n := d.Merge([]proto.GossipEntry{{Site: "siteb", Incarnation: 1, Version: 99}}); n != 0 {
		t.Fatalf("older incarnation merged (%d), want 0", n)
	}
	// Same incarnation, older version loses.
	if n := d.Merge([]proto.GossipEntry{{Site: "siteb", Incarnation: 2, Version: 4}}); n != 0 {
		t.Fatalf("older version merged (%d), want 0", n)
	}
	// Same (incarnation, version): worse state wins.
	if n := d.Merge([]proto.GossipEntry{{Site: "siteb", Incarnation: 2, Version: 5, State: uint8(Suspect)}}); n != 1 {
		t.Fatalf("worse state at equal version not merged, want 1")
	}
	e, _ := d.Lookup("siteb")
	if e.State != Suspect {
		t.Fatalf("state = %v, want suspect", e.State)
	}
	// Higher incarnation beats worse state: the site refuted.
	if n := d.Merge([]proto.GossipEntry{{Site: "siteb", Incarnation: 3, Version: 0}}); n != 1 {
		t.Fatalf("refutation not merged, want 1")
	}
	e, _ = d.Lookup("siteb")
	if e.State != Alive || e.Incarnation != 3 {
		t.Fatalf("after refutation = %+v, want alive inc=3", e)
	}
}

// TestDeadVerdictStickyAtIncarnation pins the stickyDead rule: a
// Suspect rumor at the same incarnation as a local Dead verdict is the
// demoted echo of death evidence this directory already acted on, and
// must not un-convict the entry even when its version is higher (every
// independent conviction bumps the version, every demotion re-gossips
// at that bumped version — without stickiness a grid of staggered
// convictions oscillates Dead↔Suspect forever). A refutation or a
// vouch raises the incarnation and must still get through.
func TestDeadVerdictStickyAtIncarnation(t *testing.T) {
	c := newFakeClock()
	d := newDir("obs", c)
	// Unknown site + Dead rumor: adopted verbatim (first contact).
	d.Merge([]proto.GossipEntry{{Site: "victim", Addr: "wan.victim",
		State: uint8(Dead), Incarnation: 1, Version: 2}})
	if e, _ := d.Lookup("victim"); e.State != Dead {
		t.Fatalf("setup: state = %v, want dead", e.State)
	}
	// Higher-version Suspect at the SAME incarnation: ignored, both via
	// gossip delta and via anti-entropy digest.
	if n := d.Merge([]proto.GossipEntry{{Site: "victim",
		State: uint8(Suspect), Incarnation: 1, Version: 7}}); n != 0 {
		t.Fatalf("demoted echo merged (%d), want 0", n)
	}
	if n := d.ObserveDigest([]proto.GossipDigestItem{{Site: "victim",
		State: uint8(Suspect), Incarnation: 1, Version: 7}}); n != 0 {
		t.Fatalf("demoted echo observed via digest (%d), want 0", n)
	}
	if e, _ := d.Lookup("victim"); e.State != Dead || e.Version != 2 {
		t.Fatalf("after echoes = %+v, want dead (1,2)", e)
	}
	// A Suspect at a HIGHER incarnation is fresh news (somebody vouched
	// or the victim refuted, then went quiet again): adopted.
	if n := d.Merge([]proto.GossipEntry{{Site: "victim",
		State: uint8(Suspect), Incarnation: 2, Version: 0}}); n != 1 {
		t.Fatalf("higher-incarnation suspicion not merged, want 1")
	}
	if e, _ := d.Lookup("victim"); e.State != Suspect || e.Incarnation != 2 {
		t.Fatalf("after fresh suspicion = %+v, want suspect inc=2", e)
	}
	// And a refutation revives outright.
	if n := d.Merge([]proto.GossipEntry{{Site: "victim",
		State: uint8(Alive), Incarnation: 3, Version: 0}}); n != 1 {
		t.Fatalf("refutation not merged, want 1")
	}
	if e, _ := d.Lookup("victim"); e.State != Alive || e.Incarnation != 3 {
		t.Fatalf("after refutation = %+v, want alive inc=3", e)
	}
}

func TestRefuteRumorAboutSelf(t *testing.T) {
	c := newFakeClock()
	d := newDir("sitea", c)
	d.Merge([]proto.GossipEntry{{Site: "sitea", Incarnation: 1, State: uint8(Suspect)}})
	e, _ := d.Lookup("sitea")
	if e.State != Alive {
		t.Fatalf("self state = %v after rumor, want alive", e.State)
	}
	if e.Incarnation != 2 {
		t.Fatalf("self incarnation = %d, want 2 (rumor inc+1)", e.Incarnation)
	}
	// The refutation must be hot so it spreads.
	found := false
	for _, ge := range d.HotPush() {
		if ge.Site == "sitea" && ge.Incarnation == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("refutation not in hot push")
	}
}

func TestSuspicionSweepLifecycle(t *testing.T) {
	c := newFakeClock()
	d := New(Config{
		Site: "sitea", Addr: "wan.sitea", Now: c.now,
		SuspectAfter: 10 * time.Second, DeadAfter: 10 * time.Second,
		DeadRetention: 30 * time.Second,
	})
	d.ObserveAlive("siteb", "wan.siteb")
	c.advance(11 * time.Second)
	d.Sweep()
	if e, _ := d.Lookup("siteb"); e.State != Suspect {
		t.Fatalf("after silence: state = %v, want suspect", e.State)
	}
	c.advance(11 * time.Second)
	d.Sweep()
	if e, _ := d.Lookup("siteb"); e.State != Dead {
		t.Fatalf("after grace: state = %v, want dead", e.State)
	}
	c.advance(31 * time.Second)
	d.Sweep()
	if _, ok := d.Lookup("siteb"); ok {
		t.Fatal("dead entry survived retention, want pruned")
	}
}

func TestObserveAliveRevives(t *testing.T) {
	c := newFakeClock()
	d := newDir("sitea", c)
	d.Merge([]proto.GossipEntry{{Site: "siteb", Addr: "wan.siteb", Incarnation: 4, State: uint8(Dead)}})
	d.ObserveAlive("siteb", "wan.siteb")
	e, _ := d.Lookup("siteb")
	if e.State != Alive {
		t.Fatalf("state = %v after direct contact, want alive", e.State)
	}
	if e.Incarnation <= 4 {
		t.Fatalf("incarnation = %d, want > 4 so the revival outranks the death rumor", e.Incarnation)
	}
}

func TestObserveSummaryStampsAge(t *testing.T) {
	c := newFakeClock()
	d := newDir("sitea", c)
	d.ObserveSummary("siteb", "wan.siteb", proto.SiteStatus{Site: "siteb", Nodes: 4})
	c.advance(7 * time.Second)
	e, _ := d.Lookup("siteb")
	if !e.HasSummary || e.Summary.Nodes != 4 {
		t.Fatalf("summary not held: %+v", e)
	}
	if e.SummaryAge != 7*time.Second {
		t.Fatalf("SummaryAge = %v, want 7s", e.SummaryAge)
	}
}

func TestSummaryAgeSurvivesGossipHop(t *testing.T) {
	c := newFakeClock()
	a := newDir("sitea", c)
	b := newDir("siteb", c)
	a.ObserveSummary("sitec", "wan.sitec", proto.SiteStatus{Site: "sitec", Nodes: 2})
	c.advance(5 * time.Second)
	// a pushes to b; the wire entry stamps the 5s age.
	b.Merge(a.DeltaFor(nil))
	c.advance(3 * time.Second)
	e, ok := b.Lookup("sitec")
	if !ok || !e.HasSummary {
		t.Fatalf("sitec not learned: %+v ok=%v", e, ok)
	}
	if e.SummaryAge != 8*time.Second {
		t.Fatalf("SummaryAge after hop = %v, want 8s (5 before + 3 after)", e.SummaryAge)
	}
}

func TestDeltaForAnswersOnlyNewer(t *testing.T) {
	c := newFakeClock()
	a := newDir("sitea", c)
	b := newDir("siteb", c)
	a.Merge([]proto.GossipEntry{{Site: "sitec", Addr: "wan.sitec", Incarnation: 2, Version: 3}})
	b.Merge([]proto.GossipEntry{{Site: "sitec", Addr: "wan.sitec", Incarnation: 2, Version: 3}})
	delta := a.DeltaFor(b.Digest())
	for _, ge := range delta {
		if ge.Site == "sitec" {
			t.Fatal("delta includes an entry the digest already knows at equal version")
		}
		if ge.Site == "siteb" {
			t.Fatal("delta repeats the digest sender's own entry")
		}
	}
	// b learns something newer; now a's delta must exclude it and b's must include it.
	b.Merge([]proto.GossipEntry{{Site: "sitec", Incarnation: 3}})
	found := false
	for _, ge := range b.DeltaFor(a.Digest()) {
		if ge.Site == "sitec" && ge.Incarnation == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("delta omits an entry known newer than the digest")
	}
}

func TestBootstrapPullLearnsWholeGrid(t *testing.T) {
	c := newFakeClock()
	boot := newDir("sitea", c)
	for _, ge := range []proto.GossipEntry{
		{Site: "siteb", Addr: "wan.siteb", Incarnation: 1},
		{Site: "sitec", Addr: "wan.sitec", Incarnation: 1},
		{Site: "sited", Addr: "wan.sited", Incarnation: 1},
	} {
		boot.Merge([]proto.GossipEntry{ge})
	}
	fresh := newDir("sitez", c)
	// One push-pull round against the bootstrap peer: fresh sends its
	// digest, merges the delta; boot merges fresh's hot push.
	boot.Merge(fresh.HotPush())
	fresh.Merge(boot.DeltaFor(fresh.Digest()))
	if fresh.Len() != 5 {
		t.Fatalf("after one anti-entropy round Len = %d, want 5", fresh.Len())
	}
	if _, ok := boot.Lookup("sitez"); !ok {
		t.Fatal("bootstrap peer did not learn the new site")
	}
}

func TestHotPushBudgetExhausts(t *testing.T) {
	c := newFakeClock()
	d := newDir("sitea", c)
	d.Merge([]proto.GossipEntry{{Site: "siteb", Addr: "wan.siteb", Incarnation: 1}})
	seen := 0
	for i := 0; i < 100; i++ {
		if len(d.HotPush()) == 0 {
			break
		}
		seen++
	}
	if seen == 0 || seen == 100 {
		t.Fatalf("hot budget never exhausted or never pushed (rounds=%d)", seen)
	}
}

func TestSampleExcludesSelfAndDead(t *testing.T) {
	c := newFakeClock()
	d := newDir("sitea", c)
	d.Merge([]proto.GossipEntry{
		{Site: "siteb", Addr: "wan.siteb", Incarnation: 1},
		{Site: "sitec", Addr: "wan.sitec", Incarnation: 1, State: uint8(Dead)},
		{Site: "sited", Addr: "wan.sited", Incarnation: 1, State: uint8(Suspect)},
	})
	for i := 0; i < 20; i++ {
		for _, e := range d.Sample(10) {
			if e.Site == "sitea" {
				t.Fatal("sample returned self")
			}
			if e.State == Dead {
				t.Fatal("sample returned a dead site")
			}
		}
	}
	// Suspects stay in the pool so they can refute.
	foundSuspect := false
	for i := 0; i < 50 && !foundSuspect; i++ {
		for _, e := range d.Sample(1) {
			if e.Site == "sited" {
				foundSuspect = true
			}
		}
	}
	if !foundSuspect {
		t.Fatal("suspect site never sampled")
	}
}

func TestMetricsGauges(t *testing.T) {
	c := newFakeClock()
	reg := metrics.NewRegistry()
	d := New(Config{Site: "sitea", Addr: "wan.sitea", Now: c.now, Metrics: reg})
	d.ObserveAlive("siteb", "wan.siteb")
	d.ObserveAlive("sitec", "wan.sitec")
	d.ObserveSuspect("siteb")
	d.ObserveDead("sitec")
	snap := reg.Snapshot()
	if snap[metrics.MembersAlive] != 1 || snap[metrics.MembersSuspect] != 1 || snap[metrics.MembersDead] != 1 {
		t.Fatalf("gauges = alive:%d suspect:%d dead:%d, want 1/1/1",
			snap[metrics.MembersAlive], snap[metrics.MembersSuspect], snap[metrics.MembersDead])
	}
	if snap[metrics.MemberSuspicions] != 1 || snap[metrics.MemberDeaths] != 1 {
		t.Fatalf("counters = suspicions:%d deaths:%d, want 1/1",
			snap[metrics.MemberSuspicions], snap[metrics.MemberDeaths])
	}
}

func TestWantAntiEntropyAlwaysOnTinyDirectory(t *testing.T) {
	c := newFakeClock()
	d := newDir("sitea", c)
	if !d.WantAntiEntropy() {
		t.Fatal("singleton directory must always want anti-entropy (bootstrap pull)")
	}
}

// TestSeedNeverPrunedNeverVouchedFor covers the seed rule. A configured
// address is dialable at once; while nothing has been heard from the site
// it stays off the wire (no alive rumor on the strength of a config
// line); it walks alive → suspect → dead on silence like anyone else but
// is never pruned, so it is a resurrection-probe target for as long as
// the proxy runs — while a gossiped site that died beside it is
// forgotten after DeadRetention as before. First contact gives the seed
// its first incarnation and makes it hot.
func TestSeedNeverPrunedNeverVouchedFor(t *testing.T) {
	c := newFakeClock()
	d := New(Config{
		Site: "sitea", Addr: "wan.sitea", Now: c.now,
		SuspectAfter: 10 * time.Second, DeadAfter: 10 * time.Second,
		DeadRetention: 30 * time.Second,
	})
	d.HotPush() // drain the self announcement
	d.AddSeed("seed", "wan.seed")
	d.Merge([]proto.GossipEntry{{Site: "rumor", Addr: "wan.rumor", Incarnation: 1}})

	if e, ok := d.Lookup("seed"); !ok || e.Addr != "wan.seed" || e.State != Alive {
		t.Fatalf("seed entry = %+v ok=%v, want listed with its address", e, ok)
	}
	sampled := false
	for _, e := range d.Sample(8) {
		sampled = sampled || e.Site == "seed"
	}
	if !sampled {
		t.Fatal("seed is not a gossip target before first contact")
	}
	onWire := func() bool {
		for _, ge := range d.HotPush() {
			if ge.Site == "seed" {
				return true
			}
		}
		for _, item := range d.Digest() {
			if item.Site == "seed" {
				return true
			}
		}
		for _, ge := range d.DeltaFor(nil) {
			if ge.Site == "seed" {
				return true
			}
		}
		return false
	}
	if onWire() {
		t.Fatal("an unmet seed spread as a rumor")
	}

	// Silence: suspect, dead, and — past retention — still there.
	for _, want := range []State{Suspect, Dead} {
		c.advance(11 * time.Second)
		d.Sweep()
		if e, _ := d.Lookup("seed"); e.State != want {
			t.Fatalf("seed state = %v, want %v", e.State, want)
		}
		if onWire() {
			t.Fatalf("an unmet seed spread as a %v rumor", want)
		}
	}
	c.advance(10 * time.Minute)
	d.Sweep()
	if _, ok := d.Lookup("rumor"); ok {
		t.Fatal("gossiped dead site survived retention, want pruned")
	}
	if e, ok := d.Lookup("seed"); !ok || e.State != Dead || e.Addr != "wan.seed" {
		t.Fatalf("dead seed after retention = %+v ok=%v, want kept", e, ok)
	}
	if targets := d.DeadProbeTargets(4); len(targets) != 1 || targets[0].Site != "seed" {
		t.Fatalf("DeadProbeTargets = %+v, want the seed", targets)
	}

	// First contact: a real row, and news.
	d.ObserveAlive("seed", "wan.seed")
	if e, _ := d.Lookup("seed"); e.State != Alive || e.Incarnation != 1 {
		t.Fatalf("seed after first contact = %+v, want alive at incarnation 1", e)
	}
	if !onWire() {
		t.Fatal("a contacted seed is not gossiped")
	}
}

// TestSeedOnKnownSite: configuring a site gossip already brought keeps
// what is known about it and only makes it unprunable.
func TestSeedOnKnownSite(t *testing.T) {
	c := newFakeClock()
	d := New(Config{Site: "sitea", Addr: "wan.sitea", Now: c.now,
		SuspectAfter: 10 * time.Second, DeadAfter: 10 * time.Second, DeadRetention: 30 * time.Second})
	d.Merge([]proto.GossipEntry{{Site: "siteb", Addr: "wan.old", Incarnation: 3, Version: 2}})
	d.AddSeed("siteb", "wan.siteb")
	e, _ := d.Lookup("siteb")
	if e.Incarnation != 3 || e.Version != 2 || e.Addr != "wan.siteb" {
		t.Fatalf("entry after AddSeed = %+v, want (3,2) kept at the configured address", e)
	}
	c.advance(11 * time.Second)
	d.Sweep()
	c.advance(11 * time.Second)
	d.Sweep()
	c.advance(time.Hour)
	d.Sweep()
	if e, ok := d.Lookup("siteb"); !ok || e.State != Dead {
		t.Fatalf("seeded site after retention = %+v ok=%v, want kept dead", e, ok)
	}
}
