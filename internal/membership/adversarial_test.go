package membership

import (
	"math/rand"
	"testing"
	"time"

	"gridproxy/internal/proto"
)

// TestAdversarialDeliveryConverges feeds one directory a multiset of
// rumors under adversarial delivery — shuffled, split into arbitrary
// chunks, every rumor delivered once as a full gossip entry (Merge) and
// once more as either a full entry or a bare anti-entropy digest item
// (observeDigest) — across many seeded permutations. A digest item
// carries no address or summary, so rows come only from full entries: a
// digest alone never creates one. Whatever the order, the directory must
// converge on the maximal (incarnation, version) tuple per site, with one
// designed exception: a Dead rumor may land as Dead (first contact) or as
// demoted Suspect (known site, see demoteLocked), and the local sweep
// clock resolves that to Dead.
func TestAdversarialDeliveryConverges(t *testing.T) {
	type rumor struct {
		site     string
		state    State
		inc, ver uint64
		digest   bool
	}
	// Per-site histories. The winning tuple of each is unambiguous:
	//   sitea: suspected, refuted, then progressed → Alive (2,4)
	//   siteb: suspicion is the freshest news      → Suspect (1,5)
	//   sitec: refutation is the freshest news     → Alive (2,0)
	//   sited: a death verdict at (1,6)            → Suspect or Dead
	history := []rumor{
		{"sitea", Alive, 1, 1, false}, {"sitea", Alive, 1, 3, false}, {"sitea", Alive, 1, 2, false},
		{"sitea", Suspect, 1, 3, false}, {"sitea", Alive, 2, 0, false}, {"sitea", Alive, 2, 4, false},
		{"siteb", Alive, 1, 1, false}, {"siteb", Suspect, 1, 5, false},
		{"sitec", Alive, 1, 2, false}, {"sitec", Suspect, 1, 4, false}, {"sitec", Alive, 2, 0, false},
		{"sited", Alive, 1, 1, false}, {"sited", Dead, 1, 6, false},
	}

	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newFakeClock()
		d := newDir("obs", c)

		// Every rumor once in full, and a duplicate in either form:
		// redundant delivery must be harmless.
		shuffled := append([]rumor(nil), history...)
		for _, r := range history {
			r.digest = rng.Intn(2) == 0
			shuffled = append(shuffled, r)
		}
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		full := map[string]bool{"obs": true}
		for len(shuffled) > 0 {
			n := 1 + rng.Intn(4)
			if n > len(shuffled) {
				n = len(shuffled)
			}
			chunk := shuffled[:n]
			shuffled = shuffled[n:]
			var ges []proto.GossipEntry
			var items []proto.GossipDigestItem
			for _, r := range chunk {
				if r.digest {
					items = append(items, proto.GossipDigestItem{Site: r.site,
						State: uint8(r.state), Incarnation: r.inc, Version: r.ver})
				} else {
					ges = append(ges, proto.GossipEntry{Site: r.site, Addr: "wan." + r.site,
						State: uint8(r.state), Incarnation: r.inc, Version: r.ver})
					full[r.site] = true
				}
			}
			if rng.Intn(2) == 0 {
				d.Merge(ges)
				d.observeDigest(items)
			} else {
				d.observeDigest(items)
				d.Merge(ges)
			}
			for _, e := range d.Entries() {
				if !full[e.Site] {
					t.Fatalf("seed %d: a digest alone created a row for %s", seed, e.Site)
				}
			}
			c.advance(time.Second)
		}

		check := func(site string, state State, inc, ver uint64) {
			t.Helper()
			e, ok := d.Lookup(site)
			if !ok {
				t.Fatalf("seed %d: %s never learned", seed, site)
			}
			if e.State != state || e.Incarnation != inc || e.Version != ver {
				t.Fatalf("seed %d: %s = (%v,%d,%d), want (%v,%d,%d)",
					seed, site, e.State, e.Incarnation, e.Version, state, inc, ver)
			}
		}
		check("sitea", Alive, 2, 4)
		check("siteb", Suspect, 1, 5)
		check("sitec", Alive, 2, 0)

		ed, ok := d.Lookup("sited")
		if !ok || ed.Incarnation != 1 || ed.Version != 6 {
			t.Fatalf("seed %d: sited = %+v ok=%v, want tuple (1,6)", seed, ed, ok)
		}
		if ed.State != Suspect && ed.State != Dead {
			t.Fatalf("seed %d: sited state = %v, want Suspect (demoted) or Dead (adopted)", seed, ed.State)
		}
		// The demotion's local clock must still convict: past DeadAfter
		// (stretched by the worst-case health score) the sweep turns the
		// softened verdict back into Dead in every ordering. An ordering
		// that adopted the verdict outright may already have pruned the
		// entry past DeadRetention — convicted and retired also passes.
		c.advance(10 * time.Minute)
		d.Sweep()
		if e, ok := d.Lookup("sited"); ok && e.State != Dead {
			t.Fatalf("seed %d: sited = %v after sweep, want Dead or pruned", seed, e.State)
		}
	}
}

// TestDigestCreatesNoRow: a digest naming a site the directory has never
// heard of leaves it unknown, so the site's full entry at the same tuple
// is then held whole, with its address and summary.
func TestDigestCreatesNoRow(t *testing.T) {
	c := newFakeClock()
	d := newDir("obs", c)
	d.observeDigest([]proto.GossipDigestItem{{Site: "sitex", State: uint8(Alive), Incarnation: 1, Version: 3}})
	if _, ok := d.Lookup("sitex"); ok {
		t.Fatal("a digest item created a row")
	}
	d.Merge([]proto.GossipEntry{{Site: "sitex", Addr: "wan.sitex", State: uint8(Alive),
		Incarnation: 1, Version: 3, HasSummary: true, Summary: proto.SiteStatus{Site: "sitex", Nodes: 4}}})
	e, ok := d.Lookup("sitex")
	if !ok || e.Addr != "wan.sitex" || !e.HasSummary || e.Summary.Nodes != 4 {
		t.Fatalf("full entry after the digest = %+v ok=%v, want address and summary", e, ok)
	}
}

// TestDigestLeavesSummaryToEntry: a known alive site's newer alive tuple
// in a digest (its summary republished) does not stop the full entry at
// that tuple from landing its summary.
func TestDigestLeavesSummaryToEntry(t *testing.T) {
	c := newFakeClock()
	d := newDir("obs", c)
	entry := func(ver uint64, nodes uint32) proto.GossipEntry {
		return proto.GossipEntry{Site: "sitex", Addr: "wan.sitex", State: uint8(Alive), Incarnation: 1,
			Version: ver, HasSummary: true, Summary: proto.SiteStatus{Site: "sitex", Nodes: nodes}}
	}
	d.Merge([]proto.GossipEntry{entry(1, 4)})
	d.observeDigest([]proto.GossipDigestItem{{Site: "sitex", State: uint8(Alive), Incarnation: 1, Version: 2}})
	d.Merge([]proto.GossipEntry{entry(2, 9)})
	if e, _ := d.Lookup("sitex"); e.Version != 2 || e.Summary.Nodes != 9 {
		t.Fatalf("after digest then entry: version %d, nodes %d; want version 2, nodes 9", e.Version, e.Summary.Nodes)
	}
}
