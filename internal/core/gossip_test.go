package core_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gridproxy/internal/core"
	"gridproxy/internal/membership"
	"gridproxy/internal/metrics"
	"gridproxy/internal/peerlink"
	"gridproxy/internal/site"
)

// TestSingleBootstrapLearnsGrid is the acceptance scenario for the
// membership split: N sites come up knowing ONE bootstrap peer each — no
// ConnectAll, no all-pairs mesh — and every proxy must still converge on
// the full N-site directory and answer a global Status from gossiped
// summaries alone. The tunnel cache is capped far below N-1 to prove the
// directory is not riding on connectivity.
func TestSingleBootstrapLearnsGrid(t *testing.T) {
	const n = 8
	reg := metrics.NewRegistry()
	cfg := site.TestbedConfig{
		GridName: "bootstrap",
		Gossip: core.GossipConfig{
			Interval:     20 * time.Millisecond,
			SummaryEvery: 50 * time.Millisecond,
		},
		PeerCache: peerlink.CacheConfig{MaxTunnels: 3},
		Metrics:   reg,
	}
	for i := 0; i < n; i++ {
		cfg.Sites = append(cfg.Sites, site.SiteSpec{
			Name:  fmt.Sprintf("site%d", i),
			Nodes: site.UniformNodes(1, 1),
		})
	}
	tb, err := site.NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Star bootstrap: every site dials only site0.
	for i := 1; i < n; i++ {
		if err := tb.Sites[i].Proxy.Connect(ctx, tb.Sites[0].Name, tb.Sites[0].Proxy.WANAddr()); err != nil {
			t.Fatal(err)
		}
	}

	// Every proxy — leaves included — learns all n sites, alive with
	// summaries, purely through gossip.
	for _, s := range tb.Sites {
		p := s.Proxy
		waitFor(t, 30*time.Second, func() bool {
			alive := 0
			for _, m := range p.Members() {
				if m.State == membership.Alive && m.HasSummary {
					alive++
				}
			}
			return alive == n
		})
	}

	// A leaf answers a global status query from its directory: all n
	// sites, correct node counts, no cross-site RPC on the Status path.
	leaf := tb.Sites[n-1].Proxy
	sums, err := leaf.Status(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != n {
		t.Fatalf("leaf status covers %d sites, want %d", len(sums), n)
	}
	seen := make(map[string]bool, n)
	for _, sm := range sums {
		seen[sm.Site] = true
		if sm.Nodes != 1 {
			t.Fatalf("site %s reports %d nodes, want 1", sm.Site, sm.Nodes)
		}
	}
	for _, s := range tb.Sites {
		if !seen[s.Name] {
			t.Fatalf("leaf status is missing site %s", s.Name)
		}
	}

	// Partial mesh: the directory spans n sites while the leaf holds far
	// fewer tunnels than the n-1 an all-pairs mesh would need (at most
	// MaxTunnels, plus whatever is checked out this instant).
	if got := len(leaf.Peers()); got >= n-1 {
		t.Fatalf("leaf holds %d tunnels — that is an all-pairs mesh, want < %d", got, n-1)
	}

	// FreshStatus still reaches every site directly, dialing on demand
	// through the directory (site addresses learned by gossip, not
	// operator config).
	fresh, err := leaf.FreshStatus(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != n {
		t.Fatalf("leaf fresh status covers %d sites, want %d", len(fresh), n)
	}
}
