package experiments

import (
	"context"
	"fmt"
	"time"

	"gridproxy/internal/core"
	"gridproxy/internal/metrics"
	"gridproxy/internal/peerlink"
	"gridproxy/internal/site"
)

// E4Row is one (scheme, grid shape) control-traffic measurement.
type E4Row struct {
	Scheme       string // "site-compiled", "central-poll", or "site-cached"
	Sites        int
	NodesPerSite int
	// ControlMsgs and ControlBytes are the control-channel cost of one
	// full grid status refresh.
	ControlMsgs  int64
	ControlBytes int64
}

// E4Config parameterizes experiment E4.
type E4Config struct {
	// Shapes lists (sites, nodesPerSite) pairs to sweep.
	Shapes [][2]int
}

// DefaultE4 returns the parameters used in EXPERIMENTS.md.
func DefaultE4() E4Config {
	return E4Config{Shapes: [][2]int{{2, 4}, {4, 8}, {4, 16}, {8, 16}}}
}

// E4 measures the inter-site control traffic of one full grid status read
// under three schemes, all over the same proxies and tunnels:
//
//   - "site-compiled": the paper's distributed collection ("each proxy
//     responsible for the collection and control of the site where it is
//     located … the global status is obtained by compilation of all the
//     sites' data") — one control round trip per remote site;
//   - "central-poll": a centralized monitor that polls every node
//     individually — one round trip per remote node;
//   - "site-cached": the proxy's gossiped global view — a read costs
//     zero control messages; the summaries arrived with the connects and
//     keep arriving with gossip, whoever reads.
func E4(cfg E4Config) ([]E4Row, error) {
	var rows []E4Row
	for _, shape := range cfg.Shapes {
		sites, nodes := shape[0], shape[1]
		pair, err := runE4Shape(sites, nodes)
		if err != nil {
			return nil, fmt.Errorf("e4 %dx%d: %w", sites, nodes, err)
		}
		rows = append(rows, pair...)
	}
	return rows, nil
}

func runE4Shape(sitesCount, nodesPerSite int) ([]E4Row, error) {
	reg := metrics.NewRegistry()
	tbCfg := site.TestbedConfig{
		GridName: "e4",
		Metrics:  reg,
		// A long StatusTTL so the "site-cached" row's reads count as
		// cache hits; gossip off so no round's exchange lands inside a
		// row's message count (the summaries the cached row reads came
		// with the connects).
		Lifecycle: peerlink.Config{StatusTTL: time.Hour},
		Gossip:    core.GossipConfig{Interval: -1},
	}
	for s := 0; s < sitesCount; s++ {
		tbCfg.Sites = append(tbCfg.Sites, site.SiteSpec{
			Name:  fmt.Sprintf("site%d", s),
			Nodes: site.UniformNodes(nodesPerSite, 1),
		})
	}
	tb, err := site.NewTestbed(tbCfg)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := tb.ConnectAll(ctx); err != nil {
		return nil, err
	}
	origin := tb.Sites[0].Proxy

	// Scheme 1: the paper's distributed collection. One status query per
	// remote site; each proxy compiles its own nodes locally (free on
	// the control channel). FreshStatus defeats the TTL cache so the row
	// measures the true per-request cost.
	reg.Reset()
	if _, err := origin.FreshStatus(ctx, nil); err != nil {
		return nil, err
	}
	distributed := E4Row{
		Scheme:       "site-compiled",
		Sites:        sitesCount,
		NodesPerSite: nodesPerSite,
		ControlMsgs:  reg.Counter(metrics.ControlMessages).Value(),
		ControlBytes: reg.Counter(metrics.ControlBytes).Value(),
	}

	// Scheme 2: centralized polling. The monitor contacts every remote
	// node individually (emulated as one control round trip per node
	// through the same channels).
	reg.Reset()
	for _, s := range tb.Sites[1:] {
		for range s.Nodes {
			if err := origin.PingPeer(ctx, s.Name); err != nil {
				return nil, err
			}
		}
	}
	central := E4Row{
		Scheme:       "central-poll",
		Sites:        sitesCount,
		NodesPerSite: nodesPerSite,
		ControlMsgs:  reg.Counter(metrics.ControlMessages).Value(),
		ControlBytes: reg.Counter(metrics.ControlBytes).Value(),
	}

	// Scheme 3: the TTL-cached global view. The FreshStatus call above
	// warmed the cache; a read inside the TTL is answered entirely from
	// local state.
	reg.Reset()
	if _, err := origin.Status(ctx, nil); err != nil {
		return nil, err
	}
	cached := E4Row{
		Scheme:       "site-cached",
		Sites:        sitesCount,
		NodesPerSite: nodesPerSite,
		ControlMsgs:  reg.Counter(metrics.ControlMessages).Value(),
		ControlBytes: reg.Counter(metrics.ControlBytes).Value(),
	}
	return []E4Row{distributed, central, cached}, nil
}

// E4Table renders E4 rows.
func E4Table(rows []E4Row) Table {
	t := Table{
		Title:  "E4 — control traffic: site-compiled status vs per-node central polling vs TTL cache",
		Claim:  "distributed per-site collection reduces control communication (O(sites) vs O(nodes)); TTL caching drops a warm read to zero",
		Header: []string{"scheme", "sites", "nodes/site", "ctrl_msgs", "ctrl_bytes"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Scheme, itoa(r.Sites), itoa(r.NodesPerSite), i64(r.ControlMsgs), i64(r.ControlBytes),
		})
	}
	return t
}
