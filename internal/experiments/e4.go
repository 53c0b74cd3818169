package experiments

import (
	"context"
	"fmt"
	"time"

	"gridproxy/internal/core"
	"gridproxy/internal/metrics"
	"gridproxy/internal/site"
)

// e4Row is one (scheme, grid shape) control-traffic measurement.
type e4Row struct {
	Scheme       string // "site-compiled", "central-poll", or "site-cached"
	Sites        int
	NodesPerSite int
	// ControlMsgs and ControlBytes are the control-channel cost of one
	// full grid status refresh.
	ControlMsgs  int64
	ControlBytes int64
}

// e4Config parameterizes experiment E4.
type e4Config struct {
	// Shapes lists (sites, nodesPerSite) pairs to sweep.
	Shapes [][2]int
}

// e4 measures the inter-site control traffic of one full grid status read
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
func e4(cfg e4Config) (Table, error) {
	t := Table{
		Title:  "E4 — control traffic: site-compiled status vs per-node central polling vs the gossiped directory",
		Claim:  "distributed per-site collection reduces control communication (O(sites) vs O(nodes)); reading the gossiped directory costs zero control messages",
		Header: []string{"scheme", "sites", "nodes/site", "ctrl_msgs", "ctrl_bytes"},
	}
	var shapes [][3]e4Row
	for _, shape := range cfg.Shapes {
		sites, nodes := shape[0], shape[1]
		rows, err := runE4Shape(sites, nodes)
		if err != nil {
			return Table{}, fmt.Errorf("e4 %dx%d: %w", sites, nodes, err)
		}
		shapes = append(shapes, rows)
		for _, r := range rows {
			t.Rows = append(t.Rows, []string{
				r.Scheme, itoa(r.Sites), itoa(r.NodesPerSite), i64(r.ControlMsgs), i64(r.ControlBytes),
			})
		}
	}
	// Per shape: distributed, central, cached. Central polling is at
	// least one message per node; a warm cached read sends none.
	t.Bars = []Bar{
		check("rows", len(t.Rows), "==", 3*len(cfg.Shapes)),
		check("shapes where site-compiled msgs < central-poll msgs", count(shapes, func(s [3]e4Row) bool {
			return s[0].ControlMsgs < s[1].ControlMsgs
		}), "==", len(shapes)),
		check("shapes where central-poll msgs >= sites x nodes/site", count(shapes, func(s [3]e4Row) bool {
			return s[1].ControlMsgs >= int64(s[1].Sites*s[1].NodesPerSite)
		}), "==", len(shapes)),
		check("site-cached msgs, max", most(shapes, func(s [3]e4Row) int64 { return s[2].ControlMsgs }), "==", 0),
	}
	return t, nil
}

func runE4Shape(sitesCount, nodesPerSite int) ([3]e4Row, error) {
	reg := metrics.NewRegistry()
	tbCfg := site.TestbedConfig{
		GridName: "e4",
		Metrics:  reg,
		// Gossip off so no round's exchange lands inside a row's message
		// count (the summaries the cached row reads came with the
		// connects).
		Gossip: core.GossipConfig{Interval: -1},
	}
	for s := 0; s < sitesCount; s++ {
		tbCfg.Sites = append(tbCfg.Sites, site.SiteSpec{
			Name:  fmt.Sprintf("site%d", s),
			Nodes: site.UniformNodes(nodesPerSite, 1),
		})
	}
	tb, err := site.NewTestbed(tbCfg)
	if err != nil {
		return [3]e4Row{}, err
	}
	defer tb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := tb.ConnectAll(ctx); err != nil {
		return [3]e4Row{}, err
	}
	origin := tb.Sites[0].Proxy

	// Scheme 1: the paper's distributed collection. One status query per
	// remote site; each proxy compiles its own nodes locally (free on
	// the control channel). FreshStatus bypasses the gossiped directory
	// so the row measures the true per-request cost.
	reg.Reset()
	if _, err := origin.FreshStatus(ctx, nil); err != nil {
		return [3]e4Row{}, err
	}
	distributed := e4Row{
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
				return [3]e4Row{}, err
			}
		}
	}
	central := e4Row{
		Scheme:       "central-poll",
		Sites:        sitesCount,
		NodesPerSite: nodesPerSite,
		ControlMsgs:  reg.Counter(metrics.ControlMessages).Value(),
		ControlBytes: reg.Counter(metrics.ControlBytes).Value(),
	}

	// Scheme 3: the gossiped membership directory. The summaries arrived
	// with the connects (and the FreshStatus above); a read is answered
	// entirely from local state.
	reg.Reset()
	if _, err := origin.Status(ctx, nil); err != nil {
		return [3]e4Row{}, err
	}
	cached := e4Row{
		Scheme:       "site-cached",
		Sites:        sitesCount,
		NodesPerSite: nodesPerSite,
		ControlMsgs:  reg.Counter(metrics.ControlMessages).Value(),
		ControlBytes: reg.Counter(metrics.ControlBytes).Value(),
	}
	return [3]e4Row{distributed, central, cached}, nil
}
