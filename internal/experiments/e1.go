package experiments

import (
	"context"
	"fmt"
	"time"

	"gridproxy/internal/core"
	"gridproxy/internal/metrics"
	"gridproxy/internal/mpi"
	"gridproxy/internal/mpirun"
	"gridproxy/internal/node"
	"gridproxy/internal/site"
	"gridproxy/internal/transport"
)

// E1Row is one (mode, message size) measurement of MPI ping-pong through
// the architecture.
type E1Row struct {
	Mode          string // "local" (Fig 3a) or "proxy" (Fig 3b)
	MsgBytes      int
	Rounds        int
	RTT           time.Duration // mean round trip
	ThroughputMBs float64
	TunnelBytes   int64 // bytes that crossed the encrypted tunnel
}

// E1Config parameterizes experiment E1.
type E1Config struct {
	// MsgSizes are the ping-pong payload sizes.
	MsgSizes []int
	// Rounds per size.
	Rounds int
	// WAN shapes the inter-site link for the proxy mode (zero =
	// unshaped).
	WAN transport.LinkParams
}

// DefaultE1 returns the parameters used in EXPERIMENTS.md.
func DefaultE1() E1Config {
	return E1Config{
		MsgSizes: []int{1 << 10, 16 << 10, 64 << 10},
		Rounds:   50,
	}
}

// E1 measures MPI ping-pong between two ranks placed (a) on two nodes of
// one site (Figure 3a: direct local communication, no proxy involvement)
// and (b) on nodes of two different sites (Figure 3b: traffic multiplexed
// by the proxies through the TLS tunnel). The reproduction criterion: the
// proxy path carries identical payloads (correctness) at a modest latency
// premium, and ONLY the proxy path shows tunnel bytes.
func E1(cfg E1Config) ([]E1Row, error) {
	var rows []E1Row
	for _, mode := range []string{"local", "proxy"} {
		for _, size := range cfg.MsgSizes {
			row, err := runE1Case(mode, size, cfg)
			if err != nil {
				return nil, fmt.Errorf("e1 %s/%d: %w", mode, size, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runE1Case(mode string, msgBytes int, cfg E1Config) (E1Row, error) {
	reg := metrics.NewRegistry()
	tbCfg := site.TestbedConfig{GridName: "e1", Metrics: reg}
	switch mode {
	case "local":
		tbCfg.Sites = []site.SiteSpec{{Name: "sitea", Nodes: site.UniformNodes(2, 1)}}
	case "proxy":
		tbCfg.Sites = []site.SiteSpec{
			{Name: "sitea", Nodes: site.UniformNodes(1, 1)},
			{Name: "siteb", Nodes: site.UniformNodes(1, 1)},
		}
		tbCfg.WAN = cfg.WAN
	default:
		return E1Row{}, fmt.Errorf("unknown mode %q", mode)
	}
	tb, err := site.NewTestbed(tbCfg)
	if err != nil {
		return E1Row{}, err
	}
	defer tb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := tb.ConnectAll(ctx); err != nil {
		return E1Row{}, err
	}

	rttCh := make(chan time.Duration, 1)
	tb.RegisterProgram("pingpong", mpirun.Program(
		func(ctx context.Context, w *mpi.World, env node.Env) error {
			payload := make([]byte, msgBytes)
			for i := range payload {
				payload[i] = byte(i)
			}
			// Warm up the connection path before timing.
			if err := w.Barrier(ctx); err != nil {
				return err
			}
			if w.Rank() == 0 {
				start := time.Now()
				for i := 0; i < cfg.Rounds; i++ {
					if err := w.Send(ctx, 1, i, payload); err != nil {
						return err
					}
					m, err := w.Recv(ctx, 1, i)
					if err != nil {
						return err
					}
					if len(m.Data) != msgBytes {
						return fmt.Errorf("echo truncated: %d of %d", len(m.Data), msgBytes)
					}
				}
				rttCh <- time.Since(start) / time.Duration(cfg.Rounds)
				return nil
			}
			for i := 0; i < cfg.Rounds; i++ {
				m, err := w.Recv(ctx, 0, i)
				if err != nil {
					return err
				}
				if err := w.Send(ctx, 0, i, m.Data); err != nil {
					return err
				}
			}
			return nil
		}))

	if err := mpirun.Run(ctx, tb.Sites[0].Proxy, core.LaunchSpec{
		Owner:   "admin",
		Program: "pingpong",
		Procs:   2,
	}); err != nil {
		return E1Row{}, err
	}
	rtt := <-rttCh
	bytesPerRound := float64(2 * msgBytes) // there and back
	throughput := bytesPerRound / rtt.Seconds() / (1 << 20)
	return E1Row{
		Mode:          mode,
		MsgBytes:      msgBytes,
		Rounds:        cfg.Rounds,
		RTT:           rtt,
		ThroughputMBs: throughput,
		TunnelBytes:   reg.Counter(metrics.BytesTunneled).Value(),
	}, nil
}

// E1Table renders E1 rows.
func E1Table(rows []E1Row) Table {
	t := Table{
		Title:  "E1 — MPI via proxy multiplexing (paper Fig. 3a vs 3b)",
		Claim:  "MPI runs unmodified across sites; only inter-site traffic crosses the tunnel",
		Header: []string{"mode", "msg_bytes", "rounds", "rtt", "MB/s", "tunnel_bytes"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Mode, itoa(r.MsgBytes), itoa(r.Rounds), dur(r.RTT), f2(r.ThroughputMBs), i64(r.TunnelBytes),
		})
	}
	return t
}
