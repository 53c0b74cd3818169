package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gridproxy/internal/baseline"
	"gridproxy/internal/metrics"
	"gridproxy/internal/sim"
	"gridproxy/internal/site"
	"gridproxy/internal/transport"
)

// e2Row is one (architecture, intra-site traffic fraction) measurement.
type e2Row struct {
	Arch           string // "proxy" or "per-node"
	Flows          int
	PayloadBytes   int64
	CryptoBytes    int64 // ciphertext volume across the whole grid
	CryptoEntities int   // machines that performed TLS work
	PlainBytes     int64 // bytes moved in the clear (proxy arch only)
	Handshakes     int64
}

// e2Config parameterizes experiment E2.
type e2Config struct {
	Sites        int
	NodesPerSite int
	Flows        int
	BytesPerFlow int
	IntraFracs   []float64
	Seed         int64
}

// e2 replays identical traffic matrices over the proxy architecture
// (intra-site plaintext, inter-site through the border TLS tunnels) and
// over the per-node baseline (every byte TLS-encrypted end to end at
// every node). The paper's claim: "the overhead generated by control and
// security information, such as encrypted data, is introduced in only a
// few nodes rather than in all of them", and the proxy's crypto cost
// should fall as traffic becomes more site-local while the baseline's
// stays proportional to total traffic.
func e2(cfg e2Config) (Table, error) {
	t := Table{
		Title:  "E2 — crypto cost: site-edge tunneling vs per-node security",
		Claim:  "security overhead lands on a few border nodes, and tracks only inter-site traffic",
		Header: []string{"arch", "intra_frac", "flows", "payload_B", "crypto_B", "crypto_entities", "plain_B", "handshakes"},
	}
	var fewerBytes, fewerEntities int
	for _, frac := range cfg.IntraFracs {
		flows := sim.MixedTraffic(cfg.Sites, cfg.NodesPerSite, cfg.Flows, frac, cfg.BytesPerFlow, cfg.Seed)
		proxyRow, err := runE2Proxy(cfg, flows)
		if err != nil {
			return Table{}, fmt.Errorf("e2 proxy frac %.2f: %w", frac, err)
		}
		baseRow, err := runE2Baseline(cfg, flows)
		if err != nil {
			return Table{}, fmt.Errorf("e2 baseline frac %.2f: %w", frac, err)
		}
		for _, r := range []e2Row{proxyRow, baseRow} {
			t.Rows = append(t.Rows, []string{
				r.Arch, f2(frac), itoa(r.Flows), i64(r.PayloadBytes),
				i64(r.CryptoBytes), itoa(r.CryptoEntities), i64(r.PlainBytes), i64(r.Handshakes),
			})
		}
		if proxyRow.CryptoBytes < baseRow.CryptoBytes {
			fewerBytes++
		}
		if proxyRow.CryptoEntities < baseRow.CryptoEntities {
			fewerEntities++
		}
	}
	t.Bars = []Bar{
		check("rows", len(t.Rows), "==", 2*len(cfg.IntraFracs)),
		check("intra_fracs where proxy crypto_B < per-node", fewerBytes, "==", len(cfg.IntraFracs)),
		check("intra_fracs where proxy crypto_entities < per-node", fewerEntities, "==", len(cfg.IntraFracs)),
	}
	return t, nil
}

// sinkService drains bytes on a listener, counting them.
func sinkService(ln net.Listener, received *atomic.Int64, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			n, _ := io.Copy(io.Discard, conn)
			received.Add(n)
		}(conn)
	}
}

func runE2Proxy(cfg e2Config, flows []sim.Flow) (e2Row, error) {
	reg := metrics.NewRegistry()
	tbCfg := site.TestbedConfig{GridName: "e2", Metrics: reg}
	for s := 0; s < cfg.Sites; s++ {
		tbCfg.Sites = append(tbCfg.Sites, site.SiteSpec{
			Name:  fmt.Sprintf("site%d", s),
			Nodes: site.UniformNodes(cfg.NodesPerSite, 1),
		})
	}
	tb, err := site.NewTestbed(tbCfg)
	if err != nil {
		return e2Row{}, err
	}
	defer tb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := tb.ConnectAll(ctx); err != nil {
		return e2Row{}, err
	}

	// One sink per node, on the site-local network, plus the tunnel app
	// registration at every proxy (destination-side permission).
	var received atomic.Int64
	var sinks sync.WaitGroup
	var listeners []net.Listener
	for s, st := range tb.Sites {
		for n := range st.Nodes {
			ln, err := st.Local.Listen(sinkAddr(s, n))
			if err != nil {
				return e2Row{}, err
			}
			listeners = append(listeners, ln)
			sinks.Add(1)
			go sinkService(ln, &received, &sinks)
		}
		if err := st.Proxy.RegisterTunnelApp("admin", "e2"); err != nil {
			return e2Row{}, err
		}
	}
	defer func() {
		for _, ln := range listeners {
			_ = ln.Close()
		}
	}()

	payload := make([]byte, cfg.BytesPerFlow)
	plainCounter := reg.Counter(metrics.BytesLocal)
	var total int64
	for _, flow := range flows {
		total += int64(flow.Bytes)
		fromSite := tb.Sites[flow.From.Site]
		var conn net.Conn
		if flow.From.Site == flow.To.Site {
			// Intra-site: a direct plaintext connection on the site
			// LAN — the proxy is not involved at all.
			raw, err := fromSite.Local.Dial(ctx, sinkAddr(flow.To.Site, flow.To.Node))
			if err != nil {
				return e2Row{}, err
			}
			conn = transport.Instrument(raw, nil, plainCounter)
		} else {
			// Inter-site: through both proxies and the TLS tunnel.
			c, err := fromSite.Proxy.OpenTunnel(ctx, "admin", "e2",
				fmt.Sprintf("site%d", flow.To.Site), sinkAddr(flow.To.Site, flow.To.Node))
			if err != nil {
				return e2Row{}, err
			}
			conn = c
		}
		if _, err := conn.Write(payload[:flow.Bytes]); err != nil {
			_ = conn.Close()
			return e2Row{}, err
		}
		_ = conn.Close()
	}
	// Wait for delivery.
	deadline := time.Now().Add(time.Minute)
	for received.Load() < total && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if received.Load() < total {
		return e2Row{}, fmt.Errorf("delivered %d of %d bytes", received.Load(), total)
	}

	return e2Row{
		Arch:         "proxy",
		Flows:        len(flows),
		PayloadBytes: total,
		CryptoBytes:  reg.Counter(metrics.BytesEncrypted).Value(),
		// Only the site border proxies terminate TLS.
		CryptoEntities: cfg.Sites,
		PlainBytes:     plainCounter.Value(),
		Handshakes:     reg.Counter(metrics.TLSHandshakes).Value(),
	}, nil
}

func sinkAddr(siteIdx, nodeIdx int) string {
	return fmt.Sprintf("sink.s%d.n%d", siteIdx, nodeIdx)
}

func runE2Baseline(cfg e2Config, flows []sim.Flow) (e2Row, error) {
	backbone := transport.NewMemNetwork()
	defer backbone.Close()
	nodes := make(map[string]string, cfg.Sites*cfg.NodesPerSite)
	for s := 0; s < cfg.Sites; s++ {
		for n := 0; n < cfg.NodesPerSite; n++ {
			nodes[baseNodeName(s, n)] = fmt.Sprintf("site%d", s)
		}
	}
	grid, err := baseline.New("e2-baseline", backbone, nodes)
	if err != nil {
		return e2Row{}, err
	}
	defer grid.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	payload := make([]byte, cfg.BytesPerFlow)
	var total int64
	for _, flow := range flows {
		total += int64(flow.Bytes)
		from := grid.Nodes[baseNodeName(flow.From.Site, flow.From.Node)]
		to := grid.Nodes[baseNodeName(flow.To.Site, flow.To.Node)]
		if err := from.Send(ctx, to, payload[:flow.Bytes]); err != nil {
			return e2Row{}, err
		}
	}
	if err := grid.WaitDelivered(total, time.Minute); err != nil {
		return e2Row{}, err
	}
	var handshakes int64
	for _, n := range grid.Nodes {
		handshakes += n.Handshakes()
	}
	return e2Row{
		Arch:           "per-node",
		Flows:          len(flows),
		PayloadBytes:   total,
		CryptoBytes:    grid.TotalCryptoBytes(),
		CryptoEntities: grid.NodesWithCrypto(),
		PlainBytes:     0,
		Handshakes:     handshakes,
	}, nil
}

func baseNodeName(siteIdx, nodeIdx int) string {
	return fmt.Sprintf("s%dn%d", siteIdx, nodeIdx)
}
