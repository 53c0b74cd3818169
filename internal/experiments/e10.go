package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/site"
	"gridproxy/internal/stage"
	"gridproxy/internal/transport"
	"gridproxy/internal/tunnel"
)

// E10Row is one data-plane staging measurement: a blob pulled cold
// across a shaped WAN link with a given stripe count, then pulled again
// warm.
type E10Row struct {
	Stripes int
	// Bond is the tunnel connection fan-out between the two proxies (1 =
	// the classic single connection).
	Bond    int
	BlobMB  float64
	ChunkKB int
	// Cold transfer: the destination store is empty, every byte moves.
	ColdTime  time.Duration
	ColdMBps  float64
	ColdBytes int64
	// Warm transfer: the blob is already content-addressed in the
	// destination store, so the pull is a cache hit and moves nothing.
	WarmTime  time.Duration
	WarmBytes int64
	CacheHits int64
}

// E10Config parameterizes experiment E10.
type E10Config struct {
	// BlobBytes is the staged payload size.
	BlobBytes int
	// ChunkSize is the transfer chunk size.
	ChunkSize int
	// StripeCounts lists the parallel-stream counts to sweep.
	StripeCounts []int
	// BondConns lists the tunnel connection fan-outs to sweep. Every
	// member crosses the same link and shares its rate.
	BondConns []int
	// WAN shapes the link between the two sites (zero = unshaped).
	WAN transport.LinkParams
}

// DefaultE10 returns the parameters used in EXPERIMENTS.md.
func DefaultE10() E10Config {
	return E10Config{
		BlobBytes:    8 << 20,
		ChunkSize:    128 << 10,
		StripeCounts: []int{1, 2, 4, 8},
		BondConns:    []int{1, 4},
		// gridmark's bulk_wan link, so cold MB/s reads against its
		// tunnel.link_utilisation.
		WAN: transport.LinkParams{OneWay: 10 * time.Millisecond, Rate: 125e6},
	}
}

// E10 measures the content-addressed data plane: one blob is staged from
// an origin site to a destination over dedicated tunnel data streams,
// cold (empty destination store) and warm (already held). The sweep over
// stripe counts and bond widths shows what they do to a cold pull on a
// link whose rate they share; the warm pull is a pure cache hit and moves
// zero payload bytes: the dedupe the job launch path relies on for fast
// relaunches.
func E10(cfg E10Config) ([]E10Row, error) {
	bonds := cfg.BondConns
	if len(bonds) == 0 {
		bonds = []int{1}
	}
	var rows []E10Row
	for _, bond := range bonds {
		for _, stripes := range cfg.StripeCounts {
			row, err := runE10Stripes(cfg, stripes, bond)
			if err != nil {
				return nil, fmt.Errorf("e10 stripes=%d bond=%d: %w", stripes, bond, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runE10Stripes(cfg E10Config, stripes, bond int) (E10Row, error) {
	reg := metrics.NewRegistry()
	tb, err := site.NewTestbed(site.TestbedConfig{
		GridName: "e10",
		Metrics:  reg,
		WAN:      cfg.WAN,
		Tunnel:   tunnel.Config{BondConns: bond},
		Stage: stage.Config{
			ChunkSize: cfg.ChunkSize,
			Stripes:   stripes,
		},
		Sites: []site.SiteSpec{
			{Name: "origin", Nodes: site.UniformNodes(1, 1)},
			{Name: "dest", Nodes: site.UniformNodes(1, 1)},
		},
	})
	if err != nil {
		return E10Row{}, err
	}
	defer tb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := tb.ConnectAll(ctx); err != nil {
		return E10Row{}, err
	}

	blob := make([]byte, cfg.BlobBytes)
	rand.New(rand.NewSource(int64(stripes))).Read(blob)
	ref := tb.Sites[0].Proxy.Store().Put(blob)
	dest := tb.Sites[1].Proxy

	row := E10Row{
		Stripes: stripes,
		Bond:    bond,
		BlobMB:  float64(cfg.BlobBytes) / (1 << 20),
		ChunkKB: cfg.ChunkSize >> 10,
	}

	start := time.Now()
	if err := dest.PullBlob(ctx, "origin", ref.Hash); err != nil {
		return E10Row{}, fmt.Errorf("cold pull: %w", err)
	}
	row.ColdTime = time.Since(start)
	row.ColdBytes = reg.Counter(metrics.StageBytesReceived).Value()
	row.ColdMBps = row.BlobMB / row.ColdTime.Seconds()

	start = time.Now()
	if err := dest.PullBlob(ctx, "origin", ref.Hash); err != nil {
		return E10Row{}, fmt.Errorf("warm pull: %w", err)
	}
	row.WarmTime = time.Since(start)
	row.WarmBytes = reg.Counter(metrics.StageBytesReceived).Value() - row.ColdBytes
	row.CacheHits = reg.Counter(metrics.StageCacheHits).Value()
	return row, nil
}

// E10Table renders E10 rows.
func E10Table(rows []E10Row) Table {
	t := Table{
		Title:  "E10 — data plane: striped cross-site staging, cold vs warm",
		Claim:  "a warm (content-addressed) restage moves zero payload bytes; cold, stripes add windows on a link whose rate bond members share",
		Header: []string{"stripes", "bond", "blob_mb", "chunk_kb", "cold_time", "cold_MB/s", "cold_bytes", "warm_time", "warm_bytes", "cache_hits"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			itoa(r.Stripes), itoa(r.Bond), f1(r.BlobMB), itoa(r.ChunkKB),
			dur(r.ColdTime), f1(r.ColdMBps), i64(r.ColdBytes),
			dur(r.WarmTime), i64(r.WarmBytes), i64(r.CacheHits),
		})
	}
	return t
}
