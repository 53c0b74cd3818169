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

// e10Row is one data-plane staging measurement: a blob pulled cold
// across a shaped WAN link with a given stripe count, then pulled again
// warm.
type e10Row struct {
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

// e10Config parameterizes experiment E10.
type e10Config struct {
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

// e10 measures the content-addressed data plane: one blob is staged from
// an origin site to a destination over dedicated tunnel data streams,
// cold (empty destination store) and warm (already held). The sweep over
// stripe counts and bond widths shows what they do to a cold pull on a
// link whose rate they share; the warm pull is a pure cache hit and moves
// zero payload bytes: the dedupe the job launch path relies on for fast
// relaunches.
func e10(cfg e10Config) (Table, error) {
	t := Table{
		Title:  "E10 — data plane: striped cross-site staging, cold vs warm",
		Claim:  "a warm (content-addressed) restage moves zero payload bytes; cold, stripes add windows on a link whose rate bond members share",
		Header: []string{"stripes", "bond", "blob_mb", "chunk_kb", "cold_time", "cold_MB/s", "cold_bytes", "warm_time", "warm_bytes", "cache_hits"},
	}
	bonds := cfg.BondConns
	if len(bonds) == 0 {
		bonds = []int{1}
	}
	var rows []e10Row
	for _, bond := range bonds {
		for _, stripes := range cfg.StripeCounts {
			r, err := runE10Stripes(cfg, stripes, bond)
			if err != nil {
				return Table{}, fmt.Errorf("e10 stripes=%d bond=%d: %w", stripes, bond, err)
			}
			rows = append(rows, r)
			t.Rows = append(t.Rows, []string{
				itoa(r.Stripes), itoa(r.Bond), f1(r.BlobMB), itoa(r.ChunkKB),
				dur(r.ColdTime), f1(r.ColdMBps), i64(r.ColdBytes),
				dur(r.WarmTime), i64(r.WarmBytes), i64(r.CacheHits),
			})
		}
	}
	// The warm pull is a content-addressed cache hit: nothing moves.
	t.Bars = []Bar{
		check("rows with cold_bytes = blob size", count(rows, func(r e10Row) bool { return r.ColdBytes == int64(cfg.BlobBytes) }), "==", len(rows)),
		check("warm_bytes, max", most(rows, func(r e10Row) int64 { return r.WarmBytes }), "==", 0),
		check("cache_hits, min", least(rows, func(r e10Row) int64 { return r.CacheHits }), ">=", 1),
		check("rows with warm_time < cold_time", count(rows, func(r e10Row) bool { return r.WarmTime < r.ColdTime }), "==", len(rows)),
	}
	return t, nil
}

func runE10Stripes(cfg e10Config, stripes, bond int) (e10Row, error) {
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
		return e10Row{}, err
	}
	defer tb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := tb.ConnectAll(ctx); err != nil {
		return e10Row{}, err
	}

	blob := make([]byte, cfg.BlobBytes)
	rand.New(rand.NewSource(int64(stripes))).Read(blob)
	ref := tb.Sites[0].Proxy.Store().Put(blob)
	dest := tb.Sites[1].Proxy

	row := e10Row{
		Stripes: stripes,
		Bond:    bond,
		BlobMB:  float64(cfg.BlobBytes) / (1 << 20),
		ChunkKB: cfg.ChunkSize >> 10,
	}

	start := time.Now()
	if err := dest.PullBlob(ctx, "origin", ref.Hash); err != nil {
		return e10Row{}, fmt.Errorf("cold pull: %w", err)
	}
	row.ColdTime = time.Since(start)
	row.ColdBytes = reg.Counter(metrics.StageBytesReceived).Value()
	row.ColdMBps = row.BlobMB / row.ColdTime.Seconds()

	start = time.Now()
	if err := dest.PullBlob(ctx, "origin", ref.Hash); err != nil {
		return e10Row{}, fmt.Errorf("warm pull: %w", err)
	}
	row.WarmTime = time.Since(start)
	row.WarmBytes = reg.Counter(metrics.StageBytesReceived).Value() - row.ColdBytes
	row.CacheHits = reg.Counter(metrics.StageCacheHits).Value()
	return row, nil
}
