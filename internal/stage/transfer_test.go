package stage

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"gridproxy/internal/failure"
	"gridproxy/internal/metrics"
	"gridproxy/internal/transport"
)

// pipeDialer returns a Dialer whose every connection is the client end
// of an in-memory connection served from src. wrap, if non-nil, wraps
// the server end (fault injection). The connections buffer a few dozen
// writes each way, as a tunnel stream's window does: a puller pipelines
// requests, which an unbuffered net.Pipe would deadlock against the
// server's first response.
func pipeDialer(src *Store, serveCfg Config, reg *metrics.Registry, wrap func(net.Conn) net.Conn) Dialer {
	netw := transport.NewMemNetwork()
	ln, err := netw.Listen("src")
	if err != nil {
		panic(err)
	}
	cfg := serveCfg
	cfg.WrapConn = wrap
	go func() {
		for {
			server, err := ln.Accept()
			if err != nil {
				return
			}
			go Serve(server, src, cfg, reg)
		}
	}()
	return func(ctx context.Context) (net.Conn, error) {
		return netw.Dial(ctx, "src")
	}
}

func randBlob(t *testing.T, n int) []byte {
	t.Helper()
	data := make([]byte, n)
	rnd := rand.New(rand.NewSource(int64(n)))
	rnd.Read(data)
	return data
}

func TestPullStriped(t *testing.T) {
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, reg)
	data := randBlob(t, 1<<20)
	ref := src.Put(data)

	cfg := Config{ChunkSize: 32 << 10, Stripes: 4, IdleTimeout: 2 * time.Second}
	dial := pipeDialer(src, cfg, reg, nil)
	if err := Pull(context.Background(), dial, ref.Hash, dst, cfg, reg); err != nil {
		t.Fatal(err)
	}
	got, ok := dst.Get(ref.Hash)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("pulled blob does not match source")
	}
	if n := reg.Counter(metrics.StageBytesReceived).Value(); n != int64(len(data)) {
		t.Fatalf("bytes received = %d, want %d", n, len(data))
	}
	if reg.Counter(metrics.StagePulls).Value() != 1 {
		t.Fatal("pull not counted")
	}
}

func TestPullMissingBlob(t *testing.T) {
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, nil)
	cfg := Config{IdleTimeout: time.Second}
	dial := pipeDialer(src, cfg, nil, nil)
	err := Pull(context.Background(), dial, Hash([]byte("nope")), dst, cfg, nil)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestPullRetriesCorruptChunk(t *testing.T) {
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, reg)
	data := randBlob(t, 256<<10)
	ref := src.Put(data)

	var corr failure.Corrupter
	corr.Arm(2)
	cfg := Config{ChunkSize: 16 << 10, Stripes: 2, IdleTimeout: 2 * time.Second}
	dial := pipeDialer(src, cfg, reg, corr.Wrap)
	if err := Pull(context.Background(), dial, ref.Hash, dst, cfg, reg); err != nil {
		t.Fatalf("pull should survive corrupt chunks: %v", err)
	}
	got, ok := dst.Get(ref.Hash)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("pulled blob does not match source after corruption recovery")
	}
	if n := reg.Counter(metrics.StageCorruptChunks).Value(); n < 1 {
		t.Fatalf("corrupt chunks = %d, want >= 1", n)
	}
	if n := reg.Counter(metrics.StageChunkRetries).Value(); n < 1 {
		t.Fatalf("chunk retries = %d, want >= 1", n)
	}
	wantQuiet(t, dst)
}

// cutConn severs the connection after a write budget is spent,
// simulating a link drop mid-transfer.
type cutConn struct {
	net.Conn
	mu     sync.Mutex
	budget int
}

func (c *cutConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.budget -= len(p)
	dead := c.budget < 0
	c.mu.Unlock()
	if dead {
		c.Conn.Close()
		return 0, errors.New("injected link drop")
	}
	return c.Conn.Write(p)
}

func TestPullResumesAfterLinkDrop(t *testing.T) {
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, reg)
	data := randBlob(t, 512<<10)
	ref := src.Put(data)

	cfg := Config{ChunkSize: 16 << 10, Stripes: 1, IdleTimeout: 2 * time.Second}
	var dials int
	var mu sync.Mutex
	dial := pipeDialer(src, cfg, reg, func(conn net.Conn) net.Conn {
		mu.Lock()
		dials++
		first := dials == 1
		mu.Unlock()
		if first {
			// First connection dies halfway through the blob.
			return &cutConn{Conn: conn, budget: len(data) / 2}
		}
		return conn
	})
	if err := Pull(context.Background(), dial, ref.Hash, dst, cfg, reg); err != nil {
		t.Fatal(err)
	}
	got, ok := dst.Get(ref.Hash)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("pulled blob does not match source after resume")
	}
	if n := reg.Counter(metrics.StageResumes).Value(); n < 1 {
		t.Fatalf("resumes = %d, want >= 1", n)
	}
	// A resume continues from the recorded offset: total verified bytes
	// stay exactly one blob, not blob + restarted prefix.
	if n := reg.Counter(metrics.StageBytesReceived).Value(); n != int64(len(data)) {
		t.Fatalf("bytes received = %d, want %d (resume must not restart from 0)", n, len(data))
	}
}

func TestPullIdleDeadlineUnsticksStalledPeer(t *testing.T) {
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, nil)
	data := randBlob(t, 64<<10)
	ref := src.Put(data)

	var stall failure.StallStream
	stall.Stall()
	defer stall.Heal()
	cfg := Config{ChunkSize: 16 << 10, Stripes: 1, IdleTimeout: 150 * time.Millisecond, PullRetries: 1}
	dial := pipeDialer(src, cfg, reg, stall.Wrap)
	start := time.Now()
	err := Pull(context.Background(), dial, ref.Hash, dst, cfg, reg)
	if err == nil {
		t.Fatal("pull against a permanently stalled peer must fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled peer held the transfer for %v", elapsed)
	}
}

func TestPullRecoversAfterStallHeals(t *testing.T) {
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, reg)
	data := randBlob(t, 64<<10)
	ref := src.Put(data)

	var stall failure.StallStream
	stall.Stall()
	cfg := Config{ChunkSize: 16 << 10, Stripes: 1, IdleTimeout: 100 * time.Millisecond, PullRetries: 50}
	dial := pipeDialer(src, cfg, reg, stall.Wrap)
	go func() {
		time.Sleep(300 * time.Millisecond)
		stall.Heal()
	}()
	if err := Pull(context.Background(), dial, ref.Hash, dst, cfg, reg); err != nil {
		t.Fatalf("pull should succeed once the stall heals: %v", err)
	}
	if got, ok := dst.Get(ref.Hash); !ok || !bytes.Equal(got, data) {
		t.Fatal("pulled blob does not match source after stall heals")
	}
}

func TestDealSpans(t *testing.T) {
	cases := []struct {
		sizes   []int64
		chunk   int64
		stripes int
		want    int
	}{
		{[]int64{100}, 64, 4, 2}, // only two chunks of data: two shares
		{[]int64{10}, 64, 4, 1},  // sub-chunk blob: one share
		{[]int64{1 << 20}, 1 << 16, 4, 4},
		{[]int64{4 << 20, 4 << 20}, 256 << 10, 4, 4},       // two blobs, two shares each
		{[]int64{4096, 4096, 4096, 4096}, 256 << 10, 4, 1}, // tiny blobs ride one stream
		{[]int64{1 << 20, 10, 3 << 20, 7}, 1 << 16, 3, 3},  // cuts fall inside blobs
	}
	for _, c := range cases {
		var spans []span
		for _, size := range c.sizes {
			spans = append(spans, span{&pullBlob{}, 0, size})
		}
		shares := dealSpans(spans, c.chunk, c.stripes)
		if len(shares) != c.want {
			t.Fatalf("dealSpans(%v,%d,%d) = %d shares, want %d", c.sizes, c.chunk, c.stripes, len(shares), c.want)
		}
		// Read back in order, the shares are the input spans again:
		// contiguous per blob, nothing lost, nothing empty.
		i, pos := 0, int64(0)
		for _, share := range shares {
			if len(share) == 0 {
				t.Fatalf("dealSpans(%v,%d,%d) left a share empty", c.sizes, c.chunk, c.stripes)
			}
			for _, sp := range share {
				if sp.b != spans[i].b || sp.off != pos || sp.end <= sp.off || sp.end > spans[i].end {
					t.Fatalf("dealSpans(%v,%d,%d): span [%d,%d) does not continue blob %d at %d", c.sizes, c.chunk, c.stripes, sp.off, sp.end, i, pos)
				}
				if pos = sp.end; pos == spans[i].end {
					i, pos = i+1, 0
				}
			}
		}
		if i != len(spans) {
			t.Fatalf("dealSpans(%v,%d,%d) covered %d of %d blobs", c.sizes, c.chunk, c.stripes, i, len(spans))
		}
	}
}

// TestDealSpansKeepsUnsizedLeadWhole: share boundaries fall inside the
// leading span of a blob of unknown size and do not cut it.
func TestDealSpansKeepsUnsizedLeadWhole(t *testing.T) {
	const chunk = 64 << 10
	sized := func(n int64) span { return span{&pullBlob{size: n}, 0, n} }
	lead := func() span { return span{&pullBlob{size: -1}, 0, chunk} }
	for _, spans := range [][]span{
		{sized(100), lead()},
		{lead(), sized(100)},
		{lead(), lead(), lead()},
		{sized(300 << 10), lead(), sized(7), lead(), sized(1 << 20)},
	} {
		var want, got int64
		for _, sp := range spans {
			want += sp.end - sp.off
		}
		for _, share := range dealSpans(spans, chunk, 4) {
			for _, sp := range share {
				if sp.b.size < 0 && (sp.off != 0 || sp.end != chunk) {
					t.Fatalf("lead span cut to [%d,%d)", sp.off, sp.end)
				}
				got += sp.end - sp.off
			}
		}
		if got != want {
			t.Fatalf("shares cover %d bytes of %d", got, want)
		}
	}
}
