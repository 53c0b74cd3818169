package stage

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/wire"
)

// gatherConn is a fake tunnel stream: a net.Conn that also offers the
// vectored WriteBuffers surface, recording the payload segments it was
// handed so a test can check they alias the store's blob (the zero-copy
// contract) instead of being copies.
type gatherConn struct {
	net.Conn
	segs [][]byte
}

func (g *gatherConn) WriteBuffers(segs ...[]byte) (int64, error) {
	var total int64
	for i, s := range segs {
		if i > 0 { // skip the stack-allocated chunk header
			g.segs = append(g.segs, s)
		}
		total += int64(len(s))
	}
	return total, nil
}

func (g *gatherConn) Write(p []byte) (int, error) { return len(p), nil }

// TestServeGetWarmChunksZeroCopy proves the staging pipeline makes no
// intermediate copy for a warm (memory-resident) blob: every payload
// segment handed to the vectored writer aliases the blob's own backing
// array, byte for byte and pointer for pointer.
func TestServeGetWarmChunksZeroCopy(t *testing.T) {
	src, _ := NewStore(Config{}, nil)
	data := randBlob(t, 256<<10)
	ref := src.Put(data)
	view, _ := src.Open(ref.Hash)
	defer view.Close()
	blob := view.Bytes()

	gc := &gatherConn{}
	// Negative IdleTimeout disables deadline arming: the fake conn has
	// no transport underneath.
	cfg := Config{ChunkSize: 64 << 10, IdleTimeout: -1}.WithDefaults()
	// Swallow the status frame through the plain Write path above, then
	// serve the whole blob.
	if err := serveGet(gc, src, cfg, metrics.NewRegistry(), ref.Hash, 0, 0, cfg.ChunkSize); err != nil {
		t.Fatal(err)
	}
	if len(gc.segs) != 4 {
		t.Fatalf("got %d chunks, want 4", len(gc.segs))
	}
	for i, seg := range gc.segs {
		want := blob[i*cfg.ChunkSize : (i+1)*cfg.ChunkSize]
		if &seg[0] != &want[0] || len(seg) != len(want) {
			t.Fatalf("chunk %d was copied: segment does not alias the stored blob", i)
		}
	}
}

// TestLoanChunkWarmNoAllocs pins the per-chunk cost of the warm path:
// leasing and releasing a chunk of a memory-resident blob allocates
// nothing.
func TestLoanChunkWarmNoAllocs(t *testing.T) {
	src, _ := NewStore(Config{}, nil)
	ref := src.Put(randBlob(t, 128<<10))
	allocs := testing.AllocsPerRun(100, func() {
		loan, ok := src.LoanChunk(ref.Hash, 32<<10, 64<<10)
		if !ok {
			t.Fatal("loan refused")
		}
		loan.Release()
	})
	if allocs != 0 {
		t.Fatalf("warm chunk loan allocates %v times per op, want 0", allocs)
	}
}

// TestLoanChunkSpill exercises the disk tier: with DiskSpill, a blob
// evicted from memory keeps its file and still serves correct chunk
// loans from pooled buffers.
func TestLoanChunkSpill(t *testing.T) {
	dir := t.TempDir()
	src, err := NewStore(Config{Dir: dir, MaxBytes: 64 << 10, DiskSpill: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	big := randBlob(t, 48<<10)
	ref := src.Put(big)
	// Push the first blob out of memory.
	src.Put(randBlob(t, 40<<10))
	src.Put(randBlob(t, 40<<10))
	if _, ok := src.Get(ref.Hash); ok {
		t.Fatal("blob unexpectedly still memory-resident")
	}
	if _, err := os.Stat(filepath.Join(dir, ref.Hash)); err != nil {
		t.Fatalf("spill file missing after eviction: %v", err)
	}
	if size, ok := src.Stat(ref.Hash); !ok || size != int64(len(big)) {
		t.Fatalf("Stat of spilled blob = (%d, %v), want (%d, true)", size, ok, len(big))
	}
	loan, ok := src.LoanChunk(ref.Hash, 16<<10, 8<<10)
	if !ok {
		t.Fatal("spilled chunk loan refused")
	}
	if !loan.pooled {
		t.Fatal("spill loan should be pooled")
	}
	if !bytes.Equal(loan.Data, big[16<<10:24<<10]) {
		t.Fatal("spilled chunk content mismatch")
	}
	loan.Release()
}

// TestPullFromSpilledBlob runs the full transfer protocol against a
// serving store whose blob lives only in the spill tier.
func TestPullFromSpilledBlob(t *testing.T) {
	reg := metrics.NewRegistry()
	dir := t.TempDir()
	cfg := Config{Dir: dir, MaxBytes: 32 << 10, DiskSpill: true, ChunkSize: 16 << 10, Stripes: 2, IdleTimeout: 2 * time.Second}
	src, err := NewStore(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := randBlob(t, 200<<10)
	ref := src.Put(data)
	src.Put(randBlob(t, 30<<10)) // evict the big blob to disk
	if _, ok := src.Get(ref.Hash); ok {
		t.Fatal("blob unexpectedly memory-resident")
	}

	dst, _ := NewStore(Config{}, reg)
	dial := pipeDialer(src, cfg, reg, nil)
	if err := Pull(context.Background(), dial, ref.Hash, dst, cfg, reg); err != nil {
		t.Fatal(err)
	}
	got, ok := dst.Get(ref.Hash)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("pulled spilled blob does not match source")
	}
}

// TestChunkLoanReleasePooled makes sure a spill loan's buffer really
// returns to the wire pool (release is not a silent leak).
func TestChunkLoanReleasePooled(t *testing.T) {
	loan := ChunkLoan{Data: wire.GetPayload(8 << 10), pooled: true}
	binary.BigEndian.PutUint32(loan.Data, 42)
	loan.Release()
	// A second lease of pooled size must not crash and the hash check
	// guards correctness elsewhere; this is a smoke test for the
	// single-release contract.
	buf := wire.GetPayload(32)
	wire.PutPayload(buf)
}
