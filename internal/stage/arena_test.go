package stage

import (
	"bytes"
	"context"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridproxy/internal/metrics"
)

// inSubprocess runs the named test of this binary again with env set and
// returns its combined output and exit error: for a test whose failure
// mode is a crash of the whole process.
func inSubprocess(t *testing.T, name, env string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+name+"$", "-test.count=1")
	cmd.Env = append(os.Environ(), env+"=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestStoreFootprint pins what the arena is for: four times a store's cap
// goes through Writers, pulls and Put, and the Go heap does not grow with
// it — the blob bytes live in the arena, whose mappings stay within the
// cap, one blob and the spare mappings kept for reuse.
func TestStoreFootprint(t *testing.T) {
	if poisonFreed {
		t.Skip("race builds never reuse a freed mapping")
	}
	const (
		capBytes = 64 << 20
		blobSize = 4 << 20
	)
	reg := metrics.NewRegistry()
	dst, _ := NewStore(Config{MaxBytes: capBytes}, reg)
	src, _ := NewStore(Config{MaxBytes: blobSize}, nil)
	cfg := Config{Stripes: 2, IdleTimeout: 2 * time.Second}
	dial := pipeDialer(src, cfg, nil, nil)
	scratch := make([]byte, blobSize)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i*blobSize < 4*capBytes; i++ {
		copy(scratch, []byte(time.Duration(i).String()+"|distinct"))
		switch i % 3 {
		case 0:
			w := dst.NewWriter(blobSize)
			for off := 0; off < blobSize; off += 1 << 20 {
				if err := w.Append(scratch[off : off+1<<20]); err != nil {
					t.Fatal(err)
				}
			}
			w.Commit()
		case 1:
			ref := src.Put(scratch)
			if err := PullAll(context.Background(), dial, []FileRef{ref}, dst, cfg, nil)[0]; err != nil {
				t.Fatal(err)
			}
		case 2:
			dst.Put(scratch)
		}
		if mapped := reg.Gauge(metrics.StageArenaBytes).Value(); mapped > capBytes+blobSize+maxSpare {
			t.Fatalf("after blob %d the arena maps %d MiB", i, mapped>>20)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew >= 8<<20 {
		t.Errorf("the heap grew by %d MiB while %d MiB of blobs went through the store", grew>>20, 4*capBytes>>20)
	}
	if dst.BytesStored() > capBytes {
		t.Errorf("store holds %d bytes over its cap of %d", dst.BytesStored(), capBytes)
	}
	wantQuiet(t, dst)
	runtime.KeepAlive(scratch)
}

// TestEvictedWhilePinned: a blob evicted while a View and a ChunkLoan hold
// it keeps its bytes until the last of them is released, and only then
// leaves the arena.
func TestEvictedWhilePinned(t *testing.T) {
	s, _ := NewStore(Config{MaxBytes: 1 << 20}, nil)
	data := seededBlob(60, 512<<10)
	ref := s.Put(data)
	view, _ := s.Open(ref.Hash)
	loan, _ := s.LoanChunk(ref.Hash, 64<<10, 64<<10)
	s.Put(seededBlob(61, 1<<20)) // evicts the pinned blob
	if s.Has(ref.Hash) {
		t.Fatal("the pinned blob was not evicted")
	}
	if bytes, pins := s.Outstanding(); bytes < int64(len(data)) || pins != 2 {
		t.Fatalf("with two pins on an evicted blob: %d bytes beyond the store, %d pins", bytes, pins)
	}
	view.Close()
	if !bytes.Equal(loan.Data, data[64<<10:128<<10]) {
		t.Fatal("the loan's bytes changed after the eviction and the view's release")
	}
	if bytes, pins := s.Outstanding(); bytes < int64(len(data)) || pins != 1 {
		t.Fatalf("with one pin left: %d bytes beyond the store, %d pins", bytes, pins)
	}
	loan.Release()
	wantQuiet(t, s)
}

// TestHeapBlobIsNotTheArenas: a blob held on the heap, as copyIn links one
// when the system cannot map it, is not counted as a mapping, and its
// release leaves the arena alone.
func TestHeapBlobIsNotTheArenas(t *testing.T) {
	s, _ := NewStore(Config{MaxBytes: 1 << 20}, nil)
	data := seededBlob(65, 512<<10)
	s.put(Hash(data), append([]byte(nil), data...))
	wantQuiet(t, s)
	view, _ := s.Open(Hash(data))
	s.Put(seededBlob(66, 1<<20)) // evicts the heap blob
	if !bytes.Equal(view.Bytes(), data) {
		t.Fatal("the evicted heap blob changed under its view")
	}
	view.Close()
	wantQuiet(t, s)
}

// TestUseAfterCloseFaults: in a race build a freed mapping is revoked, so
// a read through a View after its Close faults rather than seeing another
// blob's bytes.
func TestUseAfterCloseFaults(t *testing.T) {
	if !poisonFreed {
		t.Skip("only race builds revoke freed mappings")
	}
	if os.Getenv("STAGE_USE_AFTER_CLOSE") != "" {
		s, _ := NewStore(Config{MaxBytes: 1 << 20}, nil)
		view, _ := s.Open(s.Put(seededBlob(62, 512<<10)).Hash)
		s.Put(seededBlob(63, 1<<20))
		stale := view.Bytes()
		view.Close()
		println("read after close:", stale[100])
		return
	}
	out, err := inSubprocess(t, "TestUseAfterCloseFaults", "STAGE_USE_AFTER_CLOSE")
	if err == nil || !strings.Contains(out, "unexpected fault address") {
		t.Fatalf("a read after Close did not fault (err %v):\n%s", err, out)
	}
}

// TestPullRefusesAbsurdSize: a size a peer announces, in its get header or
// in the ref that names the blob, is only a size. One the system cannot
// map fails that blob by name, and the store pulls normally afterwards.
// (Allocated on the heap, such a size ends the process, so the check runs
// in a subprocess.)
func TestPullRefusesAbsurdSize(t *testing.T) {
	if os.Getenv("STAGE_ABSURD_SIZE") == "" {
		if out, err := inSubprocess(t, "TestPullRefusesAbsurdSize", "STAGE_ABSURD_SIZE"); err != nil {
			t.Fatalf("%v:\n%s", err, out)
		}
		return
	}
	const absurd = 1 << 46
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, nil)
	data := seededBlob(64, 300<<10)
	ref := src.Put(data)
	cfg := Config{Stripes: 1, PullRetries: 1, IdleTimeout: 2 * time.Second}
	liar := func(context.Context) (net.Conn, error) {
		return &scriptConn{in: bytes.NewReader(wireStatus(statusOK, absurd))}, nil
	}
	for what, errs := range map[string][]error{
		"announced in the header": PullAll(context.Background(), liar, []FileRef{{Hash: ref.Hash}}, dst, cfg, nil),
		"carried by the ref":      PullAll(context.Background(), liar, []FileRef{{Hash: ref.Hash, Size: absurd}}, dst, cfg, nil),
	} {
		if errs[0] == nil || !strings.Contains(errs[0].Error(), "cannot hold 70368744177664 bytes") {
			t.Errorf("size %s: got %v, want a refusal to hold it", what, errs[0])
		}
	}
	if err := Pull(context.Background(), pipeDialer(src, cfg, nil, nil), ref.Hash, dst, cfg, nil); err != nil {
		t.Fatal(err)
	}
	wantBlob(t, dst, ref, data)
	wantQuiet(t, dst)
}
