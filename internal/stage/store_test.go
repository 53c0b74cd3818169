package stage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"gridproxy/internal/metrics"
)

func testBlob(fill byte, n int) []byte {
	return bytes.Repeat([]byte{fill}, n)
}

func TestStoreDedupe(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := NewStore(Config{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	data := testBlob('a', 1024)
	ref1 := s.Put(data)
	ref2 := s.Put(data)
	if ref1.Hash != ref2.Hash || ref1.Hash != Hash(data) {
		t.Fatalf("hash mismatch: %q vs %q", ref1.Hash, ref2.Hash)
	}
	if s.Blobs() != 1 {
		t.Fatalf("want 1 blob after duplicate put, got %d", s.Blobs())
	}
	if got := reg.Counter(metrics.StagePuts).Value(); got != 1 {
		t.Fatalf("duplicate put must not count: puts=%d", got)
	}
	if s.BytesStored() != 1024 {
		t.Fatalf("bytes stored = %d, want 1024", s.BytesStored())
	}
	got, ok := s.Get(ref1.Hash)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("get returned wrong content")
	}
}

func TestStoreLRUEviction(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := NewStore(Config{MaxBytes: 3 * 1024}, reg)
	if err != nil {
		t.Fatal(err)
	}
	a := s.Put(testBlob('a', 1024))
	b := s.Put(testBlob('b', 1024))
	c := s.Put(testBlob('c', 1024))
	// Touch a so b is the least recently used.
	if _, ok := s.Get(a.Hash); !ok {
		t.Fatal("a missing before eviction")
	}
	d := s.Put(testBlob('d', 1024))
	if s.Has(b.Hash) {
		t.Fatal("b should have been evicted as LRU")
	}
	for _, ref := range []FileRef{a, c, d} {
		if !s.Has(ref.Hash) {
			t.Fatalf("blob %s unexpectedly evicted", ref.Hash[:8])
		}
	}
	if got := reg.Counter(metrics.StageEvictions).Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if s.BytesStored() > 3*1024 {
		t.Fatalf("store over cap: %d", s.BytesStored())
	}
	if g := reg.Gauge(metrics.StageBytesStored).Value(); g != s.BytesStored() {
		t.Fatalf("gauge %d != stored %d", g, s.BytesStored())
	}
}

func TestStoreOversizeBlobStillStored(t *testing.T) {
	s, err := NewStore(Config{MaxBytes: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	big := s.Put(testBlob('x', 1000))
	if !s.Has(big.Hash) {
		t.Fatal("oversize blob must still be stored")
	}
}

func TestPutHashedRejectsMismatch(t *testing.T) {
	s, err := NewStore(Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutHashed(Hash([]byte("right")), []byte("wrong")); err == nil {
		t.Fatal("PutHashed accepted mismatched content")
	}
	if s.Blobs() != 0 {
		t.Fatal("mismatched content entered the store")
	}
}

func TestStorePersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(Config{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := testBlob('p', 2048)
	ref := s.Put(data)

	// A file whose content no longer matches its name must be dropped
	// on reload.
	bogus := Hash([]byte("bogus-name"))
	if err := os.WriteFile(filepath.Join(dir, bogus), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewStore(Config{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(ref.Hash)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("blob did not survive reload")
	}
	if s2.Has(bogus) {
		t.Fatal("tampered file entered the store on reload")
	}
}

// TestWriterHashesAsItGoes: a blob written chunk by chunk lands under the
// same name as the blob put whole, whatever size was announced for it,
// each byte is hashed once, and its buffer is its length; a Writer that is
// aborted leaves the store as it was, its buffer included.
func TestWriterHashesAsItGoes(t *testing.T) {
	data := seededBlob(5, 300<<10)
	for _, announced := range []int64{int64(len(data)), -1, 10, 1 << 30} {
		reg := metrics.NewRegistry()
		s, _ := NewStore(Config{}, reg)
		dropped := s.NewWriter(announced)
		dropped.Append(data[:1000])
		dropped.Abort()

		w := s.NewWriter(announced)
		for off := 0; off < len(data); off += 64 << 10 {
			w.Append(data[off:min(off+64<<10, len(data))])
			if w.Len() != int64(min(off+64<<10, len(data))) {
				t.Fatalf("announced %d: Len = %d after %d bytes", announced, w.Len(), off+64<<10)
			}
		}
		ref := w.Commit()
		if ref.Hash != Hash(data) || ref.Size != int64(len(data)) {
			t.Fatalf("announced %d: ref = %+v, want %s", announced, ref, Hash(data))
		}
		view, ok := s.Open(ref.Hash)
		if !ok || !bytes.Equal(view.Bytes(), data) || s.Blobs() != 1 {
			t.Fatalf("announced %d: stored %d blobs, exact %v", announced, s.Blobs(), ok && bytes.Equal(view.Bytes(), data))
		}
		if got := view.Bytes(); cap(got) > len(got)+len(got)/8 {
			t.Errorf("announced %d: the store holds %d bytes of capacity for %d of blob", announced, cap(got), len(got))
		}
		view.Close()
		wantQuiet(t, s)
		if hashed := reg.Counter(metrics.StageHashedBytes).Value(); hashed != int64(len(data))+1000 {
			t.Errorf("announced %d: stage.hashed_bytes = %d, want %d", announced, hashed, len(data)+1000)
		}
	}
}
