package grid_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"gridproxy/internal/failure"
	"gridproxy/internal/grid"
	"gridproxy/internal/metrics"
	"gridproxy/internal/proto"
	"gridproxy/internal/stage"
	"gridproxy/internal/wire"
)

func seededBlob(seed int64, size int) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func hashOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func loggedIn(t *testing.T, f *fixture) (*grid.Client, context.Context) {
	t.Helper()
	c := f.dial(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	if err := c.Login(ctx, "alice", "secret"); err != nil {
		t.Fatal(err)
	}
	return c, ctx
}

// waitQuiet waits until store's arena holds nothing beyond the blobs the
// store keeps: every upload that ended without a blob gave its buffer back.
func waitQuiet(t *testing.T, store *stage.Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		bytes, pins := store.Outstanding()
		if bytes == 0 && pins == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("store holds %d bytes beyond its blobs and %d pins", bytes, pins)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitGauge(t *testing.T, reg *metrics.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Gauge(name).Value() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, reg.Gauge(name).Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBlobLargerThanOneFrame: a blob that no single control frame could
// carry goes up and comes back, because no message carries more than a
// chunk of it.
func TestBlobLargerThanOneFrame(t *testing.T) {
	f := newFixture(t, 1)
	c, ctx := loggedIn(t, f)
	blob := seededBlob(31, 20<<20)
	if len(blob) <= wire.MaxPayload {
		t.Fatal("the blob must not fit a frame")
	}
	// The struct hides bytes.Reader's other methods: PutFrom gets a plain
	// io.Reader, as from a socket or a file.
	ref, err := c.PutFrom(ctx, "big.bin", struct{ io.Reader }{bytes.NewReader(blob)}, int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Hash != hashOf(blob) || ref.Size != int64(len(blob)) || ref.Name != "big.bin" {
		t.Fatalf("ref = %+v, want %s of %d bytes", ref, hashOf(blob), len(blob))
	}
	sum := sha256.New()
	n, err := c.GetTo(ctx, ref.Hash, sum)
	if err != nil || n != int64(len(blob)) {
		t.Fatalf("GetTo = (%d, %v), want %d bytes", n, err, len(blob))
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != ref.Hash {
		t.Fatalf("read back %s, stored %s", got, ref.Hash)
	}
}

// TestChunkedPutGetMessageCounts pins what a blob costs on the control
// channel, for sizes around the chunk boundary, with the size announced
// and not: a request and a reply per chunk, so a blob of at most one chunk
// is one exchange each way — what a small-file workload pays is what it
// paid when blobs were single messages.
func TestChunkedPutGetMessageCounts(t *testing.T) {
	f := newFixture(t, 1) // one site: nothing else talks on a control channel
	c, ctx := loggedIn(t, f)
	const chunk = proto.StageChunk
	messages := f.reg.Counter(metrics.ControlMessages)
	for i, tc := range []struct {
		size     int
		announce bool
		puts     int64 // exchanges the upload costs
	}{
		{0, true, 1},
		{1, true, 1},
		{4 << 10, true, 1},
		{chunk - 1, true, 1},
		{chunk, true, 1},
		{chunk + 1, true, 2},
		{3*chunk + 5, true, 4},
		{0, false, 1},
		{4 << 10, false, 1},
		{chunk + 1, false, 2},
		// A source of unknown size that ends on a chunk boundary is only
		// known to have ended by the read after it: one closing chunk of
		// no bytes.
		{chunk, false, 2},
		{2 * chunk, false, 3},
	} {
		blob := seededBlob(int64(100+i), tc.size)
		size := int64(-1)
		if tc.announce {
			size = int64(tc.size)
		}
		before := messages.Value()
		ref, err := c.PutFrom(ctx, "b", struct{ io.Reader }{bytes.NewReader(blob)}, size)
		if err != nil {
			t.Fatalf("put %d bytes (announced %v): %v", tc.size, tc.announce, err)
		}
		if got := messages.Value() - before; got != 2*tc.puts {
			t.Errorf("put %d bytes (announced %v): %d control messages, want %d", tc.size, tc.announce, got, 2*tc.puts)
		}
		if ref.Hash != hashOf(blob) || ref.Size != int64(tc.size) {
			t.Fatalf("put %d bytes (announced %v): ref = %+v", tc.size, tc.announce, ref)
		}
		before = messages.Value()
		back, err := c.Get(ctx, ref.Hash)
		if err != nil || !bytes.Equal(back, blob) {
			t.Fatalf("get %d bytes: err %v, exact %v", tc.size, err, bytes.Equal(back, blob))
		}
		gets := int64(max(1, (tc.size+chunk-1)/chunk))
		if got := messages.Value() - before; got != 2*gets {
			t.Errorf("get %d bytes: %d control messages, want %d", tc.size, got, 2*gets)
		}
	}
	if open := f.reg.Gauge(metrics.StageUploads).Value(); open != 0 {
		t.Errorf("%s = %d after every upload committed", metrics.StageUploads, open)
	}
}

// TestUploadDiesWithItsConnection: a connection that closes part-way
// through an upload takes the upload with it; nothing of the blob is in
// the store.
func TestUploadDiesWithItsConnection(t *testing.T) {
	f := newFixture(t, 1)
	c, ctx := loggedIn(t, f)
	store := f.tb.Sites[0].Proxy.Store()
	blob := seededBlob(41, 3<<20)
	src := failure.HoldBody(blob, 3<<19)
	failed := make(chan error, 1)
	go func() {
		_, err := c.PutFrom(ctx, "cut.bin", src, int64(len(blob)))
		failed <- err
	}()
	<-src.Parked()
	waitGauge(t, f.reg, metrics.StageUploads, 1)
	_ = c.Close()
	src.Release()
	if err := <-failed; err == nil {
		t.Fatal("upload over a closed connection succeeded")
	}
	waitGauge(t, f.reg, metrics.StageUploads, 0)
	if store.Blobs() != 0 || store.Has(hashOf(blob)) {
		t.Fatalf("store holds %d blobs after an upload that never finished", store.Blobs())
	}
	waitQuiet(t, store)
}

// TestFailedSourceAbortsUpload: when the source fails part-way the proxy
// is told to drop what it holds, and the connection carries on.
func TestFailedSourceAbortsUpload(t *testing.T) {
	f := newFixture(t, 1)
	c, ctx := loggedIn(t, f)
	store := f.tb.Sites[0].Proxy.Store()
	blob := seededBlob(43, 3<<20)
	boom := errors.New("disk on fire")
	src := io.MultiReader(bytes.NewReader(blob[:3<<19]), iotestErrReader{boom})
	if _, err := c.PutFrom(ctx, "half.bin", src, int64(len(blob))); !errors.Is(err, boom) {
		t.Fatalf("PutFrom = %v, want the source's error", err)
	}
	waitGauge(t, f.reg, metrics.StageUploads, 0)
	if store.Blobs() != 0 {
		t.Fatalf("store holds %d blobs after an aborted upload", store.Blobs())
	}
	waitQuiet(t, store)
	// A source that ends before the size it was announced with is an
	// error too, not a shorter blob.
	if _, err := c.PutFrom(ctx, "short.bin", bytes.NewReader(blob[:100]), 200); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("PutFrom of a short source = %v, want io.ErrUnexpectedEOF", err)
	}
	if ref, err := c.Put(ctx, "whole.bin", blob); err != nil || ref.Hash != hashOf(blob) {
		t.Fatalf("put after an aborted upload: %+v, %v", ref, err)
	}
	waitQuiet(t, store)
}

type iotestErrReader struct{ err error }

func (r iotestErrReader) Read([]byte) (int, error) { return 0, r.err }
