package stage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gridproxy/internal/failure"
	"gridproxy/internal/metrics"
)

// recConn records, for one puller-side stream, the order of its writes
// and its reads that returned bytes ('w' / 'r'), and the op byte of
// every request frame written (each request is one Write).
type recConn struct {
	net.Conn
	rec *streamRecorder

	mu     sync.Mutex
	events []byte
	ops    []byte
}

func (c *recConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.events = append(c.events, 'w')
	if len(p) > 4 && int(binary.BigEndian.Uint32(p)) == len(p)-4 {
		c.ops = append(c.ops, p[4])
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		c.events = append(c.events, 'r')
		c.mu.Unlock()
		c.rec.noteRead()
	}
	return n, err
}

// turns counts the request/response turns the stream took: a turn is a
// run of writes followed by a run of reads.
func (c *recConn) turns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i, e := range c.events {
		if e == 'w' && (i == 0 || c.events[i-1] == 'r') {
			n++
		}
	}
	return n
}

// streamRecorder wraps a Dialer so every stream it opens is a recConn.
// With gate > 0, no dial returns before gate dials have been called, so
// a puller that dialed its streams one after another (or dialed the
// next only after reading from the first) would hang instead of pass.
type streamRecorder struct {
	inner Dialer
	gate  int

	mu              sync.Mutex
	conns           []*recConn
	called          int
	gateOpen        chan struct{}
	dialsAtFirstRsp int // dial calls made when the first response byte arrived
}

func newStreamRecorder(inner Dialer, gate int) *streamRecorder {
	return &streamRecorder{inner: inner, gate: gate, gateOpen: make(chan struct{}), dialsAtFirstRsp: -1}
}

func (r *streamRecorder) noteRead() {
	r.mu.Lock()
	if r.dialsAtFirstRsp < 0 {
		r.dialsAtFirstRsp = r.called
	}
	r.mu.Unlock()
}

func (r *streamRecorder) dial(ctx context.Context) (net.Conn, error) {
	r.mu.Lock()
	r.called++
	if r.called == r.gate {
		close(r.gateOpen)
	}
	r.mu.Unlock()
	if r.gate > 0 {
		select {
		case <-r.gateOpen:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	conn, err := r.inner(ctx)
	if err != nil {
		return nil, err
	}
	rc := &recConn{Conn: conn, rec: r}
	r.mu.Lock()
	r.conns = append(r.conns, rc)
	r.mu.Unlock()
	return rc, nil
}

// onFirstDial returns a server-side wrap hook that applies wrapFirst to
// the first connection dialed and leaves later ones (the redials) clean.
func onFirstDial(wrapFirst func(net.Conn) net.Conn) func(net.Conn) net.Conn {
	var first sync.Once
	return func(conn net.Conn) net.Conn {
		first.Do(func() { conn = wrapFirst(conn) })
		return conn
	}
}

// wantOnlyGets fails the test if any stream carried a request other
// than a get: the pull path has no request that only asks for a size.
func (r *streamRecorder) wantOnlyGets(t *testing.T) {
	t.Helper()
	for i, c := range r.conns {
		for _, op := range c.ops {
			if op != opGet {
				t.Errorf("stream %d sent op %d; the pull path sends only gets", i, op)
			}
		}
	}
}

func seededBlob(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func wantBlob(t *testing.T, dst *Store, ref FileRef, data []byte) {
	t.Helper()
	if got, ok := dst.Get(ref.Hash); !ok || !bytes.Equal(got, data) {
		t.Fatalf("blob %s did not arrive exact", short(ref.Hash))
	}
}

// wantQuiet fails the test unless the store's arena holds nothing beyond
// its blobs and no View or ChunkLoan is outstanding: every buffer a Writer
// or a pull took has been stored or given back.
func wantQuiet(t *testing.T, s *Store) {
	t.Helper()
	if bytes, pins := s.Outstanding(); bytes != 0 || pins != 0 {
		t.Errorf("store holds %d bytes beyond its blobs and %d pins", bytes, pins)
	}
}

func wantCounter(t *testing.T, reg *metrics.Registry, name string, want int64) {
	t.Helper()
	if got := reg.Counter(name).Value(); got != want {
		t.Errorf("%s = %d, want %d", name, got, want)
	}
}

// TestPullAllOneTurnPerStream is the round-trip budget of a cold
// two-input stage-in: four streams, all dialed before any response byte
// is read, each writing all its requests before its first read, and no
// request that exists only to learn a size.
func TestPullAllOneTurnPerStream(t *testing.T) {
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, reg)
	blobs := [][]byte{seededBlob(1, 4<<20), seededBlob(2, 4<<20)}
	refs := []FileRef{src.Put(blobs[0]), src.Put(blobs[1])}

	cfg := Config{Stripes: 4, IdleTimeout: 2 * time.Second}
	rec := newStreamRecorder(pipeDialer(src, cfg, nil, nil), 4)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, err := range PullAll(ctx, rec.dial, refs, dst, cfg, reg) {
		if err != nil {
			t.Fatalf("ref %d: %v", i, err)
		}
		wantBlob(t, dst, refs[i], blobs[i])
	}

	if len(rec.conns) != 4 {
		t.Fatalf("dialed %d streams, want 4", len(rec.conns))
	}
	if rec.dialsAtFirstRsp != 4 {
		t.Errorf("first response byte was read after %d dials, want all 4 dialed first", rec.dialsAtFirstRsp)
	}
	var requests int
	for i, c := range rec.conns {
		if got := c.turns(); got != 1 {
			t.Errorf("stream %d took %d turns (%s), want 1: every request before the first read", i, got, c.events)
		}
		requests += len(c.ops)
	}
	rec.wantOnlyGets(t)
	if requests != 4 {
		t.Errorf("plan sent %d requests, want 4 (one span per stream)", requests)
	}
	wantCounter(t, reg, metrics.StageStreamsDialed, 4)
	wantCounter(t, reg, metrics.StageRequests, 4)
	wantCounter(t, reg, metrics.StageCacheMisses, 2)
	wantCounter(t, reg, metrics.StagePulls, 2)
	wantCounter(t, reg, metrics.StageBytesReceived, 8<<20)
}

// TestPullUnknownSizeTwoTurns: the one-ref call without a size learns it
// from the header of the get for the leading chunk — no stat — and the
// stream that asked carries its share of the rest in its second turn.
func TestPullUnknownSizeTwoTurns(t *testing.T) {
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, reg)
	data := seededBlob(3, 1<<20)
	ref := src.Put(data)

	cfg := Config{ChunkSize: 64 << 10, Stripes: 4, IdleTimeout: 2 * time.Second}
	rec := newStreamRecorder(pipeDialer(src, cfg, nil, nil), 0)
	if err := Pull(context.Background(), rec.dial, ref.Hash, dst, cfg, reg); err != nil {
		t.Fatal(err)
	}
	wantBlob(t, dst, ref, data)
	if len(rec.conns) != 4 {
		t.Fatalf("dialed %d streams, want 4", len(rec.conns))
	}
	if got := rec.conns[0].turns(); got > 2 {
		t.Errorf("first stream took %d turns (%s), want at most 2", got, rec.conns[0].events)
	}
	rec.wantOnlyGets(t)
	wantCounter(t, reg, metrics.StageRequests, 5)
	wantCounter(t, reg, metrics.StageBytesReceived, 1<<20)
}

// TestPullUnknownSizeEmptyAndSubChunk: blobs no longer than the leading
// chunk are complete after the one request that learned their size.
func TestPullUnknownSizeEmptyAndSubChunk(t *testing.T) {
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, reg)
	blobs := [][]byte{nil, seededBlob(4, 1000)}
	refs := []FileRef{{Hash: src.Put(blobs[0]).Hash}, {Hash: src.Put(blobs[1]).Hash}}

	cfg := Config{IdleTimeout: 2 * time.Second}
	for i, err := range PullAll(context.Background(), pipeDialer(src, cfg, nil, nil), refs, dst, cfg, reg) {
		if err != nil {
			t.Fatalf("ref %d: %v", i, err)
		}
		wantBlob(t, dst, refs[i], blobs[i])
	}
	wantCounter(t, reg, metrics.StageRequests, 1) // the empty blob is known by its hash
}

// TestPullAllEmptyAndUnknownBesideKnown: the leading span of a blob of
// unknown size stays one request on one stream although the share
// boundary of a plan that also carries small sized blobs falls inside
// it, and the empty blob, whose trusted size of 0 reads as unknown,
// costs no request at all. (Split, the lead span had two streams size
// one buffer, and the one that asked past offset 0 was refused.)
func TestPullAllEmptyAndUnknownBesideKnown(t *testing.T) {
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, reg)
	blobs := [][]byte{seededBlob(15, 100), nil, seededBlob(16, 200<<10), seededBlob(17, 300)}
	var refs []FileRef
	for _, data := range blobs {
		refs = append(refs, src.Put(data))
	}
	refs[2].Size = 0

	cfg := Config{ChunkSize: 64 << 10, Stripes: 4, IdleTimeout: 2 * time.Second}
	rec := newStreamRecorder(pipeDialer(src, cfg, nil, nil), 0)
	for i, err := range PullAll(context.Background(), rec.dial, refs, dst, cfg, reg) {
		if err != nil {
			t.Fatalf("ref %d: %v", i, err)
		}
		wantBlob(t, dst, refs[i], blobs[i])
	}
	rec.wantOnlyGets(t)
	wantCounter(t, reg, metrics.StageBytesReceived, 100+200<<10+300)
	wantCounter(t, reg, metrics.StageChunkRetries, 0)
	wantCounter(t, reg, metrics.StagePulls, 4)
}

// TestPullAllRefusalIsNotSizeMismatch: a refusal that carries no size
// (the answer to a request the server could not read) fails its blob as
// a refusal, not as a size mismatch with the ref, and leaves the stream
// in sync for the blob behind it.
func TestPullAllRefusalIsNotSizeMismatch(t *testing.T) {
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, nil)
	blobs := [][]byte{seededBlob(18, 3000), seededBlob(19, 2000)}
	refs := []FileRef{src.Put(blobs[0]), src.Put(blobs[1])}

	cfg := Config{ChunkSize: 1 << 10, Stripes: 1, IdleTimeout: 2 * time.Second}
	answer := &scriptConn{in: bytes.NewReader(fuzzGet(nil, refs[1].Hash, 0, 2000, 1<<10))}
	if err := Serve(answer, src, cfg, nil); err != nil {
		t.Fatal(err)
	}
	script := append(wireStatus(statusBad, 0), answer.out.Bytes()...)
	dials := 0
	dial := func(context.Context) (net.Conn, error) {
		dials++
		return &scriptConn{in: bytes.NewReader(script)}, nil
	}
	errs := PullAll(context.Background(), dial, refs, dst, cfg, nil)
	if errs[0] == nil || errors.Is(errs[0], ErrSizeMismatch) || !strings.Contains(errs[0].Error(), "rejected") {
		t.Fatalf("refused blob: got %v, want a rejection that is not ErrSizeMismatch", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("blob behind the refusal failed: %v", errs[1])
	}
	wantBlob(t, dst, refs[1], blobs[1])
	if dials != 1 {
		t.Fatalf("dialed %d streams, want 1: the refusal left the stream in sync", dials)
	}
}

// TestPullUnknownSizeResumesSubChunk: a link that drops after the header
// taught the size but inside the blob's only chunk is resumed with a
// request clipped to the learned size, not to the leading chunk's
// nominal length.
func TestPullUnknownSizeResumesSubChunk(t *testing.T) {
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, nil)
	data := seededBlob(14, 40<<10)
	ref := src.Put(data)

	cfg := Config{ChunkSize: 64 << 10, IdleTimeout: 2 * time.Second}
	dial := pipeDialer(src, cfg, nil, onFirstDial(func(conn net.Conn) net.Conn {
		return &cutConn{Conn: conn, budget: 1 << 10} // the header passes, the chunk does not
	}))
	if err := Pull(context.Background(), dial, ref.Hash, dst, cfg, nil); err != nil {
		t.Fatal(err)
	}
	wantBlob(t, dst, ref, data)
}

// TestPullAllSmallRefsShareStreams: stripes bounds the streams of the
// plan, not of each blob.
func TestPullAllSmallRefsShareStreams(t *testing.T) {
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, reg)
	var (
		blobs [][]byte
		refs  []FileRef
	)
	for i := 0; i < 40; i++ {
		blobs = append(blobs, seededBlob(int64(100+i), 4<<10))
		refs = append(refs, src.Put(blobs[i]))
	}
	// Two names for one blob, and one the destination already holds.
	refs = append(refs, FileRef{Name: "again", Hash: refs[0].Hash, Size: refs[0].Size})
	blobs = append(blobs, blobs[0])
	held := seededBlob(99, 4<<10)
	refs = append(refs, dst.Put(held))
	blobs = append(blobs, held)

	cfg := Config{Stripes: 4, IdleTimeout: 2 * time.Second}
	for i, err := range PullAll(context.Background(), pipeDialer(src, cfg, nil, nil), refs, dst, cfg, reg) {
		if err != nil {
			t.Fatalf("ref %d: %v", i, err)
		}
		wantBlob(t, dst, refs[i], blobs[i])
	}
	if got := reg.Counter(metrics.StageStreamsDialed).Value(); got < 1 || got > 4 {
		t.Errorf("stage.streams_dialed = %d, want 1..4 for 40 small refs", got)
	}
	wantCounter(t, reg, metrics.StageRequests, 40)
	wantCounter(t, reg, metrics.StageCacheMisses, 40)
	wantCounter(t, reg, metrics.StageCacheHits, 2)
}

// TestPullAllWarmOpensNothing: a plan whose refs are all held dials no
// stream.
func TestPullAllWarmOpensNothing(t *testing.T) {
	reg := metrics.NewRegistry()
	dst, _ := NewStore(Config{}, reg)
	refs := []FileRef{dst.Put(seededBlob(5, 1000)), dst.Put(seededBlob(6, 1000))}
	dial := func(ctx context.Context) (net.Conn, error) {
		t.Error("a warm plan dialed a stream")
		return nil, errors.New("no dialing")
	}
	for i, err := range PullAll(context.Background(), dial, refs, dst, Config{}, reg) {
		if err != nil {
			t.Fatalf("ref %d: %v", i, err)
		}
	}
	wantCounter(t, reg, metrics.StageCacheHits, 2)
	wantCounter(t, reg, metrics.StageCacheMisses, 0)
}

// TestPullAllRecoversAcrossBlobs is the multi-blob twin of the corrupt
// chunk and link drop tests: one stream carries blob A then blob B, a
// chunk of A is corrupted and the link dies halfway through B. The
// redialed stream re-requests exactly the two affected spans.
func TestPullAllRecoversAcrossBlobs(t *testing.T) {
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, reg)
	blobs := [][]byte{seededBlob(7, 512<<10), seededBlob(8, 512<<10)}
	refs := []FileRef{src.Put(blobs[0]), src.Put(blobs[1])}

	var corr failure.Corrupter
	corr.Arm(1)
	cfg := Config{ChunkSize: 16 << 10, Stripes: 1, IdleTimeout: 2 * time.Second}
	dial := pipeDialer(src, cfg, nil, onFirstDial(func(conn net.Conn) net.Conn {
		return corr.Wrap(&cutConn{Conn: conn, budget: 768 << 10})
	}))
	for i, err := range PullAll(context.Background(), dial, refs, dst, cfg, reg) {
		if err != nil {
			t.Fatalf("ref %d: %v", i, err)
		}
		wantBlob(t, dst, refs[i], blobs[i])
	}
	wantCounter(t, reg, metrics.StageCorruptChunks, 1)
	wantCounter(t, reg, metrics.StageResumes, 1)
	wantCounter(t, reg, metrics.StageChunkRetries, 2) // A's bad chunk, B's unread tail
	wantCounter(t, reg, metrics.StageStreamsDialed, 2)
	wantCounter(t, reg, metrics.StageBytesReceived, 1<<20) // nothing verified twice
	wantQuiet(t, dst)
}

// poisonConn flips a byte in every chunk frame that carries one chunk's
// checksum, so the blob that chunk belongs to can never complete while
// others on the same stream can.
type poisonConn struct {
	net.Conn
	sum []byte // checksum of the poisoned chunk, as it appears in its frame
}

func (c *poisonConn) Write(p []byte) (int, error) {
	if len(p) > 4+len(c.sum) && bytes.Equal(p[4:4+len(c.sum)], c.sum) {
		q := append([]byte(nil), p...)
		q[len(q)-1] ^= 0xFF
		p = q
	}
	return c.Conn.Write(p)
}

// TestPullAllOneBlobFailsOthersWhole: blob A exhausts its retries; blob
// B of the same plan, which also lost its link once, is in the store
// exact, A is not in it at all, and only A's ref reports an error.
func TestPullAllOneBlobFailsOthersWhole(t *testing.T) {
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, reg)
	blobs := [][]byte{seededBlob(9, 128<<10), seededBlob(10, 128<<10)}
	refs := []FileRef{src.Put(blobs[0]), src.Put(blobs[1])}

	cfg := Config{ChunkSize: 16 << 10, Stripes: 1, IdleTimeout: 2 * time.Second, PullRetries: 2}
	sum := binary.BigEndian.AppendUint32(nil, crc32.Checksum(blobs[0][:cfg.ChunkSize], castagnoli))
	cut := onFirstDial(func(conn net.Conn) net.Conn {
		return &cutConn{Conn: conn, budget: 192 << 10} // dies halfway through B
	})
	dial := pipeDialer(src, cfg, nil, func(conn net.Conn) net.Conn {
		return cut(&poisonConn{Conn: conn, sum: sum})
	})
	errs := PullAll(context.Background(), dial, refs, dst, cfg, reg)
	if errs[0] == nil {
		t.Fatal("blob A arrived although its first chunk is corrupted on every attempt")
	}
	if errs[1] != nil {
		t.Fatalf("blob B failed with A: %v", errs[1])
	}
	wantBlob(t, dst, refs[1], blobs[1])
	if dst.Has(refs[0].Hash) {
		t.Fatal("failed blob A is in the store")
	}
	wantCounter(t, reg, metrics.StagePulls, 1)
	wantCounter(t, reg, metrics.StageResumes, 1)
	wantQuiet(t, dst)
}

// TestPullAllSizeMismatchNamed: a ref whose size is not the serving
// store's fails that blob with ErrSizeMismatch and no other.
func TestPullAllSizeMismatchNamed(t *testing.T) {
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, nil)
	blobs := [][]byte{seededBlob(11, 100<<10), seededBlob(12, 100<<10)}
	refs := []FileRef{src.Put(blobs[0]), src.Put(blobs[1])}
	refs[0].Size += 7

	cfg := Config{ChunkSize: 16 << 10, Stripes: 2, IdleTimeout: 2 * time.Second}
	errs := PullAll(context.Background(), pipeDialer(src, cfg, nil, nil), refs, dst, cfg, nil)
	if !errors.Is(errs[0], ErrSizeMismatch) {
		t.Fatalf("wrong-size ref: got %v, want ErrSizeMismatch", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("right-size ref failed: %v", errs[1])
	}
	wantBlob(t, dst, refs[1], blobs[1])
	if dst.Has(refs[0].Hash) {
		t.Fatal("wrong-size blob entered the store")
	}
	wantQuiet(t, dst)
}

// TestPullAllMissingBlobFailsAlone: a blob the serving store lacks fails
// with ErrNotFound without costing the plan's other blobs anything.
func TestPullAllMissingBlobFailsAlone(t *testing.T) {
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, reg)
	data := seededBlob(13, 100<<10)
	refs := []FileRef{{Hash: Hash([]byte("nope")), Size: 4}, src.Put(data)}

	cfg := Config{ChunkSize: 16 << 10, Stripes: 1, IdleTimeout: 2 * time.Second}
	errs := PullAll(context.Background(), pipeDialer(src, cfg, nil, nil), refs, dst, cfg, reg)
	if !errors.Is(errs[0], ErrNotFound) {
		t.Fatalf("missing blob: got %v, want ErrNotFound", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("present blob failed: %v", errs[1])
	}
	wantBlob(t, dst, refs[1], data)
	wantCounter(t, reg, metrics.StageStreamsDialed, 1) // the refusal left the stream in sync
}
