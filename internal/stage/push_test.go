package stage

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/transport"
	"gridproxy/internal/wire"
)

// pushPair is a serving store and a receiving one over a mem network:
// the receiver dials the server for pulls and for its inbox streams, as
// a destination proxy does towards an origin.
type pushPair struct {
	src, dst *Store
	out      *Outbox
	in       *Inbox
	dial     Dialer
	reg      *metrics.Registry
}

func newPushPair(t *testing.T, cfg Config, inboxes int) *pushPair {
	t.Helper()
	reg := metrics.NewRegistry()
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, reg)
	pp := &pushPair{src: src, dst: dst, out: NewOutbox(src, cfg, nil), in: NewInbox(dst, cfg, reg), reg: reg}
	netw := transport.NewMemNetwork()
	ln, err := netw.Listen("src")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go pp.out.Serve(conn, nil)
		}
	}()
	pp.dial = func(ctx context.Context) (net.Conn, error) { return netw.Dial(ctx, "src") }
	for i := 0; i < inboxes; i++ {
		conn, err := pp.dial(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		go pp.in.Receive(conn)
	}
	t.Cleanup(func() {
		netw.Close()
		<-done
	})
	waitFor(t, "the inbox streams are taken", func() bool { return pp.out.Streams() == inboxes })
	return pp
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("%s: not within 5s", what)
}

// TestPushFillsThePlan: blobs pushed ahead of a plan are waited for, not
// requested; they count as misses and pulls, verify, and leave no buffer
// behind; the server records them as held once acked.
func TestPushFillsThePlan(t *testing.T) {
	cfg := Config{ChunkSize: 16 << 10, Stripes: 2, IdleTimeout: 2 * time.Second}
	pp := newPushPair(t, cfg, 4)
	blobs := [][]byte{seededBlob(61, 100<<10), seededBlob(62, 3000)}
	var refs []FileRef
	for _, b := range blobs {
		refs = append(refs, pp.src.Put(b))
	}
	push := pp.out.Push(refs)
	if push == nil {
		t.Fatal("nothing pushed")
	}
	go push.Run(context.Background())
	// The headers are written; a destination steps the prepare behind
	// them, after they reach its inbox streams.
	waitFor(t, "the pushed blobs registered", func() bool {
		pp.dst.mu.Lock()
		defer pp.dst.mu.Unlock()
		return len(pp.dst.arrivals) == 2
	})
	for i, err := range PullAll(context.Background(), pp.dial, refs, pp.dst, cfg, pp.reg) {
		if err != nil {
			t.Fatal(err)
		}
		wantBlob(t, pp.dst, refs[i], blobs[i])
	}
	wantCounter(t, pp.reg, metrics.StageRequests, 0)
	wantCounter(t, pp.reg, metrics.StagePushes, 2)
	wantCounter(t, pp.reg, metrics.StagePulls, 2)
	wantCounter(t, pp.reg, metrics.StageCacheMisses, 2)
	wantCounter(t, pp.reg, metrics.StageBytesReceived, 100<<10+3000)
	waitFor(t, "both blobs recorded held", func() bool { return pp.out.Held(refs[0].Hash) && pp.out.Held(refs[1].Hash) })
	if pp.out.Push(refs) != nil {
		t.Error("held blobs pushed again")
	}
	wantQuiet(t, pp.dst)
}

// TestPushRefusedByHolder: a receiver that holds the blob refuses it by
// hash; the server records it as held and cuts the rest.
func TestPushRefusedByHolder(t *testing.T) {
	cfg := Config{ChunkSize: 16 << 10, Stripes: 1, IdleTimeout: 2 * time.Second}
	pp := newPushPair(t, cfg, 1)
	data := seededBlob(63, 64<<10)
	ref := pp.src.Put(data)
	pp.dst.Put(data)
	push := pp.out.Push([]FileRef{ref})
	push.Run(context.Background())
	waitFor(t, "the refusal recorded", func() bool { return pp.out.Held(ref.Hash) && pp.out.Pushing() == 0 && pp.out.Streams() == 1 })
	wantCounter(t, pp.reg, metrics.StagePushes, 0)
	wantQuiet(t, pp.dst)
}

// TestInboxAgainstAServerThatDoesNotPush: a server that predates pushes
// answers the inbox request statusBad and stays a server to pull from.
func TestInboxAgainstAServerThatDoesNotPush(t *testing.T) {
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, nil)
	cfg := Config{IdleTimeout: time.Second}
	dial := pipeDialer(src, cfg, nil, nil)
	conn, err := dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := NewInbox(dst, cfg, nil).Receive(conn); !IsNoInbox(err) {
		t.Fatalf("Receive against a plain server: %v, want the peer-does-not-push error", err)
	}
	data := seededBlob(64, 10<<10)
	ref := src.Put(data)
	if err := Pull(context.Background(), dial, ref.Hash, dst, cfg, nil); err != nil {
		t.Fatal(err)
	}
	wantBlob(t, dst, ref, data)
}

// TestSettledPushesAreOneBoundedRecord: on one inbox stream, push 7's
// first share of a blob is cut by a terminator, and its second share of
// the same blob is then refused (ackFailed) without beginning an arrival.
// Push 8's blob arrives with a corrupt chunk and settles holed, its
// buffer kept for a plan that never comes; once maxSettled later pushes
// have settled it is let go, and no buffer or pin is left.
func TestSettledPushesAreOneBoundedRecord(t *testing.T) {
	const chunk = 16 << 10
	cut, holed := seededBlob(66, 96<<10), seededBlob(67, 80<<10)
	corrupt := wirePushed(holed, chunk)
	corrupt[chunkHeader+100] ^= 0x01
	s, _ := NewStore(Config{}, nil)
	conn := &scriptConn{in: bytes.NewReader(concat(wireStatus(statusOK, 0),
		cutThenLateShare(cut, chunk),
		wireShare(8, pushedSpanWire{Hash(holed), int64(len(holed)), 0, int64(len(holed))}), corrupt))}
	if err := NewInbox(s, Config{ChunkSize: chunk}, nil).Receive(conn); err != nil {
		t.Fatal(err)
	}
	raw := conn.out.Bytes()
	out := wire.NewBuffer(raw[framePrefix+binary.BigEndian.Uint32(raw):]) // past the inbox request
	type ack struct {
		status byte
		push   uint64
		hash   string
	}
	var acks []ack
	for out.Remaining() > 0 && out.Err() == nil {
		out.Uint32()
		acks = append(acks, ack{out.Uint8(), out.Uint64(), out.String()})
	}
	want := []ack{{ackFailed, 7, Hash(cut)}, {ackFailed, 7, Hash(cut)}, {ackFailed, 8, Hash(holed)}}
	if len(acks) != len(want) || acks[0] != want[0] || acks[1] != want[1] || acks[2] != want[2] {
		t.Fatalf("acks %v, want the cut, the refusal of the late share and the holed blob %v", acks, want)
	}
	s.mu.Lock()
	settled, waiting := len(s.settled), s.arrivals[Hash(holed)] != nil
	s.mu.Unlock()
	if settled != 2 || !waiting {
		t.Fatalf("%d pushes settled (want 2: no arrival for the late share), holed blob kept for a plan: %v", settled, waiting)
	}
	if bytes, _ := s.Outstanding(); bytes < int64(len(holed)) {
		t.Fatalf("%d bytes outstanding, want the holed blob's buffer kept", bytes)
	}
	letGo(s)
	s.mu.Lock()
	left := len(s.arrivals)
	s.mu.Unlock()
	if left != 0 {
		t.Errorf("%d arrivals left after the bound let them go", left)
	}
	wantQuiet(t, s)
}

// cutThenLateShare is an inbox script: push 7 announces the first half of
// data, writes its first chunk and cuts the rest with a terminator, then
// announces the second half and writes it.
func cutThenLateShare(data []byte, chunk int) []byte {
	hash, size, half := Hash(data), int64(len(data)), int64(len(data)/2)
	return concat(wireShare(7, pushedSpanWire{hash, size, 0, half}), wirePushed(data[:chunk], chunk), wireChunk(0, 0, nil),
		wireShare(7, pushedSpanWire{hash, size, half, size}), wirePushed(data[half:], chunk))
}

// pushedSpanWire is one span of a share header.
type pushedSpanWire struct {
	hash          string
	size, off, to int64
}

// wireShare is a share header as it appears on an inbox stream.
func wireShare(push uint64, spans ...pushedSpanWire) []byte {
	frame := wire.AppendUint64(nil, push)
	frame = wire.AppendUint32(frame, uint32(len(spans)))
	for _, sp := range spans {
		frame = wire.AppendString(frame, sp.hash)
		frame = wire.AppendInt64(frame, sp.size)
		frame = wire.AppendInt64(frame, sp.off)
		frame = wire.AppendInt64(frame, sp.to)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(frame))), frame...)
}

// wirePushed is a span's bytes as pushed: chunks of at most chunk bytes.
func wirePushed(data []byte, chunk int) []byte {
	var out []byte
	for off := 0; off < len(data); off += chunk {
		c := data[off:min(off+chunk, len(data))]
		out = append(out, wireChunk(uint32(len(c)), crc32.Checksum(c, castagnoli), c)...)
	}
	return out
}

// TestGivenUpPushIsLetGo: a plan that stops waiting for a push, here
// because its context ended, gives the push up. No later plan claims it,
// and when it settles holed its buffer goes back at once, not at the
// bound of the settled record.
func TestGivenUpPushIsLetGo(t *testing.T) {
	const chunk = 16 << 10
	data := seededBlob(68, 48<<10)
	ref := FileRef{Hash: Hash(data), Size: int64(len(data))}
	corrupt := wirePushed(data, chunk)
	corrupt[chunkHeader+100] ^= 0x01
	s, _ := NewStore(Config{}, nil)
	conn := newHeldConn()
	received := make(chan error, 1)
	go func() { received <- NewInbox(s, Config{ChunkSize: chunk}, nil).Receive(conn) }()
	conn.deliver(concat(wireStatus(statusOK, 0), wireShare(9, pushedSpanWire{ref.Hash, ref.Size, 0, ref.Size})))
	waitFor(t, "the push registered", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.arrivals[ref.Hash] != nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dial := func(ctx context.Context) (net.Conn, error) { return nil, ctx.Err() }
	if err := PullAll(ctx, dial, []FileRef{ref}, s, Config{ChunkSize: chunk}, nil)[0]; err == nil {
		t.Fatal("a plan whose context ended brought the blob")
	}
	if a, _ := s.claim(ref.Hash); a != nil {
		t.Fatal("a later plan claims the push given up")
	}
	conn.deliver(corrupt)
	conn.Close()
	if err := <-received; err != nil {
		t.Fatal(err)
	}
	wantQuiet(t, s)
}

// TestPullDoesNotWaitForAHeaderStillOnTheWire: a plan waits for a share
// header an inbox stream holds whole, but not for one whose tail has not
// arrived. It pulls that blob instead, well before the idle timeout.
func TestPullDoesNotWaitForAHeaderStillOnTheWire(t *testing.T) {
	src, _ := NewStore(Config{}, nil)
	dst, _ := NewStore(Config{}, nil)
	cfg := Config{IdleTimeout: time.Minute}
	data := seededBlob(69, 10<<10)
	ref := src.Put(data)
	conn := newHeldConn()
	received := make(chan error, 1)
	go func() { received <- NewInbox(dst, cfg, nil).Receive(conn) }()
	header := wireShare(10, pushedSpanWire{ref.Hash, ref.Size, 0, ref.Size})
	conn.deliver(concat(wireStatus(statusOK, 0), header[:20]))
	waitFor(t, "the stream holding half a header", func() bool {
		dst.mu.Lock()
		defer dst.mu.Unlock()
		for r := range dst.receivers {
			return r.state.Load() == partial
		}
		return false
	})
	done := make(chan error, 1)
	go func() { done <- Pull(context.Background(), pipeDialer(src, cfg, nil, nil), ref.Hash, dst, cfg, nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the plan waits for a header still on the wire")
	}
	wantBlob(t, dst, ref, data)
	conn.Close()
	<-received
	wantQuiet(t, dst)
}

// heldConn is an inbox stream whose peer's bytes the test delivers;
// Buffered counts those not yet read, as a tunnel stream's does.
type heldConn struct {
	net.Conn // nil: only the methods below are called
	mu       sync.Mutex
	cond     sync.Cond
	unread   []byte
	closed   bool
}

func newHeldConn() *heldConn {
	c := &heldConn{}
	c.cond.L = &c.mu
	return c
}

func (c *heldConn) deliver(b []byte) {
	c.mu.Lock()
	c.unread = append(c.unread, b...)
	c.mu.Unlock()
	c.cond.Broadcast()
}

func (c *heldConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.unread) == 0 && !c.closed {
		c.cond.Wait()
	}
	if len(c.unread) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.unread)
	c.unread = c.unread[n:]
	return n, nil
}

func (c *heldConn) Buffered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.unread)
}

func (c *heldConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cond.Broadcast()
	return nil
}

func (c *heldConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *heldConn) SetReadDeadline(time.Time) error  { return nil }
func (c *heldConn) SetWriteDeadline(time.Time) error { return nil }
