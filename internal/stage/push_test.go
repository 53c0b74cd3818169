package stage

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"net"
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
