package stage

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/wire"
)

// Pushes. A proxy holds a few stage streams open to every peer, each
// begun with an inbox request, and the peer pushes on them the blobs a
// launch is about to need: the destination's stage plan finds its inputs
// arriving instead of asking for them a round trip later. The receiver
// opens the streams, so their credit is its own learned window, as a
// pull stream's is. On an inbox stream the server writes shares and the
// receiver writes acks:
//
//	share:  uint32 len | push u64, count u32, count × (hash str, size i64, off i64, end i64)
//	        then per span in order: chunks as in a get response, or a
//	        terminator (uint32 0 | u32 0) that cuts the rest of the span
//	ack:    uint32 len | status u8, push u64, hash str
//
// A share header announces every span its stream will carry, so the
// receiver registers the blobs before the prepare written behind them is
// stepped. A server that predates pushes answers the inbox request with
// statusBad, gets no pushes and is pulled from as before. Op 3 and
// status 3 are reserved: earlier builds of protocol 6 used them to mend a
// pushed blob. They are not reused, and an op 3 is answered statusBad.
const (
	opInbox = 2

	ackStored = 0 // verified and in the store
	ackHeld   = 1 // already held, or arriving by another push: the rest is not wanted
	ackFailed = 2 // cut, corrupt, over the cap or not its hash: the blob will be pulled

	// maxShareFrame bounds a share header: maxPipelined spans.
	maxShareFrame = 8 << 10

	// heldRecord is how many hashes an Outbox remembers its peer holding.
	heldRecord = 1024

	// maxSettled bounds the settled pushes a store remembers: for plans
	// that have not asked for their blob yet (their job may have been
	// aborted), and to refuse a late share of a push that ended.
	maxSettled = 256
)

// errPushLost reports a push that made no progress for as long as a
// stream may idle; the blob is pulled instead.
var errPushLost = errors.New("stage: push stalled")

// errHoled settles a pushed blob whose every chunk arrived but some
// failed their checksum: the plan that waits for it requests just those.
var errHoled = errors.New("stage: pushed blob has corrupt chunks")

// errNoInbox reports a server that does not push.
var errNoInbox = errors.New("stage: peer does not push")

// IsNoInbox reports whether err says the peer answered an inbox request
// as a server that does not push.
func IsNoInbox(err error) bool { return errors.Is(err, errNoInbox) }

// validHash reports whether s can name a blob: a hex SHA-256.
func validHash(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// outBlob is one blob on its way to the peer.
type outBlob struct {
	hash  string
	push  uint64       // the push that carries it: an ack names it
	spans atomic.Int32 // spans not yet written or cut
	cut   atomic.Bool  // the rest is not written: the peer cannot complete it, or holds it
}

// Outbox is the pushing side towards one peer: the inbox streams the peer
// opened, the record of blobs the peer holds, and the blobs on their way.
// Its Serve answers the peer's stage streams.
type Outbox struct {
	store *Store
	cfg   Config
	reg   *metrics.Registry

	mu      sync.Mutex
	live    map[net.Conn]struct{} // adopted inbox streams; guarded by mu
	free    []net.Conn            // the live ones no push holds; guarded by mu
	held    map[string]struct{}   // guarded by mu
	order   [heldRecord]string    // held's insertion ring; guarded by mu
	next    int                   // guarded by mu
	pushing map[string]*outBlob   // announced, neither acked nor given up; guarded by mu
	seq     uint64                // guarded by mu
}

// NewOutbox returns the pushing side towards one peer, serving out of
// store.
func NewOutbox(store *Store, cfg Config, reg *metrics.Registry) *Outbox {
	return &Outbox{
		store:   store,
		cfg:     cfg.WithDefaults(),
		reg:     reg,
		live:    make(map[net.Conn]struct{}),
		held:    make(map[string]struct{}),
		pushing: make(map[string]*outBlob),
	}
}

// Held reports whether the record says the peer holds hash.
func (o *Outbox) Held(hash string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	_, ok := o.held[hash]
	return ok
}

// Streams reports how many inbox streams are free.
func (o *Outbox) Streams() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.free)
}

// Pushing reports how many blobs are on their way to the peer and not yet
// stored there.
func (o *Outbox) Pushing() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.pushing)
}

func (o *Outbox) recordLocked(hash string) {
	if _, ok := o.held[hash]; ok {
		return
	}
	delete(o.held, o.order[o.next])
	o.order[o.next] = hash
	o.next = (o.next + 1) % heldRecord
	o.held[hash] = struct{}{}
}

func (o *Outbox) record(hash string) {
	o.mu.Lock()
	o.recordLocked(hash)
	o.mu.Unlock()
}

// Serve answers the peer's requests on one inbound stage stream, as the
// package-level Serve does, and takes the peer's inbox streams: such a
// stream is answered OK and kept for pushes until it ends, and the acks
// read off it keep the record. A get served to its blob's end records
// the blob as held. inbox, if not nil, counts the stream while it is an
// inbox.
func (o *Outbox) Serve(conn net.Conn, inbox *atomic.Int32) error {
	return serve(conn, o.store, o, inbox, o.cfg, o.reg)
}

// adopt keeps conn for pushes and reads the peer's acks off it until it
// ends.
func (o *Outbox) adopt(conn net.Conn) error {
	if err := writeFrame(conn, o.cfg.IdleTimeout, statusFrame(statusOK, 0)); err != nil {
		return err
	}
	o.mu.Lock()
	o.live[conn] = struct{}{}
	o.free = append(o.free, conn)
	o.mu.Unlock()
	defer o.drop(conn)
	for {
		conn.SetReadDeadline(time.Time{}) // an inbox is idle between pushes
		frame, err := readFrame(conn, 0, maxRequestFrame)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		buf := wire.NewBuffer(frame)
		status, push, hash := buf.Uint8(), buf.Uint64(), buf.String()
		if buf.Err() != nil || status > ackFailed {
			return fmt.Errorf("stage: bad push ack")
		}
		o.mu.Lock()
		if status != ackFailed {
			o.recordLocked(hash)
		}
		b := o.pushing[hash]
		if b != nil && b.push == push {
			delete(o.pushing, hash)
		} else {
			b = nil // an ack of an earlier push of the same blob
		}
		o.mu.Unlock()
		if b != nil && status != ackStored {
			b.cut.Store(true) // whatever of it is still to be written is not wanted
		}
	}
}

// drop forgets an inbox stream that ended. The peer fails every push of
// ours it was receiving when one of its inbox streams ends, so no ack is
// coming for the blobs already written: they are forgotten too.
func (o *Outbox) drop(conn net.Conn) {
	o.mu.Lock()
	delete(o.live, conn)
	o.free = slices.DeleteFunc(o.free, func(c net.Conn) bool { return c == conn })
	for hash, b := range o.pushing {
		if b.spans.Load() == 0 {
			delete(o.pushing, hash)
		}
	}
	o.mu.Unlock()
	conn.Close()
}

// Push is one set of blobs on its way to the peer, a share per inbox
// stream.
type Push struct {
	o      *Outbox
	conns  []net.Conn // nil once lost
	shares [][]span
	blobs  map[*incoming]*outBlob
}

// Push starts pushing the blobs refs name that the record does not say
// the peer holds and that are not already on their way, at most
// maxPipelined of them. Their bytes are laid end to end and cut as a pull
// plan cuts them, over as many free inbox streams as a pull would dial or
// fewer when fewer are free; with none free nothing is pushed and the
// peer pulls. Push writes every share's header before it returns, so what
// the caller sends next reaches the peer behind them; Run writes the
// bytes. It returns nil when it pushes nothing.
func (o *Outbox) Push(refs []FileRef) *Push {
	o.mu.Lock()
	var (
		spans []span
		out   map[*incoming]*outBlob
	)
	for _, ref := range refs {
		if len(spans) == maxPipelined || len(o.free) == 0 {
			break
		}
		_, held := o.held[ref.Hash]
		if held || o.pushing[ref.Hash] != nil || ref.Size <= 0 || ref.Hash == emptyHash {
			continue
		}
		pb := &incoming{hash: ref.Hash, size: ref.Size}
		b := &outBlob{hash: ref.Hash, push: o.seq + 1}
		if out == nil {
			out = make(map[*incoming]*outBlob)
		}
		o.pushing[ref.Hash] = b
		out[pb] = b
		spans = append(spans, span{pb, 0, ref.Size})
	}
	if len(spans) == 0 {
		o.mu.Unlock()
		return nil
	}
	shares := dealSpans(spans, int64(o.cfg.ChunkSize), min(o.cfg.Stripes, len(o.free)))
	conns := append([]net.Conn(nil), o.free[len(o.free)-len(shares):]...)
	o.free = o.free[:len(o.free)-len(shares)]
	for _, share := range shares {
		for _, sp := range share {
			out[sp.b].spans.Add(1)
		}
	}
	o.seq++
	id := o.seq
	o.mu.Unlock()

	p := &Push{o: o, conns: conns, shares: shares, blobs: out}
	for i, share := range shares {
		frame := wire.AppendUint64(make([]byte, framePrefix, framePrefix+12+len(share)*96), id)
		frame = wire.AppendUint32(frame, uint32(len(share)))
		for _, sp := range share {
			frame = wire.AppendString(frame, sp.b.hash)
			frame = wire.AppendInt64(frame, sp.b.size)
			frame = wire.AppendInt64(frame, sp.off)
			frame = wire.AppendInt64(frame, sp.end)
		}
		if err := writeFrame(conns[i], o.cfg.IdleTimeout, frame); err != nil {
			p.lost(i, 0)
		}
	}
	return p
}

// Blobs reports how many blobs the push carries.
func (p *Push) Blobs() int { return len(p.blobs) }

// lost gives up stream i of the push from its span k on: the stream is
// closed, so the peer fails what it was receiving from us, and every blob
// with a span left on it is cut on the other streams too.
func (p *Push) lost(i, k int) {
	p.o.drop(p.conns[i])
	p.conns[i] = nil
	for _, sp := range p.shares[i][k:] {
		b := p.blobs[sp.b]
		b.cut.Store(true)
		p.spanDone(b)
	}
}

// spanDone counts one span of b written or cut; the last one forgets a
// blob that was cut.
func (p *Push) spanDone(b *outBlob) {
	if b.spans.Add(-1) != 0 || !b.cut.Load() {
		return
	}
	p.o.mu.Lock()
	if p.o.pushing[b.hash] == b {
		delete(p.o.pushing, b.hash)
	}
	p.o.mu.Unlock()
}

// Run writes the push's bytes, each share on its stream, and returns when
// every span is written or cut. Ending ctx cuts every span not yet
// written, as does the peer refusing a blob or a blob leaving the store;
// the stream stays in step and goes back to the free ones.
func (p *Push) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for i, conn := range p.conns {
		if conn == nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.runShare(ctx, i)
		}(i)
	}
	wg.Wait()
}

func (p *Push) runShare(ctx context.Context, i int) {
	conn := p.conns[i]
	cw := newChunkWriter(conn, p.o.cfg.ChunkSize)
	for k, sp := range p.shares[i] {
		b := p.blobs[sp.b]
		// A blob that left the store is cut too: the peer pulls it, or
		// learns it is gone.
		err := cw.writeChunks(p.o.store, b.hash, sp.off, sp.end, p.o.cfg.IdleTimeout, p.o.reg, func() bool {
			return ctx.Err() != nil || b.cut.Load()
		})
		if err != nil && err != errCut {
			p.lost(i, k)
			return
		}
		if err == errCut {
			b.cut.Store(true)
		}
		p.spanDone(b)
	}
	p.o.mu.Lock()
	if _, ok := p.o.live[conn]; ok {
		p.o.free = append(p.o.free, conn)
	}
	p.o.mu.Unlock()
}
