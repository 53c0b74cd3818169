// Package mpi is a from-scratch message-passing runtime with the MPI
// programming model: ranks, point-to-point Send/Recv with tag matching,
// and the standard collectives (Barrier, Bcast, Reduce, Allreduce,
// Scatter, Gather, Allgather).
//
// The runtime is deliberately transport-blind: every rank reaches every
// other rank through an address table and a transport.Network. When all
// addresses are site-local the application runs exactly as on one cluster
// (paper Figure 3a). When some addresses point at a proxy's virtual-slave
// endpoints, traffic is transparently multiplexed through the inter-site
// TLS tunnel (Figure 3b) — the application code cannot tell the
// difference, which is the paper's MPI-support claim: "applications
// written in MPI can be executed transparently in the Grid, i.e., without
// the need to alter any code".
package mpi

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"sync"
	"time"

	"gridproxy/internal/transport"
	"gridproxy/internal/wire"
)

// Wildcards for Recv matching.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches any user tag.
	AnyTag = -1
)

// internalTagBase marks tags reserved for collectives. User tags must be
// non-negative.
const internalTagBase = -1000

// Frame types on rank-to-rank connections.
const (
	frameHello byte = 0x20
	frameMsg   byte = 0x21
)

// Package errors.
var (
	// ErrClosed is returned after the world shut down.
	ErrClosed = errors.New("mpi: world closed")
	// ErrBadRank is returned for out-of-range ranks.
	ErrBadRank = errors.New("mpi: rank out of range")
	// ErrBadTag is returned for negative user tags.
	ErrBadTag = errors.New("mpi: user tags must be non-negative")
)

// Message is one received point-to-point message.
type Message struct {
	From int
	Tag  int
	Data []byte
}

// Config wires a rank into its world.
type Config struct {
	// Rank of this process and total WorldSize.
	Rank      int
	WorldSize int
	// Table maps each rank to the address this process dials to reach
	// it. The entry for Rank itself is ignored.
	Table map[int]string
	// ListenAddr is where this rank accepts peer connections.
	ListenAddr string
	// Network is the transport (site-local network for grid nodes).
	Network transport.Network
	// Logger may be nil, which logs nothing.
	Logger *slog.Logger
}

// World is one rank's handle on the computation.
type World struct {
	rank    int
	size    int
	table   map[int]string
	network transport.Network
	log     *slog.Logger

	listener net.Listener
	inbox    *inbox

	mu       sync.Mutex
	sendTo   map[int]*sendConn
	accepted map[net.Conn]struct{}
	closed   bool
	collSeq  uint64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

type sendConn struct {
	once sync.Once
	conn net.Conn
	w    *wire.Writer
	err  error
}

// Join starts this rank: it binds its listen address and returns
// immediately; connections to peers are established lazily on first send.
func Join(ctx context.Context, cfg Config) (*World, error) {
	if cfg.WorldSize <= 0 {
		return nil, fmt.Errorf("mpi: world size %d", cfg.WorldSize)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.WorldSize {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadRank, cfg.Rank, cfg.WorldSize)
	}
	if cfg.Network == nil {
		return nil, errors.New("mpi: nil network")
	}
	ln, err := cfg.Network.Listen(cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("mpi: rank %d listen %s: %w", cfg.Rank, cfg.ListenAddr, err)
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	wctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	w := &World{
		rank:     cfg.Rank,
		size:     cfg.WorldSize,
		table:    cfg.Table,
		network:  cfg.Network,
		log:      log,
		listener: ln,
		inbox:    newInbox(),
		sendTo:   make(map[int]*sendConn),
		accepted: make(map[net.Conn]struct{}),
		ctx:      wctx,
		cancel:   cancel,
	}
	w.wg.Add(1)
	go w.acceptLoop()
	return w, nil
}

// Rank returns this process's rank.
func (w *World) Rank() int { return w.rank }

// Size returns the world size.
func (w *World) Size() int { return w.size }

// acceptLoop admits peer connections; each must open with a Hello frame
// identifying the sender's rank, after which the connection carries only
// inbound messages (the peer's sends).
func (w *World) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.listener.Accept()
		if err != nil {
			return
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			_ = conn.Close()
			return
		}
		w.accepted[conn] = struct{}{}
		w.mu.Unlock()
		w.wg.Add(1)
		go w.readLoop(conn)
	}
}

func (w *World) readLoop(conn net.Conn) {
	defer w.wg.Done()
	defer func() {
		_ = conn.Close()
		w.mu.Lock()
		delete(w.accepted, conn)
		w.mu.Unlock()
	}()
	// Frames are read through the wire payload pool; this loop is the
	// single owner of each lease and releases it once the fields it keeps
	// (Buffer.Bytes copies the message body) are extracted.
	r := wire.NewReader(conn)
	frame, err := r.ReadFramePooled()
	if err != nil || frame.Type != frameHello || len(frame.Payload) < 4 {
		wire.PutPayload(frame.Payload)
		w.log.Warn("mpi: bad hello", "rank", w.rank, "err", err)
		return
	}
	from := int(wire.NewBuffer(frame.Payload).Uint32())
	wire.PutPayload(frame.Payload)
	if from < 0 || from >= w.size {
		w.log.Warn("mpi: hello from invalid rank", "rank", w.rank, "from", from)
		return
	}
	for {
		frame, err := r.ReadFramePooled()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				w.log.Debug("mpi: read loop end", "rank", w.rank, "from", from, "err", err)
			}
			return
		}
		if frame.Type != frameMsg {
			wire.PutPayload(frame.Payload)
			w.log.Warn("mpi: unexpected frame", "rank", w.rank, "type", frame.Type)
			return
		}
		buf := wire.NewBuffer(frame.Payload)
		msgFrom := int(buf.Uint32())
		tag := int(buf.Int64())
		data := buf.Bytes()
		corrupt := buf.Err() != nil || msgFrom != from
		wire.PutPayload(frame.Payload)
		if corrupt {
			w.log.Warn("mpi: corrupt message", "rank", w.rank, "from", from)
			return
		}
		w.inbox.deliver(Message{From: msgFrom, Tag: tag, Data: data})
	}
}

// connTo returns (dialing if needed) the send connection to a peer.
func (w *World) connTo(ctx context.Context, to int) (*sendConn, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, ErrClosed
	}
	sc, ok := w.sendTo[to]
	if !ok {
		sc = &sendConn{}
		w.sendTo[to] = sc
	}
	w.mu.Unlock()

	sc.once.Do(func() {
		addr, ok := w.table[to]
		if !ok {
			sc.err = fmt.Errorf("mpi: rank %d has no address for rank %d", w.rank, to)
			return
		}
		// Ranks start concurrently across nodes and sites; the peer's
		// listener may not be bound yet, so dialing retries with
		// backoff until the context gives up.
		conn, err := dialRetry(ctx, w.network, addr)
		if err != nil {
			sc.err = fmt.Errorf("mpi: rank %d dial rank %d (%s): %w", w.rank, to, addr, err)
			return
		}
		writer := wire.NewWriter(conn)
		hello := wire.AppendUint32(nil, uint32(w.rank))
		if err := writer.WriteFrame(frameHello, hello); err != nil {
			_ = conn.Close()
			sc.err = fmt.Errorf("mpi: rank %d hello to %d: %w", w.rank, to, err)
			return
		}
		sc.conn = conn
		sc.w = writer
	})
	if sc.err != nil {
		return nil, sc.err
	}
	return sc, nil
}

// Send delivers data to rank `to` with the given tag. User tags must be
// non-negative. Sends are buffered by the transport; Send returns once the
// message is written.
func (w *World) Send(ctx context.Context, to, tag int, data []byte) error {
	if tag < 0 {
		return ErrBadTag
	}
	return w.send(ctx, to, tag, data)
}

func (w *World) send(ctx context.Context, to, tag int, data []byte) error {
	if to < 0 || to >= w.size {
		return fmt.Errorf("%w: send to %d", ErrBadRank, to)
	}
	if to == w.rank {
		// Self-sends loop back without touching the network.
		w.inbox.deliver(Message{From: w.rank, Tag: tag, Data: append([]byte(nil), data...)})
		return nil
	}
	sc, err := w.connTo(ctx, to)
	if err != nil {
		return err
	}
	// Gather header and body straight into the writer's coalescing
	// buffer: rank + tag + uvarint length fit a small stack prefix, and
	// the message body is never copied into an intermediate payload.
	var hb [22]byte
	hdr := wire.AppendUint32(hb[:0], uint32(w.rank))
	hdr = wire.AppendInt64(hdr, int64(tag))
	hdr = binary.AppendUvarint(hdr, uint64(len(data)))
	if err := sc.w.WriteFramev(frameMsg, hdr, data); err != nil {
		return fmt.Errorf("mpi: rank %d send to %d: %w", w.rank, to, err)
	}
	return nil
}

// Recv returns the next message matching (from, tag); AnySource and AnyTag
// wildcard. It blocks until a match arrives, ctx is done, or the world
// closes.
func (w *World) Recv(ctx context.Context, from, tag int) (Message, error) {
	if tag < 0 && tag != AnyTag {
		return Message{}, ErrBadTag
	}
	return w.recv(ctx, from, tag)
}

func (w *World) recv(ctx context.Context, from, tag int) (Message, error) {
	if from != AnySource && (from < 0 || from >= w.size) {
		return Message{}, fmt.Errorf("%w: recv from %d", ErrBadRank, from)
	}
	return w.inbox.recv(ctx, w.ctx, from, tag)
}

// Close tears the rank down: the listener and all connections close and
// pending Recv calls fail.
func (w *World) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	conns := make([]*sendConn, 0, len(w.sendTo))
	for _, sc := range w.sendTo {
		conns = append(conns, sc)
	}
	inbound := make([]net.Conn, 0, len(w.accepted))
	for conn := range w.accepted {
		inbound = append(inbound, conn)
	}
	w.mu.Unlock()

	w.cancel()
	_ = w.listener.Close()
	for _, sc := range conns {
		if sc.conn != nil {
			_ = sc.conn.Close()
		}
	}
	for _, conn := range inbound {
		_ = conn.Close()
	}
	w.inbox.close()
	w.wg.Wait()
	return nil
}

// --- inbox -----------------------------------------------------------------

// inbox holds undelivered messages and wakes matching receivers.
type inbox struct {
	mu      sync.Mutex
	pending []Message
	waiters map[*waiter]struct{}
	closed  bool
}

type waiter struct {
	from, tag int
	ch        chan Message
}

func newInbox() *inbox {
	return &inbox{waiters: make(map[*waiter]struct{})}
}

func matches(m Message, from, tag int) bool {
	return (from == AnySource || m.From == from) && (tag == AnyTag || m.Tag == tag)
}

func (in *inbox) deliver(m Message) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return
	}
	for wt := range in.waiters {
		if matches(m, wt.from, wt.tag) {
			delete(in.waiters, wt)
			wt.ch <- m
			return
		}
	}
	in.pending = append(in.pending, m)
}

func (in *inbox) recv(ctx, worldCtx context.Context, from, tag int) (Message, error) {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return Message{}, ErrClosed
	}
	for i, m := range in.pending {
		if matches(m, from, tag) {
			in.pending = append(in.pending[:i], in.pending[i+1:]...)
			in.mu.Unlock()
			return m, nil
		}
	}
	wt := &waiter{from: from, tag: tag, ch: make(chan Message, 1)}
	in.waiters[wt] = struct{}{}
	in.mu.Unlock()

	select {
	case m := <-wt.ch:
		return m, nil
	case <-ctx.Done():
		in.drop(wt)
		// A message may have raced into the channel; prefer it.
		select {
		case m := <-wt.ch:
			return m, nil
		default:
		}
		return Message{}, ctx.Err()
	case <-worldCtx.Done():
		in.drop(wt)
		select {
		case m := <-wt.ch:
			return m, nil
		default:
		}
		return Message{}, ErrClosed
	}
}

func (in *inbox) drop(wt *waiter) {
	in.mu.Lock()
	delete(in.waiters, wt)
	in.mu.Unlock()
}

func (in *inbox) close() {
	in.mu.Lock()
	in.closed = true
	in.mu.Unlock()
}

// dialStartupWindow bounds how long a rank retries dialing a peer that has
// not bound its listener yet.
const dialStartupWindow = 15 * time.Second

// dialRetry dials addr, retrying with linear backoff while the peer's
// listener is still coming up.
func dialRetry(ctx context.Context, network transport.Network, addr string) (net.Conn, error) {
	deadline := time.Now().Add(dialStartupWindow)
	delay := 2 * time.Millisecond
	for {
		conn, err := network.Dial(ctx, addr)
		if err == nil {
			return conn, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
		if delay < 100*time.Millisecond {
			delay += 2 * time.Millisecond
		}
	}
}

// --- float64 payload helpers ------------------------------------------------

// EncodeFloat64s packs a float64 slice for Send.
func EncodeFloat64s(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// DecodeFloat64s unpacks a payload written by EncodeFloat64s.
func DecodeFloat64s(data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("mpi: float64 payload length %d not a multiple of 8", len(data))
	}
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(data[8*i:]))
	}
	return out, nil
}
