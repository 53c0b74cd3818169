// Package tunnel implements a stream multiplexer: many logical byte
// streams carried over a bond of one or more parallel connections joined
// into one logical session.
//
// The paper's proxy keeps a single secure (TLS) connection per remote site
// and multiplexes all grid traffic over it — control messages, spliced
// application data, and the virtual-slave MPI channels ("This mapping done
// by the proxy ... can be seen as a multiplexion of the communication
// between the source and the destination"). This package provides that
// multiplexer with per-stream flow control so one bulk stream cannot starve
// the control channel. Because that one connection is the global bottleneck
// between two sites, a session may bond k connections: every data frame
// carries a per-stream sequence number, is sprayed across the members by
// least-outstanding-bytes and reassembled in order on the far side (see
// bond.go; one connection is simply a bond of one), and the per-stream
// window can be sized adaptively from measured RTT and delivery rate
// instead of a fixed constant (see flow.go).
//
// Wire format: every tunnel frame is a wire.Frame whose payload begins with
// a 4-byte big-endian stream id (bond join/ack frames excepted; see below).
package tunnel

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/wire"
)

// Tunnel frame types (wire.Frame.Type). They occupy 0x10.. so they can
// never be confused with the control protocol's 0x01.
const (
	frameSYN    byte = 0x10 // open stream; after id = [credit u32][metadata]
	frameSYNACK byte = 0x11 // accept stream; after id = [credit u32]
	frameRST    byte = 0x12 // refuse/abort stream
	frameDATA   byte = 0x13 // stream data; after id = [stream seq u64][payload]
	frameFIN    byte = 0x14 // half-close from sender; after id = [stream seq u64]
	frameWINDOW byte = 0x15 // receive-window credit grant (uint32 delta)
	framePING   byte = 0x16 // liveness probe (8-byte nonce)
	framePONG   byte = 0x17 // probe reply
	frameGOAWAY byte = 0x18 // session shutdown

	// Bonding frames. BONDJOIN is the first (and only raw) frame on a
	// joining member connection: [bond id 16B][conn index u8]. BONDACK
	// carries one connection's cumulative count of DATA and FIN frames
	// received back to the sender: [conn index u8][received u64].
	frameBONDJOIN byte = 0x19
	frameBONDACK  byte = 0x1A
)

// Flow-control and segmentation defaults.
const (
	// DefaultWindow is the initial per-stream receive window.
	DefaultWindow = 256 << 10
	// maxSegment is the largest DATA payload per frame.
	maxSegment = 64 << 10
	// earlyCredit is the protocol's one fixed window: what the opener of
	// a stream may send before the SYNACK tells it the acceptor's credit,
	// and therefore what an acceptor honours for a stream it has not yet
	// granted anything. Every advertised credit is at least this much, so
	// the bytes sent early simply count against the SYNACK's credit.
	earlyCredit = maxSegment
	// maxCredit caps the credit a SYN or SYNACK may advertise; a larger
	// value is clamped, not refused.
	maxCredit = 1 << 30

	// DefaultWindowMin / DefaultWindowMax clamp the adaptive per-stream
	// window (Config.Adaptive): it never shrinks below Min even when the
	// estimators read a tiny BDP, and never grows beyond Max no matter
	// how fat the pipe looks.
	DefaultWindowMin = 64 << 10
	DefaultWindowMax = 4 << 20
	// DefaultBDPGain multiplies the measured bandwidth-delay product
	// when sizing the adaptive window, leaving headroom for delivery-rate
	// growth the way BBR's cwnd_gain does.
	DefaultBDPGain = 2.0
	// DefaultMemBudget caps the sum of adaptive per-stream windows for
	// one session, so a session with many streams cannot buffer
	// unboundedly at the receiver.
	DefaultMemBudget = 32 << 20
	// DefaultProbeInterval is the cadence of the RTT/bandwidth prober.
	DefaultProbeInterval = 25 * time.Millisecond

	// bondAckEvery is how many sequenced frames a receiver lets
	// accumulate on one member connection before pushing a BONDACK;
	// stragglers are swept by the prober tick.
	bondAckEvery = 16
)

// Package errors.
var (
	// ErrSessionClosed is returned after the session has shut down.
	ErrSessionClosed = errors.New("tunnel: session closed")
	// ErrStreamClosed is returned for operations on a closed stream.
	ErrStreamClosed = errors.New("tunnel: stream closed")
	// ErrStreamRefused is returned when the peer rejects an Open.
	ErrStreamRefused = errors.New("tunnel: stream refused by peer")
	// ErrTooManyStreams is returned when the configured stream limit is
	// reached.
	ErrTooManyStreams = errors.New("tunnel: too many streams")
)

// Config parameterizes a Session.
type Config struct {
	// Window is the receive window per stream. Zero means DefaultWindow.
	// With Adaptive set it is what a session that has measured nothing
	// yet starts its streams at; the window then tracks the measured
	// bandwidth-delay product. No stream starts below earlyCredit.
	Window int
	// MaxStreams bounds concurrently open streams. Zero means 1024.
	MaxStreams int
	// AcceptBacklog bounds streams opened by the peer but not yet
	// Accept()ed. Zero means 256 (an MPI launch can open a stream per
	// rank nearly simultaneously).
	AcceptBacklog int

	// Adaptive enables RTT-adaptive flow control: a background prober
	// measures per-connection RTT (PING) and delivery rate, and WINDOW
	// grants are sized to BDPGain × bandwidth × min-RTT, gain-cycled and
	// clamped to [WindowMin, WindowMax] and by MemBudget across the
	// session's streams. Off, grants replenish a fixed Window exactly as
	// before.
	Adaptive bool
	// WindowMin / WindowMax clamp the adaptive window. Zero means
	// DefaultWindowMin / DefaultWindowMax.
	WindowMin int
	WindowMax int
	// BDPGain scales the measured BDP when sizing the window. Zero means
	// DefaultBDPGain.
	BDPGain float64
	// MemBudget caps the sum of adaptive windows across the session's
	// live streams, at open time (the credit a SYN or SYNACK advertises)
	// and on every later grant; each stream keeps earlyCredit whatever
	// the budget says. Zero means DefaultMemBudget; negative disables
	// the clamp.
	MemBudget int64
	// ProbeInterval is the estimator cadence. Zero means
	// DefaultProbeInterval.
	ProbeInterval time.Duration

	// BondConns is how many parallel connections a peer link uses. The
	// session itself never dials: the value is carried here so the
	// dialing/accepting layers negotiate from one config (0 means 1).
	BondConns int

	// Metrics receives tunnel counters; may be nil.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	// SYN, SYNACK and WINDOW carry credit as a uint32 and grants never
	// exceed one target, so window and target must fit comfortably.
	c.Window = min(c.Window, maxCredit)
	if c.MaxStreams <= 0 {
		c.MaxStreams = 1024
	}
	if c.AcceptBacklog <= 0 {
		c.AcceptBacklog = 256
	}
	if c.WindowMin <= 0 {
		c.WindowMin = DefaultWindowMin
	}
	if c.WindowMax <= 0 {
		c.WindowMax = DefaultWindowMax
	}
	c.WindowMax = min(c.WindowMax, maxCredit)
	if c.WindowMax < c.WindowMin {
		c.WindowMax = c.WindowMin
	}
	if c.BDPGain <= 0 {
		c.BDPGain = DefaultBDPGain
	}
	if c.MemBudget == 0 {
		c.MemBudget = DefaultMemBudget
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	return c
}

// pongWaiter tracks one outstanding PING. Callers of Ping wait on ch;
// prober probes (ch nil) exist only so the PONG handler can attribute the
// RTT sample to the member connection it arrives on.
type pongWaiter struct {
	ch     chan struct{}
	sentAt time.Time
}

// Session multiplexes streams over one or more member connections. Create
// one with Client, Server, or ServerConn; the two sides allocate odd and
// even stream ids respectively so ids never collide.
type Session struct {
	conn net.Conn
	cfg  Config
	// w is the primary member's writer; the whole control plane rides it.
	w *wire.Writer

	// members is the immutable snapshot of live member connections,
	// members[0] being the primary. Replaced wholesale (under bondMu) on
	// join and failover so the spray path reads it with one atomic load
	// and never holds a lock across conn I/O.
	members atomic.Pointer[[]*member]
	// bondMu serializes membership changes only; it is never held across
	// I/O.
	bondMu sync.Mutex

	// table holds live streams; frame dispatch looks streams up through
	// it without touching s.mu (which guards only the cold state below).
	table *streamTable
	// Hot-path counters resolved once at session setup; the registry map
	// lookup is too expensive per DATA frame.
	bytesTunneled  *metrics.Counter
	streamsOpened  *metrics.Counter
	bondFailovers  *metrics.Counter
	bondRetransmit *metrics.Counter
	bondConnsGauge *metrics.Gauge
	rttGauge       *metrics.Gauge
	windowGauge    *metrics.Gauge
	// flushObserver feeds every member writer's FlushStats into the same
	// counters.
	flushObserver func(wire.FlushStats)

	// flow is the adaptive window estimator state (flow.go). delivered
	// counts all in-order stream bytes handed to receive buffers; the
	// prober differentiates it into a delivery rate. promised is the sum
	// of the initial credits of the live streams, which is what keeps an
	// open burst inside MemBudget between two prober ticks.
	flow      flowState
	delivered atomic.Int64
	promised  atomic.Int64

	// pingSeq generates unique probe nonces.
	pingSeq atomic.Uint64

	mu     sync.Mutex
	nextID uint32
	err    error
	closed bool
	pongs  map[uint64]*pongWaiter

	acceptCh chan *Stream
	// replies feeds replyLoop the control frames the read loops owe the
	// peer.
	replies  chan reply
	done     chan struct{}
	closeOne sync.Once
}

// reply is one control frame a read loop owes the peer — PONG, SYNACK, RST
// or BONDACK — and the member connection it goes out on.
type reply struct {
	w    *wire.Writer
	body [12]byte
	n    uint8
	typ  byte
}

// Client starts a session on the dialing side of conn.
func Client(conn net.Conn, cfg Config) *Session { return newSession(conn, cfg, 1, nil, nil) }

// Server starts a session on the accepting side of conn.
func Server(conn net.Conn, cfg Config) *Session { return newSession(conn, cfg, 2, nil, nil) }

// newSession builds a session whose primary member wraps conn. A non-nil
// reader (with an optional already-read first frame) hands off a
// connection whose initial bytes were consumed by ServerConn's preface
// classification.
func newSession(conn net.Conn, cfg Config, firstID uint32, r *wire.Reader, first *wire.Frame) *Session {
	cfg = cfg.withDefaults()
	s := &Session{
		conn:           conn,
		cfg:            cfg,
		table:          newStreamTable(),
		bytesTunneled:  cfg.Metrics.Counter(metrics.BytesTunneled),
		streamsOpened:  cfg.Metrics.Counter(metrics.StreamsOpened),
		bondFailovers:  cfg.Metrics.Counter(metrics.TunnelBondFailovers),
		bondRetransmit: cfg.Metrics.Counter(metrics.TunnelBondRetransmits),
		bondConnsGauge: cfg.Metrics.Gauge(metrics.TunnelBondConns),
		rttGauge:       cfg.Metrics.Gauge(metrics.TunnelRTTMicros),
		windowGauge:    cfg.Metrics.Gauge(metrics.TunnelWindowBytes),
		nextID:         firstID,
		acceptCh:       make(chan *Stream, cfg.AcceptBacklog),
		// Sized for the most an honest peer makes us owe it at once: a
		// verdict per stream it may open, then as many again for the
		// PONGs and BONDACKs that gather while the link is stalled.
		replies: make(chan reply, 2*cfg.MaxStreams+256),
		done:    make(chan struct{}),
		pongs:   make(map[uint64]*pongWaiter),
	}
	s.flow.init(cfg)
	flushes := cfg.Metrics.Counter(metrics.TunnelFlushes)
	flushBytes := cfg.Metrics.Counter(metrics.TunnelFlushBytes)
	batchFrames := cfg.Metrics.Counter(metrics.TunnelBatchFrames)
	batchControl := cfg.Metrics.Counter(metrics.TunnelBatchControl)
	s.flushObserver = func(fs wire.FlushStats) {
		flushes.Add(int64(fs.Writes))
		flushBytes.Add(int64(fs.Bytes))
		batchFrames.Add(int64(fs.Frames))
		batchControl.Add(int64(fs.Control))
	}
	s.w = s.newWriter(conn)
	primary := newMember(s, 0, conn, s.w)
	ms := []*member{primary}
	s.members.Store(&ms)
	s.bondConnsGauge.Set(1)
	if r == nil {
		r = wire.NewReader(conn)
	}
	//lint:allow-leak readLoop is supervised by the connection, not a
	// context: Close (and any peer disconnect) closes conn, the blocked
	// ReadFrame fails, and the loop exits.
	go s.readLoop(primary, r, first)
	//lint:allow-leak probeLoop is supervised by the session: it selects
	// on s.done every tick and exits when the session shuts down.
	go s.probeLoop()
	go s.replyLoop()
	return s
}

// queueReply hands replyLoop a control frame for w. Read loops never write
// themselves: one blocked in a write stops reading, and two ends that do
// that to each other — each waiting for the other to drain its connection
// — never resume. With zero-RTT opens that takes no malice, only a burst
// of opens whose early data meets the SYNACKs coming back. A peer that
// lets more replies pile up than an honest one can cause is not reading
// at all, and the session ends.
func (s *Session) queueReply(w *wire.Writer, typ byte, body []byte) error {
	r := reply{w: w, typ: typ}
	r.n = uint8(copy(r.body[:], body))
	select {
	case s.replies <- r:
		return nil
	default:
		return fmt.Errorf("tunnel: %d control replies unsent: peer is not reading", len(s.replies))
	}
}

// replyLoop writes the queued replies until the session ends. Only the
// primary's failure matters here; a secondary's is noticed by its own
// loops.
func (s *Session) replyLoop() {
	for {
		select {
		case r := <-s.replies:
			if err := r.w.WriteControl(r.typ, r.body[:r.n]); err != nil && r.w == s.w {
				_ = s.fail(fmt.Errorf("tunnel: send reply: %w", err))
				return
			}
		case <-s.done:
			return
		}
	}
}

func (s *Session) newWriter(conn net.Conn) *wire.Writer {
	return wire.NewWriterOpts(conn, wire.Options{Observer: s.flushObserver})
}

// liveMembers returns the current membership snapshot (never empty; the
// primary stays listed even while failing, since its death kills the
// session).
func (s *Session) liveMembers() []*member { return *s.members.Load() }

// BondWidth reports the number of live member connections.
func (s *Session) BondWidth() int { return len(s.liveMembers()) }

// SmoothedRTT returns the smallest smoothed RTT measured across live
// member connections, or 0 before any probe completed.
func (s *Session) SmoothedRTT() time.Duration {
	best := int64(0)
	for _, m := range s.liveMembers() {
		if v := m.srttMicros.Load(); v > 0 && (best == 0 || v < best) {
			best = v
		}
	}
	return time.Duration(best) * time.Microsecond
}

// Open creates a new stream to the peer, passing opaque metadata the
// acceptor can inspect with Stream.Meta. It costs no round trip: it
// returns once the SYN is written, and the stream is usable at once.
// Until the peer's SYNACK arrives the stream may send earlyCredit bytes,
// which ride the primary connection behind the SYN; a peer that refuses
// the stream instead fails its next Read or Write with ErrStreamRefused.
func (s *Session) Open(ctx context.Context, meta []byte) (*Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, s.closeErr()
	}
	id := s.nextID
	s.nextID += 2
	s.mu.Unlock()

	st := newStream(s, id, earlyCredit)
	if err := s.insertStream(st); err != nil {
		return nil, err
	}
	payload := make([]byte, 0, 8+len(meta))
	payload = wire.AppendUint32(payload, id)
	payload = wire.AppendUint32(payload, uint32(st.credit))
	payload = append(payload, meta...)
	if err := s.w.WriteControl(frameSYN, payload); err != nil {
		s.removeStream(id)
		return nil, s.fail(fmt.Errorf("tunnel: send SYN: %w", err))
	}
	return st, nil
}

// insertStream makes a new stream visible to frame dispatch, or hands
// back the credit newStream promised it: it fails when the stream limit
// is reached, the id is taken, or the session has shut down.
func (s *Session) insertStream(st *Stream) error {
	if err := s.table.insert(st.id, st, s.cfg.MaxStreams); err != nil {
		s.promised.Add(-st.credit)
		return err
	}
	// Re-check closed now that the stream is visible: a concurrent
	// shutdown either sees the stream in its snapshot or we clean up here.
	if s.isClosed() {
		s.removeStream(st.id)
		return s.closeErr()
	}
	return nil
}

// Accept returns the next stream opened by the peer.
func (s *Session) Accept(ctx context.Context) (*Stream, error) {
	select {
	case st := <-s.acceptCh:
		return st, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.done:
		// Streams may have been queued before shutdown.
		select {
		case st := <-s.acceptCh:
			return st, nil
		default:
		}
		return nil, s.closeErr()
	}
}

// Ping round-trips a probe through the peer. It rides the control lane,
// so it measures peer liveness rather than bulk-queue depth.
func (s *Session) Ping(ctx context.Context) error {
	// A session-scoped sequence makes nonces collision-free; wall-clock
	// nonces collided for concurrent pings within one clock tick, leaving
	// one caller waiting for a pong that was consumed by the other.
	nonce := s.pingSeq.Add(1)
	waiter := &pongWaiter{ch: make(chan struct{}, 1), sentAt: time.Now()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.closeErr()
	}
	s.pongs[nonce] = waiter
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.pongs, nonce)
		s.mu.Unlock()
	}()
	if err := s.w.WriteControl(framePING, wire.AppendUint64(nil, nonce)); err != nil {
		return s.fail(fmt.Errorf("tunnel: send PING: %w", err))
	}
	select {
	case <-waiter.ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.done:
		return s.closeErr()
	}
}

// NumStreams returns the number of currently open streams.
func (s *Session) NumStreams() int { return s.table.len() }

// Close shuts the session down: all streams fail, the underlying
// connections are closed.
func (s *Session) Close() error {
	return s.shutdown(ErrSessionClosed, true)
}

// Done returns a channel closed when the session terminates.
func (s *Session) Done() <-chan struct{} { return s.done }

// Err returns the error that terminated the session, if any.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == ErrSessionClosed {
		return nil
	}
	return s.err
}

func (s *Session) closeErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return ErrSessionClosed
}

func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// fail records err (if the session isn't already down) and tears down.
func (s *Session) fail(err error) error {
	_ = s.shutdown(err, false)
	return err
}

func (s *Session) shutdown(err error, sendGoaway bool) error {
	s.closeOne.Do(func() {
		if sendGoaway {
			_ = s.w.WriteControl(frameGOAWAY, nil)
		}
		s.mu.Lock()
		s.closed = true
		s.err = err
		s.mu.Unlock()
		// Snapshot only after the closed flag is visible: an Open or
		// handleSYN that missed the flag has already inserted its stream
		// (so it appears here); one that saw it cleans up after itself.
		for _, st := range s.table.snapshot() {
			st.closeWithError(err)
		}
		close(s.done)
		// The membership snapshot is likewise taken after closed is set:
		// addMember re-checks under bondMu and refuses, so every member
		// either appears here or was never admitted.
		s.bondMu.Lock()
		ms := s.liveMembers()
		s.bondMu.Unlock()
		for _, m := range ms {
			// Mark dead and wake the sendLoop so it drains its queue; with
			// every member dead the drain resprays into pickMember == nil,
			// which releases the stranded pooled buffers.
			m.dead.Store(true)
			m.qcond.Broadcast()
			_ = m.conn.Close()
			for _, f := range m.takeRetained() {
				wire.PutPayload(f.buf)
			}
		}
	})
	return nil
}

// removeStream drops id from the table and releases the credit promised
// to it. It is idempotent.
func (s *Session) removeStream(id uint32) {
	if st := s.table.remove(id); st != nil {
		s.promised.Add(-st.credit)
	}
}

// readLoop dispatches frames inbound on one member connection until it
// dies. It reads through the wire payload pool: the loop is the single
// owner of each leased payload — every dispatch path that keeps bytes
// copies them before returning (deliverSeq copies into the recv buffer,
// or out-of-order segments into their own leases, handleSYN copies meta,
// queueReply copies the PING's nonce) — so the lease is released here,
// unconditionally, after dispatch. A secondary member's death fails over;
// the primary's death (or any protocol error) kills the session.
func (s *Session) readLoop(m *member, r *wire.Reader, first *wire.Frame) {
	if first != nil {
		derr := s.dispatch(m, *first)
		wire.PutPayload(first.Payload)
		if derr != nil {
			_ = s.shutdown(derr, false)
			return
		}
	}
	for {
		frame, err := r.ReadFramePooled()
		if err != nil {
			switch {
			case m.index != 0 && !s.isClosed():
				s.memberFailed(m, err)
			case errors.Is(err, io.EOF):
				_ = s.shutdown(ErrSessionClosed, false)
			default:
				_ = s.shutdown(fmt.Errorf("tunnel: read: %w", err), false)
			}
			return
		}
		derr := s.dispatch(m, frame)
		wire.PutPayload(frame.Payload)
		if derr != nil {
			_ = s.shutdown(derr, false)
			return
		}
	}
}

func (s *Session) dispatch(m *member, frame wire.Frame) error {
	switch frame.Type {
	case framePING:
		// Echo the nonce on the member the probe arrived on, so the round
		// trip measures that specific connection.
		return s.queueReply(m.w, framePONG, frame.Payload[:min(len(frame.Payload), 8)])
	case framePONG:
		if len(frame.Payload) >= 8 {
			nonce := wire.NewBuffer(frame.Payload).Uint64()
			s.mu.Lock()
			waiter := s.pongs[nonce]
			if waiter != nil && waiter.ch == nil {
				// Prober probes are one-shot; callers of Ping delete
				// their own entries.
				delete(s.pongs, nonce)
			}
			s.mu.Unlock()
			if waiter != nil {
				m.recordRTT(time.Since(waiter.sentAt))
				s.flow.observeRTT(time.Since(waiter.sentAt))
				if waiter.ch != nil {
					select {
					case waiter.ch <- struct{}{}:
					default:
					}
				}
			}
		}
		return nil
	case frameGOAWAY:
		_ = s.shutdown(ErrSessionClosed, false)
		return nil
	case frameBONDJOIN:
		// Joins are consumed by ServerConn before a session exists;
		// inside an established session the type is a violation.
		return fmt.Errorf("tunnel: unexpected BONDJOIN mid-session")
	case frameBONDACK:
		return s.handleBondAck(frame.Payload)
	}

	if len(frame.Payload) < 4 {
		return fmt.Errorf("tunnel: short frame type %#x", frame.Type)
	}
	id := wire.NewBuffer(frame.Payload).Uint32()
	rest := frame.Payload[4:]

	switch frame.Type {
	case frameSYN:
		return s.handleSYN(id, rest)
	case frameSYNACK:
		if len(rest) < 4 {
			return fmt.Errorf("tunnel: short SYNACK for stream %d", id)
		}
		if st := s.table.get(id); st != nil {
			st.onSynack(wire.NewBuffer(rest).Uint32())
		}
		return nil
	case frameRST:
		if st := s.table.get(id); st != nil {
			// Only an acceptor turning a SYN down sends RST, so on a
			// stream still waiting for its SYNACK it is the refusal.
			err := ErrStreamClosed
			if !st.synacked.Load() {
				err = ErrStreamRefused
			}
			st.closeWithError(err)
			s.removeStream(id)
		}
		return nil
	case frameWINDOW:
		if st := s.table.get(id); st != nil && len(rest) >= 4 {
			delta := wire.NewBuffer(rest).Uint32()
			st.grantSendWindow(int(delta))
		}
		return nil
	case frameDATA, frameFIN:
		if len(rest) < 8 {
			return fmt.Errorf("tunnel: short frame type %#x for stream %d", frame.Type, id)
		}
		// Count the arrival before the stream lookup: the sender's
		// retention drains on these acks even when the local stream is
		// already gone (late data after a local close is normal).
		if err := m.countSeqArrival(s); err != nil {
			return err
		}
		seq := wire.NewBuffer(rest).Uint64()
		data := rest[8:]
		st := s.table.get(id)
		if st == nil {
			return nil
		}
		s.bytesTunneled.Add(int64(len(data)))
		s.delivered.Add(int64(len(data)))
		return st.deliverSeq(seq, data, frame.Type == frameFIN)
	default:
		return fmt.Errorf("tunnel: unknown frame type %#x", frame.Type)
	}
}

func (s *Session) handleSYN(id uint32, rest []byte) error {
	if len(rest) < 4 {
		return fmt.Errorf("tunnel: short SYN for stream %d", id)
	}
	st := newStream(s, id, clampCredit(wire.NewBuffer(rest).Uint32()))
	st.meta = append([]byte(nil), rest[4:]...)
	st.synacked.Store(true)
	var buf [8]byte
	verdict := wire.AppendUint32(buf[:0], id)
	switch err := s.insertStream(st); {
	case errors.Is(err, errDuplicateStream):
		return fmt.Errorf("tunnel: duplicate SYN for stream %d", id)
	case errors.Is(err, ErrTooManyStreams):
		return s.queueReply(s.w, frameRST, verdict)
	case err != nil: // shut down meanwhile
		return nil
	}

	select {
	case s.acceptCh <- st:
		s.streamsOpened.Inc()
		return s.queueReply(s.w, frameSYNACK, wire.AppendUint32(verdict, uint32(st.credit)))
	default:
		// Backlog full: refuse.
		s.removeStream(id)
		return s.queueReply(s.w, frameRST, verdict)
	}
}

// clampCredit reads a SYN's or SYNACK's advertised credit: no peer grants
// less than earlyCredit (the opener may already have sent that much), and
// more than maxCredit is cut to it rather than treated as a violation.
func clampCredit(credit uint32) int {
	return int(min(max(credit, earlyCredit), maxCredit))
}
