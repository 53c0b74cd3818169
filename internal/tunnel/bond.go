package tunnel

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gridproxy/internal/wire"
)

// The data path. A session is a bond of k ≥ 1 connections between the same
// two peers: the dialer opens k-1 extra connections and prefixes each with
// a BONDJOIN frame naming the bond id (16 random bytes exchanged in the
// handshake hello) and the member's index; the acceptor routes those
// connections to the already-established session via a BondRegistry.
// Every stream sends its data as DATA frames carrying a per-stream
// sequence number, sprayed across whichever members are live at that
// moment by least outstanding (unacknowledged) bytes, and the receiver
// reassembles each stream in sequence order. With k = 1 every frame rides
// the one member and arrives in order; nothing else differs.
//
// Reliability: every sprayed frame is retained (in a pooled buffer) by
// the member that carried it until the receiver's cumulative BONDACK for
// that connection covers it — or, while that member is the bond's only
// one, just until it is written: there is no survivor to replay it to.
// Each member's sendLoop is the only writer of DATA/FIN frames on its
// connection and retains them in the order it wrote them, and the
// receiver counts DATA/FIN arrivals per connection, so an ack of "n
// frames received" releases an exact prefix. When a secondary member dies
// mid-stream its unacked tail is resprayed over the survivors; per-stream
// sequence numbers make the replay idempotent (duplicates are dropped in
// reassembly), so a member death loses zero bytes. The primary carries
// the control plane and is not failover-able: its death ends the session.

// BondID identifies the member connections of one bond.
type BondID [16]byte

// sentFrame is one sprayed frame retained for possible retransmit.
type sentFrame struct {
	stream uint32
	seq    uint64 // per-stream sequence
	fin    bool
	buf    []byte // pooled payload; nil for FIN
}

// cost is what the frame weighs in the least-outstanding-bytes spray
// metric: its payload plus an approximate per-frame wire overhead, so
// empty FIN frames still count.
func (f *sentFrame) cost() int64 { return int64(len(f.buf)) + 16 }

// member is one connection of a session's bond. Index 0 is the primary.
type member struct {
	session *Session
	index   int
	conn    net.Conn
	w       *wire.Writer

	// Send queue: sprayFrame enqueues, the member's sendLoop drains in
	// multi-frame batches (wire.WriteSeqFrames), so the frames in flight
	// on a member are bounded by window credit, not by how many stream
	// writers happen to be blocked in a flush. qmu is never held across
	// I/O; qcond wakes the loop on arrivals and on death.
	qmu   sync.Mutex
	qcond *sync.Cond
	queue []sentFrame

	dead atomic.Bool
	// outstanding is the spray balance metric: the cost of frames queued
	// or written but not yet acknowledged.
	outstanding atomic.Int64
	// srttMicros is the smoothed RTT of this connection, EWMA over probe
	// samples, in microseconds. 0 = no sample yet.
	srttMicros atomic.Int64

	// Receiver side: how many DATA/FIN frames arrived on this connection,
	// and through which count we last sent a BONDACK.
	rcvdSeq atomic.Uint64
	ackSent atomic.Uint64

	// Sender side: written frames awaiting acknowledgement, in wire order
	// (retained[0] sits at wire position retBase+1), and the highest
	// cumulative ack seen. retMu is never held across I/O.
	retMu    sync.Mutex
	retained []sentFrame
	retBase  uint64
	acked    uint64
}

// newMember wires up one bond member around an established connection
// and starts its sendLoop.
func newMember(s *Session, index int, conn net.Conn, w *wire.Writer) *member {
	m := &member{session: s, index: index, conn: conn, w: w}
	m.qcond = sync.NewCond(&m.qmu)
	//lint:allow-leak sendLoop is supervised by the member: failover or
	// session shutdown marks it dead and broadcasts qcond, and the loop
	// drains its queue and exits.
	go m.sendLoop()
	return m
}

// recordRTT folds one probe sample into the member's smoothed RTT.
func (m *member) recordRTT(rtt time.Duration) {
	us := rtt.Microseconds()
	if us <= 0 {
		us = 1
	}
	old := m.srttMicros.Load()
	if old == 0 {
		m.srttMicros.Store(us)
		return
	}
	// Standard 7/8 smoothing; a stale read under concurrent pongs only
	// costs one sample's weight.
	m.srttMicros.Store(old + (us-old)/8)
}

// countSeqArrival bumps the receiver-side frame count and pushes a
// cumulative BONDACK once enough frames accumulated. Stragglers (a tail
// smaller than bondAckEvery when traffic pauses) are swept by the prober.
func (m *member) countSeqArrival(s *Session) error {
	n := m.rcvdSeq.Add(1)
	if n-m.ackSent.Load() >= bondAckEvery {
		return s.sendBondAck(m)
	}
	return nil
}

// sendBondAck reports the member's cumulative received-frame count to the
// sender. Acks ride the primary's control lane: they must never be queued
// behind bulk data on a congested member, and the primary's death kills
// the session anyway so no redundancy is lost.
func (s *Session) sendBondAck(m *member) error {
	cum := m.rcvdSeq.Load()
	var buf [9]byte
	err := s.queueReply(s.w, frameBONDACK, wire.AppendUint64(append(buf[:0], byte(m.index)), cum))
	if err == nil {
		m.ackSent.Store(cum)
	}
	return err
}

// flushBondAcks pushes acks for any member with unacknowledged arrivals;
// called from the prober tick.
func (s *Session) flushBondAcks() {
	for _, m := range s.liveMembers() {
		if m.rcvdSeq.Load() != m.ackSent.Load() {
			_ = s.sendBondAck(m) // reply queue full: the next tick retries
		}
	}
}

// handleBondAck releases the retained frames covered by the peer's
// cumulative count for one connection.
func (s *Session) handleBondAck(payload []byte) error {
	buf := wire.NewBuffer(payload)
	index, cum := int(buf.Uint8()), buf.Uint64()
	if err := buf.Err(); err != nil {
		return fmt.Errorf("tunnel: bad BONDACK: %w", err)
	}
	for _, m := range s.liveMembers() {
		if m.index == index {
			m.releaseTo(cum)
			break
		}
	}
	return nil
}

// releaseTo records the peer's cumulative ack and releases every retained
// frame it covers.
func (m *member) releaseTo(cum uint64) {
	m.retMu.Lock()
	m.acked = max(m.acked, cum)
	m.releaseLocked()
	m.retMu.Unlock()
}

// releaseLocked frees the prefix of the retention queue that no failover
// can need any more: the frames the peer acknowledged, or all of them
// while this is the bond's only member, since there is no survivor to
// respray onto. The ack may run ahead of the queue — the peer can count a
// frame before the sendLoop that wrote it gets to retain it — so sendLoop
// calls this after every retain. Caller holds retMu.
func (m *member) releaseLocked() {
	n := len(m.retained)
	if len(m.session.liveMembers()) > 1 {
		n = int(min(uint64(n), max(m.acked, m.retBase)-m.retBase))
	}
	if n == 0 {
		return
	}
	var freed int64
	for i := range m.retained[:n] {
		freed += m.retained[i].cost()
		wire.PutPayload(m.retained[i].buf)
	}
	rest := copy(m.retained, m.retained[n:])
	// Zero the tail so retired entries don't pin pooled buffers.
	clear(m.retained[rest:])
	m.retained = m.retained[:rest]
	m.retBase += uint64(n)
	m.outstanding.Add(-freed)
}

// takeRetained empties the retention queue (failover, teardown) and
// returns it.
func (m *member) takeRetained() []sentFrame {
	m.retMu.Lock()
	pend := m.retained
	m.retained = nil
	m.retMu.Unlock()
	return pend
}

// pickMember selects the live member with the least outstanding bytes —
// the spray policy that keeps a slow or lossy member from capping the
// bond, since it simply stops winning the election while its acks lag.
// With primaryOnly the election has one candidate.
func (s *Session) pickMember(primaryOnly bool) *member {
	var best *member
	var bestOut int64
	for _, m := range s.liveMembers() {
		if m.dead.Load() || primaryOnly && m.index != 0 {
			continue
		}
		out := m.outstanding.Load()
		if best == nil || out < bestOut {
			best, bestOut = m, out
		}
	}
	return best
}

// sprayBatchMax caps how many queued frames one sendLoop iteration folds
// into a single WriteSeqFrames batch (and thus one flush).
const sprayBatchMax = 32

// sprayFrame hands one frame (taking ownership of f.buf, a pooled
// payload, or nil for FIN) to the least-loaded live member's send queue.
// It returns as soon as the frame is queued — the member's sendLoop
// batches queued frames into single flushes, so spraying is paced by
// window credit rather than by flush latency. primaryOnly keeps the frame
// on the connection that carried its stream's SYN: every other frame of a
// stream may overtake the SYN on another member, and the far end drops
// DATA for a stream it does not know. A write failure surfaces through
// memberFailed (failover resprays the frame); the caller only sees an
// error when no live member remains.
func (s *Session) sprayFrame(f sentFrame, primaryOnly bool) error {
	for {
		m := s.pickMember(primaryOnly)
		if m == nil {
			wire.PutPayload(f.buf)
			return s.closeErr()
		}
		if m.enqueue(f) {
			return nil
		}
	}
}

// enqueue charges the frame against the member's outstanding balance and
// appends it to the send queue. It refuses (uncharging) if the member
// died first.
func (m *member) enqueue(f sentFrame) bool {
	m.outstanding.Add(f.cost())
	m.qmu.Lock()
	if m.dead.Load() {
		m.qmu.Unlock()
		m.outstanding.Add(-f.cost())
		return false
	}
	m.queue = append(m.queue, f)
	m.qcond.Signal()
	m.qmu.Unlock()
	return true
}

// sendLoop drains the member's send queue in batches: up to sprayBatchMax
// frames per WriteSeqFrames call share one writer-lock acquisition and
// one flush wait, and are retained in wire order once written. On member
// death it resprays everything still queued or in flight over the
// survivors; per-stream sequence numbers make the replay idempotent at
// the receiver.
func (m *member) sendLoop() {
	items := make([]sentFrame, 0, sprayBatchMax)
	frames := make([]wire.SeqFrame, sprayBatchMax)
	var hdrs [sprayBatchMax][12]byte
	for {
		m.qmu.Lock()
		for len(m.queue) == 0 && !m.dead.Load() {
			m.qcond.Wait()
		}
		n := min(len(m.queue), sprayBatchMax)
		items = append(items[:0], m.queue[:n]...)
		kept := copy(m.queue, m.queue[n:])
		// Zero the tail so drained entries don't pin pooled buffers.
		clear(m.queue[kept:])
		m.queue = m.queue[:kept]
		m.qmu.Unlock()

		if !m.dead.Load() {
			for i := range items {
				f := &items[i]
				hdr := wire.AppendUint64(wire.AppendUint32(hdrs[i][:0], f.stream), f.seq)
				frames[i] = wire.SeqFrame{Type: frameDATA, Hdr: hdr, Payload: f.buf}
				if f.fin {
					frames[i].Type = frameFIN
				}
			}
			if err := m.w.WriteSeqFrames(frames[:n]); err != nil {
				m.session.memberFailed(m, err)
			}
		}
		// memberFailed marks the member dead before it empties the
		// retention queue, so checking under retMu puts the batch either
		// in that sweep or in the respray below, never in neither.
		m.retMu.Lock()
		if !m.dead.Load() {
			m.retained = append(m.retained, items...)
			m.releaseLocked()
			m.retMu.Unlock()
			continue
		}
		m.retMu.Unlock()
		m.qmu.Lock()
		rest := m.queue
		m.queue = nil
		m.qmu.Unlock()
		m.session.resprayFrames(items)
		m.session.resprayFrames(rest)
		return
	}
}

// resprayFrames re-sprays frames stranded on a dead member (queued or
// unacknowledged) over the surviving members; with none left sprayFrame
// releases their buffers. Only a secondary's frames are ever resprayed,
// and a stream reaches a secondary only after its SYNACK, so any
// survivor will do.
func (s *Session) resprayFrames(pend []sentFrame) {
	for _, f := range pend {
		if s.sprayFrame(f, false) == nil {
			s.bondRetransmit.Inc()
		}
	}
}

// memberFailed removes a dead secondary from the bond and resprays its
// unacknowledged frames over the survivors; duplicates the receiver
// already has are dropped by sequence in reassembly. A primary failure
// fails the whole session (the control plane lives there).
func (s *Session) memberFailed(m *member, err error) {
	if m.dead.Swap(true) {
		return
	}
	m.qcond.Broadcast()
	if m.index == 0 {
		_ = s.fail(fmt.Errorf("tunnel: bond primary failed: %w", err))
		return
	}
	s.bondMu.Lock()
	cur := s.liveMembers()
	next := make([]*member, 0, len(cur))
	for _, x := range cur {
		if x != m {
			next = append(next, x)
		}
	}
	s.members.Store(&next)
	s.bondMu.Unlock()
	_ = m.conn.Close()
	s.bondFailovers.Inc()
	s.bondConnsGauge.Set(int64(len(next)))

	s.resprayFrames(m.takeRetained())
}

// addMember admits a new member connection into the bond (the dial side
// wrote the BONDJOIN preface already; the accept side consumed it, r
// holding whatever it buffered past it) and starts reading from it.
func (s *Session) addMember(index int, conn net.Conn, w *wire.Writer, r *wire.Reader) error {
	if index <= 0 || index > 255 {
		return fmt.Errorf("tunnel: bond conn index %d out of range", index)
	}
	s.bondMu.Lock()
	if s.isClosed() {
		s.bondMu.Unlock()
		return s.closeErr()
	}
	cur := s.liveMembers()
	for _, x := range cur {
		if x.index == index {
			s.bondMu.Unlock()
			return fmt.Errorf("tunnel: duplicate bond conn index %d", index)
		}
	}
	m := newMember(s, index, conn, w)
	next := append(cur[:len(cur):len(cur)], m)
	s.members.Store(&next)
	s.bondMu.Unlock()
	s.bondConnsGauge.Set(int64(len(next)))
	//lint:allow-leak readLoop is supervised by the member connection:
	// failover or session shutdown closes it and the loop exits.
	go s.readLoop(m, r, nil)
	return nil
}

// AddBondConn joins conn to the session as bond member index (1-based;
// the session's original connection is member 0). The dialing side calls
// it once per extra negotiated connection after the handshake exchanged
// the bond id. The session takes ownership of conn.
func (s *Session) AddBondConn(id BondID, index int, conn net.Conn) error {
	w := s.newWriter(conn)
	err := w.WriteControl(frameBONDJOIN, append(id[:], byte(index)))
	if err == nil {
		err = s.addMember(index, conn, w, wire.NewReader(conn))
	}
	if err != nil {
		_ = conn.Close()
		return fmt.Errorf("tunnel: bond join: %w", err)
	}
	return nil
}

// BondRegistry routes accepted bond-member connections to the session
// that negotiated them. The accepting side registers an expectation when
// its handshake grants a bond, then classifies every inbound connection
// with ServerConn.
type BondRegistry struct {
	mu sync.Mutex
	m  map[BondID]*bondEntry
}

type bondEntry struct {
	s         *Session
	remaining int
}

// NewBondRegistry returns an empty registry.
func NewBondRegistry() *BondRegistry {
	return &BondRegistry{m: make(map[BondID]*bondEntry)}
}

// Expect announces that up to extra member connections will arrive for
// id, to be adopted into s. The expectation dies with the session.
func (r *BondRegistry) Expect(id BondID, s *Session, extra int) {
	if extra <= 0 {
		return
	}
	r.mu.Lock()
	r.m[id] = &bondEntry{s: s, remaining: extra}
	r.mu.Unlock()
	//lint:allow-leak bounded by the session's lifetime: the goroutine
	// blocks only until the session's done channel closes.
	go func() {
		<-s.Done()
		r.mu.Lock()
		if e := r.m[id]; e != nil && e.s == s {
			delete(r.m, id)
		}
		r.mu.Unlock()
	}()
}

// claim resolves a BONDJOIN preface to its expected session.
func (r *BondRegistry) claim(id BondID) (*Session, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.m[id]
	if e == nil {
		return nil, fmt.Errorf("tunnel: bond join for unknown bond")
	}
	e.remaining--
	if e.remaining <= 0 {
		delete(r.m, id)
	}
	return e.s, nil
}

// ServerConn starts the accepting side of a connection that is either a
// fresh session or a member joining an existing bond, telling the two
// apart by the first frame. A BONDJOIN preface adopts the connection into
// the session registered under its bond id and returns (nil, nil); any
// other first frame starts a server session that processes it as its
// first inbound frame. The preface read is bounded by
// prefaceTimeout (0 = no bound) so an idle connection cannot park the
// acceptor. reg may be nil when bonding is disabled locally; join
// attempts are then refused.
func ServerConn(conn net.Conn, reg *BondRegistry, cfg Config, prefaceTimeout time.Duration) (*Session, error) {
	r := wire.NewReader(conn)
	if prefaceTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(prefaceTimeout))
	}
	frame, err := r.ReadFramePooled()
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("tunnel: read preface: %w", err)
	}
	if prefaceTimeout > 0 {
		_ = conn.SetReadDeadline(time.Time{})
	}
	if frame.Type != frameBONDJOIN {
		// Hand the reader and the already-read frame to a fresh session;
		// its readLoop dispatches the frame first and releases the lease.
		return newSession(conn, cfg, 2, r, &frame), nil
	}
	defer wire.PutPayload(frame.Payload)
	if len(frame.Payload) != 17 {
		_ = conn.Close()
		return nil, fmt.Errorf("tunnel: malformed BONDJOIN preface")
	}
	var id BondID
	copy(id[:], frame.Payload[:16])
	index := int(frame.Payload[16])
	if reg == nil {
		_ = conn.Close()
		return nil, fmt.Errorf("tunnel: bond join refused: bonding disabled")
	}
	s, err := reg.claim(id)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	if err := s.addMember(index, conn, s.newWriter(conn), r); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return nil, nil
}
