package tunnel

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gridproxy/internal/wire"
)

// oooFrame is one out-of-order frame parked for reassembly: the
// payload was copied into its own pooled lease (buf), released when the
// frame drains in order. fin entries carry no payload.
type oooFrame struct {
	seq uint64
	buf []byte
	fin bool
}

// Stream is one logical byte stream within a Session. It implements
// net.Conn so spliced application connections and MPI rank channels can use
// it interchangeably with real sockets.
type Stream struct {
	session *Session
	id      uint32
	meta    []byte
	// credit is the receive credit this end promised when the stream was
	// created (the SYN's or SYNACK's credit field); the session holds it
	// against MemBudget until the stream leaves the table.
	credit int64
	// synacked is false on a stream this end opened until the peer's
	// SYNACK arrives (a stream the peer opened is born with it set). Until
	// then the stream sends from earlyCredit and only on the primary
	// connection, where its frames cannot overtake the SYN.
	synacked atomic.Bool

	// sendSeq numbers this stream's outbound DATA and FIN frames.
	sendSeq atomic.Uint64

	// Receive side. Window accounting is kept as three monotonic totals:
	// extended is all credit ever granted to the peer (seeded with the
	// initial window), delivered is in-order bytes buffered for reading,
	// consumed is bytes the application has read. The peer violates the
	// protocol iff delivered (plus out-of-order bytes parked in ooo)
	// would exceed extended; grants top extended back up to
	// consumed + target, which for a static target is exactly the classic
	// "replenish what was read" behavior and for an adaptive target lets
	// the window grow or shrink as the estimators move.
	recvMu    sync.Mutex
	recvCond  *sync.Cond
	recvBuf   bytes.Buffer
	recvEOF   bool
	recvErr   error
	extended  int64
	delivered int64
	consumed  int64
	// grantInFlight marks the single reader currently out of the lock
	// sending a WINDOW grant; others keep accumulating instead of
	// double-granting the same credit.
	grantInFlight bool
	readDeadline  time.Time
	// Reassembly: nextSeq is the next in-order
	// sequence, ooo a min-heap (by seq) of frames that arrived early,
	// oooBytes their payload total (counted against the window).
	nextSeq  uint64
	ooo      []oooFrame
	oooBytes int

	// Send side.
	sendMu        sync.Mutex
	sendCond      *sync.Cond
	sendWindow    int
	sendClosed    bool
	sendErr       error
	writeDeadline time.Time
}

var _ net.Conn = (*Stream)(nil)

// newStream builds a stream that may send sendWindow bytes and promises
// the peer the session's current initial credit; insertStream must follow.
func newStream(s *Session, id uint32, sendWindow int) *Stream {
	credit := s.promiseCredit()
	st := &Stream{
		session:    s,
		id:         id,
		credit:     credit,
		sendWindow: sendWindow,
		extended:   credit,
	}
	st.recvCond = sync.NewCond(&st.recvMu)
	st.sendCond = sync.NewCond(&st.sendMu)
	return st
}

// ID returns the stream's session-unique id.
func (st *Stream) ID() uint32 { return st.id }

// Meta returns the metadata the opener attached (nil on the opening side).
func (st *Stream) Meta() []byte { return st.meta }

// onSynack records the peer's SYNACK: the stream's send window becomes
// the credit the acceptor advertised (less what was sent early), and its
// frames may leave the primary connection. A SYNACK for a stream the peer
// opened, or a second one, changes nothing.
func (st *Stream) onSynack(credit uint32) {
	if st.synacked.Swap(true) {
		return
	}
	st.session.streamsOpened.Inc()
	st.grantSendWindow(clampCredit(credit) - earlyCredit)
}

// deliverSeq accepts one DATA or FIN frame and wakes readers: in-order
// data is buffered immediately and the reorder heap drained behind it;
// early frames are copied into their own pooled lease and parked; frames
// at an already-delivered sequence are retransmit duplicates and dropped.
// fin frames occupy a sequence slot so EOF cannot overtake data still in
// flight on another member connection. It enforces the receive window: a
// peer overrunning its credit is a protocol violation.
func (st *Stream) deliverSeq(seq uint64, p []byte, fin bool) error {
	st.recvMu.Lock()
	defer st.recvMu.Unlock()
	if st.recvErr != nil || st.recvEOF {
		return nil // late data after close; drop
	}
	if seq < st.nextSeq {
		return nil // duplicate of a frame already delivered
	}
	if fin {
		p = nil
	} else if len(p) == 0 {
		return fmt.Errorf("tunnel: stream %d empty data frame", st.id)
	}
	// Duplicate of a parked frame? The heap is small (bounded by window /
	// segment size), so a linear scan beats a map's allocation.
	for i := range st.ooo {
		if st.ooo[i].seq == seq {
			return nil
		}
	}
	// An honest peer never has more than the granted credit outstanding,
	// so buffered-but-unread data can never legitimately exceed it; and
	// since every data frame carries at least a byte, neither can the
	// number of frames it has run ahead by (which bounds the heap).
	credit := st.extended - st.delivered
	if int64(st.oooBytes+len(p)) > credit || seq-st.nextSeq > uint64(credit) {
		return fmt.Errorf("tunnel: stream %d receive window overrun", st.id)
	}
	if seq == st.nextSeq {
		st.recvEOF = fin
		st.recvBuf.Write(p)
		st.delivered += int64(len(p))
		st.nextSeq++
		// Drain every parked frame that is now in order.
		for !st.recvEOF && len(st.ooo) > 0 && st.ooo[0].seq == st.nextSeq {
			f := oooPop(&st.ooo)
			st.recvEOF = f.fin
			st.recvBuf.Write(f.buf)
			st.delivered += int64(len(f.buf))
			st.oooBytes -= len(f.buf)
			wire.PutPayload(f.buf)
			st.nextSeq++
		}
		if st.recvEOF {
			st.releaseOOOLocked() // nothing is valid past the FIN
		}
		st.recvCond.Broadcast()
		return nil
	}
	f := oooFrame{seq: seq, fin: fin}
	if !fin {
		// Copy into our own lease: the dispatch loop releases its read
		// buffer the moment dispatch returns.
		f.buf = wire.GetPayload(len(p))
		copy(f.buf, p)
		st.oooBytes += len(p)
	}
	oooPush(&st.ooo, f)
	return nil
}

// oooPush / oooPop maintain a min-heap by seq in place (hand-rolled so
// the hot path stays free of interface dispatch and allocation; the
// backing array is reused across the stream's life).
func oooPush(h *[]oooFrame, f oooFrame) {
	*h = append(*h, f)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].seq <= s[i].seq {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func oooPop(h *[]oooFrame) oooFrame {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = oooFrame{}
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(s) && s[l].seq < s[small].seq {
			small = l
		}
		if r < len(s) && s[r].seq < s[small].seq {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	*h = s
	return top
}

// grantSendWindow adds peer credit and wakes writers.
func (st *Stream) grantSendWindow(delta int) {
	st.sendMu.Lock()
	st.sendWindow += delta
	st.sendCond.Broadcast()
	st.sendMu.Unlock()
}

// closeWithError fails both directions (session teardown, RST).
func (st *Stream) closeWithError(err error) {
	st.recvMu.Lock()
	if st.recvErr == nil {
		st.recvErr = err
	}
	st.releaseOOOLocked()
	st.recvCond.Broadcast()
	st.recvMu.Unlock()
	st.sendMu.Lock()
	if st.sendErr == nil {
		st.sendErr = err
	}
	st.sendClosed = true
	st.sendCond.Broadcast()
	st.sendMu.Unlock()
}

// releaseOOOLocked returns parked reassembly buffers to the pool. Caller
// holds recvMu.
func (st *Stream) releaseOOOLocked() {
	for i := range st.ooo {
		wire.PutPayload(st.ooo[i].buf)
		st.ooo[i] = oooFrame{}
	}
	st.ooo = st.ooo[:0]
	st.oooBytes = 0
}

// Read implements net.Conn. It returns io.EOF after the peer half-closes
// and all buffered data is consumed.
func (st *Stream) Read(p []byte) (int, error) {
	st.recvMu.Lock()
	for st.recvBuf.Len() == 0 {
		if err := st.recvErr; err != nil {
			st.recvMu.Unlock()
			return 0, err
		}
		if st.recvEOF {
			st.recvMu.Unlock()
			return 0, io.EOF
		}
		if !st.waitRecvLocked() {
			st.recvMu.Unlock()
			return 0, os.ErrDeadlineExceeded
		}
	}
	n, _ := st.recvBuf.Read(p)
	st.consumed += int64(n)
	st.recvMu.Unlock()
	st.sendPendingGrant()
	return n, nil
}

// sendPendingGrant tops the peer's credit back up to the current window
// target once at least half a target's worth is owed (granting per-read
// would double frame volume). Credit accounting has a single owner:
// whichever reader flips grantInFlight sends the owed credit outside the
// lock; concurrent readers keep accumulating rather than banking the same
// credit twice, and the loop re-checks after each send so credit owed
// meanwhile is never stranded. With a static target the owed amount is
// exactly the bytes consumed since the last grant — the classic behavior;
// with an adaptive target the same arithmetic also grows (or starves)
// the window as the estimator moves.
func (st *Stream) sendPendingGrant() {
	st.recvMu.Lock()
	for st.recvErr == nil && !st.grantInFlight {
		target := st.session.Window()
		delta := st.consumed + target - st.extended
		if delta < target/2 || delta <= 0 {
			break
		}
		st.grantInFlight = true
		st.extended += delta
		st.recvMu.Unlock()
		var buf [8]byte
		payload := wire.AppendUint32(buf[:0], st.id)
		payload = wire.AppendUint32(payload, uint32(delta))
		_ = st.session.w.WriteControl(frameWINDOW, payload)
		st.recvMu.Lock()
		st.grantInFlight = false
	}
	st.recvMu.Unlock()
}

// waitRecvLocked blocks until recvCond is signaled or the read deadline passes.
// It reports false on deadline expiry. Caller holds recvMu.
func (st *Stream) waitRecvLocked() bool {
	deadline := st.readDeadline
	if deadline.IsZero() {
		st.recvCond.Wait()
		return true
	}
	if !time.Now().Before(deadline) {
		return false
	}
	// Arm a timer that wakes the cond at the deadline.
	timer := time.AfterFunc(time.Until(deadline), func() {
		st.recvMu.Lock()
		st.recvCond.Broadcast()
		st.recvMu.Unlock()
	})
	st.recvCond.Wait()
	timer.Stop()
	return time.Now().Before(deadline) || st.recvBuf.Len() > 0 || st.recvEOF || st.recvErr != nil
}

// Write implements net.Conn; see WriteBuffers.
func (st *Stream) Write(p []byte) (int, error) {
	n, err := st.WriteBuffers(p)
	return int(n), err
}

// WriteBuffers writes the concatenation of segs as stream data
// (net.Buffers-style), segmented into DATA frames and paced by the peer's
// receive window. Each frame is gathered from as many segments as fit
// straight into a pooled buffer (the frame must outlive this call for the
// asynchronous send and a possible retransmit), so small prefixes —
// length fields, checksums — ride in the same frame as the bulk payload
// that follows them, and frame boundaries fall exactly as if the segments
// had been one slice. It returns once the frames are queued; a later send
// failure fails over or kills the session.
func (st *Stream) WriteBuffers(segs ...[]byte) (int64, error) {
	remaining := 0
	for _, seg := range segs {
		remaining += len(seg)
	}
	var total int64
	i, off := 0, 0
	for remaining > 0 {
		n, err := st.reserveSend(remaining)
		if err != nil {
			return total, err
		}
		buf := wire.GetPayload(n)
		for w := 0; w < n; {
			if off == len(segs[i]) {
				i, off = i+1, 0
				continue
			}
			take := copy(buf[w:], segs[i][off:])
			off += take
			w += take
		}
		if err := st.spray(false, buf); err != nil {
			return total, err
		}
		total += int64(n)
		remaining -= n
	}
	return total, nil
}

// reserveSend blocks until at least one byte of send-window credit is
// available and claims up to want bytes (capped by the window and the
// segment size), or fails if the stream is closed or the deadline passes.
func (st *Stream) reserveSend(want int) (int, error) {
	st.sendMu.Lock()
	for st.sendWindow == 0 && !st.sendClosed {
		if !st.waitSendLocked() {
			st.sendMu.Unlock()
			return 0, os.ErrDeadlineExceeded
		}
	}
	if st.sendClosed {
		err := st.sendErr
		st.sendMu.Unlock()
		if err == nil {
			err = ErrStreamClosed
		}
		return 0, err
	}
	n := want
	if n > st.sendWindow {
		n = st.sendWindow
	}
	if n > maxSegment {
		n = maxSegment
	}
	st.sendWindow -= n
	st.sendMu.Unlock()
	return n, nil
}

// waitSendLocked blocks until window credit arrives or the write deadline passes.
// Caller holds sendMu.
func (st *Stream) waitSendLocked() bool {
	deadline := st.writeDeadline
	if deadline.IsZero() {
		st.sendCond.Wait()
		return true
	}
	if !time.Now().Before(deadline) {
		return false
	}
	timer := time.AfterFunc(time.Until(deadline), func() {
		st.sendMu.Lock()
		st.sendCond.Broadcast()
		st.sendMu.Unlock()
	})
	st.sendCond.Wait()
	timer.Stop()
	return time.Now().Before(deadline) || st.sendWindow > 0 || st.sendClosed
}

// CloseWrite half-closes the stream: the peer sees EOF after draining.
func (st *Stream) CloseWrite() error {
	st.sendMu.Lock()
	if st.sendClosed {
		st.sendMu.Unlock()
		return nil
	}
	st.sendClosed = true
	st.sendCond.Broadcast()
	st.sendMu.Unlock()
	// FIN takes a sequence slot so it cannot overtake data in flight on
	// another member connection.
	return st.spray(true, nil)
}

// spray numbers one outbound frame and queues it on a member connection:
// any live one once the peer is known to hold the stream, the primary —
// which carried the SYN — until then.
func (st *Stream) spray(fin bool, buf []byte) error {
	f := sentFrame{stream: st.id, seq: st.sendSeq.Add(1) - 1, fin: fin, buf: buf}
	return st.session.sprayFrame(f, !st.synacked.Load())
}

// Close fully closes the stream and releases it from the session.
func (st *Stream) Close() error {
	err := st.CloseWrite()
	st.recvMu.Lock()
	if st.recvErr == nil {
		st.recvErr = ErrStreamClosed
	}
	st.releaseOOOLocked()
	st.recvCond.Broadcast()
	st.recvMu.Unlock()
	st.session.removeStream(st.id)
	return err
}

// LocalAddr implements net.Conn, delegating to the session connection.
func (st *Stream) LocalAddr() net.Addr { return st.session.conn.LocalAddr() }

// RemoteAddr implements net.Conn, delegating to the session connection.
func (st *Stream) RemoteAddr() net.Addr { return st.session.conn.RemoteAddr() }

// SetDeadline implements net.Conn.
func (st *Stream) SetDeadline(t time.Time) error {
	if err := st.SetReadDeadline(t); err != nil {
		return err
	}
	return st.SetWriteDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (st *Stream) SetReadDeadline(t time.Time) error {
	st.recvMu.Lock()
	st.readDeadline = t
	st.recvCond.Broadcast()
	st.recvMu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn.
func (st *Stream) SetWriteDeadline(t time.Time) error {
	st.sendMu.Lock()
	st.writeDeadline = t
	st.sendCond.Broadcast()
	st.sendMu.Unlock()
	return nil
}
