package stage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/wire"
)

// The receiving side of pushes (push.go): the blobs arriving into a
// store, which a stage plan waits for instead of asking for them, and the
// inbox streams that carry them.

// Arrival states.
const (
	arriving int32 = iota
	finishing
	arrived
	holed // every chunk read, some corrupt: the buffer waits for a plan to mend it
	failed
)

// buffer allocates a pushed blob's buffer once, for whichever stream reads
// its first span; nil when the system cannot map it.
func (a *incoming) buffer(s *Store) []byte {
	a.alloc.Do(func() {
		if buf, err := s.arena.alloc(int(a.size)); err == nil {
			a.buf = buf
		}
	})
	return a.buf
}

// release ends one stream's use of a span of a; the buffer of a failed
// arrival goes back once no stream reads into it.
func (a *incoming) release(s *Store) {
	a.readers.Add(-1)
	a.tryFree(s)
}

func (a *incoming) tryFree(s *Store) {
	if a.state.Load() == failed && a.readers.Load() == 0 {
		a.freed.Do(func() { s.arena.free(a.buf) })
	}
}

// claim returns the pushed blob hash the store is receiving, or has
// received for no plan yet, marked as waited on; first is true for the
// first plan to ask. It returns nil when there is none.
func (s *Store) claim(hash string) (a *incoming, first bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a = s.arrivals[hash]
	if a == nil || a.lost {
		return nil, false
	}
	first = !a.claimed
	a.claimed = true
	if a.settled {
		delete(s.arrivals, hash)
	}
	return a, first
}

// wait blocks until a settles. A push that made no progress for patience,
// or whose plan ended, is given up: the plan pulls the blob, no later plan
// claims it, and a holed one gives its buffer back when it settles.
func (s *Store) wait(ctx context.Context, a *incoming, patience time.Duration) error {
	timer := time.NewTimer(patience)
	defer timer.Stop()
	var err error
	for last := int64(-1); err == nil; {
		select {
		case <-a.done:
			return a.failure()
		case <-ctx.Done():
			err = ctx.Err()
		case <-timer.C:
			if left := a.left.Load(); left != last {
				last = left
				timer.Reset(patience)
				continue
			}
			err = errPushLost
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if a.settled {
		return a.failure()
	}
	a.lost = true
	return err
}

// adopt hands a push that settled holed to one plan: its buffer becomes
// the plan's own record, and the corrupt chunks the spans to request into
// it. It returns nil for a push that did not settle holed, or that
// another plan took.
func (s *Store) adopt(a *incoming, err error) []span {
	if err != errHoled {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if a.adopted {
		return nil
	}
	a.adopted = true
	b := &incoming{hash: a.hash, size: a.size, buf: a.buf}
	spans := make([]span, len(a.holes))
	for i, h := range a.holes {
		spans[i] = span{b, h.off, h.end}
		b.left.Add(h.end - h.off)
	}
	return spans
}

// announce registers a span of a pushed blob and returns its arrival, or
// nil and the ack that refuses it: the store holds the blob or another
// push of it is under way (ackHeld), or it is larger than the store's
// cap, or it is a late share of a push that ended here (ackFailed).
func (s *Store) announce(hash string, size int64, push uint64, from *Inbox) (*incoming, byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.arrivals[hash]
	switch {
	case a != nil && !a.settled && a.push == push && a.from == from:
		a.readers.Add(1) // another share of the same push
		return a, 0
	case s.max >= 0 && size > s.max:
		return nil, ackFailed
	case a != nil && !a.settled || s.blobs[hash] != nil:
		return nil, ackHeld
	}
	for _, c := range s.settled {
		if c.hash == hash && c.push == push && c.from == from {
			return nil, ackFailed
		}
	}
	a = &incoming{hash: hash, size: size, push: push, from: from, done: make(chan struct{})}
	a.left.Store(size)
	a.readers.Add(1)
	s.arrivals[hash] = a
	return a, 0
}

// settle ends an arrival: err nil means its blob is in the store, and
// errHoled that a plan may mend it. One no plan waits on stays in
// arrivals for the plan to come. The store remembers the last maxSettled
// arrivals that ended, and refuses a late share of their push; one let
// go at that bound leaves arrivals too. A holed one given up or let go
// gives its buffer back if no plan took it.
func (s *Store) settle(a *incoming, err error) {
	if err != nil {
		a.fail(err)
	}
	s.mu.Lock()
	a.settled = true
	if (a.claimed || a.lost) && s.arrivals[a.hash] == a {
		delete(s.arrivals, a.hash)
	}
	stale := [2][]byte{}
	if a.lost {
		stale[0] = s.giveBack(a)
	}
	s.settled = append(s.settled, a)
	if len(s.settled) > maxSettled {
		old := s.settled[0]
		s.settled = append(s.settled[:0], s.settled[1:]...)
		if s.arrivals[old.hash] == old {
			delete(s.arrivals, old.hash)
		}
		stale[1] = s.giveBack(old)
	}
	s.mu.Unlock()
	s.arena.free(stale[0])
	s.arena.free(stale[1])
	close(a.done)
}

// giveBack returns the buffer of a holed arrival no plan took, for the
// caller to free once it has released s.mu; no plan takes it after.
func (s *Store) giveBack(a *incoming) []byte {
	if a.state.Load() != holed || a.adopted {
		return nil
	}
	a.adopted = true
	return a.buf
}

// Receiver states: what the bytes an inbox stream holds unread are.
const (
	between int32 = iota // a share header, if any
	partial              // more of a header whose tail may still be on the wire
	parsing              // a whole header, not registered yet
	chunks               // a share's chunks
)

// receiver is one inbox stream as a plan sees it: whether a share header
// it has been sent may not be registered yet.
type receiver struct {
	buffered func() int // bytes the stream holds unread; nil when it cannot say
	state    atomic.Int32
}

// behind reports whether r holds share header bytes it has not
// registered: a whole header, or part of one it has yet to read.
func (r *receiver) behind() bool {
	switch r.state.Load() {
	case between, partial:
		return r.buffered != nil && r.buffered() > 0
	case parsing:
		return true
	}
	return false
}

// catchUp waits until no inbox stream holds a share header it has not
// registered, for at most patience: a push's headers reach the store
// ahead of the prepare written behind them on the same tunnel, but the
// plan the prepare runs may be stepped first. A receiver that holds a
// header only has to be scheduled, and wakes the wait when it has
// registered it. Of a header whose tail is still on the wire (held back
// by the stream's credit, or a hung peer) it waits only for the bytes
// that have arrived: the plan then pulls that blob, and it crosses twice.
func (s *Store) catchUp(patience time.Duration) {
	var timeout <-chan time.Time
	for {
		s.mu.Lock()
		behind := false
		for r := range s.receivers {
			behind = behind || r.behind()
		}
		caught := s.caught
		s.mu.Unlock()
		if !behind {
			return
		}
		if timeout == nil {
			timer := time.NewTimer(patience)
			defer timer.Stop()
			timeout = timer.C
		}
		select {
		case <-caught:
		case <-timeout:
			return
		}
	}
}

// caughtUp wakes the plans waiting in catchUp: a receiver registered a
// header, or left.
func (s *Store) caughtUp() {
	s.mu.Lock()
	close(s.caught)
	s.caught = make(chan struct{})
	s.mu.Unlock()
}

// Inbox is the receiving side of one peer's pushes: it asks the peer to
// push on the streams Receive runs, and fails everything the peer was
// pushing when one of them ends.
type Inbox struct {
	store *Store
	cfg   Config
	reg   *metrics.Registry
}

// NewInbox returns the receiving side of one peer's pushes into store.
func NewInbox(store *Store, cfg Config, reg *metrics.Registry) *Inbox {
	return &Inbox{store: store, cfg: cfg.WithDefaults(), reg: reg}
}

// Receive asks the peer to push on conn and takes what it pushes into the
// store until the stream ends, which fails every push of the peer still
// under way. It returns an error IsNoInbox recognizes when the peer does
// not push.
func (in *Inbox) Receive(conn net.Conn) error {
	r := &receiver{}
	if b, ok := conn.(interface{ Buffered() int }); ok {
		r.buffered = b.Buffered
	}
	if in.cfg.WrapConn != nil {
		conn = in.cfg.WrapConn(conn)
	}
	defer conn.Close()
	if err := writeFrame(conn, in.cfg.IdleTimeout, request(opInbox, "", 0, 0, 0)); err != nil {
		return err
	}
	hdr, err := readFrame(conn, in.cfg.IdleTimeout, maxRequestFrame)
	if err != nil {
		return err
	}
	if len(hdr) == 0 || hdr[0] != statusOK {
		return errNoInbox
	}
	in.store.mu.Lock()
	in.store.receivers[r] = struct{}{}
	in.store.mu.Unlock()
	pending, err := in.receive(conn, r)
	in.store.mu.Lock()
	delete(in.store.receivers, r)
	in.store.mu.Unlock()
	in.store.caughtUp()
	in.failAll(fmt.Errorf("stage: inbox stream ended: %w", err))
	for _, sp := range pending {
		if sp.b != nil {
			sp.b.release(in.store)
		}
	}
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// receive reads shares until the stream fails, and returns the announced
// spans it had not finished.
func (in *Inbox) receive(conn net.Conn, r *receiver) ([]span, error) {
	for {
		r.state.Store(between)
		conn.SetReadDeadline(time.Time{}) // idle between shares
		var prefix [framePrefix]byte
		if _, err := io.ReadFull(conn, prefix[:]); err != nil {
			return nil, err
		}
		n := binary.BigEndian.Uint32(prefix[:])
		if n > maxShareFrame {
			return nil, fmt.Errorf("stage: share header of %d bytes exceeds limit %d", n, maxShareFrame)
		}
		if r.buffered != nil && r.buffered() >= int(n) {
			r.state.Store(parsing)
		} else {
			r.state.Store(partial)
		}
		frame := make([]byte, n)
		armRead(conn, in.cfg.IdleTimeout)
		for got := 0; got < len(frame); {
			k, err := conn.Read(frame[got:])
			if got += k; got == len(frame) {
				break
			}
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			if err != nil {
				return nil, err
			}
			in.store.caughtUp() // ran dry short of the end: plans look again
		}
		r.state.Store(parsing)
		spans, acks, err := in.announce(frame)
		r.state.Store(chunks)
		in.store.caughtUp()
		if err == nil && len(acks) > 0 {
			err = in.send(conn, acks)
		}
		if err != nil {
			return spans, err
		}
		for i, sp := range spans {
			if err := in.readSpan(conn, sp); err != nil {
				return spans[i:], err
			}
			if sp.b != nil {
				sp.b.release(in.store)
			}
		}
	}
}

// announce registers the spans a share header names and refuses those the
// store does not want; a refused span has no arrival, and its bytes are
// read and dropped. It returns the spans registered so far and the acks
// that refuse the others, with an error when the header is malformed.
func (in *Inbox) announce(frame []byte) (spans []span, acks []byte, err error) {
	buf := wire.NewBuffer(frame)
	push, count := buf.Uint64(), buf.Uint32()
	if buf.Err() != nil || count > maxPipelined || push == 0 {
		return nil, nil, fmt.Errorf("stage: bad share header")
	}
	spans = make([]span, 0, count)
	for i := 0; i < int(count); i++ {
		hash, size, off, end := buf.String(), buf.Int64(), buf.Int64(), buf.Int64()
		if buf.Err() != nil || size <= 0 || off < 0 || off >= end || end > size || !validHash(hash) {
			return spans, nil, fmt.Errorf("stage: bad share header")
		}
		a, refusal := in.store.announce(hash, size, push, in)
		spans = append(spans, span{a, off, end})
		if a == nil {
			acks = appendAck(acks, refusal, push, hash)
		}
	}
	if buf.Remaining() != 0 {
		return spans, nil, fmt.Errorf("stage: bad share header")
	}
	return spans, acks, nil
}

// readSpan reads the chunks of one span into its arrival (readChunks), or
// drops them when the arrival is refused or settled, and finishes the
// blob on the stream that reads its last byte. A chunk that fails its
// checksum is a hole the plan waiting for the blob requests again; the
// chunks around it are kept. It returns an error only when the stream
// broke or lost its framing.
func (in *Inbox) readSpan(conn net.Conn, sp span) error {
	a := sp.b
	if a != nil && (a.state.Load() != arriving || a.buffer(in.store) == nil) {
		in.end(conn, a, errors.New("stage: no buffer for a pushed blob")) // if still under way
		a = nil
	}
	holes, _, done, err := readChunks(conn, a, sp.off, sp.end, in.cfg.IdleTimeout, in.reg)
	switch {
	case err == errCut:
		in.end(conn, sp.b, err)
		return nil
	case err != nil || a == nil:
		return err
	}
	if len(holes) > 0 {
		var n int64
		in.store.mu.Lock()
		for _, h := range holes {
			a.holes = append(a.holes, h)
			n += h.end - h.off
		}
		in.store.mu.Unlock()
		done = a.left.Add(-n) == 0
	}
	if done {
		in.end(conn, a, nil)
	}
	return nil
}

// end settles an arrival still under way and, on conn, tells the peer,
// which stops writing a blob that failed; nil conn is a stream that
// ended. With err nil its every byte is read: the blob enters the store
// (Store.finish), or settles holed for a plan to mend, or failed. A nil
// arrival, or one already settling, is left alone.
func (in *Inbox) end(conn net.Conn, a *incoming, err error) {
	if a == nil || !a.state.CompareAndSwap(arriving, finishing) {
		return
	}
	if err == nil {
		err = in.store.finish(a)
	}
	switch err {
	case nil:
		a.state.Store(arrived)
		in.reg.Counter(metrics.StagePushes).Inc()
	case errHoled:
		a.state.Store(holed)
	default:
		a.state.Store(failed)
	}
	in.store.settle(a, err)
	a.tryFree(in.store)
	if conn != nil {
		status := byte(ackStored)
		if err != nil {
			status = ackFailed
		}
		_ = in.send(conn, appendAck(nil, status, a.push, a.hash))
	}
}

// failAll fails every push of the peer still under way: one of its
// streams ended, and a blob with a span on it cannot complete.
func (in *Inbox) failAll(err error) {
	var live []*incoming
	in.store.mu.Lock()
	for _, a := range in.store.arrivals {
		if a.from == in && !a.settled {
			live = append(live, a)
		}
	}
	in.store.mu.Unlock()
	for _, a := range live {
		in.end(nil, a, err)
	}
}

// appendAck appends an ack frame to acks.
func appendAck(acks []byte, status byte, push uint64, hash string) []byte {
	n := len(acks)
	acks = append(acks, 0, 0, 0, 0, status)
	acks = wire.AppendUint64(acks, push)
	acks = wire.AppendString(acks, hash)
	binary.BigEndian.PutUint32(acks[n:], uint32(len(acks)-n-framePrefix))
	return acks
}

// send writes ack frames as one Write.
func (in *Inbox) send(conn net.Conn, acks []byte) error {
	armWrite(conn, in.cfg.IdleTimeout)
	_, err := conn.Write(acks)
	return err
}
