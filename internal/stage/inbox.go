package stage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"sync"
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

// arrival is one blob being pushed into a store, or a plan's wait for one
// the server said it pushed.
type arrival struct {
	hash string
	push uint64 // the push that announced it: 0 while a plan waits for the header; guarded by Store.mu
	from *Inbox // guarded by Store.mu

	blob    *pullBlob    // the bytes so far; set with push
	state   atomic.Int32 // arriving, then finishing and arrived, or failed
	readers atomic.Int32 // announced spans whose stream has not finished with them
	alloc   sync.Once
	freed   sync.Once

	// holes are the chunks that failed their checksum; missing is their
	// total.
	holes   [][2]int64 // guarded by Store.mu
	missing atomic.Int64

	done chan struct{}
	err  error // set before done closes

	claimed bool // a plan waits on it; guarded by Store.mu
	settled bool // guarded by Store.mu
	adopted bool // a plan took a holed buffer; guarded by Store.mu
}

func (a *arrival) hole(s *Store, off, end int64) {
	s.mu.Lock()
	a.holes = append(a.holes, [2]int64{off, end})
	s.mu.Unlock()
	a.missing.Add(end - off)
}

// buffer allocates the arrival's buffer once, for whichever stream reads
// its first chunk; nil when the system cannot map it.
func (a *arrival) buffer(s *Store) []byte {
	a.alloc.Do(func() {
		buf, err := s.arena.alloc(int(a.blob.size))
		if err == nil {
			a.blob.buf = buf
		}
	})
	return a.blob.buf
}

// release ends one stream's use of a span of a; the buffer of a failed
// arrival goes back once no stream reads into it.
func (a *arrival) release(s *Store) {
	a.readers.Add(-1)
	a.tryFree(s)
}

func (a *arrival) tryFree(s *Store) {
	if a.state.Load() == failed && a.readers.Load() == 0 {
		a.freed.Do(func() { s.arena.free(a.blob.buf) })
	}
}

// claimArrival returns the pushed blob hash the store is receiving, or
// has received for no plan yet, marked as waited on; first is true for
// the first plan to ask. It returns nil when there is none.
func (s *Store) claimArrival(hash string) (a *arrival, first bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a = s.arrivals[hash]
	if a == nil {
		return nil, false
	}
	first = !a.claimed
	a.claimed = true
	if a.settled {
		delete(s.arrivals, hash)
	}
	return a, first
}

// awaitArrival returns the arrival of hash for a plan the server answered
// statusPushed: the registered one, or a placeholder the share header
// fills in. It returns nil when the store holds hash and no push of it is
// registered.
func (s *Store) awaitArrival(hash string) *arrival {
	if a, _ := s.claimArrival(hash); a != nil {
		return a
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[hash]; ok {
		return nil
	}
	a := &arrival{hash: hash, done: make(chan struct{}), claimed: true}
	s.arrivals[hash] = a
	return a
}

// wait blocks until a settles. A placeholder no share header has filled
// in after patience, or an arrival that made no progress for as long, is
// given up: the server's push of it was lost, and the plan pulls it.
func (s *Store) wait(ctx context.Context, a *arrival, patience time.Duration) error {
	timer := time.NewTimer(patience)
	defer timer.Stop()
	last := int64(-1)
	for {
		select {
		case <-a.done:
			return a.err
		case <-ctx.Done():
			s.abandon(a)
			return ctx.Err()
		case <-timer.C:
			if s.expire(a) {
				return errPushLost
			}
			if left := a.blob.left.Load(); left != last {
				last = left
				timer.Reset(patience)
				continue
			}
			s.abandon(a)
			return errPushLost
		}
	}
}

// abandon ends a plan's wait for a before it settled, or after it
// settled holed without the plan mending it: a placeholder is dropped, a
// holed buffer goes back, and an arrival still under way settles as if
// no plan had waited.
func (s *Store) abandon(a *arrival) {
	if s.expire(a) {
		return
	}
	s.mu.Lock()
	settled := a.settled
	if !settled {
		a.claimed = false
	}
	s.mu.Unlock()
	if settled {
		if buf, _ := s.adopt(a); buf != nil {
			s.arena.free(buf)
		}
	}
}

// adopt hands a holed arrival's buffer and holes to one plan; nil to any
// other caller, or when the arrival is not holed.
func (s *Store) adopt(a *arrival) ([]byte, [][2]int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a.state.Load() != holed || a.adopted {
		return nil, nil
	}
	a.adopted = true
	return a.blob.buf, a.holes
}

// expire drops a placeholder no share header has filled in, and reports
// whether it did.
func (s *Store) expire(a *arrival) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a.push != 0 {
		return false
	}
	if s.arrivals[a.hash] == a {
		delete(s.arrivals, a.hash)
	}
	return true
}

// announce registers a span of a pushed blob and returns its arrival, or
// nil and the ack that refuses it: the store holds the blob or another
// push of it is under way (ackHeld), or it is larger than the store's cap
// (ackFailed).
func (s *Store) announce(hash string, size int64, push uint64, from *Inbox) (*arrival, byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.arrivals[hash]
	switch {
	case a != nil && a.push == push && a.from == from && !a.settled:
		a.readers.Add(1) // another share of the same push
		return a, 0
	case s.max >= 0 && size > s.max:
		return nil, ackFailed
	case a != nil && a.push == 0:
		// A plan waits for it already.
	case a != nil && !a.settled:
		return nil, ackHeld
	default:
		if _, ok := s.blobs[hash]; ok {
			return nil, ackHeld
		}
		a = &arrival{hash: hash, done: make(chan struct{})}
		s.arrivals[hash] = a
	}
	a.push, a.from = push, from
	a.blob = &pullBlob{hash: hash, size: size}
	a.blob.left.Store(size)
	a.readers.Add(1)
	return a, 0
}

// settle ends an arrival: err nil means its blob is in the store, and
// errHoled that the plan waiting for it may mend it. A settled arrival no
// plan waits on is kept for the plan to come, up to maxSettled of them; a
// holed one dropped from there gives its buffer back.
func (s *Store) settle(a *arrival, err error) {
	s.mu.Lock()
	a.settled, a.err = true, err
	if a.claimed {
		if s.arrivals[a.hash] == a {
			delete(s.arrivals, a.hash)
		}
	} else {
		s.unclaimed = append(s.unclaimed, a)
		if len(s.unclaimed) > maxSettled {
			stale := s.unclaimed[0]
			s.unclaimed = append(s.unclaimed[:0], s.unclaimed[1:]...)
			if s.arrivals[stale.hash] == stale {
				delete(s.arrivals, stale.hash)
			}
			if stale.state.Load() == holed && !stale.adopted {
				stale.adopted = true
				defer s.arena.free(stale.blob.buf)
			}
		}
	}
	s.mu.Unlock()
	close(a.done)
}

// Inbox is the receiving side of one peer's pushes: it asks the peer to
// push on the streams Receive runs, and fails everything the peer was
// pushing when one of them ends.
type Inbox struct {
	store *Store
	cfg   Config
	reg   *metrics.Registry

	mu   sync.Mutex
	live map[*arrival]struct{} // guarded by mu
	// cut names the blobs of pushes that failed here, newest last, so a
	// share of the same push read late is refused rather than begun anew.
	cut []pushedBlob // guarded by mu
}

// pushedBlob names one blob of one push.
type pushedBlob struct {
	push uint64
	hash string
}

// maxCut bounds Inbox.cut.
const maxCut = 256

// NewInbox returns the receiving side of one peer's pushes into store.
func NewInbox(store *Store, cfg Config, reg *metrics.Registry) *Inbox {
	return &Inbox{store: store, cfg: cfg.WithDefaults(), reg: reg, live: make(map[*arrival]struct{})}
}

// pushedSpan is one span a share header announced: a nil arrival is
// refused, and its bytes are read and dropped.
type pushedSpan struct {
	a        *arrival
	off, end int64
}

// receiver is one inbox stream as a plan sees it: whether a share header
// it has been sent may not be registered yet.
type receiver struct {
	buffered func() int  // bytes the stream holds unread; nil when it cannot say
	idle     atomic.Bool // between shares: what it holds unread is a header
	parsing  atomic.Bool // a header's prefix is read, its spans not yet registered
}

// behind reports whether r holds a share header it has not registered.
func (r *receiver) behind() bool {
	return r.parsing.Load() || r.idle.Load() && r.buffered != nil && r.buffered() > 0
}

// catchUpLimit bounds how long a plan waits for inbox streams to register
// the share headers they hold.
const catchUpLimit = 20 * time.Millisecond

// catchUp lets the inbox streams register the share headers they have
// already been sent before a plan decides what to ask for: a push's
// headers reach the store before the prepare written behind them, but the
// plan may be stepped first. A receiver that holds a header only has to
// be scheduled; catchUp yields, then sleeps briefly, for at most
// catchUpLimit.
func (s *Store) catchUp() {
	deadline := time.Now().Add(catchUpLimit)
	for spin := 0; ; spin++ {
		s.mu.Lock()
		behind := false
		for r := range s.receivers {
			if r.behind() {
				behind = true
				break
			}
		}
		s.mu.Unlock()
		if !behind || time.Now().After(deadline) {
			return
		}
		if spin < 100 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
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
	req := append(make([]byte, framePrefix, framePrefix+32), opInbox)
	req = wire.AppendString(req, "")
	req = wire.AppendInt64(req, 0)
	req = wire.AppendInt64(req, 0)
	req = wire.AppendUint32(req, 0)
	if err := writeFrame(conn, in.cfg.IdleTimeout, req); err != nil {
		return err
	}
	hdr, err := readFrame(conn, in.cfg.IdleTimeout, maxRequestFrame)
	if err != nil {
		return err
	}
	if len(hdr) == 0 || hdr[0] != statusOK {
		return errNoInbox
	}
	r.idle.Store(true)
	in.store.mu.Lock()
	in.store.receivers[r] = struct{}{}
	in.store.mu.Unlock()
	pending, err := in.receive(conn, r)
	in.store.mu.Lock()
	delete(in.store.receivers, r)
	in.store.mu.Unlock()
	in.failAll(fmt.Errorf("stage: inbox stream ended: %w", err))
	for _, sp := range pending {
		if sp.a != nil {
			sp.a.release(in.store)
		}
	}
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// receive reads shares until the stream fails, and returns the announced
// spans it had not finished.
func (in *Inbox) receive(conn net.Conn, r *receiver) ([]pushedSpan, error) {
	for {
		r.idle.Store(true)
		conn.SetReadDeadline(time.Time{}) // idle between shares
		var prefix [framePrefix]byte
		if _, err := io.ReadFull(conn, prefix[:]); err != nil {
			return nil, err
		}
		r.parsing.Store(true)
		r.idle.Store(false)
		n := binary.BigEndian.Uint32(prefix[:])
		if n > maxShareFrame {
			return nil, fmt.Errorf("stage: share header of %d bytes exceeds limit %d", n, maxShareFrame)
		}
		frame := make([]byte, n)
		armRead(conn, in.cfg.IdleTimeout)
		if _, err := io.ReadFull(conn, frame); err != nil {
			return nil, err
		}
		spans, err := in.announce(conn, frame)
		r.parsing.Store(false)
		if err != nil {
			return spans, err
		}
		for i, sp := range spans {
			if err := in.readSpan(conn, sp); err != nil {
				return spans[i:], err
			}
			if sp.a != nil {
				sp.a.release(in.store)
			}
		}
	}
}

// announce registers the spans a share header names and refuses those the
// store does not want. It returns the spans registered so far, with an
// error when the header is malformed or the refusal could not be sent.
func (in *Inbox) announce(conn net.Conn, frame []byte) ([]pushedSpan, error) {
	buf := wire.NewBuffer(frame)
	push, count := buf.Uint64(), buf.Uint32()
	if buf.Err() != nil || count > maxPipelined || push == 0 {
		return nil, fmt.Errorf("stage: bad share header")
	}
	spans := make([]pushedSpan, 0, count)
	for i := 0; i < int(count); i++ {
		hash, size, off, end := buf.String(), buf.Int64(), buf.Int64(), buf.Int64()
		if buf.Err() != nil || size <= 0 || off < 0 || off >= end || end > size || !validHash(hash) {
			return spans, fmt.Errorf("stage: bad share header")
		}
		var (
			a       *arrival
			refusal byte = ackFailed
		)
		if !in.wasCut(push, hash) {
			a, refusal = in.store.announce(hash, size, push, in)
		}
		if a != nil {
			in.mu.Lock()
			in.live[a] = struct{}{}
			in.mu.Unlock()
		}
		spans = append(spans, pushedSpan{a, off, end})
		if a == nil {
			if err := in.ack(conn, refusal, push, hash); err != nil {
				return spans, err
			}
		}
	}
	if buf.Remaining() != 0 {
		return spans, fmt.Errorf("stage: bad share header")
	}
	return spans, nil
}

// readSpan reads the chunks of one span into its arrival, or drops them
// when the arrival is refused or failed, and finishes the blob on the
// stream that reads its last byte. It returns an error only when the
// stream broke or lost its framing.
func (in *Inbox) readSpan(conn net.Conn, sp pushedSpan) error {
	a := sp.a
	var chdr [chunkHeader]byte
	for pos := sp.off; pos < sp.end; {
		armRead(conn, in.cfg.IdleTimeout)
		if _, err := io.ReadFull(conn, chdr[:]); err != nil {
			return err
		}
		n := int64(binary.BigEndian.Uint32(chdr[:4]))
		if n == 0 {
			in.fail(conn, a, errors.New("stage: push cut short"))
			return nil
		}
		if pos+n > sp.end || n > maxChunkSize {
			return fmt.Errorf("stage: bad pushed chunk length %d at offset %d", n, pos)
		}
		var dst []byte
		if a != nil && a.state.Load() == arriving {
			if buf := a.buffer(in.store); buf != nil {
				dst = buf[pos : pos+n]
			} else {
				in.fail(conn, a, errors.New("stage: no buffer for a pushed blob"))
			}
		}
		var dropped []byte // a chunk no blob keeps is read into a pooled buffer
		if dst == nil {
			dropped = wire.GetPayload(int(n))
			dst = dropped
		}
		armRead(conn, in.cfg.IdleTimeout)
		_, err := io.ReadFull(conn, dst)
		wire.PutPayload(dropped)
		if err != nil {
			return err
		}
		pos += n
		if a == nil || a.state.Load() != arriving {
			continue
		}
		if binary.BigEndian.Uint32(chdr[4:]) != crc32.Checksum(dst, castagnoli) {
			// A hole the plan that waits for the blob requests again; the
			// chunks around it are good.
			in.reg.Counter(metrics.StageCorruptChunks).Inc()
			a.hole(in.store, pos-n, pos)
		} else {
			in.reg.Counter(metrics.StageBytesReceived).Add(n)
		}
		if a.blob.left.Add(-n) == 0 {
			in.finish(conn, a)
		}
	}
	return nil
}

// finish enters a fully received blob into the store if its hash is its
// name; the SHA-256 check is the contract of a pull.
func (in *Inbox) finish(conn net.Conn, a *arrival) {
	if !a.state.CompareAndSwap(arriving, finishing) {
		return
	}
	b := a.blob
	if a.missing.Load() > 0 {
		a.state.Store(holed)
		in.forget(a)
		in.store.settle(a, errHoled)
		_ = in.ack(conn, ackFailed, a.push, a.hash)
		return
	}
	if got := in.store.hash(b.buf); got != b.hash {
		a.state.Store(arriving)
		in.fail(conn, a, fmt.Errorf("stage: pushed content hashes to %s, not %s", got, b.hash))
		return
	}
	in.store.put(b.hash, b.buf)
	a.state.Store(arrived)
	in.reg.Counter(metrics.StagePushes).Inc()
	in.forget(a)
	in.store.settle(a, nil)
	_ = in.ack(conn, ackStored, a.push, a.hash)
}

// fail settles a failed arrival and tells the peer, which stops writing
// it. A nil arrival, or one already settled, is left alone.
func (in *Inbox) fail(conn net.Conn, a *arrival, err error) {
	if a == nil || !a.state.CompareAndSwap(arriving, failed) {
		return
	}
	in.forget(a)
	in.store.settle(a, err)
	a.tryFree(in.store)
	_ = in.ack(conn, ackFailed, a.push, a.hash)
}

// wasCut reports whether the blob of the push failed here already.
func (in *Inbox) wasCut(push uint64, hash string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, c := range in.cut {
		if c == (pushedBlob{push, hash}) {
			return true
		}
	}
	return false
}

func (in *Inbox) forget(a *arrival) {
	in.mu.Lock()
	delete(in.live, a)
	if a.state.Load() == failed {
		if in.cut = append(in.cut, pushedBlob{a.push, a.hash}); len(in.cut) > maxCut {
			in.cut = in.cut[1:]
		}
	}
	in.mu.Unlock()
}

// failAll fails every push of the peer still under way: one of its
// streams ended, and a blob with a span on it cannot complete.
func (in *Inbox) failAll(err error) {
	in.mu.Lock()
	live := in.live
	in.live = make(map[*arrival]struct{})
	in.mu.Unlock()
	for a := range live {
		if a.state.CompareAndSwap(arriving, failed) {
			in.forget(a)
			in.store.settle(a, err)
			a.tryFree(in.store)
		}
	}
}

func (in *Inbox) ack(conn net.Conn, status byte, push uint64, hash string) error {
	frame := append(make([]byte, framePrefix, framePrefix+80), status)
	frame = wire.AppendUint64(frame, push)
	frame = wire.AppendString(frame, hash)
	return writeFrame(conn, in.cfg.IdleTimeout, frame)
}
