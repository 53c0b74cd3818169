package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Batching defaults. See Options for what each knob controls.
const (
	// DefaultLinger bounds how long an elected flusher waits for writers
	// that have entered a Write call but not yet appended their frame.
	DefaultLinger = 100 * time.Microsecond

	// DefaultFlushThreshold is the pending-byte level at which the
	// flusher stops lingering and writes immediately.
	DefaultFlushThreshold = 128 << 10

	// DefaultMaxPending caps the bulk lane; bulk writers block once this
	// many coalesced bytes are queued, bounding memory per connection.
	DefaultMaxPending = 1 << 20
)

// FlushStats describes one completed flush. Delivered to Options.Observer
// outside the writer lock.
type FlushStats struct {
	// Writes is the number of underlying conn.Write calls this flush
	// issued: one per non-empty lane, so 1 or 2.
	Writes int
	// Frames is the total number of frames coalesced into the flush.
	Frames int
	// Control is how many of those frames rode the control lane.
	Control int
	// Bytes counts wire bytes written, frame headers included.
	Bytes int
}

// Options tunes a Writer. The zero value selects the defaults above.
type Options struct {
	// Linger is the maximum time an elected flusher waits for concurrent
	// writers still between "entered Write" and "frame appended", so
	// their frames share the same underlying write. Zero means
	// DefaultLinger; negative disables lingering entirely.
	Linger time.Duration
	// FlushThreshold stops the linger early once this many bytes are
	// pending. Zero means DefaultFlushThreshold.
	FlushThreshold int
	// MaxPending caps coalesced-but-unflushed bulk bytes; bulk writers
	// block above it. Control frames are exempt so the control plane
	// never waits behind a full bulk lane. Zero means DefaultMaxPending.
	MaxPending int
	// Observer, when set, is invoked after every successful flush with
	// that flush's stats. Called outside the writer lock, but serially
	// (only one flusher runs at a time), so it needs no extra locking.
	Observer func(FlushStats)
}

// lane accumulates encoded frames (header + payload, contiguous) awaiting
// one coalesced write.
type lane struct {
	buf    []byte
	frames int
}

func (l *lane) appendFrame(frameType byte, segs ...[]byte) {
	l.buf = append(l.buf, magicByte, frameType)
	l.buf = binary.BigEndian.AppendUint32(l.buf, uint32(payloadLen(segs)))
	for _, s := range segs {
		l.buf = append(l.buf, s...)
	}
	l.frames++
}

func payloadLen(segs [][]byte) int {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	return total
}

// Writer writes frames to an underlying io.Writer. It is safe for
// concurrent use; each frame is atomic with respect to other calls.
//
// Concurrent writers group-commit: a writer appends its encoded frame to a
// pending lane, and one writer at a time is elected flusher, issuing a
// single underlying Write for everything pending (at most one extra Write
// for the control lane). Over a TLS connection that amortizes one record —
// and one kernel syscall — across the whole batch. The flusher lingers up
// to Options.Linger for writers that are in flight but have not yet
// appended; it never lingers when it is the only writer, so the
// uncontended path stays a single immediate Write. Every Write* call
// returns only after its frame has reached the underlying writer (or the
// writer failed), preserving the synchronous semantics protocols rely on.
//
// Two lanes exist so the control plane is never queued behind bulk data:
// WriteControl frames bypass the bulk backpressure cap and are written
// ahead of the bulk lane in every flush. Callers must only route frames to
// the control lane when reordering them ahead of earlier bulk frames is
// semantically safe.
//
// The first underlying write error poisons the Writer: the failed batch is
// never marked flushed and every current and future call returns the error.
type Writer struct {
	out io.Writer

	linger    time.Duration
	threshold int
	maxPend   int
	observer  func(FlushStats)

	// arrivals counts writers that have entered a Write* call but not yet
	// appended their frame. The flusher lingers only while it is nonzero.
	arrivals atomic.Int32

	mu   sync.Mutex
	cond sync.Cond
	err  error

	ctrl lane
	bulk lane
	// Retired lane buffers are kept as spares and swapped back in on the
	// next flush, so steady-state batching allocates nothing.
	ctrlSpare []byte
	bulkSpare []byte

	// batch is the id of the batch currently accepting appends;
	// flushedBatch is the id up to which (exclusive) batches have fully
	// reached the underlying writer. A frame appended under batch b is on
	// the wire once flushedBatch > b.
	batch        uint64
	flushedBatch uint64
	flushing     bool

	lingerTimer *time.Timer
}

// NewWriter wraps w in a frame writer with default Options.
func NewWriter(w io.Writer) *Writer {
	return NewWriterOpts(w, Options{})
}

// NewWriterOpts wraps w in a frame writer with explicit tuning.
func NewWriterOpts(w io.Writer, opts Options) *Writer {
	if opts.Linger == 0 {
		opts.Linger = DefaultLinger
	} else if opts.Linger < 0 {
		opts.Linger = 0
	}
	if opts.FlushThreshold == 0 {
		opts.FlushThreshold = DefaultFlushThreshold
	}
	if opts.MaxPending == 0 {
		opts.MaxPending = DefaultMaxPending
	}
	bw := &Writer{
		out:       w,
		linger:    opts.Linger,
		threshold: opts.FlushThreshold,
		maxPend:   opts.MaxPending,
		observer:  opts.Observer,
	}
	bw.cond.L = &bw.mu
	return bw
}

// WriteFrame writes one bulk-lane frame and returns once it has reached
// the underlying writer.
func (w *Writer) WriteFrame(frameType byte, payload []byte) error {
	return w.WriteFramev(frameType, payload)
}

// WriteFramev writes one bulk-lane frame whose payload is the
// concatenation of segs, gathered directly into the coalescing buffer —
// callers need not assemble a contiguous payload slice first.
func (w *Writer) WriteFramev(frameType byte, segs ...[]byte) error {
	if payloadLen(segs) > MaxPayload {
		return ErrFrameTooLarge
	}
	return w.commit(false, func(l *lane) { l.appendFrame(frameType, segs...) })
}

// WriteControl writes one control-lane frame. Control frames skip the bulk
// backpressure cap and are flushed ahead of bulk frames queued in the same
// batch, so latency-sensitive signalling (pings, window grants, stream
// setup) is never starved by saturating bulk traffic. Use only for frame
// types that may safely overtake previously written bulk frames.
func (w *Writer) WriteControl(frameType byte, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrFrameTooLarge
	}
	return w.commit(true, func(l *lane) { l.appendFrame(frameType, payload) })
}

// SeqFrame is one frame of a WriteSeqFrames batch: a frame type, an
// optional header segment, and an optional payload segment (either may
// be nil; they are concatenated on the wire).
type SeqFrame struct {
	Type    byte
	Hdr     []byte
	Payload []byte
}

// WriteSeqFrames writes a sequence of bulk-lane frames, appended in one
// writer-lock acquisition so they reach the wire back to back and in
// order. The whole batch shares one flush wait, so a sender draining a
// queue of frames pays one underlying write for the lot instead of one
// per frame. A single caller's batches reach the wire in call order (a
// failed flush poisons the writer before any later batch can pass it), so
// a receiver counting that caller's frames as they arrive and reporting
// the count back acknowledges an exact prefix of what it wrote — which is
// what the tunnel's retransmit bookkeeping relies on.
func (w *Writer) WriteSeqFrames(frames []SeqFrame) error {
	for i := range frames {
		if len(frames[i].Hdr)+len(frames[i].Payload) > MaxPayload {
			return ErrFrameTooLarge
		}
	}
	return w.commit(false, func(l *lane) {
		for i := range frames {
			l.appendFrame(frames[i].Type, frames[i].Hdr, frames[i].Payload)
		}
	})
}

// commit is the one write path: it lets add append frames to the bulk or
// the control lane under the writer lock and returns once their batch has
// reached the underlying writer, electing itself flusher if nobody else
// is.
func (w *Writer) commit(control bool, add func(*lane)) error {
	w.arrivals.Add(1)
	w.mu.Lock()
	ln := &w.ctrl
	if !control {
		ln = &w.bulk
		for w.err == nil && len(w.bulk.buf) >= w.maxPend {
			w.cond.Wait()
		}
	}
	if w.err != nil {
		w.arrivals.Add(-1)
		err := w.err
		w.mu.Unlock()
		return err
	}
	add(ln)
	mine := w.batch
	w.arrivals.Add(-1)
	if w.flushing {
		// The active flusher may be lingering for us; our frames are in.
		w.cond.Broadcast()
	}

	for w.err == nil && w.flushedBatch <= mine {
		if w.flushing {
			w.cond.Wait()
			continue
		}
		// No flusher active and our batch is still pending (which implies
		// the lanes are non-empty): become the flusher.
		w.flushing = true
		w.flushBatchLocked()
		w.flushing = false
		w.cond.Broadcast()
	}
	var err error
	if w.flushedBatch <= mine {
		err = w.err
	}
	w.mu.Unlock()
	return err
}

// flushBatchLocked writes everything pending as one batch: an optional
// bounded linger for in-flight writers, then at most one underlying Write
// per non-empty lane (control first). Called with w.mu held and
// w.flushing set; the lock is released around the underlying I/O.
func (w *Writer) flushBatchLocked() {
	if w.linger > 0 {
		var deadline time.Time
		for w.err == nil &&
			len(w.ctrl.buf)+len(w.bulk.buf) < w.threshold &&
			w.arrivals.Load() > 0 {
			now := time.Now()
			if deadline.IsZero() {
				deadline = now.Add(w.linger)
			} else if !now.Before(deadline) {
				break
			}
			w.armLingerLocked(deadline.Sub(now))
			w.cond.Wait()
		}
		if w.err != nil {
			return
		}
	}

	ctrl, bulk := w.ctrl, w.bulk
	stats := FlushStats{
		Frames:  ctrl.frames + bulk.frames,
		Control: ctrl.frames,
		Bytes:   len(ctrl.buf) + len(bulk.buf),
	}
	w.ctrl = lane{buf: w.ctrlSpare[:0]}
	w.bulk = lane{buf: w.bulkSpare[:0]}
	w.ctrlSpare, w.bulkSpare = nil, nil
	w.batch++
	flushed := w.batch

	w.mu.Unlock()
	var err error
	if len(ctrl.buf) > 0 {
		stats.Writes++
		if _, werr := w.out.Write(ctrl.buf); werr != nil {
			err = fmt.Errorf("wire: flush control lane: %w", werr)
		}
	}
	if err == nil && len(bulk.buf) > 0 {
		stats.Writes++
		if _, werr := w.out.Write(bulk.buf); werr != nil {
			err = fmt.Errorf("wire: flush bulk lane: %w", werr)
		}
	}
	if err == nil && w.observer != nil {
		w.observer(stats)
	}
	w.mu.Lock()

	w.ctrlSpare = ctrl.buf[:0]
	w.bulkSpare = bulk.buf[:0]
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	w.flushedBatch = flushed
}

// armLingerLocked (re)arms the shared wakeup timer for the linger
// deadline. One timer is reused for the Writer's lifetime so lingering
// allocates nothing after the first contended flush.
func (w *Writer) armLingerLocked(d time.Duration) {
	if w.lingerTimer == nil {
		w.lingerTimer = time.AfterFunc(d, func() {
			w.mu.Lock()
			w.cond.Broadcast()
			w.mu.Unlock()
		})
		return
	}
	w.lingerTimer.Reset(d)
}
