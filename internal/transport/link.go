package transport

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"time"
)

// Link emulates one wide-area link between two sites on top of any
// Network: a propagation delay line, and one token bucket per direction
// that every connection of the link shares. It is the only traffic
// shaping in the tree; a test or experiment that wants a distant or slow
// peer dials it through a Link.
//
// The sender is never slowed by the propagation delay — bytes are queued
// with a release time and a pump delivers them — and all connections of a
// direction draw from one bucket, so striping and bonding can hide latency
// but cannot conjure bandwidth.
//
// The model, per direction:
//
//	admit:     a segment is accepted while the serializer's backlog is at
//	           most twice the bandwidth-delay product; otherwise the writer
//	           blocks (no loss) and honours its write deadline
//	serialize: start = max(now, free); free = start + len/Rate
//	propagate: the segment is released to the far end at free + OneWay
//
// With Rate 0 there is no serializer: every segment is released OneWay
// after it was written, a pure delay line.
//
// Only dialed connections are wrapped. Both directions of a dialed
// connection are emulated on the dialer's side (writes before they reach
// the inner connection, reads after they leave it), so the accepting side
// uses the plain connection and the link behaves the same whichever side
// dialed.
type Link struct {
	p        LinkParams
	queueDur time.Duration // how long an admitted backlog may take to serialize
	hold     int           // bytes one connection may hold per direction
	dirs     [2]direction
}

// LinkParams describes an emulated link.
type LinkParams struct {
	// OneWay is the propagation delay of each direction.
	OneWay time.Duration
	// Rate is each direction's capacity in bytes per second, shared by
	// every connection of the link. Zero means no serializer: a pure
	// delay line.
	Rate float64
}

// segment is the largest unit admitted at once, so a large Write is paced
// through the queue instead of reserving it whole.
const segment = 64 << 10

// delayLineHold bounds what one connection of a Rate-0 link holds in
// flight per direction, where no bandwidth-delay product does: 4 GB/s at
// 1 ms one way, 80 MB/s at 50 ms.
const delayLineHold = 4 << 20

// NewLink builds a link; Side(0) and Side(1) are the two sites' views. A
// negative delay or a negative, NaN or infinite rate is a programmer error
// and panics.
func NewLink(p LinkParams) *Link {
	if p.OneWay < 0 || !(p.Rate >= 0) || math.IsInf(p.Rate, 1) {
		panic(fmt.Sprintf("transport: invalid link %+v", p))
	}
	l := &Link{p: p, hold: delayLineHold}
	if p.Rate > 0 {
		bdp := p.Rate * (2 * p.OneWay).Seconds()
		queue := math.Max(2*bdp, segment)
		l.queueDur = time.Duration(queue / p.Rate * float64(time.Second))
		l.hold = int(queue + bdp)
	}
	return l
}

// direction is one direction's serializer, shared by all connections.
type direction struct {
	mu   sync.Mutex
	free time.Time // when the serializer finishes its last admitted byte
}

// reserve admits n bytes to d if there is room and returns their release
// time at the far end; otherwise it returns when to try again.
func (l *Link) reserve(d *direction, n int) (release, retryAt time.Time) {
	now := time.Now()
	if l.p.Rate == 0 {
		return now.Add(l.p.OneWay), time.Time{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if at := d.free.Add(-l.queueDur); at.After(now) {
		return time.Time{}, at
	}
	start := d.free
	if start.Before(now) {
		start = now
	}
	d.free = start.Add(time.Duration(float64(n) / l.p.Rate * float64(time.Second)))
	return d.free.Add(l.p.OneWay), time.Time{}
}

// Side returns the Network one site (0 or 1) uses to reach the other:
// Listen is inner's, dialed connections cross the emulated link.
func (l *Link) Side(side int, inner Network) Network {
	return &linkNetwork{link: l, side: side, inner: inner}
}

type linkNetwork struct {
	link  *Link
	side  int
	inner Network
}

func (n *linkNetwork) Listen(addr string) (net.Listener, error) { return n.inner.Listen(addr) }

func (n *linkNetwork) Dial(ctx context.Context, addr string) (net.Conn, error) {
	raw, err := n.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return newLinkConn(n.link, n.side, raw), nil
}

// flight is bytes on the link with the time they reach the far end.
type flight struct {
	data    []byte
	release time.Time
}

// fifo is one direction of one connection: flights in order, bounded.
type fifo struct {
	mu     sync.Mutex
	q      []flight
	bytes  int
	err    error         // terminal: set once, after which no flight is added
	change chan struct{} // closed and replaced on every state change
}

func newFifo() *fifo { return &fifo{change: make(chan struct{})} }

func (f *fifo) signalLocked() {
	close(f.change)
	f.change = make(chan struct{})
}

func (f *fifo) push(c flight) {
	f.mu.Lock()
	f.q = append(f.q, c)
	f.bytes += len(c.data)
	f.signalLocked()
	f.mu.Unlock()
}

func (f *fifo) fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
		f.signalLocked()
	}
	f.mu.Unlock()
}

// linkConn is a dialed connection crossing the link.
type linkConn struct {
	net.Conn
	link    *Link
	out, in *direction

	outq, inq *fifo
	closed    chan struct{} // Close was called: Reads and Writes fail
	drain     chan struct{} // no Write is in flight any more: outq only shrinks
	closeOnce sync.Once
	outDone   chan struct{} // pumpOut has returned
	inDone    chan struct{} // pumpIn has returned

	wmu       sync.Mutex // serializes Write calls
	rmu       sync.Mutex // serializes Read calls
	dmu       sync.Mutex
	rdeadline time.Time
	wdeadline time.Time
	dchange   chan struct{} // closed and replaced when a deadline changes
}

func newLinkConn(l *Link, side int, raw net.Conn) *linkConn {
	c := &linkConn{
		Conn:    raw,
		link:    l,
		out:     &l.dirs[side],
		in:      &l.dirs[1-side],
		outq:    newFifo(),
		inq:     newFifo(),
		closed:  make(chan struct{}),
		drain:   make(chan struct{}),
		dchange: make(chan struct{}),
		outDone: make(chan struct{}),
		inDone:  make(chan struct{}),
	}
	go c.pumpOut()
	go c.pumpIn()
	return c
}

// sleepUntil waits until t or until the connection closes.
func (c *linkConn) sleepUntil(t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-c.closed:
		return false
	}
}

// pumpOut delivers written flights to the inner connection at their
// release times. It outlives Close until the queue is empty: what Write
// accepted is on the link and arrives.
func (c *linkConn) pumpOut() {
	defer close(c.outDone)
	for {
		c.outq.mu.Lock()
		for len(c.outq.q) == 0 {
			select {
			case <-c.drain:
				c.outq.mu.Unlock()
				return
			default:
			}
			change := c.outq.change
			c.outq.mu.Unlock()
			select {
			case <-change:
			case <-c.drain:
			}
			c.outq.mu.Lock()
		}
		head := c.outq.q[0]
		c.outq.mu.Unlock()
		time.Sleep(time.Until(head.release))
		if _, err := c.Conn.Write(head.data); err != nil {
			c.outq.fail(err)
			return
		}
		c.outq.mu.Lock()
		c.outq.q = c.outq.q[1:]
		c.outq.bytes -= len(head.data)
		c.outq.signalLocked()
		c.outq.mu.Unlock()
	}
}

// pumpIn reads the inner connection, charges the reverse direction, and
// queues the bytes for Read with their release times.
func (c *linkConn) pumpIn() {
	defer close(c.inDone)
	buf := make([]byte, segment)
	for {
		// Bound what is held for a slow reader; the inner connection's own
		// buffers then push back on the far end.
		c.inq.mu.Lock()
		for c.inq.bytes > c.link.hold {
			change := c.inq.change
			c.inq.mu.Unlock()
			select {
			case <-change:
			case <-c.closed:
				return
			}
			c.inq.mu.Lock()
		}
		c.inq.mu.Unlock()

		n, err := c.Conn.Read(buf)
		if n > 0 {
			for {
				release, retryAt := c.link.reserve(c.in, n)
				if retryAt.IsZero() {
					c.inq.push(flight{data: append([]byte(nil), buf[:n]...), release: release})
					break
				}
				if !c.sleepUntil(retryAt) {
					return
				}
			}
		}
		if err != nil {
			c.inq.fail(err)
			return
		}
	}
}

// deadlineTimer returns whether the current deadline has passed, a channel
// that fires at it (nil if none), and the channel that signals it changed.
func (c *linkConn) deadlineTimer(read bool) (expired bool, fire <-chan time.Time, stop func(), changed <-chan struct{}) {
	c.dmu.Lock()
	dl := c.wdeadline
	if read {
		dl = c.rdeadline
	}
	changed = c.dchange
	c.dmu.Unlock()
	if dl.IsZero() {
		return false, nil, func() {}, changed
	}
	d := time.Until(dl)
	if d <= 0 {
		return true, nil, func() {}, changed
	}
	t := time.NewTimer(d)
	return false, t.C, func() { t.Stop() }, changed
}

// wait blocks until wake fires, until (if not zero) or the deadline
// passes, or the connection closes. It returns nil when the caller should
// re-check its condition.
func (c *linkConn) wait(read bool, wake <-chan struct{}, until time.Time) error {
	expired, fire, stop, changed := c.deadlineTimer(read)
	defer stop()
	if expired {
		return os.ErrDeadlineExceeded
	}
	var untilC <-chan time.Time
	if !until.IsZero() {
		t := time.NewTimer(time.Until(until))
		defer t.Stop()
		untilC = t.C
	}
	select {
	case <-wake:
	case <-untilC:
	case <-changed:
	case <-fire:
		return os.ErrDeadlineExceeded
	case <-c.closed:
		return net.ErrClosed
	}
	return nil
}

func (c *linkConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	written := 0
	for len(p) > 0 {
		n := min(len(p), segment)
		if err := c.admit(p[:n]); err != nil {
			return written, err
		}
		written += n
		p = p[n:]
	}
	return written, nil
}

// admit queues one segment, blocking while this connection holds too much
// or the link's queue is full.
func (c *linkConn) admit(seg []byte) error {
	for {
		select {
		case <-c.closed:
			return net.ErrClosed
		default:
		}
		c.outq.mu.Lock()
		err, held, change := c.outq.err, c.outq.bytes, c.outq.change
		c.outq.mu.Unlock()
		if err != nil {
			return err
		}
		if held > c.link.hold {
			if err := c.wait(false, change, time.Time{}); err != nil {
				return err
			}
			continue
		}
		release, retryAt := c.link.reserve(c.out, len(seg))
		if retryAt.IsZero() {
			c.outq.push(flight{data: append([]byte(nil), seg...), release: release})
			return nil
		}
		if err := c.wait(false, nil, retryAt); err != nil {
			return err
		}
	}
}

func (c *linkConn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if len(p) == 0 {
		return 0, nil
	}
	for {
		c.inq.mu.Lock()
		if len(c.inq.q) > 0 {
			head := &c.inq.q[0]
			if release := head.release; time.Until(release) > 0 {
				c.inq.mu.Unlock()
				if err := c.wait(true, nil, release); err != nil {
					return 0, err
				}
				continue
			}
			n := copy(p, head.data)
			head.data = head.data[n:]
			c.inq.bytes -= n
			if len(head.data) == 0 {
				c.inq.q = c.inq.q[1:]
			}
			c.inq.signalLocked()
			c.inq.mu.Unlock()
			return n, nil
		}
		err, change := c.inq.err, c.inq.change
		c.inq.mu.Unlock()
		if err != nil {
			return 0, err
		}
		if err := c.wait(true, change, time.Time{}); err != nil {
			return 0, err
		}
	}
}

// lingerSlack is how long past the last release time Close lets the far
// end take to read what is still in flight before it gives up on it.
const lingerSlack = time.Second

// Close fails pending and later Reads and Writes at once, but what Write
// already accepted is still delivered, as TCP's close flushes the send
// buffer: a "write the last frame, then close" (TLS close_notify, a
// tunnel's bye) reaches the far end one propagation delay later, as on a
// real link. Close returns once those bytes are in the inner connection.
func (c *linkConn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		// Wait out a Write in flight, which returns now; a later one sees
		// closed before it admits anything.
		c.wmu.Lock()
		close(c.drain)
		c.wmu.Unlock()
		// Everything queued is released within the queue's drain time plus
		// the propagation delay; the deadline bounds pumpOut's writes
		// against a far end that has stopped reading. Closing the inner
		// connection then ends pumpIn's read.
		_ = c.Conn.SetWriteDeadline(time.Now().Add(c.link.queueDur + c.link.p.OneWay + lingerSlack))
		<-c.outDone
		err = c.Conn.Close()
		<-c.inDone
	})
	return err
}

func (c *linkConn) setDeadlines(r, w *time.Time) {
	c.dmu.Lock()
	if r != nil {
		c.rdeadline = *r
	}
	if w != nil {
		c.wdeadline = *w
	}
	close(c.dchange)
	c.dchange = make(chan struct{})
	c.dmu.Unlock()
}

func (c *linkConn) SetDeadline(t time.Time) error      { c.setDeadlines(&t, &t); return nil }
func (c *linkConn) SetReadDeadline(t time.Time) error  { c.setDeadlines(&t, nil); return nil }
func (c *linkConn) SetWriteDeadline(t time.Time) error { c.setDeadlines(nil, &t); return nil }

var _ net.Conn = (*linkConn)(nil)
