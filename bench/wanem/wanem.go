// Package wanem emulates one wide-area link between two sites on top of
// real sockets: a propagation delay line, and one token bucket per
// direction that every connection of the link shares.
//
// It exists because transport/mem's shaping is the wrong model for a
// yardstick: mem charges its latency as a time.Sleep inside the sender's
// Write (so the sender is throttled to one write per latency, and a
// bigger write "travels faster"), and caps bandwidth per connection (so k
// bonded connections get k times the link). Here the sender is never
// slowed by the propagation delay — bytes are queued with a release time
// and a pump delivers them — and all connections of a direction draw from
// one bucket, so striping and bonding can hide latency but cannot conjure
// bandwidth.
//
// The model, per direction:
//
//	admit:    a segment is accepted while the serializer's backlog is at
//	          most Queue bytes; otherwise the writer blocks (no loss) and
//	          honours its write deadline
//	serialize: start = max(now, free); free = start + len/Rate
//	propagate: the segment is released to the far end at free + OneWay
//
// Only dialed connections are wrapped. Both directions of a dialed
// connection are emulated on the dialer's side (writes before they reach
// the socket, reads after they leave it), so the accepting side uses the
// plain socket and the link behaves the same whichever site dialed.
package wanem

import (
	"context"
	"net"
	"os"
	"sync"
	"time"

	"gridproxy/internal/transport"
)

// Params describes the emulated link.
type Params struct {
	// OneWay is the propagation delay of each direction.
	OneWay time.Duration
	// Rate is each direction's capacity in bytes per second, shared by
	// every connection of the link.
	Rate float64
	// Queue is how many bytes may wait for the serializer per direction
	// before writers block. Zero means twice the bandwidth-delay product.
	Queue int
}

// BDP returns the link's bandwidth-delay product in bytes (rate × RTT).
func (p Params) BDP() int { return int(p.Rate * (2 * p.OneWay).Seconds()) }

// segment is the largest unit admitted at once, so a large Write is
// paced through the queue instead of reserving it whole.
const segment = 64 << 10

// direction is one direction's serializer, shared by all connections.
type direction struct {
	mu   sync.Mutex
	free time.Time // when the serializer finishes its last admitted byte
}

// Link is one emulated site-to-site link.
type Link struct {
	p        Params
	queueDur time.Duration
	dirs     [2]direction
}

// NewLink builds a link. Side(0) and Side(1) are the two sites' views.
func NewLink(p Params) *Link {
	if p.Queue <= 0 {
		p.Queue = 2 * p.BDP()
	}
	return &Link{p: p, queueDur: time.Duration(float64(p.Queue) / p.Rate * float64(time.Second))}
}

// admitAt reports when a segment may next be admitted to d: now if the
// backlog leaves room, otherwise the instant it will have drained enough.
func (l *Link) admitAt(d *direction, now time.Time) time.Time {
	if at := d.free.Add(-l.queueDur); at.After(now) {
		return at
	}
	return now
}

// reserve admits n bytes to d if there is room and returns their release
// time at the far end; otherwise it returns when to try again.
func (l *Link) reserve(d *direction, n int) (release time.Time, retryAt time.Time) {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if at := l.admitAt(d, now); at.After(now) {
		return time.Time{}, at
	}
	start := d.free
	if start.Before(now) {
		start = now
	}
	d.free = start.Add(time.Duration(float64(n) / l.p.Rate * float64(time.Second)))
	return d.free.Add(l.p.OneWay), time.Time{}
}

// Side returns the transport.Network one site (0 or 1) uses to reach the
// other: Listen is inner's, dialed connections cross the emulated link.
func (l *Link) Side(side int, inner transport.Network) transport.Network {
	return &network{link: l, side: side, inner: inner}
}

type network struct {
	link  *Link
	side  int
	inner transport.Network
}

func (n *network) Listen(addr string) (net.Listener, error) { return n.inner.Listen(addr) }

func (n *network) Dial(ctx context.Context, addr string) (net.Conn, error) {
	raw, err := n.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return newConn(n.link, n.side, raw), nil
}

// chunk is bytes in flight with the time they reach the far end.
type chunk struct {
	data    []byte
	release time.Time
}

// fifo is one direction of one connection: chunks in order, bounded.
type fifo struct {
	mu     sync.Mutex
	q      []chunk
	bytes  int
	err    error         // terminal: set once, after which no chunk is added
	change chan struct{} // closed and replaced on every state change
}

func newFifo() *fifo { return &fifo{change: make(chan struct{})} }

func (f *fifo) signalLocked() {
	close(f.change)
	f.change = make(chan struct{})
}

func (f *fifo) push(c chunk) {
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

// conn is a dialed connection crossing the link.
type conn struct {
	net.Conn
	link    *Link
	out, in *direction
	cap     int // per-direction bound on bytes held for this connection

	outq, inq *fifo
	closed    chan struct{} // Close was called: Reads and Writes fail
	drain     chan struct{} // no Write is in flight any more: outq only shrinks
	closeOnce sync.Once
	wg        sync.WaitGroup

	wmu       sync.Mutex // serializes Write calls
	rmu       sync.Mutex // serializes Read calls
	dmu       sync.Mutex
	rdeadline time.Time
	wdeadline time.Time
	dchange   chan struct{} // closed and replaced when a deadline changes
}

func newConn(l *Link, side int, raw net.Conn) *conn {
	c := &conn{
		Conn:    raw,
		link:    l,
		out:     &l.dirs[side],
		in:      &l.dirs[1-side],
		cap:     l.p.Queue + l.p.BDP(),
		outq:    newFifo(),
		inq:     newFifo(),
		closed:  make(chan struct{}),
		drain:   make(chan struct{}),
		dchange: make(chan struct{}),
	}
	c.wg.Add(2)
	go c.pumpOut()
	go c.pumpIn()
	return c
}

// sleepUntil waits until t or until the connection closes.
func (c *conn) sleepUntil(t time.Time) bool {
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

// pumpOut delivers written chunks to the socket at their release times.
// It outlives Close until the queue is empty: what Write accepted is on
// the link and arrives.
func (c *conn) pumpOut() {
	defer c.wg.Done()
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

// pumpIn reads the socket, charges the reverse direction, and queues the
// bytes for Read with their release times.
func (c *conn) pumpIn() {
	defer c.wg.Done()
	buf := make([]byte, segment)
	for {
		// Bound what is held for a slow reader; the socket's own buffers
		// then push back on the far end.
		c.inq.mu.Lock()
		for c.inq.bytes > c.cap {
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
					c.inq.push(chunk{data: append([]byte(nil), buf[:n]...), release: release})
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

// deadlineTimer returns a channel that fires at the current deadline
// (nil if none) and the channel that signals the deadline changed.
func (c *conn) deadlineTimer(read bool) (expired bool, fire <-chan time.Time, stop func(), changed <-chan struct{}) {
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
func (c *conn) wait(read bool, wake <-chan struct{}, until time.Time) error {
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

func (c *conn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	written := 0
	for len(p) > 0 {
		n := len(p)
		if n > segment {
			n = segment
		}
		if err := c.admit(p[:n]); err != nil {
			return written, err
		}
		written += n
		p = p[n:]
	}
	return written, nil
}

// admit queues one segment, blocking while this connection holds too
// much or the link's queue is full.
func (c *conn) admit(seg []byte) error {
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
		if held > c.cap {
			if err := c.wait(false, change, time.Time{}); err != nil {
				return err
			}
			continue
		}
		release, retryAt := c.link.reserve(c.out, len(seg))
		if retryAt.IsZero() {
			c.outq.push(chunk{data: append([]byte(nil), seg...), release: release})
			return nil
		}
		if err := c.wait(false, nil, retryAt); err != nil {
			return err
		}
	}
}

func (c *conn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if len(p) == 0 {
		return 0, nil
	}
	for {
		c.inq.mu.Lock()
		if len(c.inq.q) > 0 {
			head := &c.inq.q[0]
			if wait := time.Until(head.release); wait > 0 {
				release := head.release
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
// buffer: a "write the last frame, then close" (TLS close_notify, a tunnel's
// bye) reaches the far end one propagation delay later, as on a real link.
// Close returns once those bytes are in the socket.
func (c *conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		// Wait out a Write in flight, which returns now; a later one sees
		// closed before it admits anything.
		c.wmu.Lock()
		c.wmu.Unlock()
		close(c.drain)
		// Everything queued is released within the queue's drain time plus
		// the propagation delay. The deadlines stop pumpIn's socket read
		// and bound pumpOut's socket writes against a far end that has
		// stopped reading.
		_ = c.Conn.SetReadDeadline(time.Unix(1, 0))
		_ = c.Conn.SetWriteDeadline(time.Now().Add(c.link.queueDur + c.link.p.OneWay + lingerSlack))
		c.wg.Wait()
		err = c.Conn.Close()
	})
	return err
}

func (c *conn) setDeadlines(r, w *time.Time) {
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

func (c *conn) SetDeadline(t time.Time) error      { c.setDeadlines(&t, &t); return nil }
func (c *conn) SetReadDeadline(t time.Time) error  { c.setDeadlines(&t, nil); return nil }
func (c *conn) SetWriteDeadline(t time.Time) error { c.setDeadlines(nil, &t); return nil }

var _ net.Conn = (*conn)(nil)
