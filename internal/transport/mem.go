package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// MemNetwork is an in-memory Network used by tests and the multi-site
// simulator. Addresses are arbitrary non-empty labels. Connections are
// full-duplex byte streams implemented over channels with deadline support,
// so they satisfy net.Conn closely enough to carry TLS.
//
// A MemNetwork is as fast as the machine: to model a distance between its
// ends, dial through a Link.
type MemNetwork struct {
	mu        sync.Mutex
	listeners map[string]*memListener
	closed    bool
}

// NewMemNetwork creates an empty in-memory network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{listeners: make(map[string]*memListener)}
}

var _ Network = (*MemNetwork)(nil)

// Listen implements Network.
func (n *MemNetwork) Listen(addr string) (net.Listener, error) {
	if addr == "" {
		return nil, errors.New("transport: mem listen: empty address")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, exists := n.listeners[addr]; exists {
		return nil, fmt.Errorf("transport: mem listen %s: address in use", addr)
	}
	ln := &memListener{
		net:    n,
		addr:   memAddr(addr),
		accept: make(chan net.Conn),
		done:   make(chan struct{}),
	}
	n.listeners[addr] = ln
	return ln, nil
}

// Dial implements Network.
func (n *MemNetwork) Dial(ctx context.Context, addr string) (net.Conn, error) {
	n.mu.Lock()
	ln, ok := n.listeners[addr]
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if !ok {
		return nil, fmt.Errorf("transport: mem dial %s: connection refused", addr)
	}
	client, server := pipePair(memAddr("dial:"+addr), memAddr(addr))
	select {
	case ln.accept <- server:
		return client, nil
	case <-ln.done:
		_ = client.Close()
		return nil, fmt.Errorf("transport: mem dial %s: connection refused", addr)
	case <-ctx.Done():
		_ = client.Close()
		return nil, ctx.Err()
	}
}

// Close shuts the network down: all listeners stop accepting.
func (n *MemNetwork) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	n.closed = true
	for addr, ln := range n.listeners {
		ln.closeLocked()
		delete(n.listeners, addr)
	}
	return nil
}

func (n *MemNetwork) remove(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.listeners, addr)
}

// pipePair builds the two ends of an in-memory duplex connection.
func pipePair(clientAddr, serverAddr memAddr) (net.Conn, net.Conn) {
	a2b := newHalfPipe()
	b2a := newHalfPipe()
	client := &memConn{read: b2a, write: a2b, local: clientAddr, remote: serverAddr}
	server := &memConn{read: a2b, write: b2a, local: serverAddr, remote: clientAddr}
	return client, server
}

// memAddr is a label address.
type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

type memListener struct {
	net      *MemNetwork
	addr     memAddr
	accept   chan net.Conn
	done     chan struct{}
	closeOne sync.Once
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case conn := <-l.accept:
		return conn, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *memListener) Close() error {
	l.closeLocked()
	l.net.remove(string(l.addr))
	return nil
}

func (l *memListener) closeLocked() {
	l.closeOne.Do(func() { close(l.done) })
}

func (l *memListener) Addr() net.Addr { return l.addr }

// chunk is one Write's worth of bytes in flight on a halfPipe. Chunks
// are pooled: the reader recycles each one once fully consumed, so a
// steady-state connection stops allocating per write: the in-memory
// network must not be what an allocation budget measured over it
// (TestGatePutGetAllocBudget) counts.
type chunk struct{ b []byte }

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// newChunk copies p into a pooled chunk (the caller's buffer is reused
// the moment Write returns, so the pipe needs its own copy).
func newChunk(p []byte) *chunk {
	ck := chunkPool.Get().(*chunk)
	if cap(ck.b) < len(p) {
		ck.b = make([]byte, len(p))
	}
	ck.b = ck.b[:len(p)]
	copy(ck.b, p)
	return ck
}

func (ck *chunk) release() { chunkPool.Put(ck) }

// halfPipe is one direction of a memConn: a bounded queue of byte chunks
// with close semantics. pending/poff track the
// partially consumed head chunk; they are only touched by the reading
// side, which is single-goroutine like any net.Conn read half.
type halfPipe struct {
	ch      chan *chunk
	closed  chan struct{}
	close1  sync.Once
	pending *chunk
	poff    int
}

func newHalfPipe() *halfPipe {
	return &halfPipe{ch: make(chan *chunk, 64), closed: make(chan struct{})}
}

// consume copies from the pending head chunk into p, recycling the chunk
// once drained.
func (h *halfPipe) consume(p []byte) int {
	n := copy(p, h.pending.b[h.poff:])
	h.poff += n
	if h.poff >= len(h.pending.b) {
		h.pending.release()
		h.pending, h.poff = nil, 0
	}
	return n
}

func (h *halfPipe) closePipe() {
	h.close1.Do(func() { close(h.closed) })
}

// memConn is one end of an in-memory duplex connection.
type memConn struct {
	read, write   *halfPipe
	local, remote memAddr

	mu            sync.Mutex
	readDeadline  time.Time
	writeDeadline time.Time
}

var _ net.Conn = (*memConn)(nil)

func (c *memConn) Read(p []byte) (int, error) {
	// Serve buffered bytes first.
	if c.read.pending != nil {
		return c.read.consume(p), nil
	}
	//lint:allow-guardedby only the field's address is taken here; getDeadline dereferences it under mu
	timer, expired := c.deadlineTimer(c.getDeadline(&c.readDeadline))
	if expired {
		return 0, os.ErrDeadlineExceeded
	}
	if timer != nil {
		defer timer.Stop()
	}
	var timeout <-chan time.Time
	if timer != nil {
		timeout = timer.C
	}
	select {
	case ck, ok := <-c.read.ch:
		if !ok {
			return 0, io.EOF
		}
		c.read.pending, c.read.poff = ck, 0
		return c.read.consume(p), nil
	case <-c.read.closed:
		// Drain anything enqueued before close.
		select {
		case ck, ok := <-c.read.ch:
			if ok {
				c.read.pending, c.read.poff = ck, 0
				return c.read.consume(p), nil
			}
		default:
		}
		return 0, io.EOF
	case <-timeout:
		return 0, os.ErrDeadlineExceeded
	}
}

func (c *memConn) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	ck := newChunk(p)
	//lint:allow-guardedby only the field's address is taken here; getDeadline dereferences it under mu
	timer, expired := c.deadlineTimer(c.getDeadline(&c.writeDeadline))
	if expired {
		ck.release()
		return 0, os.ErrDeadlineExceeded
	}
	if timer != nil {
		defer timer.Stop()
	}
	var timeout <-chan time.Time
	if timer != nil {
		timeout = timer.C
	}
	select {
	case c.write.ch <- ck:
		return len(p), nil
	case <-c.write.closed:
		ck.release()
		return 0, io.ErrClosedPipe
	case <-timeout:
		ck.release()
		return 0, os.ErrDeadlineExceeded
	}
}

func (c *memConn) Close() error {
	c.write.closePipe()
	c.read.closePipe()
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return c.local }
func (c *memConn) RemoteAddr() net.Addr { return c.remote }

func (c *memConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readDeadline = t
	c.writeDeadline = t
	return nil
}

func (c *memConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readDeadline = t
	return nil
}

func (c *memConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writeDeadline = t
	return nil
}

func (c *memConn) getDeadline(field *time.Time) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return *field
}

// deadlineTimer converts a deadline into a timer. The second return value
// reports an already-expired deadline.
func (c *memConn) deadlineTimer(deadline time.Time) (*time.Timer, bool) {
	if deadline.IsZero() {
		return nil, false
	}
	d := time.Until(deadline)
	if d <= 0 {
		return nil, true
	}
	return time.NewTimer(d), false
}
