package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

// LabelTCP is a TCP network that also supports label addresses. Grid
// endpoints inside a site are named by labels ("node0/app-7/r3",
// "proxy.sitea/vs/app-7/r2") rather than host:port pairs; ordinary
// "host:port" addresses pass straight to TCP.
//
// Every labeled endpoint shares one loopback listener, bound on the first
// label Listen. A label dial connects to that port and writes a preface —
// a 2-byte big-endian length and the label — and the shared accept loop
// hands the connection to the label's listener once the preface has
// arrived (within prefaceTimeout, at most maxLabelLen bytes). Binding or
// closing a label is a registry operation: a launch binds no socket, and
// the connections themselves stay real loopback TCP end to end.
//
// The registry is per-instance and in-process, which matches the hosted
// deployment (gridproxyd runs its site's node agents in one process). A
// multi-process site would replace this with a name service on the site
// LAN; the label namespace and every caller stay unchanged.
type LabelTCP struct {
	tcp TCP

	// prefaceTimeout bounds how long an accepted connection may take to
	// name its label before it is dropped.
	prefaceTimeout time.Duration

	mu      sync.Mutex
	labels  map[string]*labelListener // guarded by mu
	pending map[net.Conn]struct{}     // accepted, preface not yet read; guarded by mu
	ln      net.Listener              // shared listener, nil until the first label Listen; guarded by mu
	port    string                    // ln's address; guarded by mu
	closed  bool                      // guarded by mu
	wg      sync.WaitGroup            // the accept loop and its preface readers
}

var _ Network = (*LabelTCP)(nil)

// maxLabelLen caps a preface's label. Grid labels are a few dozen bytes.
const maxLabelLen = 1024

// defaultPrefaceTimeout is how long the shared listener waits for a
// preface: a label dial writes it before returning, so on loopback it
// arrives at once.
const defaultPrefaceTimeout = 5 * time.Second

// NewLabelTCP creates an empty label registry over TCP.
func NewLabelTCP() *LabelTCP {
	return &LabelTCP{
		prefaceTimeout: defaultPrefaceTimeout,
		labels:         make(map[string]*labelListener),
		pending:        make(map[net.Conn]struct{}),
	}
}

// isHostPort reports whether addr looks like a literal TCP address
// (host:port with a numeric port and no label path segments).
func isHostPort(addr string) bool {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return false
	}
	if strings.Contains(host, "/") || strings.Contains(port, "/") {
		return false
	}
	for _, r := range port {
		if r < '0' || r > '9' {
			return false
		}
	}
	return port != ""
}

// Listen implements Network.
func (n *LabelTCP) Listen(addr string) (net.Listener, error) {
	if isHostPort(addr) {
		return n.tcp.Listen(addr)
	}
	if len(addr) > maxLabelLen {
		return nil, fmt.Errorf("transport: label of %d bytes exceeds %d", len(addr), maxLabelLen)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("transport: label listen %q: %w", addr, net.ErrClosed)
	}
	if _, dup := n.labels[addr]; dup {
		return nil, fmt.Errorf("transport: label %q already bound", addr)
	}
	if n.ln == nil {
		ln, err := n.tcp.Listen("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("transport: label listen %q: %w", addr, err)
		}
		n.ln, n.port = ln, ln.Addr().String()
		n.wg.Add(1)
		go n.serve(ln)
	}
	l := &labelListener{
		net:   n,
		label: addr,
		// Room for a burst of peer ranks dialling one rank at start-up,
		// as a kernel backlog would hold them; past it, routers wait.
		queue: make(chan net.Conn, 16),
		done:  make(chan struct{}),
	}
	n.labels[addr] = l
	return l, nil
}

// Dial implements Network. A label nobody listens on is refused at once,
// without a connection attempt; Listen has kept every bound label within
// the preface's cap.
func (n *LabelTCP) Dial(ctx context.Context, addr string) (net.Conn, error) {
	if isHostPort(addr) {
		return n.tcp.Dial(ctx, addr)
	}
	n.mu.Lock()
	_, ok := n.labels[addr]
	port := n.port
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: label dial %q: connection refused", addr)
	}
	conn, err := n.tcp.Dial(ctx, port)
	if err != nil {
		return nil, fmt.Errorf("transport: label dial %q: %w", addr, err)
	}
	preface := make([]byte, 2+len(addr))
	binary.BigEndian.PutUint16(preface, uint16(len(addr)))
	copy(preface[2:], addr)
	if _, err := conn.Write(preface); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("transport: label dial %q: preface: %w", addr, err)
	}
	return conn, nil
}

// Close closes the shared listener, drops connections whose preface has
// not arrived, and closes every label listener along with the
// connections queued on it. Host:port listeners are not affected.
func (n *LabelTCP) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	ln := n.ln
	pending := n.pending
	n.pending = nil
	listeners := make([]*labelListener, 0, len(n.labels))
	for _, l := range n.labels {
		listeners = append(listeners, l)
	}
	n.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for conn := range pending {
		_ = conn.Close()
	}
	for _, l := range listeners {
		_ = l.Close()
	}
	n.wg.Wait()
	return nil
}

// serve is the shared accept loop. Prefaces are read on a goroutine per
// connection, so one that never sends its preface delays nobody else;
// each such goroutine holds an accepted descriptor and lives at most
// prefaceTimeout before it routes or drops it.
func (n *LabelTCP) serve(ln net.Listener) {
	defer n.wg.Done()
	for {
		conn, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			// Transient (out of descriptors, aborted handshake): pause
			// rather than spin.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.pending[conn] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.route(conn)
	}
}

// route reads conn's preface and queues it on the label's listener.
func (n *LabelTCP) route(conn net.Conn) {
	defer n.wg.Done()
	label, err := readPreface(conn, n.prefaceTimeout)
	n.mu.Lock()
	delete(n.pending, conn)
	l := n.labels[label]
	n.mu.Unlock()
	if err != nil || l == nil {
		_ = conn.Close()
		return
	}
	l.deliver(conn)
}

// readPreface reads a label preface from conn within timeout and clears
// the deadline again, leaving conn positioned at the first byte after it.
func readPreface(conn net.Conn, timeout time.Duration) (string, error) {
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return "", err
	}
	var hdr [2]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return "", err
	}
	size := int(binary.BigEndian.Uint16(hdr[:]))
	if size > maxLabelLen {
		return "", fmt.Errorf("transport: label preface of %d bytes exceeds %d", size, maxLabelLen)
	}
	label := make([]byte, size)
	if _, err := io.ReadFull(conn, label); err != nil {
		return "", err
	}
	return string(label), conn.SetReadDeadline(time.Time{})
}

// labelListener is one label's share of the network's listener: a queue
// of routed connections.
type labelListener struct {
	net   *LabelTCP
	label string
	queue chan net.Conn
	done  chan struct{}
	once  sync.Once
}

// deliver queues conn for Accept, or closes it if the listener is closed.
func (l *labelListener) deliver(conn net.Conn) {
	select {
	case l.queue <- conn:
		// A Close that ran before the send landed has drained already.
		select {
		case <-l.done:
			l.drain()
		default:
		}
	case <-l.done:
		_ = conn.Close()
	}
}

func (l *labelListener) drain() {
	for {
		select {
		case conn := <-l.queue:
			_ = conn.Close()
		default:
			return
		}
	}
}

func (l *labelListener) Accept() (net.Conn, error) {
	select {
	case conn := <-l.queue:
		return conn, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close unregisters the label and closes the connections queued on it.
func (l *labelListener) Close() error {
	l.once.Do(func() {
		l.net.mu.Lock()
		delete(l.net.labels, l.label)
		l.net.mu.Unlock()
		close(l.done)
		l.drain()
	})
	return nil
}

func (l *labelListener) Addr() net.Addr { return labelAddr(l.label) }

// labelAddr is a label as a net.Addr.
type labelAddr string

func (labelAddr) Network() string  { return "label" }
func (a labelAddr) String() string { return string(a) }
