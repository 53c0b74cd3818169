package proto

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"gridproxy/internal/metrics"
	"gridproxy/internal/wire"
)

// Role fixes which correlation ids each end of a control channel may
// mint. Both proxies of a peer link issue calls concurrently; giving the
// dialing side odd ids and the accepting side even ids means a corr can
// never collide, and — more importantly — a message carrying one of OUR
// ids that no longer has a pending call is recognizably a late reply (the
// call timed out) rather than a request, so it is dropped instead of
// being answered with an ErrorBody that the remote would in turn treat as
// a request.
type Role int

const (
	// RoleServer: only the remote end issues calls (a proxy's local
	// client and node-agent sessions). Every inbound message is a request.
	RoleServer Role = iota
	// RoleClient: only this end issues calls (grid.Client). Every inbound
	// message is a reply, and one nobody waits for is dropped.
	RoleClient
	// RoleDialer: the side that dialed the peer link; mints odd ids.
	RoleDialer
	// RoleAcceptor: the side that accepted the peer link; mints even ids.
	RoleAcceptor
)

// Handler serves one request from the remote end. It returns the reply
// body, or an error rendered as an ErrorBody.
type Handler func(ctx context.Context, msg Message) (Body, error)

// ServedBy serves, on the request's goroutine, a request that Arrival has
// already taken on the read loop.
type ServedBy func(ctx context.Context) (Body, error)

// RPC speaks the control protocol over one connection (a tunnel control
// stream between proxies, a client's connection to its site proxy, or a
// node agent's). Both ends can issue requests; replies are correlated by
// id.
type RPC struct {
	conn net.Conn
	rd   *wire.Reader
	w    *wire.Writer
	log  *slog.Logger
	reg  *metrics.Registry
	role Role
	// poolFrom is the payload size from which frames are read into pooled
	// buffers.
	poolFrom int

	// ctx spans the channel's lifetime; handlers run under it so in-flight
	// work is cancelled on shutdown and proxy stop.
	ctx    context.Context
	cancel context.CancelFunc

	handler Handler
	// Arrival, if set (between NewRPC and Start), is the route of the
	// requests that must be taken in the order they arrived: the read
	// loop hands it every request before the request gets its goroutine,
	// and the goroutines run in any order. Arrival takes the request
	// there and returns what serves it on its goroutine, or nil to leave
	// it to the handler. It must not block.
	Arrival func(msg Message) ServedBy

	nextCorr atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan Message
	closed  bool
	err     error

	done chan struct{}
	wg   sync.WaitGroup
}

// ErrClosed is returned for calls on a closed control channel.
var ErrClosed = errors.New("proto: control channel closed")

// NewRPC builds a control channel over conn that reads it through rd,
// which may already hold what a dispatcher peeked at. Handlers run under
// a context derived from parent, which must be non-nil. A RoleClient
// channel has no handler and reads every frame into its own buffer: its
// replies outlive the read loop, and a pooled frame would be copied out.
// A nil log logs nothing.
func NewRPC(parent context.Context, conn net.Conn, rd *wire.Reader, role Role, handler Handler, log *slog.Logger, reg *metrics.Registry) *RPC {
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	ctx, cancel := context.WithCancel(parent)
	poolFrom := MaxInlineOutputs
	if role == RoleClient {
		poolFrom = math.MaxInt
	}
	return &RPC{
		conn:     conn,
		rd:       rd,
		w:        wire.NewWriter(conn),
		log:      log,
		reg:      reg,
		role:     role,
		poolFrom: poolFrom,
		ctx:      ctx,
		cancel:   cancel,
		handler:  handler,
		pending:  make(map[uint64]chan Message),
		done:     make(chan struct{}),
	}
}

// newCorr mints the next correlation id for this end's role.
func (r *RPC) newCorr() uint64 {
	n := r.nextCorr.Add(1)
	switch r.role {
	case RoleDialer:
		return 2*n - 1
	case RoleAcceptor:
		return 2 * n
	default:
		return n
	}
}

// ownsCorr reports whether this end could have minted corr, i.e. whether
// an unmatched message carrying it is a late reply rather than a request.
func (r *RPC) ownsCorr(corr uint64) bool {
	switch r.role {
	case RoleClient:
		return true
	case RoleDialer:
		return corr%2 == 1
	case RoleAcceptor:
		return corr != 0 && corr%2 == 0
	}
	return false
}

// Start launches the read loop. Callers may set up state between NewRPC
// and Start (for example storing the channel where the handler can see
// it); no message is processed before Start.
func (r *RPC) Start() {
	r.wg.Add(1)
	go r.readLoop()
}

func (r *RPC) readLoop() {
	defer r.wg.Done()
	for {
		// Large frames (blob chunks) are pooled: a request's goes back once
		// served (a StagePut's bytes are copied into its upload), a reply's
		// once copied out at its own length, since the reply outlives it.
		frame, err := r.rd.ReadFramePooledFrom(r.poolFrom)
		var msg Message
		if err == nil {
			msg, err = FrameMessage(frame)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				r.log.Debug("control read failed", "err", err)
			}
			r.shutdown(err)
			return
		}
		r.reg.Counter(metrics.ControlMessages).Inc()
		r.reg.Counter(metrics.ControlBytes).Add(int64(len(msg.Payload)))

		// A message whose correlation id matches one of our in-flight
		// calls is a reply; an unmatched message carrying an id we mint
		// is a late reply to a call that already timed out and is
		// dropped; everything else is a request for the handler.
		if ch := r.takePending(msg.Corr); ch != nil {
			if len(frame.Payload) >= r.poolFrom {
				msg.Payload = bytes.Clone(msg.Payload)
				wire.PutPayload(frame.Payload)
			}
			ch <- msg
			continue
		}
		if r.ownsCorr(msg.Corr) {
			wire.PutPayload(frame.Payload)
			r.log.Debug("dropping late control reply", "corr", msg.Corr)
			continue
		}
		var by ServedBy
		if r.Arrival != nil {
			by = r.Arrival(msg)
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.serve(msg, by)
			wire.PutPayload(frame.Payload)
		}()
	}
}

func (r *RPC) takePending(corr uint64) chan Message {
	if corr == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ch, ok := r.pending[corr]
	if ok {
		delete(r.pending, corr)
	}
	return ch
}

// serve answers one request: by, if Arrival supplied one, else the
// handler. A reply with a Release method is released once written.
func (r *RPC) serve(msg Message, by ServedBy) {
	var (
		reply Body
		err   error
	)
	if by != nil {
		reply, err = by(r.ctx)
	} else {
		reply, err = r.handler(r.ctx, msg)
	}
	if l, ok := reply.(interface{ Release() }); ok {
		defer l.Release() // after the frame writer has copied the reply
	}
	if msg.Corr == 0 {
		// Notification; nothing to send back.
		return
	}
	if err != nil {
		status := StatusInternal
		var se *StatusError
		if errors.As(err, &se) {
			status = se.Status
		}
		reply = &ErrorBody{Status: status, Text: err.Error()}
	}
	if reply == nil {
		return
	}
	if werr := r.write(msg.Corr, reply); werr != nil {
		r.log.Debug("control reply write failed", "err", werr)
	}
}

func (r *RPC) write(corr uint64, body Body) error {
	r.reg.Counter(metrics.ControlMessages).Inc()
	n, err := WriteBody(r.w, corr, body)
	r.reg.Counter(metrics.ControlBytes).Add(int64(n))
	return err
}

// Pending is a request that has been sent and whose reply has not been
// collected yet. Whoever sent it forgets it when done with it, collected
// or not: a reply nobody waits for any more is dropped by the read loop
// as a late one.
type Pending struct {
	r    *RPC
	corr uint64
	ch   chan Message
	// sendErr is why the request never went out; Wait returns it.
	sendErr error
}

// Send writes a request and returns once it is on the connection (or
// could not be put there: Wait then says why), so requests one goroutine
// sends reach the peer in that order. The send respects ctx: a hung
// connection (write blocked in the kernel or a peer that stopped reading)
// cannot hold the caller past its deadline.
func (r *RPC) Send(ctx context.Context, body Body) *Pending {
	c := &Pending{r: r, corr: r.newCorr(), ch: make(chan Message, 1)}
	if err := ctx.Err(); err != nil {
		// Not even started: a shutting-down proxy's PeerBye must not
		// reach the wire and pass a crash off as an announced close.
		c.sendErr = err
		return c
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		c.sendErr = ErrClosed
		return c
	}
	r.pending[c.corr] = c.ch
	r.mu.Unlock()

	// The write runs in its own goroutine so a blocked connection cannot
	// pin the caller: wire.Writer serializes frames internally, so an
	// abandoned write simply drains (or fails) when the connection
	// unblocks or is torn down.
	written := make(chan error, 1)
	go func() { written <- r.write(c.corr, body) }()
	select {
	case err := <-written:
		if err != nil {
			c.sendErr = fmt.Errorf("proto: control send: %w", err)
		}
	case <-ctx.Done():
		c.sendErr = ctx.Err()
	case <-r.done:
		c.sendErr = r.closeErr()
	}
	return c
}

// Wait collects the reply. An ErrorBody reply is converted to a
// *StatusError.
func (c *Pending) Wait(ctx context.Context) (Body, error) {
	if c.sendErr != nil {
		return nil, c.sendErr
	}
	select {
	case msg := <-c.ch:
		reply, err := Unmarshal(msg)
		if err != nil {
			return nil, err
		}
		if eb, ok := reply.(*ErrorBody); ok {
			return nil, &StatusError{Status: eb.Status, Text: eb.Text}
		}
		return reply, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.r.done:
		return nil, c.r.closeErr()
	}
}

// Forget ends the call: its reply, should it still come, is dropped.
func (c *Pending) Forget() {
	c.r.mu.Lock()
	delete(c.r.pending, c.corr)
	c.r.mu.Unlock()
}

// Call sends a request and waits for its reply.
func (r *RPC) Call(ctx context.Context, body Body) (Body, error) {
	c := r.Send(ctx, body)
	defer c.Forget()
	return c.Wait(ctx)
}

// Notify sends a request expecting no reply.
func (r *RPC) Notify(body Body) error {
	if r.Closed() {
		return ErrClosed
	}
	return r.write(0, body)
}

func (r *RPC) shutdown(err error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.err = err
	r.mu.Unlock()
	r.cancel()
	close(r.done)
	_ = r.conn.Close()
}

func (r *RPC) closeErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil && !errors.Is(r.err, io.EOF) {
		return r.err
	}
	return ErrClosed
}

// Done is closed once the channel is down: its connection failed or
// Close was called.
func (r *RPC) Done() <-chan struct{} { return r.done }

// Closed reports whether the channel is down.
func (r *RPC) Closed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// Close shuts the channel down and waits for its read loop and the
// requests it is serving.
func (r *RPC) Close() {
	r.shutdown(nil)
	r.wg.Wait()
}

// StatusError carries a protocol error status through Go error handling:
// a handler returns one to choose the ErrorBody's status, and Wait
// returns one for an ErrorBody reply.
type StatusError struct {
	Status uint16
	Text   string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("remote error (status %d): %s", e.Status, e.Text)
}

// Errorf builds a *StatusError.
func Errorf(status uint16, format string, args ...any) error {
	return &StatusError{Status: status, Text: fmt.Sprintf(format, args...)}
}
