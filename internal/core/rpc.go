package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"gridproxy/internal/logging"
	"gridproxy/internal/metrics"
	"gridproxy/internal/proto"
	"gridproxy/internal/wire"
)

// rpcRole fixes which correlation ids each end of a control channel may
// mint. Both proxies of a peer link issue calls concurrently; giving the
// dialing side odd ids and the accepting side even ids means a corr can
// never collide, and — more importantly — a message carrying one of OUR
// ids that no longer has a pending call is recognizably a late reply (the
// call timed out) rather than a request, so it is dropped instead of
// being answered with an ErrorBody that the remote would in turn treat as
// a request.
type rpcRole int

const (
	// roleServer: only the remote end issues calls (local client and
	// node-agent sessions). Every inbound correlated message is a request.
	roleServer rpcRole = iota
	// roleDialer: the side that dialed the peer link; mints odd ids.
	roleDialer
	// roleAcceptor: the side that accepted the peer link; mints even ids.
	roleAcceptor
)

// rpc speaks the control protocol over one connection (a tunnel control
// stream between proxies, or a plain local connection from a node or
// client). Both ends can issue requests; replies are correlated by id.
type rpc struct {
	conn net.Conn
	w    *wire.Writer
	log  *logging.Logger
	reg  *metrics.Registry
	role rpcRole

	// ctx spans the rpc's lifetime; handlers run under it so in-flight
	// work is cancelled on shutdown and proxy stop.
	ctx    context.Context
	cancel context.CancelFunc

	// handler serves requests from the peer. It returns the reply body,
	// or an error rendered as an ErrorBody.
	handler func(ctx context.Context, msg proto.Message) (proto.Body, error)
	// arrival, if set (between newRPC and start), sees every request on
	// the read loop, before the request gets its goroutine: what has to
	// happen in the order requests arrived happens there, because the
	// goroutines run in any order. It returns what serves the request, or
	// nil for handler.
	arrival func(msg proto.Message) servedBy

	nextCorr atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan proto.Message
	closed  bool
	err     error

	done chan struct{}
	wg   sync.WaitGroup
}

// servedBy serves one request whose message its maker has already seen.
type servedBy func(ctx context.Context) (proto.Body, error)

// errRPCClosed is returned for calls on a closed control channel.
var errRPCClosed = errors.New("core: control channel closed")

// newRPC builds a control channel whose handlers run under a context
// derived from parent (the proxy's run context). parent must be non-nil:
// a silent context.Background() fallback here once detached handlers
// from the proxy lifetime (fixed in PR 1, now enforced by gridlint's
// ctxprop), so a nil parent is a programmer error that panics in
// context.WithCancel rather than detaching quietly.
func newRPC(parent context.Context, conn net.Conn, role rpcRole, handler func(ctx context.Context, msg proto.Message) (proto.Body, error), log *logging.Logger, reg *metrics.Registry) *rpc {
	ctx, cancel := context.WithCancel(parent)
	r := &rpc{
		conn:    conn,
		w:       wire.NewWriter(conn),
		log:     log,
		reg:     reg,
		role:    role,
		ctx:     ctx,
		cancel:  cancel,
		handler: handler,
		pending: make(map[uint64]chan proto.Message),
		done:    make(chan struct{}),
	}
	return r
}

// newCorr mints the next correlation id for this end's role.
func (r *rpc) newCorr() uint64 {
	n := r.nextCorr.Add(1)
	switch r.role {
	case roleDialer:
		return 2*n - 1
	case roleAcceptor:
		return 2 * n
	default:
		return n
	}
}

// ownsCorr reports whether this end could have minted corr, i.e. whether
// an unmatched message carrying it is a late reply rather than a request.
func (r *rpc) ownsCorr(corr uint64) bool {
	if corr == 0 {
		return false
	}
	switch r.role {
	case roleDialer:
		return corr%2 == 1
	case roleAcceptor:
		return corr%2 == 0
	default:
		return false
	}
}

// start launches the read loop. Callers may set up state between newRPC
// and start (for example storing the rpc where the handler can see it);
// no message is processed before start.
func (r *rpc) start() {
	r.wg.Add(1)
	go r.readLoop()
}

func (r *rpc) readLoop() {
	defer r.wg.Done()
	reader := wire.NewReader(r.conn)
	for {
		msg, err := proto.ReadMessage(reader)
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
			ch <- msg
			continue
		}
		if r.ownsCorr(msg.Corr) {
			r.log.Debug("dropping late control reply", "corr", msg.Corr)
			continue
		}
		var by servedBy
		if r.arrival != nil {
			by = r.arrival(msg)
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.serve(msg, by)
		}()
	}
}

func (r *rpc) takePending(corr uint64) chan proto.Message {
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

// serve answers one request: by, if arrival supplied one, else handler.
func (r *rpc) serve(msg proto.Message, by servedBy) {
	var (
		reply proto.Body
		err   error
	)
	if by != nil {
		reply, err = by(r.ctx)
	} else {
		reply, err = r.handler(r.ctx, msg)
	}
	if msg.Corr == 0 {
		// Notification; nothing to send back.
		return
	}
	if err != nil {
		status := proto.StatusInternal
		var se *statusError
		if errors.As(err, &se) {
			status = se.status
		}
		reply = &proto.ErrorBody{Status: status, Text: err.Error()}
	}
	if reply == nil {
		return
	}
	if werr := r.write(msg.Corr, reply); werr != nil {
		r.log.Debug("control reply write failed", "err", werr)
	}
}

func (r *rpc) write(corr uint64, body proto.Body) error {
	r.reg.Counter(metrics.ControlMessages).Inc()
	n, err := proto.WriteBody(r.w, corr, body)
	r.reg.Counter(metrics.ControlBytes).Add(int64(n))
	return err
}

// pendingCall is a request that has been sent and whose reply has not
// been collected yet. Whoever sent it forgets it when done with it,
// collected or not: a reply nobody waits for any more is dropped by the
// read loop as a late one.
type pendingCall struct {
	r    *rpc
	corr uint64
	ch   chan proto.Message
	// sendErr is why the request never went out; wait returns it.
	sendErr error
}

// send writes a request and returns once it is on the connection (or
// could not be put there: wait then says why), so requests one goroutine
// sends reach the peer in that order. The send respects ctx: a hung
// connection (write blocked in the kernel or a peer that stopped reading)
// cannot hold the caller past its deadline.
func (r *rpc) send(ctx context.Context, body proto.Body) *pendingCall {
	c := &pendingCall{r: r, corr: r.newCorr(), ch: make(chan proto.Message, 1)}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		c.sendErr = errRPCClosed
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
			c.sendErr = fmt.Errorf("core: control send: %w", err)
		}
	case <-ctx.Done():
		c.sendErr = ctx.Err()
	case <-r.done:
		c.sendErr = r.closeErr()
	}
	return c
}

// wait collects the reply. An ErrorBody reply is converted to an error.
func (c *pendingCall) wait(ctx context.Context) (proto.Body, error) {
	if c.sendErr != nil {
		return nil, c.sendErr
	}
	select {
	case msg := <-c.ch:
		reply, err := proto.Unmarshal(msg)
		if err != nil {
			return nil, err
		}
		if eb, ok := reply.(*proto.ErrorBody); ok {
			return nil, &statusError{status: eb.Status, text: eb.Text}
		}
		return reply, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.r.done:
		return nil, c.r.closeErr()
	}
}

func (c *pendingCall) forget() {
	c.r.mu.Lock()
	delete(c.r.pending, c.corr)
	c.r.mu.Unlock()
}

// call sends a request and waits for its reply.
func (r *rpc) call(ctx context.Context, body proto.Body) (proto.Body, error) {
	c := r.send(ctx, body)
	defer c.forget()
	return c.wait(ctx)
}

// notify sends a request expecting no reply.
func (r *rpc) notify(body proto.Body) error {
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return errRPCClosed
	}
	return r.write(0, body)
}

func (r *rpc) shutdown(err error) {
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

func (r *rpc) closeErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil && !errors.Is(r.err, io.EOF) {
		return r.err
	}
	return errRPCClosed
}

func (r *rpc) close() {
	r.shutdown(nil)
	r.wg.Wait()
}

// statusError carries a protocol error status through Go error handling.
type statusError struct {
	status uint16
	text   string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("remote error (status %d): %s", e.status, e.text)
}

// Status returns the protocol status class of an error, or StatusInternal
// if it is not a statusError.
func statusOf(err error) uint16 {
	var se *statusError
	if errors.As(err, &se) {
		return se.status
	}
	return proto.StatusInternal
}

// denied builds a StatusDenied error.
func denied(format string, args ...any) error {
	return &statusError{status: proto.StatusDenied, text: fmt.Sprintf(format, args...)}
}

// unauthorized builds a StatusUnauthorized error.
func unauthorized(format string, args ...any) error {
	return &statusError{status: proto.StatusUnauthorized, text: fmt.Sprintf(format, args...)}
}

// notFound builds a StatusNotFound error.
func notFound(format string, args ...any) error {
	return &statusError{status: proto.StatusNotFound, text: fmt.Sprintf(format, args...)}
}

// badRequest builds a StatusBadRequest error.
func badRequest(format string, args ...any) error {
	return &statusError{status: proto.StatusBadRequest, text: fmt.Sprintf(format, args...)}
}

// unavailable builds a StatusUnavailable error: the request is fine, the
// proxy cannot take it right now.
func unavailable(format string, args ...any) error {
	return &statusError{status: proto.StatusUnavailable, text: fmt.Sprintf(format, args...)}
}

// authExpired builds a StatusAuthExpired error: the session was valid
// once but its ticket/token lifetime has lapsed; re-authenticate.
func authExpired(format string, args ...any) error {
	return &statusError{status: proto.StatusAuthExpired, text: fmt.Sprintf(format, args...)}
}
