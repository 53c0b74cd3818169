// Package grid is the user-facing client API of the grid (the paper's
// "Web Access Interface / Command line" layer sits on top of it). A
// Client connects to its site proxy over the site-local network and can:
//
//   - authenticate (userid/password, digital signature, or session
//     ticket),
//   - query compiled grid status ("the state of a station: availability
//     of RAM memory, CPU and HD"),
//   - submit MPI jobs and track them,
//   - request Kerberos-style tickets for other sites' proxies,
//   - open explicitly-secured tunnels to endpoints in remote sites.
//
// No grid software beyond this library is required on client machines,
// matching the paper's "installation of an additional module at the
// client is unnecessary".
package grid

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/membership"
	"gridproxy/internal/monitor"
	"gridproxy/internal/proto"
	"gridproxy/internal/registry"
	"gridproxy/internal/transport"
	"gridproxy/internal/wire"
)

// Package errors.
var (
	// ErrAuthFailed is returned when the proxy rejects credentials.
	ErrAuthFailed = errors.New("grid: authentication failed")
	// ErrNotAuthenticated is returned for calls requiring a session.
	ErrNotAuthenticated = errors.New("grid: not authenticated")
	// ErrJobFailed is returned by WaitJob for failed jobs.
	ErrJobFailed = errors.New("grid: job failed")
	// ErrJobCanceled is returned by WaitJob for operator-cancelled jobs,
	// so callers can tell cancellation from failure.
	ErrJobCanceled = errors.New("grid: job canceled")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("grid: client closed")
	// ErrTicketExpired is matched (via errors.Is) by remote errors whose
	// status is StatusAuthExpired: the session's ticket or token lifetime
	// lapsed mid-session. Callers can re-authenticate and retry; see
	// OnAuthExpired for the transparent version.
	ErrTicketExpired = errors.New("grid: session ticket expired")
)

// RemoteError is a proxy-side failure carried back over the wire, with
// its machine-readable status class preserved so callers (the HTTP
// gateway in particular) can map it faithfully instead of string-parsing.
type RemoteError struct {
	Status uint16
	Text   string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("grid: remote error (status %d): %s", e.Status, e.Text)
}

// Is makes errors.Is(err, ErrTicketExpired) true for auth-expiry remote
// errors.
func (e *RemoteError) Is(target error) bool {
	return target == ErrTicketExpired && e.Status == proto.StatusAuthExpired
}

// Client is a connection to a site proxy's client service.
type Client struct {
	network   transport.Network
	proxyAddr string

	conn net.Conn
	w    *wire.Writer

	nextCorr   atomic.Uint64
	nextUpload atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan proto.Message
	closed  bool

	user  string
	token []byte
	renew func(ctx context.Context) error

	readerDone chan struct{}
}

// Dial connects to the proxy's client address on the given (site-local)
// network.
func Dial(ctx context.Context, network transport.Network, proxyAddr string) (*Client, error) {
	conn, err := network.Dial(ctx, proxyAddr)
	if err != nil {
		return nil, fmt.Errorf("grid: dial proxy %s: %w", proxyAddr, err)
	}
	c := &Client{
		network:    network,
		proxyAddr:  proxyAddr,
		conn:       conn,
		w:          wire.NewWriter(conn),
		pending:    make(map[uint64]chan proto.Message),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	defer close(c.readerDone)
	r := wire.NewReader(c.conn)
	for {
		msg, err := proto.ReadMessage(r)
		if err != nil {
			c.mu.Lock()
			c.closed = true
			for corr, ch := range c.pending {
				close(ch)
				delete(c.pending, corr)
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[msg.Corr]
		if ok {
			delete(c.pending, msg.Corr)
		}
		c.mu.Unlock()
		if ok {
			ch <- msg
		}
	}
}

// call sends a request and waits for its typed reply. When the session
// has expired mid-connection and a renewal hook is registered, the hook
// runs once and the request is retried once — transparent recovery for
// long-lived pooled clients whose tickets outlive their usefulness.
func (c *Client) call(ctx context.Context, body proto.Body) (proto.Body, error) {
	reply, err := c.callOnce(ctx, body)
	if err == nil || !errors.Is(err, ErrTicketExpired) {
		return reply, err
	}
	c.mu.Lock()
	renew := c.renew
	c.mu.Unlock()
	if renew == nil {
		return reply, err
	}
	if _, isAuth := body.(*proto.AuthRequest); isAuth {
		// Never re-enter renewal from the renewal's own auth exchange.
		return reply, err
	}
	if rerr := renew(ctx); rerr != nil {
		return nil, fmt.Errorf("grid: session expired and renewal failed: %w", rerr)
	}
	return c.callOnce(ctx, body)
}

// answer is what a call came back with.
type answer struct {
	reply proto.Body
	err   error
}

// start issues call on a goroutine of its own, for the two places that
// have something to do while the proxy works: the answer is on the
// returned channel when the call is over.
func (c *Client) start(ctx context.Context, body proto.Body) <-chan answer {
	done := make(chan answer, 1)
	go func() {
		reply, err := c.call(ctx, body)
		done <- answer{reply, err}
	}()
	return done
}

// callOnce sends a request and waits for its typed reply.
func (c *Client) callOnce(ctx context.Context, body proto.Body) (proto.Body, error) {
	corr := c.nextCorr.Add(1)
	ch := make(chan proto.Message, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.pending[corr] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, corr)
		c.mu.Unlock()
	}()

	if _, err := proto.WriteBody(c.w, corr, body); err != nil {
		return nil, fmt.Errorf("grid: send: %w", err)
	}
	select {
	case msg, ok := <-ch:
		if !ok {
			return nil, ErrClosed
		}
		reply, err := proto.Unmarshal(msg)
		if err != nil {
			return nil, err
		}
		if eb, ok := reply.(*proto.ErrorBody); ok {
			return nil, &RemoteError{Status: eb.Status, Text: eb.Text}
		}
		return reply, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close shuts the client down.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// Closed reports whether the client's connection is gone (read-loop
// death included). Connection pools use it to discard dead entries
// before checkout instead of handing callers an ErrClosed.
func (c *Client) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// OnAuthExpired registers a renewal hook: when a call fails with
// ErrTicketExpired the hook runs (typically re-running LoginWithTicket
// with a fresh ticket) and the call is retried once. A nil fn disables
// renewal.
func (c *Client) OnAuthExpired(fn func(ctx context.Context) error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.renew = fn
}

// User returns the authenticated user name, or "".
func (c *Client) User() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.user
}

// Token returns the current session token (nil before Login).
func (c *Client) Token() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.token...)
}

func (c *Client) setSession(user string, token []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.user = user
	c.token = token
}

// Login authenticates with userid and password.
func (c *Client) Login(ctx context.Context, user, password string) error {
	reply, err := c.call(ctx, &proto.AuthRequest{
		User:          user,
		Method:        proto.AuthPassword,
		PasswordProof: []byte(password),
	})
	if err != nil {
		return err
	}
	return c.finishAuth(user, reply)
}

// LoginWithSignature authenticates with the user's ECDSA key (two-phase
// challenge/response).
func (c *Client) LoginWithSignature(ctx context.Context, user string, key *ecdsa.PrivateKey) error {
	// Phase 1: obtain a challenge.
	reply, err := c.call(ctx, &proto.AuthRequest{User: user, Method: proto.AuthSignature})
	if err != nil {
		return err
	}
	ar, ok := reply.(*proto.AuthReply)
	if !ok {
		return fmt.Errorf("grid: unexpected auth reply %T", reply)
	}
	if ar.OK || ar.Reason != "challenge" || len(ar.Token) == 0 {
		return fmt.Errorf("%w: no challenge issued", ErrAuthFailed)
	}
	challenge := ar.Token
	sig, err := auth.SignChallenge(key, challenge)
	if err != nil {
		return err
	}
	// Phase 2: present the signature.
	reply, err = c.call(ctx, &proto.AuthRequest{
		User:      user,
		Method:    proto.AuthSignature,
		Challenge: challenge,
		Signature: sig,
	})
	if err != nil {
		return err
	}
	return c.finishAuth(user, reply)
}

// LoginWithTicket authenticates with a session ticket for this proxy's
// service (single sign-on: no password or signature involved).
func (c *Client) LoginWithTicket(ctx context.Context, user string, ticket []byte) error {
	reply, err := c.call(ctx, &proto.AuthRequest{
		User:   user,
		Method: proto.AuthTicket,
		Ticket: ticket,
	})
	if err != nil {
		return err
	}
	return c.finishAuth(user, reply)
}

func (c *Client) finishAuth(user string, reply proto.Body) error {
	ar, ok := reply.(*proto.AuthReply)
	if !ok {
		return fmt.Errorf("grid: unexpected auth reply %T", reply)
	}
	if !ar.OK {
		return fmt.Errorf("%w: %s", ErrAuthFailed, ar.Reason)
	}
	c.setSession(user, ar.Token)
	return nil
}

// RequestTicket exchanges a TGT for a session ticket for the named
// service (the proxy this client talks to must run the granting service).
func (c *Client) RequestTicket(ctx context.Context, tgt []byte, service string) ([]byte, error) {
	reply, err := c.call(ctx, &proto.TicketRequest{TGT: tgt, Service: service})
	if err != nil {
		return nil, err
	}
	tr, ok := reply.(*proto.TicketReply)
	if !ok {
		return nil, fmt.Errorf("grid: unexpected ticket reply %T", reply)
	}
	if !tr.OK {
		return nil, fmt.Errorf("grid: ticket refused: %s", tr.Reason)
	}
	return tr.Ticket, nil
}

// Status returns compiled summaries for the named sites (all sites when
// none are named).
func (c *Client) Status(ctx context.Context, sites ...string) ([]monitor.SiteSummary, error) {
	reply, err := c.call(ctx, &proto.StatusQuery{Sites: sites})
	if err != nil {
		return nil, err
	}
	report, ok := reply.(*proto.StatusReport)
	if !ok {
		return nil, fmt.Errorf("grid: unexpected status reply %T", reply)
	}
	out := make([]monitor.SiteSummary, len(report.Sites))
	for i, s := range report.Sites {
		out[i] = monitor.SummaryFromStatus(s)
	}
	return out, nil
}

// Member is one row of the proxy's membership directory: a site the
// proxy knows exists, its gossip liveness state, and whether the proxy
// currently holds a live tunnel to it — the directory knows many more
// sites than the proxy dials.
type Member struct {
	Site        string
	Addr        string
	State       string // alive | suspect | dead
	Incarnation uint64
	Version     uint64
	// HasSummary is false while no status summary has arrived yet;
	// SummaryAge is how old the summary is, gossip hops included.
	HasSummary bool
	SummaryAge time.Duration
	// LastHeard is how long ago the answering proxy last received
	// fresher information about the site (for the proxy itself: the
	// time since it last stamped its own status summary).
	// Suspected is true — and SuspectFor counts up — while the site sits
	// in the suspicion pipeline awaiting refutation or conviction.
	LastHeard  time.Duration
	Suspected  bool
	SuspectFor time.Duration
	Tunnel     bool
	// BondConns is the live tunnel's bond width (0 without a tunnel);
	// RTT its smoothed round-trip time (0 until a probe completes);
	// Window the per-stream receive window, in bytes, the answering proxy
	// has learned for it — what a new stream over that tunnel starts at.
	BondConns int
	RTT       time.Duration
	Window    int64
}

// Members returns the proxy's membership directory, sorted by site.
func (c *Client) Members(ctx context.Context) ([]Member, error) {
	reply, err := c.call(ctx, &proto.MemberList{})
	if err != nil {
		return nil, err
	}
	mr, ok := reply.(*proto.MemberListReply)
	if !ok {
		return nil, fmt.Errorf("grid: unexpected member list reply %T", reply)
	}
	out := make([]Member, len(mr.Members))
	for i, m := range mr.Members {
		out[i] = Member{
			Site:        m.Site,
			Addr:        m.Addr,
			State:       membership.State(m.State).String(),
			Incarnation: m.Incarnation,
			Version:     m.Version,
			Tunnel:      m.Tunnel,
			BondConns:   int(m.BondConns),
			RTT:         time.Duration(m.RTTMicros) * time.Microsecond,
			Window:      m.WindowBytes,
		}
		if m.AgeMillis >= 0 {
			out[i].HasSummary = true
			out[i].SummaryAge = time.Duration(m.AgeMillis) * time.Millisecond
		}
		if m.HeardMillis >= 0 {
			out[i].LastHeard = time.Duration(m.HeardMillis) * time.Millisecond
		}
		if m.SuspectMillis >= 0 {
			out[i].Suspected = true
			out[i].SuspectFor = time.Duration(m.SuspectMillis) * time.Millisecond
		}
	}
	return out, nil
}

// SubmitMPI submits an MPI job and returns its job id.
func (c *Client) SubmitMPI(ctx context.Context, program string, args []string, procs int) (string, error) {
	if c.User() == "" {
		return "", ErrNotAuthenticated
	}
	reply, err := c.call(ctx, &proto.JobSubmit{
		Owner:   c.User(),
		Program: program,
		Args:    args,
		Procs:   uint32(procs),
	})
	if err != nil {
		return "", err
	}
	ju, ok := reply.(*proto.JobUpdate)
	if !ok {
		return "", fmt.Errorf("grid: unexpected submit reply %T", reply)
	}
	return ju.JobID, nil
}

// FileRef names a blob in the grid data plane: a logical file name plus
// the content hash that addresses it in every site store.
type FileRef struct {
	Name string
	Hash string
	Size int64
}

func refFromProto(r proto.StageRef) FileRef { return FileRef{Name: r.Name, Hash: r.Hash, Size: r.Size} }
func (r FileRef) toProto() proto.StageRef {
	return proto.StageRef{Name: r.Name, Hash: r.Hash, Size: r.Size}
}

// Put stores a blob in the site proxy's content-addressed store and
// returns its ref. Staging the same content twice is free: the store
// dedupes by hash. The ref can be handed to SubmitJob as a StageIn.
func (c *Client) Put(ctx context.Context, name string, data []byte) (FileRef, error) {
	return c.PutFrom(ctx, name, bytes.NewReader(data), int64(len(data)))
}

// chunks recycles the buffers PutFrom reads its source into.
var chunks = sync.Pool{New: func() any { return new([proto.StageChunk]byte) }}

// PutFrom stores the blob r yields, as Put does, without ever holding more
// of it than two chunks: each chunk of proto.StageChunk bytes goes to the
// proxy as one request, and while the proxy takes one in — copying it into
// the blob and hashing it — the next is read from r. size is the number of
// bytes r will yield, or negative when the caller cannot tell; a known
// size lets the proxy allocate the blob once and makes a source that ends
// early an error. A blob of at most one chunk costs one request. Chunks of
// one upload go out strictly one after the other: the proxy serves every
// request of a connection on its own goroutine, and this is what keeps
// them in order. Other calls on c proceed in between.
func (c *Client) PutFrom(ctx context.Context, name string, r io.Reader, size int64) (FileRef, error) {
	if c.User() == "" {
		return FileRef{}, ErrNotAuthenticated
	}
	upload := c.nextUpload.Add(1)
	var bufs [2]*[proto.StageChunk]byte
	defer func() {
		for _, b := range bufs {
			if b != nil {
				chunks.Put(b)
			}
		}
	}()
	readChunk := func(i int, off int64) (n int, last bool, err error) {
		if bufs[i] == nil {
			bufs[i] = chunks.Get().(*[proto.StageChunk]byte)
		}
		want := int64(proto.StageChunk)
		if size >= 0 {
			want = min(want, size-off)
		}
		n, err = io.ReadFull(r, bufs[i][:want])
		switch {
		case err == nil:
			return n, size >= 0 && off+int64(n) == size, nil
		case size < 0 && (err == io.EOF || err == io.ErrUnexpectedEOF):
			return n, true, nil
		}
		return n, false, fmt.Errorf("grid: put %s: read at %d: %w", name, off+int64(n), err)
	}

	var off int64
	cur := 0
	n, last, err := readChunk(cur, off)
	if err != nil {
		return FileRef{}, err
	}
	for {
		step := proto.PutMore
		if last {
			step = proto.PutLast
		}
		sent := c.start(ctx, &proto.StagePut{
			Upload: upload, Offset: off, Size: max(size, -1), Step: step, Name: name, Data: bufs[cur][:n],
		})
		var (
			nextN    int
			nextLast bool
			readErr  error
		)
		if !last {
			nextN, nextLast, readErr = readChunk(1-cur, off+int64(n))
		}
		// The chunk's buffer is the call's until the call is over.
		res := <-sent
		pr, ok := res.reply.(*proto.StagePutReply)
		switch {
		case res.err == nil && !ok:
			res.err = fmt.Errorf("grid: unexpected put reply %T", res.reply)
		case res.err == nil && last:
			return refFromProto(pr.Ref), nil
		}
		if err := errors.Join(res.err, readErr); err != nil {
			// Tell the proxy to let go of what it holds of the blob. Sent
			// without waiting for an answer: the context may be the reason
			// the upload is being given up.
			_, _ = proto.WriteBody(c.w, 0, &proto.StagePut{Upload: upload, Size: -1, Step: proto.PutAbort})
			return FileRef{}, err
		}
		off += int64(n)
		cur, n, last = 1-cur, nextN, nextLast
	}
}

// Get fetches a blob from the site proxy's store by content hash.
func (c *Client) Get(ctx context.Context, hash string) ([]byte, error) {
	var blob blobBuffer
	if _, err := c.GetTo(ctx, hash, &blob); err != nil {
		return nil, err
	}
	return blob.data, nil
}

// blobBuffer is Get's destination: one allocation of the blob's size.
type blobBuffer struct{ data []byte }

func (b *blobBuffer) SetSize(size int64) { b.data = make([]byte, 0, size) }

func (b *blobBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

// GetTo fetches a blob from the site proxy's store into w, one ranged read
// of at most proto.StageChunk bytes at a time, asking for the next range
// while it writes the one it has; it returns the bytes written. The first
// reply carries the blob's size: if w has a SetSize(int64) method, it is
// called with it before the first Write. A blob of at most one chunk costs
// one request. An error after the first Write means w holds a prefix of
// the blob (the blob left the store between two ranges, or the connection
// did): the caller must not pass it on as the whole.
func (c *Client) GetTo(ctx context.Context, hash string, w io.Writer) (int64, error) {
	if c.User() == "" {
		return 0, ErrNotAuthenticated
	}
	ask := func(off int64) <-chan answer {
		return c.start(ctx, &proto.StageGet{Hash: hash, Offset: off, Length: proto.StageChunk})
	}
	// size is the blob's size as the first reply gave it, -1 before.
	take := func(got answer, off, size int64) (*proto.StageGetReply, error) {
		if got.err != nil {
			return nil, got.err
		}
		gr, ok := got.reply.(*proto.StageGetReply)
		if !ok {
			return nil, fmt.Errorf("grid: unexpected get reply %T", got.reply)
		}
		if gr.Offset != off || len(gr.Data) == 0 && off < gr.Size || size >= 0 && gr.Size != size {
			return nil, fmt.Errorf("grid: get %s: asked for offset %d of %d, reply carries %d bytes at %d of %d",
				hash, off, size, len(gr.Data), gr.Offset, gr.Size)
		}
		return gr, nil
	}
	gr, err := take(<-ask(0), 0, -1)
	if err != nil {
		return 0, err
	}
	size := gr.Size
	if sized, ok := w.(interface{ SetSize(int64) }); ok {
		sized.SetSize(size)
	}
	var off int64
	for {
		next := off + int64(len(gr.Data))
		var ahead <-chan answer
		if next < size {
			ahead = ask(next)
		}
		if _, err := w.Write(gr.Data); err != nil {
			return off, err
		}
		off = next
		if ahead == nil {
			return off, nil
		}
		if gr, err = take(<-ahead, off, size); err != nil {
			return off, err
		}
	}
}

// Stat reports whether the site proxy's store holds a blob and its size.
func (c *Client) Stat(ctx context.Context, hash string) (int64, bool, error) {
	if c.User() == "" {
		return 0, false, ErrNotAuthenticated
	}
	reply, err := c.call(ctx, &proto.StageStat{Hash: hash})
	if err != nil {
		return 0, false, err
	}
	sr, ok := reply.(*proto.StageStatReply)
	if !ok {
		return 0, false, fmt.Errorf("grid: unexpected stat reply %T", reply)
	}
	return sr.Size, sr.Present, nil
}

// JobSpec describes an MPI submission with data-plane staging.
type JobSpec struct {
	Program string
	Args    []string
	Procs   int
	// StageIn blobs (previously Put) are made available to every rank
	// via its node environment before the job starts.
	StageIn []FileRef
	// StageOut filters which published outputs return to the origin
	// site; empty means all.
	StageOut []string
}

// SubmitJob submits an MPI job with staged inputs and outputs.
func (c *Client) SubmitJob(ctx context.Context, spec JobSpec) (string, error) {
	if c.User() == "" {
		return "", ErrNotAuthenticated
	}
	req := &proto.JobSubmit{
		Owner:    c.User(),
		Program:  spec.Program,
		Args:     spec.Args,
		Procs:    uint32(spec.Procs),
		StageOut: spec.StageOut,
	}
	for _, ref := range spec.StageIn {
		req.StageIn = append(req.StageIn, ref.toProto())
	}
	reply, err := c.call(ctx, req)
	if err != nil {
		return "", err
	}
	ju, ok := reply.(*proto.JobUpdate)
	if !ok {
		return "", fmt.Errorf("grid: unexpected submit reply %T", reply)
	}
	return ju.JobID, nil
}

// JobOutputs returns the refs of a job's outputs staged back to this
// client's site so far (complete once WaitJob returned). Fetch the bytes
// with Get.
func (c *Client) JobOutputs(ctx context.Context, jobID string) ([]FileRef, error) {
	reply, err := c.call(ctx, &proto.JobQuery{JobID: jobID})
	if err != nil {
		return nil, err
	}
	ju, ok := reply.(*proto.JobUpdate)
	if !ok {
		return nil, fmt.Errorf("grid: unexpected job reply %T", reply)
	}
	out := make([]FileRef, 0, len(ju.Outputs))
	for _, r := range ju.Outputs {
		out = append(out, refFromProto(r))
	}
	return out, nil
}

// JobState queries a job's current state.
func (c *Client) JobState(ctx context.Context, jobID string) (proto.JobState, string, error) {
	reply, err := c.call(ctx, &proto.JobQuery{JobID: jobID})
	if err != nil {
		return 0, "", err
	}
	ju, ok := reply.(*proto.JobUpdate)
	if !ok {
		return 0, "", fmt.Errorf("grid: unexpected job reply %T", reply)
	}
	return ju.State, ju.Detail, nil
}

// WaitJob polls until the job completes. It returns nil for JobDone,
// ErrJobCanceled for cancelled jobs, and ErrJobFailed otherwise (each
// wrapped with the detail).
func (c *Client) WaitJob(ctx context.Context, jobID string) error {
	delay := 5 * time.Millisecond
	for {
		state, detail, err := c.JobState(ctx, jobID)
		if err != nil {
			return err
		}
		switch state {
		case proto.JobDone:
			return nil
		case proto.JobCancelled:
			return fmt.Errorf("%w: %s", ErrJobCanceled, detail)
		case proto.JobFailed:
			return fmt.Errorf("%w: %s", ErrJobFailed, detail)
		}
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
		if delay < 200*time.Millisecond {
			delay *= 2
		}
	}
}

// Cancel asks the proxy to cancel a job. The job's owner may cancel
// their own jobs; other users need the "cancel" grid permission.
func (c *Client) Cancel(ctx context.Context, jobID string) error {
	if c.User() == "" {
		return ErrNotAuthenticated
	}
	reply, err := c.call(ctx, &proto.JobCancel{JobID: jobID})
	if err != nil {
		return err
	}
	if _, ok := reply.(*proto.JobUpdate); !ok {
		return fmt.Errorf("grid: unexpected cancel reply %T", reply)
	}
	return nil
}

// JobRecord is one entry of the proxy's job table.
type JobRecord struct {
	ID     string
	State  string
	Detail string
}

// Jobs lists the jobs tracked by this client's proxy.
func (c *Client) Jobs(ctx context.Context) ([]JobRecord, error) {
	reply, err := c.call(ctx, &proto.JobList{})
	if err != nil {
		return nil, err
	}
	jl, ok := reply.(*proto.JobListReply)
	if !ok {
		return nil, fmt.Errorf("grid: unexpected job list reply %T", reply)
	}
	out := make([]JobRecord, len(jl.Jobs))
	for i, j := range jl.Jobs {
		out[i] = JobRecord{ID: j.JobID, State: j.State, Detail: j.Detail}
	}
	return out, nil
}

// Resources queries the proxy's local resource inventory.
func (c *Client) Resources(ctx context.Context, kind string, constraints map[string]string) ([]registry.Resource, error) {
	var attrs []string
	for k, v := range constraints {
		attrs = append(attrs, k+"="+v)
	}
	reply, err := c.call(ctx, &proto.RegistryQuery{Kind: kind, Attrs: attrs})
	if err != nil {
		return nil, err
	}
	rr, ok := reply.(*proto.RegistryReply)
	if !ok {
		return nil, fmt.Errorf("grid: unexpected registry reply %T", reply)
	}
	out := make([]registry.Resource, len(rr.Resources))
	for i, r := range rr.Resources {
		out[i] = registry.FromProto(r)
	}
	return out, nil
}

// Ping round-trips the control channel.
func (c *Client) Ping(ctx context.Context) error {
	reply, err := c.call(ctx, &proto.Ping{Nonce: 42})
	if err != nil {
		return err
	}
	if pong, ok := reply.(*proto.Pong); !ok || pong.Nonce != 42 {
		return fmt.Errorf("grid: bad pong %v", reply)
	}
	return nil
}

// Tunnel opens an explicitly-secured channel to an endpoint inside a
// remote site, through this client's site proxy and the inter-site TLS
// tunnel. spliceAddr is the proxy's splice service address
// (core.SpliceAddr of the proxy's local address). The returned connection
// is a raw byte pipe to the target.
func (c *Client) Tunnel(ctx context.Context, spliceAddr, appID, targetSite, targetAddr string) (net.Conn, error) {
	token := c.Token()
	if len(token) == 0 {
		return nil, ErrNotAuthenticated
	}
	conn, err := c.network.Dial(ctx, spliceAddr)
	if err != nil {
		return nil, fmt.Errorf("grid: dial splice service: %w", err)
	}
	w := wire.NewWriter(conn)
	r := wire.NewReader(conn)
	open := &proto.StreamOpen{
		AppID:      appID,
		TargetSite: targetSite,
		TargetAddr: targetAddr,
		Kind:       proto.StreamData,
		Token:      token,
	}
	if err := proto.WriteMessage(w, proto.Marshal(1, open)); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("grid: send splice request: %w", err)
	}
	msg, err := proto.ReadMessage(r)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("grid: read splice reply: %w", err)
	}
	body, err := proto.Unmarshal(msg)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	reply, ok := body.(*proto.StreamOpenReply)
	if !ok {
		_ = conn.Close()
		return nil, fmt.Errorf("grid: unexpected splice reply %T", body)
	}
	if !reply.OK {
		_ = conn.Close()
		return nil, fmt.Errorf("grid: splice refused: %s", reply.Reason)
	}
	// Continue reading through the handshake reader so bytes that
	// arrived right behind the reply are not lost in its buffer.
	return &rawConn{Conn: conn, r: r.Raw()}, nil
}

// rawConn reads through the buffered handshake reader.
type rawConn struct {
	net.Conn
	r io.Reader
}

func (c *rawConn) Read(p []byte) (int, error) { return c.r.Read(p) }
