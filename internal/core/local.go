package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/metrics"
	"gridproxy/internal/monitor"
	"gridproxy/internal/proto"
	"gridproxy/internal/stage"
	"gridproxy/internal/ticket"
	"gridproxy/internal/transport"
	"gridproxy/internal/wire"
)

// acceptLoop hands each connection ln accepts to serve, on a goroutine of
// its own so that a connection that has not said what it is for stalls
// nothing, until ln is closed or the proxy stops. Any other Accept error
// (out of descriptors, a failed handshake) passes: the loop pauses and
// accepts again.
func (p *Proxy) acceptLoop(ln net.Listener, serve func(net.Conn)) {
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || errors.Is(err, transport.ErrClosed) {
				return
			}
			p.log.Debug("accept failed", "addr", ln.Addr(), "err", err)
			select {
			case <-p.ctx.Done():
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			serve(conn)
		}()
	}
}

// serveLocal serves one connection from inside the site. Its first
// message says what it is for, read from the frame header: a StreamOpen
// asks for the paper's explicit secure channel, and the connection
// becomes a splice; anything else opens a control session, which serves
// grid users (the command line and web interfaces) and node agents'
// reports alike.
func (p *Proxy) serveLocal(conn net.Conn) {
	stop := context.AfterFunc(p.ctx, func() { _ = conn.Close() })
	defer stop()
	rd := wire.NewReader(conn)
	code, err := proto.PeekCode(rd)
	switch {
	case err != nil:
		_ = conn.Close()
	case code == proto.CodeStreamOpen:
		if err := p.serveSplice(conn, rd); err != nil {
			p.log.Warn("splice failed", "err", err)
			_ = conn.Close()
		}
	default:
		session := &clientSession{proxy: p}
		session.rpc = proto.NewRPC(p.ctx, conn, rd, proto.RoleServer, session.handle, p.log.Named("client"), p.reg)
		session.rpc.Start()
		<-session.rpc.Done()
		session.rpc.Close() // no request in flight opens an upload after this
		session.dropUploads()
	}
}

// clientSession is one local control connection: a grid user's, or a
// node agent's.
type clientSession struct {
	proxy *Proxy
	rpc   *proto.RPC
	// login is set by each successful authentication and read by every
	// request, each on its own goroutine: one immutable record, swapped
	// whole, so a request sees one login's user and expiry together.
	login atomic.Pointer[login]
	// challenge is the outstanding signature challenge, if any.
	challenge atomic.Pointer[[]byte]

	upMu sync.Mutex
	// uploads holds the blobs this connection is part-way through sending,
	// under the ids its client chose. They die with the connection.
	uploads map[uint64]*upload // guarded by upMu
}

// login is one successful authentication of a session.
type login struct {
	user string
	// expiry bounds the session: after it passes, authenticated calls
	// fail with StatusAuthExpired until the client re-authenticates.
	// It is the session-token expiry, further capped by the ticket
	// expiry when the session was opened with a ticket.
	expiry time.Time
}

// checkSession enforces that the connection is authenticated and its
// session lifetime has not lapsed, returning the session user. Expiry is
// distinguished from plain unauthorized so clients can renew
// transparently.
func (cs *clientSession) checkSession() (string, error) {
	l := cs.login.Load()
	if l == nil {
		return "", unauthorized("authenticate first")
	}
	if cs.proxy.clock().After(l.expiry) {
		return "", authExpired("session for %q expired; re-authenticate", l.user)
	}
	return l.user, nil
}

// clientCodes are the codes the client service serves; true marks those
// it serves on a connection that has never authenticated.
var clientCodes = map[proto.Code]bool{
	proto.CodePing: true, proto.CodeAuthRequest: true, proto.CodeTicketRequest: true, proto.CodeNodeReport: true,
	proto.CodeStatusQuery: false, proto.CodeMemberList: false, proto.CodeJobSubmit: false, proto.CodeJobQuery: false,
	proto.CodeStagePut: false, proto.CodeStageGet: false, proto.CodeStageStat: false, proto.CodeJobCancel: false,
	proto.CodeJobList: false, proto.CodeRegistryQuery: false,
}

// handle serves one client request. The code is checked before the
// payload is decoded: what the service does not serve, or serves only
// after a login, is refused without decoding, so no count read off the
// wire sizes an allocation for a caller that may not send it.
func (cs *clientSession) handle(ctx context.Context, msg proto.Message) (proto.Body, error) {
	p := cs.proxy
	open, served := clientCodes[msg.Code]
	if !served {
		return nil, badRequest("the client service does not serve code %#x", uint16(msg.Code))
	}
	if !open && cs.login.Load() == nil {
		return nil, unauthorized("authenticate first")
	}
	body, err := proto.Unmarshal(msg)
	if err != nil {
		return nil, badRequest("undecodable message: %v", err)
	}
	switch req := body.(type) {
	case *proto.NodeReport:
		// Intra-site traffic is trusted, per the paper's default: a node
		// agent's reports need no login.
		p.collector.Report(monitor.StatsFromReport(req))
		return nil, nil
	case *proto.Ping:
		return &proto.Pong{Nonce: req.Nonce}, nil
	case *proto.AuthRequest:
		return cs.handleAuth(req)
	case *proto.TicketRequest:
		return cs.handleTicketRequest(req)
	case *proto.StatusQuery:
		if err := cs.requirePermission("status", "grid"); err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		summaries, err := p.Status(ctx, req.Sites)
		if err != nil {
			return nil, err
		}
		report := &proto.StatusReport{}
		for _, s := range summaries {
			report.Sites = append(report.Sites, s.ToStatus())
		}
		return report, nil
	case *proto.MemberList:
		if err := cs.requirePermission("status", "grid"); err != nil {
			return nil, err
		}
		return p.handleMemberList(), nil
	case *proto.JobSubmit:
		return cs.handleJobSubmit(ctx, req)
	case *proto.JobQuery:
		return cs.handleJobQuery(req)
	case *proto.StagePut:
		return cs.handleStagePut(req)
	case *proto.StageGet:
		return cs.handleStageGet(req)
	case *proto.StageStat:
		if err := cs.requirePermission("stage", "site:"+p.site); err != nil {
			return nil, err
		}
		size, ok := p.store.Stat(req.Hash)
		return &proto.StageStatReply{Hash: req.Hash, Present: ok, Size: size}, nil
	case *proto.JobCancel:
		return cs.handleJobCancel(ctx, req)
	case *proto.JobList:
		if err := cs.requirePermission("status", "grid"); err != nil {
			return nil, err
		}
		jobs, next := p.Jobs(req.Owner, req.Before)
		return &proto.JobListReply{Jobs: jobs, Next: next}, nil
	case *proto.RegistryQuery:
		if err := cs.requirePermission("status", "grid"); err != nil {
			return nil, err
		}
		resources, err := p.Resources(ctx, req.Site, req.Kind, req.Attrs)
		if err != nil {
			return nil, err
		}
		return &proto.RegistryReply{Resources: resources}, nil
	default:
		return nil, badRequest("unsupported client message %T", body)
	}
}

// sessionLifetime bounds the session one Auth opens.
const sessionLifetime = 8 * time.Hour

// handleAuth runs the paper's first-phase authentication (userid/password
// and digital signatures) plus the ticket extension. On success the reply
// carries a session token: a Session claim sealed with this process's
// key, which the splice service opens.
func (cs *clientSession) handleAuth(req *proto.AuthRequest) (proto.Body, error) {
	p := cs.proxy
	var ticketExpiry time.Time
	switch req.Method {
	case proto.AuthPassword:
		if err := p.users.VerifyPassword(req.User, string(req.PasswordProof)); err != nil {
			return &proto.AuthReply{OK: false, Reason: "invalid credentials"}, nil
		}
	case proto.AuthSignature:
		if len(req.Signature) == 0 {
			// Phase 1: issue a challenge.
			challenge, err := auth.NewChallenge()
			if err != nil {
				return nil, err
			}
			cs.challenge.Store(&challenge)
			return &proto.AuthReply{OK: false, Reason: "challenge", Token: challenge}, nil
		}
		// Phase 2: verify the signature over OUR challenge.
		// Each challenge answers once.
		if c := cs.challenge.Load(); c == nil || string(req.Challenge) != string(*c) || !cs.challenge.CompareAndSwap(c, nil) {
			return &proto.AuthReply{OK: false, Reason: "no outstanding challenge"}, nil
		}
		if err := p.users.VerifySignature(req.User, req.Challenge, req.Signature); err != nil {
			return &proto.AuthReply{OK: false, Reason: "invalid signature"}, nil
		}
	case proto.AuthTicket:
		if p.validator == nil {
			return &proto.AuthReply{OK: false, Reason: "tickets not enabled"}, nil
		}
		claims, err := p.validator.Validate(req.Ticket)
		if err != nil {
			return &proto.AuthReply{OK: false, Reason: "invalid ticket"}, nil
		}
		if claims.User != req.User {
			return &proto.AuthReply{OK: false, Reason: "ticket user mismatch"}, nil
		}
		if p.users.Groups(req.User) == nil {
			// The granting service knows a user this site does not.
			return &proto.AuthReply{OK: false, Reason: "unknown user"}, nil
		}
		ticketExpiry = claims.Expiry
	default:
		return nil, badRequest("unknown auth method %d", req.Method)
	}
	expiry := p.clock().Add(sessionLifetime)
	// A ticket-opened session cannot outlive the ticket it presented.
	if !ticketExpiry.IsZero() && ticketExpiry.Before(expiry) {
		expiry = ticketExpiry
	}
	if old := cs.login.Swap(&login{user: req.User, expiry: expiry}); old != nil && old.user != req.User {
		// Half-sent blobs belong to whoever opened them.
		cs.dropUploads()
	}
	token := ticket.Seal(p.sessionKey, ticket.Claims{Purpose: ticket.Session, User: req.User, Expiry: expiry})
	return &proto.AuthReply{OK: true, Token: token, ExpiresUnix: expiry.Unix()}, nil
}

func (cs *clientSession) handleTicketRequest(req *proto.TicketRequest) (proto.Body, error) {
	if cs.proxy.tgs == nil {
		return &proto.TicketReply{OK: false, Reason: "this proxy does not run the ticket service"}, nil
	}
	tick, err := cs.proxy.tgs.GrantTicket(req.TGT, req.Service)
	if err != nil {
		return &proto.TicketReply{OK: false, Reason: err.Error()}, nil
	}
	return &proto.TicketReply{OK: true, Ticket: tick}, nil
}

// requirePermission enforces session auth plus an ACL check.
func (cs *clientSession) requirePermission(action, resource string) error {
	user, err := cs.checkSession()
	if err != nil {
		return err
	}
	if err := cs.proxy.users.Allowed(user, action, resource); err != nil {
		return denied("%v", err)
	}
	return nil
}

// Bounds on the uploads one connection holds open. A gateway multiplexes
// all of a user's requests over one connection, so the count matches its
// default admission capacity; an upload no chunk has touched for
// uploadIdle was abandoned by a client that could not say so.
const (
	maxUploads = 256
	uploadIdle = 2 * time.Minute
)

// upload is one blob a client is sending chunk by chunk.
type upload struct {
	touched time.Time // guarded by clientSession.upMu

	// mu orders the chunks of a client that sends two at once; one that
	// keeps to one chunk in flight never waits on it.
	mu sync.Mutex
	w  *stage.Writer // nil once committed or dropped
}

// handleStagePut takes one chunk of an upload. The first chunk opens the
// upload, every chunk must start where the one before it ended, the last
// commits the blob under the hash computed as its chunks arrived; any
// violation drops the upload. A blob that fits one chunk is opened and
// committed by the same message and never enters the table.
func (cs *clientSession) handleStagePut(req *proto.StagePut) (proto.Body, error) {
	if req.Step == proto.PutAbort {
		// No standing is needed to give up one's own upload: a client may
		// be giving up because its session lapsed.
		cs.endUpload(req.Upload)
		return &proto.StagePutReply{}, nil
	}
	if err := cs.requirePermission("stage", "site:"+cs.proxy.site); err != nil {
		return nil, err
	}
	up, err := cs.openUpload(req)
	if err != nil {
		return nil, err
	}
	up.mu.Lock()
	if up.w == nil || req.Offset != up.w.Len() {
		err = badRequest("upload %d: chunk at offset %d does not continue it", req.Upload, req.Offset)
	} else if err = up.w.Append(req.Data); err != nil {
		err = unavailable("upload %d: %v", req.Upload, err)
	} else if req.Step == proto.PutMore {
		defer up.mu.Unlock()
		return &proto.StagePutReply{Ref: proto.StageRef{Size: up.w.Len()}}, nil
	}
	w := up.w
	up.w = nil
	up.mu.Unlock() // before endUpload: forgetLocked takes up.mu under upMu
	cs.endUpload(req.Upload)
	if err == nil && req.Size >= 0 && req.Size != w.Len() {
		err = badRequest("upload %d: announced %d bytes, sent %d", req.Upload, req.Size, w.Len())
	}
	if err != nil {
		w.Abort()
		return nil, err
	}
	ref := w.Commit()
	return &proto.StagePutReply{Ref: proto.StageRef{Name: req.Name, Hash: ref.Hash, Size: ref.Size}}, nil
}

// openUpload finds the upload a chunk continues, or opens one for a chunk
// at offset 0.
func (cs *clientSession) openUpload(req *proto.StagePut) (*upload, error) {
	now := cs.proxy.clock()
	cs.upMu.Lock()
	defer cs.upMu.Unlock()
	if up := cs.uploads[req.Upload]; up != nil {
		up.touched = now
		return up, nil
	}
	if req.Offset != 0 {
		return nil, badRequest("no upload %d open on this connection", req.Upload)
	}
	up := &upload{touched: now, w: cs.proxy.store.NewWriter(req.Size)}
	if req.Step == proto.PutLast {
		return up, nil
	}
	for id, old := range cs.uploads {
		if now.Sub(old.touched) > uploadIdle {
			cs.forgetLocked(id)
		}
	}
	if len(cs.uploads) >= maxUploads {
		up.w.Abort()
		return nil, unavailable("%d uploads already open on this connection", len(cs.uploads))
	}
	if cs.uploads == nil {
		cs.uploads = make(map[uint64]*upload)
	}
	cs.uploads[req.Upload] = up
	cs.proxy.reg.Gauge(metrics.StageUploads).Add(1)
	return up, nil
}

// forgetLocked takes an upload out of the table and aborts its blob.
func (cs *clientSession) forgetLocked(id uint64) {
	if up, ok := cs.uploads[id]; ok {
		delete(cs.uploads, id)
		cs.proxy.reg.Gauge(metrics.StageUploads).Add(-1)
		up.mu.Lock()
		up.w.Abort()
		up.w = nil
		up.mu.Unlock()
	}
}

// endUpload takes an upload out of the table: committed, aborted or broken.
func (cs *clientSession) endUpload(id uint64) {
	cs.upMu.Lock()
	cs.forgetLocked(id)
	cs.upMu.Unlock()
}

// dropUploads aborts every open upload.
func (cs *clientSession) dropUploads() {
	cs.upMu.Lock()
	for id := range cs.uploads {
		cs.forgetLocked(id)
	}
	cs.upMu.Unlock()
}

// handleStageGet answers one ranged read of a stored blob. The reply
// aliases the store's copy of the blob: nothing is copied until the frame
// writer gathers it.
func (cs *clientSession) handleStageGet(req *proto.StageGet) (proto.Body, error) {
	p := cs.proxy
	if err := cs.requirePermission("stage", "site:"+p.site); err != nil {
		return nil, err
	}
	size, ok := p.store.Stat(req.Hash)
	if !ok {
		return nil, notFound("no blob %s in the %s store", req.Hash, p.site)
	}
	if req.Offset > size {
		return nil, badRequest("offset %d is past the end of blob %s (%d bytes)", req.Offset, req.Hash, size)
	}
	n := min(req.Length, proto.StageChunk, size-req.Offset)
	loan, ok := p.store.LoanChunk(req.Hash, req.Offset, n)
	if !ok {
		return nil, notFound("blob %s left the %s store", req.Hash, p.site)
	}
	return &loanedReply{&proto.StageGetReply{Size: size, Offset: req.Offset, Data: loan.Data}, loan}, nil
}

// loanedReply is a StageGetReply whose bytes are on loan from the store;
// the control channel releases it once the reply is written.
type loanedReply struct {
	*proto.StageGetReply
	loan stage.ChunkLoan
}

func (r *loanedReply) Release() { r.loan.Release() }

// handleJobSubmit launches an MPI job for the session user.
func (cs *clientSession) handleJobSubmit(ctx context.Context, req *proto.JobSubmit) (proto.Body, error) {
	user, err := cs.checkSession()
	if err != nil {
		return nil, err
	}
	if req.Owner != "" && req.Owner != user {
		return nil, denied("cannot submit as %q while authenticated as %q", req.Owner, user)
	}
	launchCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	launch, err := cs.proxy.LaunchMPI(launchCtx, LaunchSpec{
		Owner:    user,
		Program:  req.Program,
		Args:     req.Args,
		Procs:    int(req.Procs),
		AppID:    req.JobID,
		StageIn:  req.StageIn,
		StageOut: req.StageOut,
	})
	if err != nil {
		return nil, err
	}
	return &proto.JobUpdate{JobID: launch.AppID, State: proto.JobRunning, Detail: "running"}, nil
}

// ownJob looks a job up for the session user: its owner may always act on
// it; anyone else needs the given grid permission (operators).
func (cs *clientSession) ownJob(jobID, action string) (*app, jobPart, error) {
	p := cs.proxy
	user, err := cs.checkSession()
	if err != nil {
		return nil, jobPart{}, err
	}
	a, j, ok := p.job(jobID)
	if !ok {
		return nil, jobPart{}, notFound("no job %q", jobID)
	}
	if j.owner != user {
		if err := p.users.Allowed(user, action, "grid"); err != nil {
			return nil, jobPart{}, denied("job %q belongs to %q: %v", jobID, j.owner, err)
		}
	}
	return a, j, nil
}

// handleJobQuery reports a job's state and outputs to its owner, or to a
// user with the "status" grid permission.
func (cs *clientSession) handleJobQuery(req *proto.JobQuery) (proto.Body, error) {
	a, j, err := cs.ownJob(req.JobID, "status")
	if err != nil {
		return nil, err
	}
	return &proto.JobUpdate{JobID: req.JobID, State: j.state, Detail: j.detail, Outputs: cs.proxy.outputRefs(a)}, nil
}

// handleJobCancel cancels a job for the session user: the job's owner may
// always cancel their own jobs; anyone else needs the "cancel" grid
// permission (operators). The reply reports the job's state after the
// cancellation took effect.
func (cs *clientSession) handleJobCancel(ctx context.Context, req *proto.JobCancel) (proto.Body, error) {
	p := cs.proxy
	if _, _, err := cs.ownJob(req.JobID, "cancel"); err != nil {
		return nil, err
	}
	if err := p.Cancel(ctx, req.JobID); err != nil {
		return nil, err
	}
	state, detail, err := p.JobStatus(req.JobID)
	if err != nil {
		// Pruned between cancel and query; report the terminal state.
		return &proto.JobUpdate{JobID: req.JobID, State: proto.JobCancelled, Detail: "canceled by operator"}, nil
	}
	return &proto.JobUpdate{JobID: req.JobID, State: state, Detail: detail}, nil
}

// serveSplice serves an explicit secure-channel request from inside the
// site: the connection opens with a StreamOpen naming a remote site and
// endpoint; after a successful StreamOpenReply it becomes a raw pipe
// spliced through the TLS tunnel. It reads through rd, which has the
// request buffered.
func (p *Proxy) serveSplice(conn net.Conn, r *wire.Reader) error {
	msg, err := proto.ReadMessage(r)
	if err != nil {
		return fmt.Errorf("core: splice open read: %w", err)
	}
	open := new(proto.StreamOpen) // serveLocal read its code
	if err := proto.DecodeInto(open, msg.Payload); err != nil {
		return err
	}
	w := wire.NewWriter(conn)
	refuse := func(reason string) error {
		_, _ = proto.WriteBody(w, msg.Corr, &proto.StreamOpenReply{Reason: reason})
		return fmt.Errorf("core: splice refused: %s", reason)
	}
	// Authenticate the requesting user by session token and validate
	// the tunnel permission at the origin.
	p.reg.Counter(metrics.TicketOps).Inc()
	session, err := ticket.Open(p.sessionKey, ticket.Session, open.Token, p.clock())
	if err != nil {
		return refuse("invalid session token")
	}
	if open.TargetSite == "" || open.TargetAddr == "" {
		return refuse("target site and address required")
	}
	stream, err := p.OpenTunnel(p.ctx, session.User, open.AppID, open.TargetSite, open.TargetAddr)
	if err != nil {
		return refuse(err.Error())
	}
	if _, err := proto.WriteBody(w, msg.Corr, &proto.StreamOpenReply{OK: true}); err != nil {
		_ = stream.Close()
		return err
	}
	// Splice through the handshake reader: bytes the client pipelined
	// behind its request are in its buffer.
	p.splice(transport.ReadThrough(conn, r.Raw()), stream)
	return nil
}
