package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
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

// Derived local service addresses. Three listeners keep the roles apart:
// clients (control RPC), node agents (stats push), and splice requests
// (the explicit secure-channel call of the paper). When the client
// address is a real "host:port", the derived services take port+1 and
// port+2 so external processes can reach them over TCP; label addresses
// get path suffixes.

// NodesAddr returns the site-local address node agents push reports to.
func NodesAddr(localAddr string) string { return deriveAddr(localAddr, "/nodes", 1) }

// SpliceAddr returns the site-local address splice (tunnel) requests use.
func SpliceAddr(localAddr string) string { return deriveAddr(localAddr, "/splice", 2) }

func deriveAddr(addr, suffix string, portOffset int) string {
	if host, port, err := net.SplitHostPort(addr); err == nil {
		if p, perr := strconv.Atoi(port); perr == nil {
			return net.JoinHostPort(host, strconv.Itoa(p+portOffset))
		}
	}
	return addr + suffix
}

// startLocalListeners binds the three site-local services.
func (p *Proxy) startLocalListeners() error {
	ln, err := p.local.Listen(p.localAddr)
	if err != nil {
		return fmt.Errorf("core: local listen: %w", err)
	}
	p.localListener = ln
	p.wg.Add(1)
	go p.acceptClients(ln)

	nodesLn, err := p.local.Listen(NodesAddr(p.localAddr))
	if err != nil {
		_ = ln.Close()
		return fmt.Errorf("core: nodes listen: %w", err)
	}
	p.nodesListener = nodesLn
	p.wg.Add(1)
	go p.acceptNodeReports(nodesLn)

	spliceLn, err := p.local.Listen(SpliceAddr(p.localAddr))
	if err != nil {
		_ = ln.Close()
		_ = nodesLn.Close()
		return fmt.Errorf("core: splice listen: %w", err)
	}
	p.spliceListener = spliceLn
	p.wg.Add(1)
	go p.acceptSplices(spliceLn)
	return nil
}

// acceptClients serves control RPC sessions for grid users inside the
// site (the command line and web interfaces connect here).
func (p *Proxy) acceptClients(ln net.Listener) {
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		session := &clientSession{proxy: p}
		session.rpc = newRPC(p.ctx, conn, roleServer, session.handle, p.log.Named("client"), p.reg)
		session.rpc.start()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			select {
			case <-session.rpc.done:
			case <-p.ctx.Done():
			}
			session.rpc.close() // no request in flight opens an upload after this
			session.dropUploads()
		}()
	}
}

// clientSession is one authenticated local client connection.
type clientSession struct {
	proxy *Proxy
	rpc   *rpc
	// user is set after successful authentication.
	user string
	// expiry bounds the session: after it passes, authenticated calls
	// fail with StatusAuthExpired until the client re-authenticates.
	// It is the session-token expiry, further capped by the ticket
	// expiry when the session was opened with a ticket.
	expiry time.Time
	// challenge is the outstanding signature challenge, if any.
	challenge []byte

	upMu sync.Mutex
	// uploads holds the blobs this connection is part-way through sending,
	// under the ids its client chose. They die with the connection.
	uploads map[uint64]*upload // guarded by upMu
}

// checkSession enforces that the connection is authenticated and its
// session lifetime has not lapsed. Expiry is distinguished from plain
// unauthorized so clients can renew transparently.
func (cs *clientSession) checkSession() error {
	if cs.user == "" {
		return unauthorized("authenticate first")
	}
	if !cs.expiry.IsZero() && cs.proxy.clock().After(cs.expiry) {
		return authExpired("session for %q expired; re-authenticate", cs.user)
	}
	return nil
}

// handle serves one client request.
func (cs *clientSession) handle(ctx context.Context, msg proto.Message) (proto.Body, error) {
	p := cs.proxy
	body, err := proto.Unmarshal(msg)
	if err != nil {
		return nil, badRequest("undecodable message: %v", err)
	}
	switch req := body.(type) {
	case *proto.Hello:
		return &proto.HelloAck{Site: p.site, Version: proto.Version}, nil
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
		reply := &proto.JobListReply{Jobs: make([]proto.JobRecord, len(jobs)), Next: next}
		for i, job := range jobs {
			reply.Jobs[i] = proto.JobRecord{JobID: job.AppID, State: job.State, Detail: job.Detail}
		}
		return reply, nil
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
			challenge, err := newAuthChallenge()
			if err != nil {
				return nil, err
			}
			cs.challenge = challenge
			return &proto.AuthReply{OK: false, Reason: "challenge", Token: challenge}, nil
		}
		// Phase 2: verify the signature over OUR challenge.
		if cs.challenge == nil || string(req.Challenge) != string(cs.challenge) {
			return &proto.AuthReply{OK: false, Reason: "no outstanding challenge"}, nil
		}
		cs.challenge = nil
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
	if cs.user != req.User {
		// Half-sent blobs belong to whoever opened them.
		cs.dropUploads()
	}
	cs.user = req.User
	expiry := p.clock().Add(sessionLifetime)
	// A ticket-opened session cannot outlive the ticket it presented.
	if !ticketExpiry.IsZero() && ticketExpiry.Before(expiry) {
		expiry = ticketExpiry
	}
	cs.expiry = expiry
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
	if err := cs.checkSession(); err != nil {
		return err
	}
	if err := cs.proxy.users.Allowed(cs.user, action, resource); err != nil {
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
// rpc.serve releases it once the reply is written.
type loanedReply struct {
	*proto.StageGetReply
	loan stage.ChunkLoan
}

func (r *loanedReply) release() { r.loan.Release() }

// handleJobSubmit launches an MPI job for the session user.
func (cs *clientSession) handleJobSubmit(ctx context.Context, req *proto.JobSubmit) (proto.Body, error) {
	if err := cs.checkSession(); err != nil {
		return nil, err
	}
	if req.Owner != "" && req.Owner != cs.user {
		return nil, denied("cannot submit as %q while authenticated as %q", req.Owner, cs.user)
	}
	launchCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	launch, err := cs.proxy.LaunchMPI(launchCtx, LaunchSpec{
		Owner:    cs.user,
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
func (cs *clientSession) ownJob(jobID, action string) (jobState, error) {
	p := cs.proxy
	if err := cs.checkSession(); err != nil {
		return jobState{}, err
	}
	js, ok := p.job(jobID)
	if !ok {
		return jobState{}, notFound("no job %q", jobID)
	}
	if js.owner != cs.user {
		if err := p.users.Allowed(cs.user, action, "grid"); err != nil {
			return jobState{}, denied("job %q belongs to %q: %v", jobID, js.owner, err)
		}
	}
	return js, nil
}

// handleJobQuery reports a job's state and outputs to its owner, or to a
// user with the "status" grid permission.
func (cs *clientSession) handleJobQuery(req *proto.JobQuery) (proto.Body, error) {
	js, err := cs.ownJob(req.JobID, "status")
	if err != nil {
		return nil, err
	}
	return &proto.JobUpdate{JobID: req.JobID, State: js.state, Detail: js.detail, Outputs: js.outputRefs()}, nil
}

// handleJobCancel cancels a job for the session user: the job's owner may
// always cancel their own jobs; anyone else needs the "cancel" grid
// permission (operators). The reply reports the job's state after the
// cancellation took effect.
func (cs *clientSession) handleJobCancel(ctx context.Context, req *proto.JobCancel) (proto.Body, error) {
	p := cs.proxy
	if _, err := cs.ownJob(req.JobID, "cancel"); err != nil {
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

// acceptNodeReports ingests stats pushed by node agents over the local
// network (no authentication: intra-site traffic is trusted, per the
// paper's default).
func (p *Proxy) acceptNodeReports(ln net.Listener) {
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func(conn net.Conn) {
			defer p.wg.Done()
			defer conn.Close()
			r := wire.NewReader(conn)
			for {
				msg, err := proto.ReadMessage(r)
				if err != nil {
					if !errors.Is(err, io.EOF) {
						p.log.Debug("node report read failed", "err", err)
					}
					return
				}
				body, err := proto.Unmarshal(msg)
				if err != nil {
					p.log.Warn("bad node report", "err", err)
					return
				}
				report, ok := body.(*proto.NodeReport)
				if !ok {
					p.log.Warn("unexpected message on nodes channel", "type", fmt.Sprintf("%T", body))
					return
				}
				p.collector.Report(monitor.StatsFromReport(report))
			}
		}(conn)
	}
}

// acceptSplices serves explicit secure-channel requests from inside the
// site: the connection opens with a StreamOpen naming a remote site and
// endpoint; after a successful StreamOpenReply the connection becomes a
// raw pipe spliced through the TLS tunnel.
func (p *Proxy) acceptSplices(ln net.Listener) {
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func(conn net.Conn) {
			defer p.wg.Done()
			if err := p.serveSplice(conn); err != nil {
				p.log.Warn("splice failed", "err", err)
				_ = conn.Close()
			}
		}(conn)
	}
}

func (p *Proxy) serveSplice(conn net.Conn) error {
	r := wire.NewReader(conn)
	w := wire.NewWriter(conn)
	msg, err := proto.ReadMessage(r)
	if err != nil {
		return fmt.Errorf("core: splice open read: %w", err)
	}
	body, err := proto.Unmarshal(msg)
	if err != nil {
		return err
	}
	open, ok := body.(*proto.StreamOpen)
	if !ok {
		return badRequest("expected StreamOpen, got %T", body)
	}
	refuse := func(reason string) error {
		reply := proto.Marshal(msg.Corr, &proto.StreamOpenReply{OK: false, Reason: reason})
		_ = proto.WriteMessage(w, reply)
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
	reply := proto.Marshal(msg.Corr, &proto.StreamOpenReply{OK: true})
	if err := proto.WriteMessage(w, reply); err != nil {
		_ = stream.Close()
		return err
	}
	// Splice through the handshake reader: bytes the client pipelined
	// behind its request are in its buffer.
	p.splice(&rawConn{Conn: conn, r: r.Raw()}, stream)
	return nil
}

// rawConn reads through a buffered handshake reader.
type rawConn struct {
	net.Conn
	r io.Reader
}

func (c *rawConn) Read(p []byte) (int, error) { return c.r.Read(p) }

func (c *rawConn) CloseWrite() error { return transport.CloseWrite(c.Conn) }

// newAuthChallenge returns a fresh signature challenge.
func newAuthChallenge() ([]byte, error) {
	return auth.NewChallenge()
}
