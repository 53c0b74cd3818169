package core

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridproxy/internal/membership"
	"gridproxy/internal/metrics"
	"gridproxy/internal/monitor"
	"gridproxy/internal/peerlink"
	"gridproxy/internal/proto"
	"gridproxy/internal/transport"
	"gridproxy/internal/tunnel"
)

// controlStreamMeta marks the control stream within a peer session.
var controlStreamMeta = []byte("gridproxy-control")

// peer is one connected remote proxy: a tunnel session plus its control
// channel. Holding a peer is holding a tunnel — membership (who exists in
// the grid) lives in the directory, and most directory entries have no
// peer at any given moment.
type peer struct {
	site string
	// conn is the session's first connection, kept so a tunnel can be
	// torn down without writing to it (see abort).
	conn    net.Conn
	session *tunnel.Session
	ctrl    *rpc
	// evicted marks a teardown initiated by the connection cache (LRU,
	// idle close, or replacement) so watchPeer can tell an expected close
	// from a site failure.
	evicted atomic.Bool
}

func (pr *peer) close() {
	pr.ctrl.close()
	// The connection goes before the session: Session.Close says GOAWAY
	// with a synchronous write, and a remote that stopped reading (hung,
	// not dead) would hold that write, and whoever is closing, for good.
	pr.abort()
	_ = pr.session.Close()
}

// abort kills the tunnel by closing the connection under it: the session
// and the control channel see the read fail and shut themselves down, and
// watchPeer takes it from there as for any unannounced close. Unlike
// close it waits for nothing, so it is safe from inside a control handler
// and against a peer that no longer reads.
func (pr *peer) abort() { _ = pr.conn.Close() }

// Done, Close and Busy make *peer a peerlink.Session, so the connection
// cache can hold peers directly. A tunnel is busy while it carries any
// stream besides the control stream — a stage transfer, a spliced MPI
// channel: work the cache's checkouts never see, because whoever opened
// the stream released the tunnel as soon as it was open.
func (pr *peer) Done() <-chan struct{} { return pr.session.Done() }
func (pr *peer) Close() error          { pr.close(); return nil }
func (pr *peer) Busy() bool            { return pr.session.NumStreams() > 1 }

// Connect introduces a remote site by address: the address enters the
// membership directory as a seed, and one synchronous attempt to reach it
// is made through the connection cache, exactly as any later use of the
// site would. It is idempotent: connecting to an already-connected site
// returns nil. When the attempt fails the seed stays, so gossip rounds
// keep trying the address (the cache's circuit breaker is the backoff)
// for as long as the proxy runs — a bootstrap peer that is down at
// start-up is peered when it comes up, with no second Connect.
func (p *Proxy) Connect(ctx context.Context, site, wanAddr string) error {
	p.members.AddSeed(site, wanAddr)
	pr, err := p.peerFor(withDeadDialable(ctx), site)
	if err != nil {
		return err
	}
	p.cache.Release(site, pr) // under the name dialed, whatever the remote calls itself
	return nil
}

// connectOnce performs one dial + Hello exchange + inventory and status
// exchange and returns the new peer, unregistered: the connection cache
// inserts it together with the caller's checkout, so it is never cached at
// zero references where LRU pressure from a concurrent fan-out could
// close it mid-handshake. The whole connect is one control round trip as
// far as deadlines go: Lifecycle.RPCTimeout bounds it, so a site that
// accepts the connection and then says nothing costs the caller that
// long and no longer.
func (p *Proxy) connectOnce(ctx context.Context, site, wanAddr string) (*peer, error) {
	p.mu.Lock()
	stopped := p.stopped
	p.mu.Unlock()
	if stopped {
		return nil, ErrStopped
	}
	if d := p.lifecycle.RPCTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	conn, err := p.wan.Dial(ctx, wanAddr)
	if err != nil {
		return nil, fmt.Errorf("core: dial site %s: %w", site, err)
	}
	session := tunnel.Client(conn, p.tunnelConfig())
	ctrlStream, err := session.Open(ctx, controlStreamMeta)
	if err != nil {
		_ = conn.Close()
		_ = session.Close()
		return nil, fmt.Errorf("core: open control stream to %s: %w", site, err)
	}
	// The handler needs the session identity for session-scoped messages
	// (PeerBye), but the peer is only built after the Hello exchange —
	// bind it late. Nothing session-scoped arrives before Hello.
	var bound atomic.Pointer[peer]
	handler := func(ctx context.Context, msg proto.Message) (proto.Body, error) {
		return p.handleSessionControl(ctx, bound.Load(), msg)
	}
	pr := &peer{site: site, conn: conn, session: session}
	pr.ctrl = newRPC(p.ctx, ctrlStream, roleDialer, handler, p.log.Named("ctrl."+site), p.reg)
	pr.ctrl.arrival = p.commitArrived
	pr.ctrl.start()

	// Offer the configured tunnel width: the ack's BondConns caps how
	// many extra member connections actually get dialed.
	var bondID tunnel.BondID
	offered := min(max(p.tunnelcfg.BondConns, 1), 255)
	if _, err := rand.Read(bondID[:]); err != nil {
		offered = 1 // no id for extra connections to join under
	}
	reply, err := pr.ctrl.call(ctx, &proto.Hello{
		Site:         p.site,
		Version:      proto.Version,
		Capabilities: defaultCapabilities,
		WANAddr:      p.wanAddr,
		BondConns:    uint8(offered),
		BondID:       bondID[:],
	})
	if err != nil {
		pr.close()
		return nil, fmt.Errorf("core: hello to %s: %w", site, err)
	}
	ack, ok := reply.(*proto.HelloAck)
	if !ok {
		pr.close()
		return nil, fmt.Errorf("core: hello to %s: unexpected reply %T", site, reply)
	}
	if ack.Version != proto.Version {
		pr.close()
		return nil, fmt.Errorf("%w: local %d remote %d", proto.ErrVersionMismatch, proto.Version, ack.Version)
	}
	if ack.Site != site {
		p.log.Warn("peer announced unexpected site name", "expected", site, "got", ack.Site)
		pr.site = ack.Site
	}
	// Widen the link to the granted width. Extra-connection dial failures
	// degrade the bond rather than the session: whatever joined carries
	// traffic.
	for i := 1; i < min(offered, int(ack.BondConns)); i++ {
		bc, err := p.wan.Dial(ctx, wanAddr)
		if err == nil {
			err = session.AddBondConn(bondID, i, bc)
		}
		if err != nil {
			p.log.Warn("bond member join failed", "site", pr.site, "index", i, "err", err)
			break
		}
	}

	bound.Store(pr)
	p.members.ObserveAlive(pr.site, wanAddr)
	p.wg.Add(1)
	go p.servePeerStreams(pr)
	p.wg.Add(1)
	go p.watchPeer(pr)

	// Announce our inventory so the remote scheduler can place work
	// here, and pull theirs.
	if err := p.announceTo(ctx, pr); err != nil {
		p.log.Warn("inventory announce failed", "peer", pr.site, "err", err)
	}
	if err := p.queryPeerStatus(ctx, pr); err != nil {
		p.log.Warn("initial status query failed", "peer", pr.site, "err", err)
	}
	p.log.Info("connected to peer", "site", pr.site, "addr", wanAddr, "conns", session.BondWidth())
	return pr, nil
}

// PeerBondWidth reports the connection fan-out and smoothed RTT of the
// live tunnel session to site. ok is false when no session is cached.
func (p *Proxy) PeerBondWidth(site string) (conns int, rtt time.Duration, ok bool) {
	pr, ok := p.cache.Peek(site)
	if !ok {
		return 0, 0, false
	}
	return pr.session.BondWidth(), pr.session.SmoothedRTT(), true
}

// acceptWAN admits inbound proxy sessions. Host authentication already
// happened in the TLS handshake (the WAN network rejects certificates not
// chaining to the grid CA). Accept errors are per-connection (the TLS
// listener reports each failed handshake — a port scan, an aborted dial);
// only listener closure ends the loop. Treating a handshake failure as
// fatal would let one bad client kill the WAN listener for good.
func (p *Proxy) acceptWAN(ln net.Listener) {
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || errors.Is(err, transport.ErrClosed) {
				return
			}
			select {
			case <-p.ctx.Done():
				return
			default:
			}
			p.log.Debug("wan accept failed", "err", err)
			continue
		}
		if cn := transport.PeerCommonName(conn); cn != "" {
			p.log.Debug("inbound proxy connection", "peer_cn", cn)
		}
		// An inbound connection is either a fresh session or a member
		// joining an expected bond; ServerConn peeks the first frame to
		// tell them apart, so accept must not block on it.
		p.wg.Add(1)
		go func(conn net.Conn) {
			defer p.wg.Done()
			session, err := tunnel.ServerConn(conn, p.bondReg, p.tunnelConfig(), p.lifecycle.HelloTimeout)
			if err != nil {
				p.log.Debug("inbound session preface failed", "err", err)
				return
			}
			if session == nil {
				return // bond member adopted into its session
			}
			p.wg.Add(1)
			p.admitSession(conn, session)
		}(conn)
	}
}

// admitSession waits for the inbound session's control stream and Hello.
// A session that never identifies itself is reaped after HelloTimeout:
// without the watchdog, an opened-but-silent control stream would pin the
// session and its rpc forever. A session that does identify itself enters
// the connection cache checked out, and keeps that checkout until the
// dialer's connect exchange has been served (pendingPeer.handle) or the
// same patience runs out here: seven proxies dialing one bootstrap peer
// whose cap is three must not have the fourth accept close the first
// dialer's tunnel under its Hello.
func (p *Proxy) admitSession(conn net.Conn, session *tunnel.Session) {
	defer p.wg.Done()
	helloTimeout := p.lifecycle.HelloTimeout
	ctx, cancel := context.WithTimeout(p.ctx, helloTimeout)
	defer cancel()
	ctrlStream, err := session.Accept(ctx)
	if err != nil {
		p.log.Warn("inbound session: no control stream", "err", err)
		_ = session.Close()
		return
	}
	if string(ctrlStream.Meta()) != string(controlStreamMeta) {
		p.log.Warn("inbound session: first stream is not control")
		_ = session.Close()
		return
	}
	// The Hello arrives as the first request on the control channel;
	// the pending peer's handler registers the peer on receipt.
	pending := &pendingPeer{proxy: p, conn: conn, session: session}
	ctrl := newRPC(p.ctx, ctrlStream, roleAcceptor, pending.handle, p.log.Named("ctrl.inbound"), p.reg)
	pending.ctrl = ctrl
	ctrl.arrival = func(msg proto.Message) servedBy {
		if pending.established() == nil {
			return nil // nothing is recorded for a session that has not said Hello
		}
		return p.commitArrived(msg)
	}
	ctrl.start()

	//lint:allow-wallclock bounds a real network handshake, not simulated time
	timer := time.NewTimer(helloTimeout)
	defer timer.Stop()
	select {
	case <-timer.C:
		if pending.established() == nil {
			p.log.Warn("inbound session sent no Hello; reaping")
			ctrl.close()
			_ = session.Close()
		} else {
			pending.release()
		}
	case <-session.Done():
	case <-p.ctx.Done():
	}
}

// pendingPeer serves an inbound control channel until the Hello arrives,
// then hands off to the proxy's normal handler.
type pendingPeer struct {
	proxy   *Proxy
	conn    net.Conn
	session *tunnel.Session
	ctrl    *rpc

	mu   sync.Mutex
	peer *peer
	// released guards the accept-side checkout (cache.Add), handed back
	// once: when the dialer's connect exchange is over, or when
	// admitSession stops waiting for that.
	released sync.Once
}

func (pp *pendingPeer) release() {
	pp.released.Do(func() { pp.proxy.releasePeer(pp.established()) })
}

// established returns the registered peer, or nil until the Hello has
// arrived and been accepted.
func (pp *pendingPeer) established() *peer {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.peer
}

func (pp *pendingPeer) handle(ctx context.Context, msg proto.Message) (proto.Body, error) {
	if established := pp.established(); established != nil {
		reply, err := pp.proxy.handleSessionControl(ctx, established, msg)
		if msg.Code == proto.CodeStatusQuery {
			// connectOnce ends with a status query: the dialer's
			// connect exchange is over.
			pp.release()
		}
		return reply, err
	}
	body, err := proto.Unmarshal(msg)
	if err != nil {
		return nil, badRequest("undecodable message: %v", err)
	}
	hello, ok := body.(*proto.Hello)
	if !ok {
		return nil, badRequest("expected Hello, got %T", body)
	}
	if hello.Version != proto.Version {
		return nil, badRequest("protocol version %d unsupported", hello.Version)
	}
	if hello.BondConns < 1 || len(hello.BondID) != len(tunnel.BondID{}) {
		return nil, badRequest("malformed tunnel width offer")
	}
	// The Hello carries the dialer's WAN address, so accepting a
	// connection is also learning a dialable directory entry — this is
	// how a bootstrap proxy populates its directory from inbound joins.
	// It is recorded before the session is cached: a tunnel to a site the
	// directory holds dead gets closed (syncGlobalFromMembers), and a
	// site that just said Hello is not dead.
	pp.proxy.members.ObserveAlive(hello.Site, hello.WANAddr)
	pr := &peer{site: hello.Site, conn: pp.conn, session: pp.session, ctrl: pp.ctrl}
	if !pp.proxy.cache.Add(hello.Site, pr) {
		// A session for this site is already cached. With disposable
		// on-demand tunnels that is routinely a dying predecessor — one
		// we just evicted, or one whose bye beat this redial — so a
		// dead or leaving session is replaced, and only a genuinely
		// live duplicate (a crossing dial) is refused: the remote's
		// dialer adopts the existing session when it sees the refusal.
		cur, ok := pp.proxy.cache.Peek(hello.Site)
		stale := false
		if ok {
			select {
			case <-cur.session.Done():
				stale = true
			default:
				stale = cur.evicted.Load()
			}
		}
		if ok && !stale {
			return nil, badRequest("core: peer %s already connected", hello.Site)
		}
		pp.proxy.cache.Put(hello.Site, pr)
	}
	pp.mu.Lock()
	pp.peer = pr
	pp.mu.Unlock()
	pp.proxy.wg.Add(1)
	go pp.proxy.servePeerStreams(pr)
	pp.proxy.wg.Add(1)
	go pp.proxy.watchPeer(pr)
	// Pull the dialer's summary so both directories hold each other's
	// status after a connect, not just the dialer's (the dialer pulls
	// ours right after its Hello). Async: the rpc channel is
	// bidirectional, but this handler must return the ack first.
	pp.proxy.wg.Add(1)
	go func() {
		defer pp.proxy.wg.Done()
		if err := pp.proxy.queryPeerStatus(pp.proxy.ctx, pr); err != nil {
			pp.proxy.log.Debug("accept-side status query failed", "peer", pr.site, "err", err)
		}
	}()
	pp.proxy.log.Info("accepted peer", "site", hello.Site, "capabilities", hello.Capabilities)
	// Grant the tunnel width up to the local one. Expect must precede the
	// ack: the dialer's extra connections race our reply, and a join with
	// no registry entry would be refused.
	granted := min(int(hello.BondConns), max(pp.proxy.tunnelcfg.BondConns, 1))
	pp.proxy.bondReg.Expect(tunnel.BondID(hello.BondID), pp.session, granted-1)
	// The dialer follows its Hello with an inventory exchange, which
	// gives both sides each other's node lists; nothing more to do here.
	return &proto.HelloAck{Site: pp.proxy.site, Version: proto.Version, BondConns: uint8(granted)}, nil
}

// byeTimeout bounds the courtesy PeerBye announcement on the eviction
// path; a peer that cannot ack it in time just sees an unannounced close
// and draws its own conclusions.
const byeTimeout = 250 * time.Millisecond

// evictPeer is the connection cache's pre-close hook: mark the teardown
// as expected on this side and announce it to the remote, so neither
// directory reads a disposable tunnel's close as site failure. During
// shutdown p.ctx is already cancelled and the bye degrades to a no-op —
// a crashing or stopping proxy SHOULD look unannounced to its peers.
func (p *Proxy) evictPeer(site string, pr *peer) {
	pr.evicted.Store(true)
	ctx, cancel := context.WithTimeout(p.ctx, byeTimeout)
	defer cancel()
	if _, err := p.callPeer(ctx, pr, &proto.PeerBye{Reason: "evicted"}); err != nil {
		p.log.Debug("bye announcement failed", "site", site, "err", err)
	}
}

// watchPeer reacts to the peer's session ending. A teardown the
// connection cache initiated (LRU eviction, idle close, replacement) is
// expected: the site remains a live directory member and only the tunnel
// goes away. Anything else is evidence of site failure: the directory
// marks it dead (the rumor gossips out), its announced resources and
// status leave the local view, and affected launches are rescheduled —
// the failure-containment behaviour of E7: losing one proxy costs the
// grid only that site. A tunnel this proxy killed because the
// directory had already given the site up (syncGlobalFromMembers) ends
// here too, as the unannounced close it is.
func (p *Proxy) watchPeer(pr *peer) {
	defer p.wg.Done()
	select {
	case <-pr.session.Done():
	case <-p.ctx.Done():
		return
	}
	p.cache.DropIf(pr.site, pr)
	if pr.evicted.Load() {
		p.log.Debug("peer tunnel released", "site", pr.site)
		return
	}
	p.members.ObserveDead(pr.site)
	// Jobs still waiting on that site will never get its completion
	// report. Hand each affected launch to the rescheduler: within the
	// configured budget the lost ranks are respawned on survivors;
	// beyond it the launch fails so waiters unblock (the paper's
	// "recovery of users' applications").
	p.mu.Lock()
	var affected []*Launch
	for _, js := range p.jobs {
		if js.launch != nil && js.launch.awaitsSite(pr.site) {
			affected = append(affected, js.launch)
		}
	}
	p.mu.Unlock()
	p.resources.RemoveSite(pr.site)
	p.global.Remove(pr.site)
	for _, launch := range affected {
		launch := launch
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.rescheduleSite(launch, pr.site)
		}()
	}
	p.log.Warn("peer disconnected", "site", pr.site)
}

// servePeerStreams splices the peer's non-control streams (virtual-slave
// and application data).
func (p *Proxy) servePeerStreams(pr *peer) {
	defer p.wg.Done()
	for {
		stream, err := pr.session.Accept(p.ctx)
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func(stream *tunnel.Stream) {
			defer p.wg.Done()
			p.handleInboundStream(pr, stream)
		}(stream)
	}
}

// peerBySite returns the peer for a site if a live tunnel is already
// held; it never dials. Probing paths use it so a lost tunnel surfaces
// as an error instead of being papered over by a redial.
func (p *Proxy) peerBySite(site string) (*peer, error) {
	pr, ok := p.cache.Peek(site)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPeer, site)
	}
	return pr, nil
}

// Peers returns the sites this proxy currently holds live tunnels to,
// sorted. With the membership split this is the active working set, not
// the known grid — Members has the full directory.
func (p *Proxy) Peers() []string {
	return p.cache.Sites()
}

// callPeer issues one control call to a peer. Calls arriving without a
// deadline get the configured default (Lifecycle.RPCTimeout), so a hung
// peer can never pin a control-plane caller indefinitely; latency and
// timeout metrics are recorded per call.
func (p *Proxy) callPeer(ctx context.Context, pr *peer, body proto.Body) (proto.Body, error) {
	ctx, cancel := p.rpcDeadline(ctx)
	defer cancel()
	return p.sendPeer(ctx, pr, body).reply(ctx)
}

// rpcDeadline bounds a context that has no deadline by RPCTimeout.
func (p *Proxy) rpcDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); !ok && p.lifecycle.RPCTimeout > 0 {
		return context.WithTimeout(ctx, p.lifecycle.RPCTimeout)
	}
	return ctx, func() {}
}

// peerCall is one control call to a peer between its send and its reply.
// Splitting the two is what lets a caller put a second request on the
// control stream behind the first without waiting a round trip.
type peerCall struct {
	*pendingCall
	reg   *metrics.Registry
	start time.Time
}

func (p *Proxy) sendPeer(ctx context.Context, pr *peer, body proto.Body) *peerCall {
	//lint:allow-wallclock monotonic latency measurement for metrics; injected clocks have no monotonic reading
	start := time.Now()
	return &peerCall{pendingCall: pr.ctrl.send(ctx, body), reg: p.reg, start: start}
}

// reply collects the call's reply and ends the call. A call whose reply
// is not wanted any more is ended with forget instead.
func (c *peerCall) reply(ctx context.Context) (proto.Body, error) {
	defer c.forget()
	reply, err := c.wait(ctx)
	c.reg.Counter(metrics.ControlRPCs).Inc()
	//lint:allow-wallclock monotonic latency measurement for metrics; injected clocks have no monotonic reading
	c.reg.Counter(metrics.ControlRPCMicros).Add(time.Since(c.start).Microseconds())
	if errors.Is(err, context.DeadlineExceeded) {
		c.reg.Counter(metrics.ControlRPCTimeouts).Inc()
	}
	return reply, err
}

// announceTo exchanges inventories with one peer: it announces this
// site's nodes and merges the peer's reply, so both schedulers see each
// other's resources after a single round trip.
func (p *Proxy) announceTo(ctx context.Context, pr *peer) error {
	reply, err := p.callPeer(ctx, pr, p.inventoryAnnouncement())
	if err != nil {
		return err
	}
	theirs, ok := reply.(*proto.RegistryAnnounce)
	if !ok {
		return fmt.Errorf("core: inventory exchange with %s: unexpected reply %T", pr.site, reply)
	}
	return p.handleRegistryAnnounce(theirs)
}

// AnnounceAll re-announces inventory to every peer a tunnel is held to
// (called after node attach/detach and periodically by the daemon).
// Announcements fan out concurrently with a per-peer deadline, so one
// slow peer delays nothing.
func (p *Proxy) AnnounceAll(ctx context.Context) {
	targets, byName := p.connectedPeers()
	results := peerlink.FanOut(ctx, targets, p.lifecycle.RPCTimeout, func(ctx context.Context, site string) (struct{}, error) {
		return struct{}{}, p.announceTo(ctx, byName[site])
	})
	for _, res := range results {
		if res.Err != nil {
			p.log.Warn("announce failed", "peer", res.Target, "err", res.Err)
		}
	}
}

// connectedPeers snapshots the live-tunnel peers: sorted names plus a
// lookup map.
func (p *Proxy) connectedPeers() ([]string, map[string]*peer) {
	byName := p.cache.Snapshot()
	targets := make([]string, 0, len(byName))
	for site := range byName {
		targets = append(targets, site)
	}
	sort.Strings(targets)
	return targets, byName
}

// PingPeer round-trips a liveness probe to one connected peer. The
// monitoring experiment (E4) also uses it as the unit cost of one
// per-node poll in the centralized-collection baseline.
func (p *Proxy) PingPeer(ctx context.Context, site string) error {
	pr, err := p.peerBySite(site)
	if err != nil {
		return err
	}
	//lint:allow-wallclock nonce entropy, not a timestamp; a frozen test clock would repeat nonces
	nonce := uint64(time.Now().UnixNano())
	reply, err := p.callPeer(ctx, pr, &proto.Ping{Nonce: nonce})
	if err != nil {
		return err
	}
	pong, ok := reply.(*proto.Pong)
	if !ok || pong.Nonce != nonce {
		return fmt.Errorf("core: bad pong from %s", site)
	}
	return nil
}

// queryPeerStatus fetches one peer's site summary. The peer's own
// summary is direct evidence and enters the membership directory (where
// gossip spreads it); everything lands in the compiled global view.
func (p *Proxy) queryPeerStatus(ctx context.Context, pr *peer) error {
	reply, err := p.callPeer(ctx, pr, &proto.StatusQuery{})
	if err != nil {
		return err
	}
	report, ok := reply.(*proto.StatusReport)
	if !ok {
		return fmt.Errorf("core: status query to %s: unexpected reply %T", pr.site, reply)
	}
	for _, s := range report.Sites {
		if s.Site == pr.site {
			p.members.ObserveSummary(pr.site, "", s)
		}
		p.global.Update(monitor.SummaryFromStatus(s))
	}
	return nil
}

// Status returns compiled summaries: this site's live summary plus the
// membership directory's gossiped view of every other requested site
// (all known sites if sites is empty). Dead sites and sites that have
// not yet gossiped a summary are omitted. No cross-site RPC happens on
// this path — freshness arrives by gossip and by the connect-time status
// exchange, which is what lets a 1000-site grid answer a global status
// query in zero control messages. FreshStatus keeps the direct-query
// semantics.
//
// Lifecycle.StatusTTL acts as a staleness budget: served summaries
// younger than the TTL count as status cache hits, older ones as misses
// (both are served — the metric is the operator's signal that gossip is
// not keeping up, not a trigger to refetch).
func (p *Proxy) Status(ctx context.Context, sites []string) ([]monitor.SiteSummary, error) {
	include := includeFunc(sites)
	var out []monitor.SiteSummary
	if include(p.site) {
		local := p.LocalSummary()
		p.global.Update(local)
		out = append(out, local)
	}
	ttl := p.lifecycle.StatusTTL
	for _, e := range p.members.Entries() {
		if e.Site == p.site || !include(e.Site) || e.State == membership.Dead || !e.HasSummary {
			continue
		}
		if ttl > 0 && e.SummaryAge <= ttl {
			p.reg.Counter(metrics.StatusCacheHits).Inc()
		} else {
			p.reg.Counter(metrics.StatusCacheMisses).Inc()
		}
		s := monitor.SummaryFromStatus(e.Summary)
		s.Age = e.SummaryAge
		s.Incarnation = e.Incarnation
		s.Member = e.State
		out = append(out, s)
	}
	sortSummaries(out)
	return out, nil
}

// FreshStatus queries every requested site synchronously for its current
// summary, dialing tunnels on demand through the directory. Experiments
// measuring the per-request cost of status compilation use this to
// defeat the gossiped view; operators use it when they need
// this-second numbers. Queries fan out concurrently with a per-peer
// deadline, so the wall-clock cost is O(slowest healthy peer) and a hung
// peer costs at most its deadline.
func (p *Proxy) FreshStatus(ctx context.Context, sites []string) ([]monitor.SiteSummary, error) {
	include := includeFunc(sites)
	var out []monitor.SiteSummary
	if include(p.site) {
		local := p.LocalSummary()
		p.global.Update(local)
		out = append(out, local)
	}
	var targets []string
	for _, e := range p.members.Entries() {
		if e.Site != p.site && include(e.Site) && e.State != membership.Dead && e.Addr != "" {
			targets = append(targets, e.Site)
		}
	}
	results := peerlink.FanOut(ctx, targets, p.lifecycle.RPCTimeout, func(ctx context.Context, site string) (monitor.SiteSummary, error) {
		// Retry with a fresh dial when an attempt fails: with on-demand
		// dialing, a query can lose benign races that say nothing about
		// the site's health — the remote's cache pressure evicting the
		// session it accepted from us mid-RPC, or a redial arriving
		// before the remote noticed its old session die. The short
		// backoff lets the dying tunnel's close propagate.
		var lastErr error
		for attempt := 0; ; attempt++ {
			pr, err := p.peerFor(ctx, site)
			if err == nil {
				err = p.queryPeerStatus(ctx, pr)
				p.releasePeer(pr)
				if err == nil {
					s, ok := p.global.Site(site)
					if !ok {
						return monitor.SiteSummary{}, fmt.Errorf("core: site %s reported no summary", site)
					}
					return s, nil
				}
				select {
				case <-pr.session.Done():
					p.cache.DropIf(site, pr)
				default:
				}
			}
			lastErr = err
			if attempt >= 2 || ctx.Err() != nil {
				return monitor.SiteSummary{}, lastErr
			}
			select {
			case <-time.After(retryDelay(5*time.Millisecond, attempt)):
			case <-ctx.Done():
				return monitor.SiteSummary{}, lastErr
			}
		}
	})
	for _, res := range results {
		if res.Err != nil {
			p.suspectSite(res.Target)
			p.log.Warn("status query failed", "peer", res.Target, "err", res.Err)
			continue
		}
		out = append(out, res.Value)
	}
	sortSummaries(out)
	return out, nil
}

// includeFunc builds the site filter status compilations share: an empty
// request means every site.
func includeFunc(sites []string) func(string) bool {
	return func(site string) bool {
		if len(sites) == 0 {
			return true
		}
		for _, s := range sites {
			if s == site {
				return true
			}
		}
		return false
	}
}

// GlobalView returns the cached global monitor (updated by gossip, status
// queries, and peer announcements).
func (p *Proxy) GlobalView() *monitor.Global { return p.global }

func sortSummaries(s []monitor.SiteSummary) {
	sort.Slice(s, func(i, j int) bool { return s[i].Site < s[j].Site })
}
