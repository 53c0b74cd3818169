package core

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/node"
	"gridproxy/internal/proto"
	"gridproxy/internal/stage"
	"gridproxy/internal/transport"
	"gridproxy/internal/tunnel"
	"gridproxy/internal/wire"
)

// rankLoc places one rank of an application.
type rankLoc struct {
	site string
	node string
}

// addressSpace is the paper's per-application namespace on a proxy: "For
// each MPI application started in the grid, a new address space associated
// to this application is created in the proxy."
//
// For every rank hosted at another site, the address space runs a
// virtual-slave listener on the site-local network. Local processes dial
// it exactly as they would dial a local rank; the proxy forwards the
// connection through the inter-site tunnel to the rank's real node — "the
// virtual slaves thus constitute the abstraction that provides the
// illusion of the virtual cluster".
type addressSpace struct {
	proxy *Proxy
	appID string
	owner string

	mu sync.Mutex
	// locations is the app's current rank placement. Rescheduling
	// replaces entries, so virtual slaves look a rank's location up per
	// accepted connection rather than capturing it at creation.
	locations map[int]rankLoc
	listeners []net.Listener
	closed    bool
}

// lookup returns a rank's current location.
func (as *addressSpace) lookup(rank int) (rankLoc, bool) {
	as.mu.Lock()
	defer as.mu.Unlock()
	loc, ok := as.locations[rank]
	return loc, ok
}

// locationsSnapshot copies the current placement.
func (as *addressSpace) locationsSnapshot() map[int]rankLoc {
	as.mu.Lock()
	defer as.mu.Unlock()
	out := make(map[int]rankLoc, len(as.locations))
	for rank, loc := range as.locations {
		out[rank] = loc
	}
	return out
}

// setLocations replaces the placement (rank rescheduling).
func (as *addressSpace) setLocations(locations map[int]rankLoc) {
	as.mu.Lock()
	as.locations = locations
	as.mu.Unlock()
}

// vsAddr is the site-local address of the virtual slave for (app, rank).
func (p *Proxy) vsAddr(appID string, rank int) string {
	return fmt.Sprintf("proxy.%s/vs/%s/r%d", p.site, appID, rank)
}

// createAddressSpace installs an address space and starts virtual-slave
// listeners for every remote rank.
func (p *Proxy) createAddressSpace(appID, owner string, locations map[int]rankLoc) (*addressSpace, error) {
	as := &addressSpace{
		proxy:     p,
		appID:     appID,
		owner:     owner,
		locations: locations,
	}
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return nil, ErrStopped
	}
	if _, dup := p.apps[appID]; dup {
		p.mu.Unlock()
		return nil, errDuplicateApp(appID)
	}
	p.apps[appID] = as
	p.mu.Unlock()

	for rank, loc := range locations {
		if loc.site == p.site {
			continue
		}
		ln, err := p.local.Listen(p.vsAddr(appID, rank))
		if err != nil {
			as.close()
			p.dropAddressSpace(appID)
			return nil, fmt.Errorf("core: virtual slave for rank %d: %w", rank, err)
		}
		as.mu.Lock()
		as.listeners = append(as.listeners, ln)
		as.mu.Unlock()
		p.wg.Add(1)
		go as.serveVirtualSlave(ln, rank)
	}
	return as, nil
}

func (p *Proxy) dropAddressSpace(appID string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.apps, appID)
}

func (p *Proxy) addressSpace(appID string) (*addressSpace, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	as, ok := p.apps[appID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownApp, appID)
	}
	return as, nil
}

// appRegistrationWindow bounds how long an inbound stream waits for its
// application's address space. Application launch is not synchronized
// across sites: a rank elsewhere may start, and dial across sites, before
// this site's prepare has recorded the application, so a short wait closes
// the race. Streams for genuinely unknown apps are dropped when the window
// expires.
const appRegistrationWindow = 15 * time.Second

// waitAddressSpace is addressSpace with a registration grace period.
//
//lint:allow-wallclock waits on a real in-flight RPC; the injected clock cannot advance it
func (p *Proxy) waitAddressSpace(appID string) (*addressSpace, error) {
	deadline := time.Now().Add(appRegistrationWindow)
	delay := 2 * time.Millisecond
	for {
		as, err := p.addressSpace(appID)
		if err == nil {
			return as, nil
		}
		if p.ctx.Err() != nil {
			return nil, p.ctx.Err()
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-p.ctx.Done():
			timer.Stop()
			return nil, p.ctx.Err()
		}
		if delay < 100*time.Millisecond {
			delay += 2 * time.Millisecond
		}
	}
}

func (as *addressSpace) close() {
	as.mu.Lock()
	if as.closed {
		as.mu.Unlock()
		return
	}
	as.closed = true
	listeners := as.listeners
	as.listeners = nil
	as.mu.Unlock()
	for _, ln := range listeners {
		_ = ln.Close()
	}
}

// serveVirtualSlave forwards each local connection to the rank's real
// node through the tunnel to its site's proxy. The location is resolved
// per accepted connection so rescheduled ranks are reached at their new
// home without restarting the listener.
func (as *addressSpace) serveVirtualSlave(ln net.Listener, rank int) {
	p := as.proxy
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func(conn net.Conn) {
			defer p.wg.Done()
			loc, ok := as.lookup(rank)
			if !ok {
				p.log.Warn("virtual slave has no location for rank",
					"app", as.appID, "rank", rank)
				_ = conn.Close()
				return
			}
			if err := p.forwardToSite(conn, as.appID, loc, rank); err != nil {
				p.log.Warn("virtual slave forward failed",
					"app", as.appID, "rank", rank, "site", loc.site, "err", err)
				_ = conn.Close()
			}
		}(conn)
	}
}

// forwardToSite opens a tunnel stream to the target site's proxy and
// splices conn onto it. The stream names the rank; the node it runs on is
// the target site's business. A rank rescheduled onto this very site is
// dialed directly: processes keep using the virtual-slave address from
// their original rank table, and the proxy shortcuts the tunnel.
func (p *Proxy) forwardToSite(conn net.Conn, appID string, loc rankLoc, rank int) error {
	if loc.site == p.site {
		local, err := p.dialLocal(node.EndpointAddr(loc.node, appID, rank))
		if err != nil {
			return err
		}
		p.splice(conn, local)
		return nil
	}
	pr, err := p.peerFor(p.ctx, loc.site)
	if err != nil {
		return err
	}
	// The checkout covers the stream-open window only; once the stream
	// exists its lifetime is the splice's problem, not the cache's.
	defer p.releasePeer(pr)
	open := &proto.StreamOpen{AppID: appID, Rank: uint32(rank), Kind: proto.StreamMPI}
	stream, err := pr.session.Open(p.ctx, open.Encode(nil))
	if err != nil {
		return fmt.Errorf("core: open tunnel stream to %s: %w", loc.site, err)
	}
	p.splice(conn, stream)
	return nil
}

// handleInboundStream serves a spliced stream arriving from a peer proxy:
// it decodes the StreamOpen metadata, resolves it to a target inside this
// site, dials the target and splices. Resolution at the destination proxy
// is the paper's "[permissions] validated at the originating and
// destination proxies".
func (p *Proxy) handleInboundStream(pr *peer, stream *tunnel.Stream) {
	var open proto.StreamOpen
	if err := open.Decode(wire.NewBuffer(stream.Meta())); err != nil {
		p.log.Warn("inbound stream: bad metadata", "peer", pr.site, "err", err)
		_ = stream.Close()
		return
	}
	if open.Kind == proto.StreamStage {
		// Stage streams terminate at this proxy's blob store — no node
		// dial, no splice. Peer proxies are host-authenticated by the
		// WAN transport, and blobs are addressable only by content
		// hash, so no further validation is needed.
		if err := stage.Serve(stream, p.store, p.stagecfg, p.reg); err != nil {
			p.log.Warn("stage stream ended with error", "peer", pr.site, "err", err)
		}
		return
	}
	target, err := p.inboundTarget(&open)
	if err != nil {
		p.log.Warn("inbound stream rejected", "peer", pr.site, "app", open.AppID, "err", err)
		_ = stream.Close()
		return
	}
	local, err := p.dialLocal(target)
	if err != nil {
		p.log.Warn("inbound stream: local dial failed", "target", target, "err", err)
		_ = stream.Close()
		return
	}
	p.splice(stream, local)
}

// inboundTarget resolves where an inbound stream goes inside this site.
// An MPI stream names a rank this site hosts; its address comes from the
// application's address space here, never from the peer. A data stream
// names its address, which registered tunnel apps may reach (their
// registration checked the owner's "tunnel" permission).
func (p *Proxy) inboundTarget(open *proto.StreamOpen) (string, error) {
	as, err := p.waitAddressSpace(open.AppID)
	if err != nil {
		return "", err
	}
	switch open.Kind {
	case proto.StreamMPI:
		rank := int(open.Rank)
		if loc, ok := as.lookup(rank); ok && loc.site == p.site && loc.node != "" {
			return node.EndpointAddr(loc.node, open.AppID, rank), nil
		}
		return "", fmt.Errorf("core: app %q has no rank %d at site %s", open.AppID, rank, p.site)
	case proto.StreamData:
		return open.TargetAddr, nil
	default:
		return "", fmt.Errorf("core: unknown stream kind %d", open.Kind)
	}
}

// RegisterTunnelApp authorizes a generic data-tunnel application: user
// must hold the "tunnel" permission on this site. It returns the app id
// the remote side will reference. The paper: "If a node in the site
// requires a safe channel, it can be made available by the proxy through
// an explicit call."
func (p *Proxy) RegisterTunnelApp(user, appID string) error {
	if err := p.users.Allowed(user, "tunnel", "site:"+p.site); err != nil {
		return err
	}
	_, err := p.createAddressSpace(appID, user, map[int]rankLoc{})
	return err
}

// OpenTunnel splices a local connection to an arbitrary endpoint inside a
// remote site (generic secure tunneling of application traffic). The app
// must be registered on the remote side with RegisterTunnelApp.
func (p *Proxy) OpenTunnel(ctx context.Context, user, appID, targetSite, targetAddr string) (net.Conn, error) {
	if err := p.users.Allowed(user, "tunnel", "site:"+targetSite); err != nil {
		return nil, err
	}
	pr, err := p.peerFor(ctx, targetSite)
	if err != nil {
		return nil, err
	}
	defer p.releasePeer(pr)
	open := &proto.StreamOpen{
		AppID:      appID,
		TargetAddr: targetAddr,
		Kind:       proto.StreamData,
	}
	stream, err := pr.session.Open(ctx, open.Encode(nil))
	if err != nil {
		return nil, fmt.Errorf("core: open tunnel to %s: %w", targetSite, err)
	}
	return stream, nil
}

// dialLocalStartupWindow bounds how long the proxy retries dialing a rank
// endpoint that is still starting up: ranks of an application spawn
// concurrently across sites, so a splice can arrive before its target
// process has bound its listener.
const dialLocalStartupWindow = 15 * time.Second

// dialLocal dials inside the site (with startup retry), counting the
// bytes as local (clear) traffic.
//
//lint:allow-wallclock waits on a real process binding its listener; the injected clock cannot advance it
func (p *Proxy) dialLocal(addr string) (net.Conn, error) {
	deadline := time.Now().Add(dialLocalStartupWindow)
	delay := 2 * time.Millisecond
	for {
		conn, err := p.local.Dial(p.ctx, addr)
		if err == nil {
			counter := p.reg.Counter(metrics.BytesLocal)
			return instrumented(conn, counter), nil
		}
		if p.ctx.Err() != nil {
			return nil, p.ctx.Err()
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-p.ctx.Done():
			timer.Stop()
			return nil, p.ctx.Err()
		}
		if delay < 100*time.Millisecond {
			delay += 2 * time.Millisecond
		}
	}
}

// instrumented wraps a conn counting both directions into one counter.
func instrumented(conn net.Conn, c *metrics.Counter) net.Conn {
	return &countedConn{Conn: conn, c: c}
}

type countedConn struct {
	net.Conn
	c *metrics.Counter
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.Add(int64(n))
	return n, err
}

func (c *countedConn) CloseWrite() error { return transport.CloseWrite(c.Conn) }

// splice copies bidirectionally between a and b, propagating half-closes
// when supported, and closes both when done. Copy buffers are leased from
// the wire payload pool (sized to a full tunnel segment) instead of
// io.Copy's per-call 32 KiB allocation, so long-lived splices cost no
// steady-state allocation and each read fills a whole DATA frame.
func (p *Proxy) splice(a, b net.Conn) {
	var wg sync.WaitGroup
	copyDir := func(dst, src net.Conn) {
		defer wg.Done()
		buf := wire.GetPayload(64 << 10)
		defer wire.PutPayload(buf)
		_, err := io.CopyBuffer(dst, src, buf)
		if err == nil && transport.CloseWrite(dst) == nil {
			return
		}
		// No half-close support (or error): tear both down so the
		// other direction unblocks.
		_ = dst.Close()
		_ = src.Close()
	}
	wg.Add(2)
	go copyDir(a, b)
	go copyDir(b, a)
	wg.Wait()
	_ = a.Close()
	_ = b.Close()
}
