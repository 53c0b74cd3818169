package core

import (
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/node"
	"gridproxy/internal/proto"
	"gridproxy/internal/transport"
	"gridproxy/internal/tunnel"
	"gridproxy/internal/wire"
)

// rankLoc places one rank of an application.
type rankLoc struct {
	site string
	node string
}

// app is this site's one record of an application, in Proxy.records under
// the application's id. Its placement and virtual slaves are the paper's
// per-application namespace: "For each MPI application started in the
// grid, a new address space associated to this application is created in
// the proxy." For every rank hosted at another site a virtual-slave
// listener runs on the site-local network; local processes dial it
// exactly as they would dial a local rank, and the proxy forwards the
// connection through the inter-site tunnel to the rank's real node — "the
// virtual slaves thus constitute the abstraction that provides the
// illusion of the virtual cluster".
//
// Up to three parts hold a record: the origin part (jobPart) while this
// site keeps the job of a launch it made, the host part while it runs
// ranks for a remote origin, and a tunnel registration. The spec, the
// placement and the virtual slaves belong to the part that runs; no two
// run at once. open creates a record or adds a part; settle deletes it.
type app struct {
	id string

	// Guarded by Proxy.mu.
	tunnel bool
	host   *hostPart
	jobPart
	listeners []net.Listener

	// mu guards the fields below and those of the record's Launch and
	// host part.
	mu   sync.Mutex
	spec LaunchSpec
	// locations is the current placement. A placement map is never
	// changed once set: a reschedule or a prepare sets a new one, which
	// re-routes the virtual slaves too, as they look a rank up per
	// accepted connection.
	locations map[int]rankLoc
	// outputs are the refs of the output blobs published so far, in name
	// order: at an origin by its ranks and in completion reports, at a
	// host by its ranks, for its report.
	outputs []proto.StageRef
}

// runs reports whether a part of the record runs: a tunnel registration,
// a launch, or hosted ranks. Callers hold Proxy.mu.
func (a *app) runs() bool { return a.tunnel || a.launch != nil || a.host != nil }

// placement returns the record's current placement, which the caller may
// keep: placement maps are never changed once set.
func (a *app) placement() map[int]rankLoc {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.locations
}

// recordOutput registers one published output blob under the spec's
// StageOut filter, in name order. A re-publish under the same name
// replaces the ref.
func (a *app) recordOutput(ref proto.StageRef) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !wantOutput(a.spec.StageOut, ref.Name) {
		return
	}
	i, found := slices.BinarySearchFunc(a.outputs, ref.Name, func(have proto.StageRef, name string) int { return strings.Compare(have.Name, name) })
	if found {
		a.outputs[i] = ref
	} else {
		a.outputs = slices.Insert(a.outputs, i, ref)
	}
}

// vsAddr is the site-local address of the virtual slave for (app, rank).
func (p *Proxy) vsAddr(appID string, rank int) string {
	return fmt.Sprintf("proxy.%s/vs/%s/r%d", p.site, appID, rank)
}

// open returns the record of application id with a part added: the
// origin part of launch l, the host part h, or — both nil — a tunnel
// registration. It creates the record when the site holds none, and
// keeps the id-collision rules: an origin launch needs an id the site
// holds no record under, finished or not; a host part or a tunnel
// registration may join only a record whose one part is a finished job.
// A prepare that finds a host part there gets that one back, to merge
// into. A part that joins brings the spec and the placement, and the
// virtual slaves of its ranks at other sites start listening.
func (p *Proxy) open(id string, spec LaunchSpec, locations map[int]rankLoc, l *Launch, h *hostPart) (*app, *hostPart, error) {
	p.mu.Lock()
	a, found := p.records[id]
	switch {
	case p.stopped:
		p.mu.Unlock()
		return nil, nil, ErrStopped
	case found && h != nil && a.host != nil:
		p.mu.Unlock()
		return a, a.host, nil
	case found && (l != nil || a.runs()):
		p.mu.Unlock()
		return nil, nil, fmt.Errorf("core: duplicate app id %q", id)
	case !found:
		a = &app{id: id}
	}
	a.mu.Lock()
	a.spec, a.locations, a.outputs = spec, locations, nil
	a.mu.Unlock()
	switch {
	case l != nil:
		l.app = a
		a.jobPart = jobPart{launch: l, owner: spec.Owner, state: proto.JobQueued, detail: "preparing"}
		p.jobs.add(a)
	case h != nil:
		h.app = a
		a.host = h
	default:
		a.tunnel = true
	}
	p.records[id] = a
	p.mu.Unlock()

	for rank, loc := range locations {
		if loc.site == p.site {
			continue
		}
		ln, err := p.local.Listen(p.vsAddr(id, rank))
		if err != nil {
			if l != nil {
				p.unregisterJob(a)
			} else {
				p.stepHosted(h, event{kind: evStop})
			}
			return nil, nil, fmt.Errorf("core: virtual slave for rank %d: %w", rank, err)
		}
		p.mu.Lock()
		kept := !p.stopped && (l != nil || a.host == h) // an abort may have ended the host part
		if kept {
			a.listeners = append(a.listeners, ln)
			p.wg.Add(1)
			go p.serveVirtualSlave(a, ln, rank)
		}
		p.mu.Unlock()
		if !kept {
			_ = ln.Close()
		}
	}
	return a, h, nil
}

// settle lets go of what no part of a record needs any more: the host part
// ended (nil for none), the virtual slaves once no part runs, and the
// record itself once no part holds it. It is the one place a record leaves
// Proxy.records.
func (p *Proxy) settle(a *app, ended *hostPart) {
	p.mu.Lock()
	if a.host == ended {
		a.host = nil
	}
	var idle []net.Listener
	if !a.runs() {
		idle, a.listeners = a.listeners, nil
		if (a.seq == 0 || a.gone) && p.records[a.id] == a {
			delete(p.records, a.id)
		}
	}
	p.mu.Unlock()
	for _, ln := range idle {
		_ = ln.Close()
	}
}

// appRegistrationWindow bounds how long an inbound stream waits for its
// application's record. Application launch is not synchronized across
// sites: a rank elsewhere may start, and dial across sites, before this
// site's prepare has recorded the application, so a short wait closes the
// race. Streams for genuinely unknown apps are dropped when the window
// expires.
const appRegistrationWindow = 15 * time.Second

// retry calls try until it succeeds, the proxy stops or window has passed,
// backing off from 2 ms to 100 ms, and returns try's last error.
//
//lint:allow-wallclock waits on real in-flight work (an RPC, a process binding its listener); the injected clock cannot advance it
func (p *Proxy) retry(window time.Duration, try func() error) error {
	deadline := time.Now().Add(window)
	for delay := 2 * time.Millisecond; ; delay = min(delay+2*time.Millisecond, 100*time.Millisecond) {
		err := try()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-p.ctx.Done():
			timer.Stop()
			return p.ctx.Err()
		}
	}
}

// serveVirtualSlave forwards each local connection to the rank's real
// node through the tunnel to its site's proxy. The location is resolved
// per accepted connection so rescheduled ranks are reached at their new
// home without restarting the listener.
func (p *Proxy) serveVirtualSlave(a *app, ln net.Listener, rank int) {
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func(conn net.Conn) {
			defer p.wg.Done()
			loc, ok := a.placement()[rank]
			if !ok {
				p.log.Warn("virtual slave has no location for rank",
					"app", a.id, "rank", rank)
				_ = conn.Close()
				return
			}
			if err := p.forwardToSite(conn, a.id, loc, rank); err != nil {
				p.log.Warn("virtual slave forward failed",
					"app", a.id, "rank", rank, "site", loc.site, "err", err)
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
	stream, err := pr.session.Open(p.ctx, proto.Append(nil, open))
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
	if err := proto.DecodeInto(&open, stream.Meta()); err != nil {
		p.log.Warn("inbound stream: bad metadata", "peer", pr.site, "err", err)
		_ = stream.Close()
		return
	}
	if open.Kind == proto.StreamStage {
		// Stage streams terminate at this proxy's blob store — no node
		// dial, no splice. Peer proxies are host-authenticated by the
		// WAN transport, and blobs are addressable only by content
		// hash, so no further validation is needed. The peer's inbox
		// streams are among them.
		if err := p.outbox(pr.site).Serve(stream, &pr.quiet); err != nil {
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

// inboundTarget resolves where an inbound stream goes inside this site,
// once a part of the application's record runs here. An MPI stream names
// a rank this site hosts; its address comes from the application's
// placement here, never from the peer. A data stream names its address,
// which only a tunnel registration may reach (it checked the owner's
// "tunnel" permission); the ranks of a job never open one.
func (p *Proxy) inboundTarget(open *proto.StreamOpen) (string, error) {
	var (
		a      *app
		tunnel bool
	)
	if err := p.retry(appRegistrationWindow, func() error {
		p.mu.Lock()
		defer p.mu.Unlock()
		if a = p.records[open.AppID]; a == nil || !a.runs() {
			return fmt.Errorf("%w: %q", ErrUnknownApp, open.AppID)
		}
		tunnel = a.tunnel
		return nil
	}); err != nil {
		return "", err
	}
	switch open.Kind {
	case proto.StreamMPI:
		rank := int(open.Rank)
		if loc, ok := a.placement()[rank]; ok && loc.site == p.site && loc.node != "" {
			return node.EndpointAddr(loc.node, open.AppID, rank), nil
		}
		return "", fmt.Errorf("core: app %q has no rank %d at site %s", open.AppID, rank, p.site)
	case proto.StreamData:
		if !tunnel {
			return "", fmt.Errorf("core: app %q is not a registered tunnel at site %s", open.AppID, p.site)
		}
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
	_, _, err := p.open(appID, LaunchSpec{Owner: user}, map[int]rankLoc{}, nil, nil)
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
	stream, err := pr.session.Open(ctx, proto.Append(nil, open))
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
func (p *Proxy) dialLocal(addr string) (net.Conn, error) {
	var conn net.Conn
	if err := p.retry(dialLocalStartupWindow, func() (err error) {
		conn, err = p.local.Dial(p.ctx, addr)
		return err
	}); err != nil {
		return nil, err
	}
	return instrumented(conn, p.reg.Counter(metrics.BytesLocal)), nil
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
