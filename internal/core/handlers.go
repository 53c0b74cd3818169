package core

import (
	"context"
	"errors"
	"fmt"

	"gridproxy/internal/membership"
	"gridproxy/internal/proto"
)

// handleSessionControl wraps handleControl with the identity of the
// session a message arrived on, so session-scoped messages act on that
// tunnel. PeerBye is the only such message: the remote is about to close
// this session for reasons unrelated to site health (LRU eviction, idle
// close), so the close must read as expected, not as failure evidence.
func (p *Proxy) handleSessionControl(ctx context.Context, pr *peer, msg proto.Message) (proto.Body, error) {
	if msg.Code != proto.CodePeerBye {
		return p.handleControl(ctx, msg)
	}
	body, err := proto.Unmarshal(msg)
	if err != nil {
		return nil, badRequest("undecodable message: %v", err)
	}
	bye, ok := body.(*proto.PeerBye)
	if !ok {
		return nil, badRequest("unexpected body %T for PeerBye", body)
	}
	if pr != nil {
		pr.evicted.Store(true)
		// Drop it now so the next peerFor redials instead of picking up
		// a tunnel with one foot out the door.
		p.cache.DropIf(pr.site, pr)
		p.log.Debug("peer announced teardown", "site", pr.site, "reason", bye.Reason)
	}
	return &proto.PeerByeAck{}, nil
}

// handleControl serves requests arriving on proxy-to-proxy control
// channels.
func (p *Proxy) handleControl(ctx context.Context, msg proto.Message) (proto.Body, error) {
	body, err := proto.Unmarshal(msg)
	if err != nil {
		return nil, badRequest("undecodable message: %v", err)
	}
	switch req := body.(type) {
	case *proto.Ping:
		return &proto.Pong{Nonce: req.Nonce}, nil
	case *proto.StatusQuery:
		return p.handleStatusQuery(req), nil
	case *proto.GossipSync:
		return p.handleGossipSync(req), nil
	case *proto.RegistryQuery:
		return &proto.RegistryReply{Resources: p.localResources(req.Kind, req.Attrs)}, nil
	case *proto.JobUpdate:
		p.handleJobUpdate(ctx, req)
		return nil, nil
	case *proto.PermCheck:
		return p.handlePermCheck(req), nil
	case *proto.ProbeRequest:
		return p.handleProbeRequest(ctx, req), nil
	case *proto.Hello:
		// A Hello on an established channel is a protocol error.
		return nil, badRequest("unexpected Hello on established channel")
	default:
		return nil, badRequest("unsupported control message %T", body)
	}
}

// handleStatusQuery compiles this site's summary (and the directory's
// view of other requested sites — proxies answer with what they know,
// the requester contacts other sites itself if it wants fresher data).
// Served directory summaries carry their age and membership stamps; dead
// sites are never served.
func (p *Proxy) handleStatusQuery(req *proto.StatusQuery) *proto.StatusReport {
	report := &proto.StatusReport{}
	wantLocal := len(req.Sites) == 0
	for _, s := range req.Sites {
		if s == p.site {
			wantLocal = true
			continue
		}
		e, ok := p.members.Lookup(s)
		if !ok || !e.HasSummary || e.State == membership.Dead {
			continue
		}
		ws := e.Summary
		ws.AgeMillis = e.SummaryAge.Milliseconds()
		ws.Incarnation = e.Incarnation
		ws.Member = uint8(e.State)
		report.Sites = append(report.Sites, ws)
	}
	if wantLocal {
		report.Sites = append(report.Sites, p.LocalSummary().ToStatus())
	}
	return report
}

// handleJobUpdate records a remote site's completion report for an app we
// launched. The Site field names the reporter. Outputs the reporter
// published are in the origin store before the report counts, so
// Launch.Wait returning means the output blobs are local: the small ones
// arrive inside the report, the others are pulled over the data plane.
// Only refs whose blobs are here are recorded, and one that could not be
// pulled turns the site's report into a failure naming it.
func (p *Proxy) handleJobUpdate(ctx context.Context, req *proto.JobUpdate) {
	a, j, ok := p.job(req.JobID)
	if !ok || j.launch == nil || !j.launch.awaitsSite(req.Site) {
		return // not ours, finished, or from a site it no longer waits on
	}
	var err error
	if req.State == proto.JobFailed {
		err = errors.New(req.Detail)
	}
	if len(req.Outputs) > 0 && req.Site != "" {
		here, rest := p.acceptInlined(req)
		if len(rest) > 0 {
			pulled, pullErr := p.pullOutputs(ctx, req.Site, rest)
			here = append(here, pulled...)
			if err == nil && pullErr != nil {
				err = fmt.Errorf("outputs not returned: %w", pullErr)
			}
		}
		for _, ref := range here {
			a.recordOutput(ref)
		}
	}
	j.launch.groupDone(req.Site, err)
}

// handlePermCheck validates a permission for a peer (the destination-side
// check for operations that do not otherwise reach this proxy).
func (p *Proxy) handlePermCheck(req *proto.PermCheck) *proto.PermReply {
	if err := p.users.Allowed(req.User, req.Action, req.Resource); err != nil {
		return &proto.PermReply{Allowed: false, Reason: err.Error()}
	}
	return &proto.PermReply{Allowed: true}
}

// Status errors, each of the class its name says: a handler returns one
// to choose the status of the ErrorBody its caller gets. unavailable: the
// request is fine, the proxy cannot take it right now; authExpired: the
// session was valid once but its lifetime lapsed, re-authenticate.
func denied(format string, args ...any) error {
	return proto.Errorf(proto.StatusDenied, format, args...)
}
func unauthorized(format string, args ...any) error {
	return proto.Errorf(proto.StatusUnauthorized, format, args...)
}
func notFound(format string, args ...any) error {
	return proto.Errorf(proto.StatusNotFound, format, args...)
}
func badRequest(format string, args ...any) error {
	return proto.Errorf(proto.StatusBadRequest, format, args...)
}
func unavailable(format string, args ...any) error {
	return proto.Errorf(proto.StatusUnavailable, format, args...)
}
func authExpired(format string, args ...any) error {
	return proto.Errorf(proto.StatusAuthExpired, format, args...)
}
