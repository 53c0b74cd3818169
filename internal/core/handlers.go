package core

import (
	"context"
	"errors"
	"fmt"

	"gridproxy/internal/membership"
	"gridproxy/internal/proto"
	"gridproxy/internal/registry"
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
	case *proto.RegistryAnnounce:
		if err := p.handleRegistryAnnounce(req); err != nil {
			return nil, err
		}
		// Reply with our own inventory: announcements are exchanges,
		// so one round trip leaves both proxies with each other's
		// node lists (deterministic scheduling state after Connect).
		return p.inventoryAnnouncement(), nil
	case *proto.RegistryQuery:
		return p.handleRegistryQuery(req)
	case *proto.PrepareSpawn:
		return p.handlePrepareSpawn(ctx, req)
	case *proto.CommitSpawn:
		return p.handleCommitSpawn(ctx, req)
	case *proto.AbortSpawn:
		return p.handleAbortSpawn(req), nil
	case *proto.SpawnRequest:
		return nil, badRequest("single-phase spawn superseded by prepare/commit")
	case *proto.JobUpdate:
		p.handleJobUpdate(ctx, req)
		return nil, nil
	case *proto.PermCheck:
		return p.handlePermCheck(req), nil
	case *proto.ProbeRequest:
		return p.handleProbeRequest(ctx, req), nil
	case *proto.FenceNotice:
		return p.handleFenceNotice(req), nil
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

// inventoryAnnouncement renders this site's inventory as an announcement
// body.
func (p *Proxy) inventoryAnnouncement() *proto.RegistryAnnounce {
	inventory := p.localInventory()
	out := &proto.RegistryAnnounce{Site: p.site}
	for _, r := range inventory {
		out.Resources = append(out.Resources, r.ToProto())
	}
	return out
}

func (p *Proxy) handleRegistryAnnounce(req *proto.RegistryAnnounce) error {
	if req.Site == p.site {
		return badRequest("peer announced resources for our own site")
	}
	resources := make([]registry.Resource, 0, len(req.Resources))
	for _, r := range req.Resources {
		res := registry.FromProto(r)
		if res.Site != req.Site {
			return badRequest("resource %q claims site %q in announcement from %q", res.Name, res.Site, req.Site)
		}
		resources = append(resources, res)
	}
	if err := p.resources.Announce(req.Site, resources); err != nil {
		return badRequest("%v", err)
	}
	return nil
}

func (p *Proxy) handleRegistryQuery(req *proto.RegistryQuery) (proto.Body, error) {
	attrs, err := registry.ParseConstraints(req.Attrs)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	// Answer with local resources only — the live inventory, since
	// p.resources holds only what peers announced; grid-wide lookup is
	// the requester compiling per-site answers, mirroring status queries.
	q := registry.Query{Kind: req.Kind, Attrs: attrs}
	reply := &proto.RegistryReply{}
	for _, r := range p.localInventory() {
		if q.Matches(r) {
			reply.Resources = append(reply.Resources, r.ToProto())
		}
	}
	return reply, nil
}

// clientRegistryQuery answers a local client with the proxy's whole
// resource view (own inventory plus peer announcements).
func (p *Proxy) clientRegistryQuery(req *proto.RegistryQuery) (proto.Body, error) {
	attrs, err := registry.ParseConstraints(req.Attrs)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	q := registry.Query{Kind: req.Kind, Attrs: attrs}
	reply := &proto.RegistryReply{}
	for _, r := range p.AllResources(req.Kind) {
		if q.Matches(r) {
			reply.Resources = append(reply.Resources, r.ToProto())
		}
	}
	return reply, nil
}

// handleJobUpdate records a remote site's completion report for an app we
// launched. The Site field names the reporter. Outputs the reporter
// published are in the origin store before the report counts, so
// Launch.Wait returning means the output blobs are local: the small ones
// arrive inside the report, the others are pulled over the data plane.
// Only refs whose blobs are here are recorded, and one that could not be
// pulled turns the site's report into a failure naming it.
func (p *Proxy) handleJobUpdate(ctx context.Context, req *proto.JobUpdate) {
	js, ok := p.job(req.JobID)
	if !ok || js.launch == nil {
		return // not ours, or finished
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
			js.launch.recordOutput(ref)
		}
	}
	js.launch.remoteDone(req.Site, err)
}

// handlePermCheck validates a permission for a peer (the destination-side
// check for operations that do not otherwise reach this proxy).
func (p *Proxy) handlePermCheck(req *proto.PermCheck) *proto.PermReply {
	if err := p.users.Allowed(req.User, req.Action, req.Resource); err != nil {
		return &proto.PermReply{Allowed: false, Reason: err.Error()}
	}
	return &proto.PermReply{Allowed: true}
}
