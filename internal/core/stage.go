package core

import (
	"context"
	"errors"
	"fmt"
	"net"

	"gridproxy/internal/metrics"
	"gridproxy/internal/proto"
	"gridproxy/internal/stage"
)

// The proxy side of the data plane: staging blobs between sites over
// dedicated tunnel data streams (proto.StreamStage), ahead of the
// control-plane commit that starts ranks. See DESIGN.md §12.

// stageDialer opens fresh stage streams to site's proxy; a pull plan
// calls it once per stream and again to resume after a link drop.
func (p *Proxy) stageDialer(site string) stage.Dialer {
	return func(ctx context.Context) (net.Conn, error) {
		pr, err := p.peerFor(ctx, site)
		if err != nil {
			return nil, err
		}
		defer p.releasePeer(pr)
		open := &proto.StreamOpen{Kind: proto.StreamStage}
		stream, err := pr.session.Open(ctx, open.Encode(nil))
		if err != nil {
			return nil, fmt.Errorf("core: open stage stream to %s: %w", site, err)
		}
		return stream, nil
	}
}

// pullRefs brings the blobs refs name from a peer site's store into this
// proxy's store under one pull plan (stage.PullAll): blobs already held
// are cache hits and transfer nothing, the missing ones share one set of
// streams. It returns one error per ref.
func (p *Proxy) pullRefs(ctx context.Context, site string, refs []proto.StageRef) []error {
	want := make([]stage.FileRef, len(refs))
	for i, ref := range refs {
		want[i] = stage.FileRef(ref)
	}
	misses := p.reg.Counter(metrics.StageCacheMisses)
	before := misses.Value()
	errs := stage.PullAll(ctx, p.stageDialer(site), want, p.store, p.stagecfg, p.reg)
	// No daemon exports its counters yet, so this line is how an operator
	// tells a cold stage-in from a warm one (plans that run at the same
	// time share the counter).
	p.log.Debug("stage plan complete", "site", site, "refs", len(refs), "cold", misses.Value()-before)
	for i, err := range errs {
		if err != nil {
			p.log.Warn("stage pull failed", "site", site, "name", refs[i].Name, "hash", refs[i].Hash, "err", err)
		}
	}
	return errs
}

// PullBlob fetches one blob, of a size this proxy does not know, from a
// peer site's store into this proxy's store.
func (p *Proxy) PullBlob(ctx context.Context, site, hash string) error {
	return p.pullRefs(ctx, site, []proto.StageRef{{Hash: hash}})[0]
}

// stageIn ensures every referenced blob is in the local store, pulling
// the missing ones from origin in one plan. Destinations run this
// during PrepareSpawn, so by the time the origin fans out CommitSpawn
// all inputs are site-local and a warm cache transfers nothing.
func (p *Proxy) stageIn(ctx context.Context, origin string, refs []proto.StageRef) error {
	for i, err := range p.pullRefs(ctx, origin, refs) {
		if err != nil {
			return fmt.Errorf("core: stage in %q: %w", refs[i].Name, err)
		}
	}
	return nil
}

// originStageRefs checks that every referenced blob is present in this
// proxy's store — the origin-side precondition for launching a job with
// staged inputs — and returns the refs with Size restamped from the
// store: destinations size their receive buffers from the refs, and the
// sizes a client wrote into its submit are not to be trusted with that.
func (p *Proxy) originStageRefs(refs []proto.StageRef) ([]proto.StageRef, error) {
	out := make([]proto.StageRef, len(refs))
	for i, ref := range refs {
		if ref.Hash == "" {
			return nil, fmt.Errorf("core: stage ref %q has no hash", ref.Name)
		}
		size, ok := p.store.Stat(ref.Hash)
		if !ok {
			return nil, fmt.Errorf("core: stage ref %q (%s) not in this site's store; put it first", ref.Name, ref.Hash)
		}
		out[i] = ref
		out[i].Size = size
	}
	return out, nil
}

// stageEnv builds the node.Env staging hooks for ranks of an app: Input
// resolves staged names out of the local store, Publish records an
// output blob locally and hands its ref to record (nil-safe copies of
// refs are taken by value).
func (p *Proxy) stageEnv(refs []proto.StageRef, record func(ref proto.StageRef)) (func(string) ([]byte, bool), func(string, []byte) error) {
	byName := make(map[string]string, len(refs))
	for _, ref := range refs {
		byName[ref.Name] = ref.Hash
	}
	input := func(name string) ([]byte, bool) {
		hash, ok := byName[name]
		if !ok {
			return nil, false
		}
		return p.store.Get(hash)
	}
	publish := func(name string, data []byte) error {
		if name == "" {
			return fmt.Errorf("core: publish with empty name")
		}
		ref := p.store.Put(data)
		ref.Name = name
		record(proto.StageRef{Name: ref.Name, Hash: ref.Hash, Size: ref.Size})
		return nil
	}
	return input, publish
}

// wantOutput applies a StageOut filter: an empty filter returns every
// published output.
func wantOutput(filter []string, name string) bool {
	if len(filter) == 0 {
		return true
	}
	for _, f := range filter {
		if f == name {
			return true
		}
	}
	return false
}

// JobOutputs returns the output refs recorded so far for a job launched
// from this proxy (empty for unknown jobs — job state has its own API).
func (p *Proxy) JobOutputs(appID string) []proto.StageRef {
	p.mu.Lock()
	js, ok := p.jobs[appID]
	p.mu.Unlock()
	if !ok || js.launch == nil {
		return nil
	}
	return js.launch.Outputs()
}

// inlineOutputs picks the outputs a completion report carries itself: in
// ref order, each one that still fits proto.MaxInlineOutputs in total.
// Fetching such a blob would cost the origin a round trip for less than
// the report that announced it.
func (p *Proxy) inlineOutputs(refs []proto.StageRef) []proto.InlineOutput {
	if len(refs) == 0 {
		return nil
	}
	var (
		inline []proto.InlineOutput
		total  int64
	)
	carried := make(map[string]bool, len(refs))
	for i, ref := range refs {
		// Ranks that publish the same content share one blob: it travels
		// once, and its other names find it in the origin's store.
		if carried[ref.Hash] || total+ref.Size > proto.MaxInlineOutputs {
			continue
		}
		data, ok := p.store.Get(ref.Hash)
		if !ok || int64(len(data)) != ref.Size {
			continue
		}
		total += ref.Size
		carried[ref.Hash] = true
		inline = append(inline, proto.InlineOutput{Ref: uint32(i), Data: data})
	}
	return inline
}

// acceptInlined enters the outputs a report carried into this store. It
// returns the refs they account for and the refs still to be pulled. The
// hash check is the integrity contract of a pull: a blob that fails it is
// dropped and left to the pull plan, as if it had not been sent. So is
// one this store already holds — that is a cache hit, which the plan
// counts.
func (p *Proxy) acceptInlined(req *proto.JobUpdate) (entered, rest []proto.StageRef) {
	if len(req.Inline) == 0 {
		return nil, req.Outputs
	}
	accepted := make([]bool, len(req.Outputs))
	for _, in := range req.Inline {
		ref := req.Outputs[in.Ref]
		if p.store.Has(ref.Hash) {
			continue
		}
		if err := p.store.PutHashed(ref.Hash, in.Data); err != nil {
			p.log.Warn("inlined output dropped", "site", req.Site, "name", ref.Name, "err", err)
			continue
		}
		accepted[in.Ref] = true
		p.reg.Counter(metrics.StageOutputsInlined).Inc()
		p.reg.Counter(metrics.StageOutputs).Inc()
	}
	for i, ref := range req.Outputs {
		if accepted[i] {
			entered = append(entered, ref)
		} else {
			rest = append(rest, ref)
		}
	}
	// Like the stage plan's line: how an operator tells an inlined output
	// from a pulled one while no daemon exports its counters.
	p.log.Debug("outputs arrived with the report", "site", req.Site, "carried", len(req.Inline), "entered", len(entered), "to_pull", len(rest))
	return entered, rest
}

// pullOutputs fetches a completing job's published outputs back from
// the reporting site in one plan, skipping blobs already held (a rank
// that ran locally published straight into this store). It returns the
// refs now in this store and an error naming the ones that are not.
func (p *Proxy) pullOutputs(ctx context.Context, site string, refs []proto.StageRef) ([]proto.StageRef, error) {
	var (
		pulled []proto.StageRef
		failed []error
	)
	for i, err := range p.pullRefs(ctx, site, refs) {
		if err != nil {
			failed = append(failed, fmt.Errorf("output %q: %w", refs[i].Name, err))
			continue
		}
		pulled = append(pulled, refs[i])
		p.reg.Counter(metrics.StageOutputs).Inc()
	}
	return pulled, errors.Join(failed...)
}
