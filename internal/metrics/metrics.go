// Package metrics provides lightweight counters and gauges used to
// instrument the grid. The experiment harness (cmd/gridbench) relies on
// these to report the quantities the paper argues about: bytes encrypted at
// the site edge versus inside sites, control messages exchanged,
// authentication operations performed, and so on.
//
// A Registry is a named collection of metrics; components receive one (or
// nil, which discards updates) so experiments can isolate measurements.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing 64-bit counter, safe for concurrent
// use. The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta. Negative deltas are ignored so a
// Counter remains monotonic.
func (c *Counter) Add(delta int64) {
	if c == nil || delta <= 0 {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a 64-bit value that can move in both directions.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named set of counters and gauges. A nil *Registry is valid:
// all lookups return metrics that discard updates, so instrumented code
// never needs nil checks.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns the counter with the given name, creating it on first
// use. On a nil registry it returns nil, which is a valid discard-only
// Counter receiver.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Snapshot returns the current value of every metric, keyed by name.
// Counter and gauge names share one namespace in the snapshot; gridproxy
// conventionally prefixes gauges with "gauge.".
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}

// Reset zeroes every metric in the registry. Experiments call this between
// trials.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
}

// String renders the snapshot sorted by name, one metric per line.
func (r *Registry) String() string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s=%d\n", name, snap[name])
	}
	return b.String()
}

// Canonical metric names used across the grid. Keeping them here avoids
// typo-induced split counters.
const (
	// BytesTunneled counts payload bytes carried over encrypted
	// inter-site tunnels (the traffic the proxy architecture pays crypto
	// for).
	BytesTunneled = "tunnel.bytes"
	// BytesLocal counts payload bytes exchanged inside a site in the
	// clear.
	BytesLocal = "local.bytes"
	// BytesEncrypted counts bytes that crossed a TLS record layer
	// anywhere (proxy edges in our architecture; every node in the
	// baseline).
	BytesEncrypted = "crypto.bytes"
	// TLSHandshakes counts completed TLS handshakes.
	TLSHandshakes = "crypto.handshakes"
	// ControlMessages counts control-protocol messages exchanged between
	// proxies.
	ControlMessages = "control.messages"
	// ControlBytes counts control-protocol bytes.
	ControlBytes = "control.bytes"
	// AuthOps counts expensive authentication operations (password
	// verification, signature verification).
	AuthOps = "auth.ops"
	// TicketOps counts cheap ticket validations.
	TicketOps = "auth.ticket_ops"
	// StreamsOpened counts logical streams opened through tunnels.
	StreamsOpened = "tunnel.streams"

	// TunnelFlushes counts underlying connection writes issued by the
	// batched tunnel frame writer (one per non-empty lane per flush).
	TunnelFlushes = "tunnel.flush.writes"
	// TunnelFlushBytes counts wire bytes (frame headers included) those
	// flushes carried.
	TunnelFlushBytes = "tunnel.flush.bytes"
	// TunnelBatchFrames counts frames coalesced into tunnel flushes;
	// divide by TunnelFlushes for the achieved batching factor.
	TunnelBatchFrames = "tunnel.batch.frames"
	// TunnelBondConns gauges the live member connections of this proxy's
	// bonded tunnel sessions (1 per unbonded session).
	TunnelBondConns = "gauge.tunnel.bond.conns"
	// TunnelRTTMicros gauges the smoothed tunnel round-trip time in
	// microseconds, the minimum across a session's member connections.
	TunnelRTTMicros = "gauge.tunnel.rtt_us"
	// TunnelWindowBytes gauges the per-stream receive window a tunnel
	// session has learned: what its next stream starts at (before the
	// memory clamp) and what WINDOW grants top up to.
	TunnelWindowBytes = "gauge.tunnel.window_bytes"
	// TunnelBondFailovers counts bond member connections declared dead
	// and removed, with their in-flight frames resprayed.
	TunnelBondFailovers = "tunnel.bond.failovers"
	// TunnelBondRetransmits counts frames resprayed over surviving bond
	// members after a member death.
	TunnelBondRetransmits = "tunnel.bond.retransmits"
	// TunnelBatchControl counts the subset of batched frames that rode
	// the control (priority) lane.
	TunnelBatchControl = "tunnel.batch.control"

	// ControlRPCs counts proxy-to-proxy control calls issued.
	ControlRPCs = "control.rpcs"
	// ControlRPCMicros accumulates control-call latency in microseconds.
	ControlRPCMicros = "control.rpc_micros"
	// ControlRPCTimeouts counts control calls that hit their deadline.
	ControlRPCTimeouts = "control.rpc_timeouts"

	// Membership and gossip metrics (internal/membership): the directory
	// every proxy keeps of all grid sites, disseminated epidemically.

	// GossipRounds counts gossip rounds initiated by a proxy.
	GossipRounds = "gossip.rounds"
	// GossipSyncs counts GossipSync exchanges sent (push half).
	GossipSyncs = "gossip.syncs"
	// GossipAntiEntropy counts rounds that carried a full digest for
	// push-pull anti-entropy reconciliation.
	GossipAntiEntropy = "gossip.anti_entropy"
	// GossipEntriesMerged counts directory entries accepted from peers
	// (newer incarnation/version than the local copy).
	GossipEntriesMerged = "gossip.entries_merged"
	// MembersAlive, MembersSuspect and MembersDead gauge how many
	// directory entries currently occupy each membership state.
	MembersAlive   = "gauge.member.alive"
	MembersSuspect = "gauge.member.suspect"
	MembersDead    = "gauge.member.dead"
	// MemberSuspicions counts alive→suspect transitions recorded locally.
	MemberSuspicions = "member.suspicions"
	// MemberRefutations counts suspicions refuted by fresher evidence
	// (including a site refuting rumors about itself).
	MemberRefutations = "member.refutations"
	// MemberDeaths counts suspect→dead (or direct dead) transitions.
	MemberDeaths = "member.deaths"
	// MemberPrunes counts dead entries dropped after the retention period.
	MemberPrunes = "member.prunes"
	// MemberProbes counts indirect probes sent: before escalating failed
	// contact into suspicion, a proxy asks k peers to confirm the target
	// is unreachable for them too.
	MemberProbes = "member.probe.requests"
	// MemberProbeConfirms counts indirect probes answered "reachable" —
	// each one is a false suspicion averted (the path was broken, not
	// the peer).
	MemberProbeConfirms = "member.probe.confirms"
	// MemberVouches counts death/suspect rumors overridden because the
	// local proxy heard from the rumored site recently enough to vouch
	// for it (fresh direct contact outranks any rumor).
	MemberVouches = "member.vouches"
	// MemberHealth gauges the Lifeguard-style local-health score: 0 is
	// healthy; each failed local probe raises it and stretches the
	// suspicion timeouts, so a degraded proxy suspects the world more
	// slowly instead of poisoning the directory.
	MemberHealth = "gauge.member.health"

	// Chaos-injection metrics (internal/failure.Chaos): the deterministic
	// partition/gray-failure controller behind E12.

	// ChaosCuts counts directed links cut (partitions and one-way cuts).
	ChaosCuts = "chaos.cuts"
	// ChaosHeals counts directed links restored.
	ChaosHeals = "chaos.heals"
	// ChaosRefusedOps counts simulated exchanges lost to a link's loss
	// probability.
	ChaosRefusedOps = "chaos.refused_ops"

	// Peer connection-cache metrics (internal/peerlink dial-on-demand).

	// PeerDialsOnDemand counts tunnels dialed lazily because a caller
	// needed a site the cache held no live session for.
	PeerDialsOnDemand = "peer.dials_on_demand"
	// PeerIdleCloses counts cached tunnels closed by the idle janitor.
	PeerIdleCloses = "peer.idle_closes"
	// PeerLRUEvictions counts tunnels evicted to respect the cache cap.
	PeerLRUEvictions = "peer.lru_evictions"
	// PeersCached gauges the number of live tunnels currently cached.
	PeersCached = "gauge.peer.cached"
	// PeerBreakerOpens counts per-peer circuit breakers tripping open
	// after consecutive dial failures.
	PeerBreakerOpens = "peer.breaker.opens"
	// PeerBreakerFastFails counts dials refused instantly because the
	// peer's breaker was open — each one is a hammering dial not sent
	// into a partition.
	PeerBreakerFastFails = "peer.breaker.fast_fails"

	// Job-lifecycle metrics (fault-tolerant launch, cancellation,
	// reaping, rescheduling).

	// JobPrepares counts PrepareSpawn requests served at destinations.
	JobPrepares = "job.prepares"
	// JobCommits counts CommitSpawn requests that started ranks.
	JobCommits = "job.commits"
	// JobCommitsHeld counts unconfirmed CommitSpawn requests that reached
	// a destination before their prepare had settled and waited for it.
	JobCommitsHeld = "job.commits_held"
	// JobAborts counts abort fan-outs initiated by an origin proxy
	// (failed launch phase, cancellation).
	JobAborts = "job.aborts"
	// JobAbortsServed counts AbortSpawn requests handled at destinations.
	JobAbortsServed = "job.aborts_served"
	// JobCancels counts operator cancellations accepted.
	JobCancels = "job.cancels"
	// JobCancelMicros accumulates Cancel latency (kill + abort fan-out)
	// in microseconds.
	JobCancelMicros = "job.cancel_micros"
	// JobReschedules counts site-death reschedule events (one per launch
	// per dead site).
	JobReschedules = "job.reschedules"
	// RanksRescheduled counts individual ranks respawned on survivors.
	RanksRescheduled = "job.ranks_rescheduled"
	// OrphanReaps counts hosted apps a destination reaped autonomously
	// after their origin proxy stayed dead past the grace period.
	OrphanReaps = "job.orphan_reaps"
	// JobsPruned counts terminal job records removed by the TTL janitor.
	JobsPruned = "job.pruned"
	// JobsTracked gauges the origin proxy's current job-table size.
	JobsTracked = "gauge.jobs.tracked"
	// JobFencesSent counts FenceNotice deliveries acknowledged by a
	// destination (origin side; retried until the site is reachable).
	JobFencesSent = "job.fence.sent"
	// JobFencedRanks counts ranks killed because their launch epoch was
	// fenced off — the split-brain copies a heal would otherwise leave
	// double-running.
	JobFencedRanks = "job.fence.ranks_killed"
	// JobStaleCommits counts CommitSpawn/PrepareSpawn requests refused
	// for carrying an epoch older than one the destination has already
	// accepted.
	JobStaleCommits = "job.fence.stale_refused"

	// Data-plane metrics (content-addressed staging, internal/stage).

	// StageBytesStored gauges the bytes currently held in a site's blob
	// store (payload only, after dedupe and eviction).
	StageBytesStored = "gauge.stage.bytes_stored"
	// StageBlobs gauges how many distinct blobs the store holds.
	StageBlobs = "gauge.stage.blobs"
	// StageArenaBytes gauges the blob buffer bytes a store has mapped
	// outside the Go heap (stored, in flight, pinned, or spare).
	StageArenaBytes = "gauge.stage.arena_bytes"
	// StagePuts counts blobs written into a store (client puts, completed
	// pulls, and published outputs).
	StagePuts = "stage.puts"
	// StageCacheHits counts stage-in refs already present in the
	// destination's store (no transfer needed).
	StageCacheHits = "stage.cache_hits"
	// StageCacheMisses counts stage-in refs that had to be pulled.
	StageCacheMisses = "stage.cache_misses"
	// StageBytesSent counts payload bytes served to remote pullers.
	StageBytesSent = "stage.bytes_sent"
	// StageBytesReceived counts payload bytes received from remote
	// stores (the cross-site transfer volume dedupe is meant to shrink).
	StageBytesReceived = "stage.bytes_received"
	// StageChunkRetries counts chunks re-requested after a checksum
	// mismatch or a failed stripe read.
	StageChunkRetries = "stage.chunk_retries"
	// StageCorruptChunks counts chunks rejected by per-chunk checksum.
	StageCorruptChunks = "stage.corrupt_chunks"
	// StageResumes counts transfers that restarted from a non-zero
	// offset after a link drop instead of from byte 0.
	StageResumes = "stage.resumes"
	// StageStreamsDialed counts transfer streams a puller opened (first
	// dials and redials after a link drop): with StageRequests, the round
	// trips a pull plan spent.
	StageStreamsDialed = "stage.streams_dialed"
	// StageRequests counts get requests a puller wrote.
	StageRequests = "stage.requests"
	// StageEvictions counts blobs evicted by the LRU size cap.
	StageEvictions = "stage.evictions"
	// StagePulls counts whole-blob pulls completed from a remote store.
	StagePulls = "stage.pulls"
	// StageOutputs counts job output blobs returned to their origin site.
	StageOutputs = "stage.outputs"
	// StageOutputsInlined counts job output blobs that reached their
	// origin inside the completion report and passed their hash there.
	StageOutputsInlined = "stage.outputs_inlined"
	// StageHashedBytes counts the bytes a store fed to SHA-256: once per
	// blob it takes in (client upload, published output, completed pull),
	// nothing per chunk moved.
	StageHashedBytes = "stage.hashed_bytes"
	// StageUploads gauges the client uploads a proxy holds open: chunks
	// received, neither committed nor dropped yet.
	StageUploads = "gauge.stage.uploads"

	// Gateway metrics (the HTTP front door, internal/gate).

	// GateRequests counts HTTP requests the gateway accepted for
	// processing (admitted past the session check and admission control).
	GateRequests = "gate.requests"
	// GateServed counts requests that completed with a success status.
	GateServed = "gate.served"
	// GateErrors counts requests that failed in the backend (5xx/4xx
	// other than shedding and auth refusals).
	GateErrors = "gate.errors"
	// GateShed counts requests refused by admission control (429 +
	// Retry-After): the in-flight semaphore and its bounded queue were
	// both full, or the queue wait timed out.
	GateShed = "gate.shed"
	// GateQueued counts admitted requests that had to wait in the
	// bounded accept queue before a slot freed (served, but not
	// immediately).
	GateQueued = "gate.queued"
	// GateRateLimited counts requests refused by a per-user or
	// per-group token bucket.
	GateRateLimited = "gate.rate_limited"
	// GateQuotaRefused counts job submissions refused by the
	// concurrent-jobs-per-user quota.
	GateQuotaRefused = "gate.quota_refused"
	// GateAuthFailures counts requests carrying no session, a forged or
	// expired session token, or a failed login.
	GateAuthFailures = "gate.auth_failures"
	// GateLogins counts successful sign-ons (TGT issued, session minted).
	GateLogins = "gate.logins"
	// GateSessionsRevoked counts sessions invalidated by logout before
	// their natural expiry.
	GateSessionsRevoked = "gate.sessions_revoked"
	// GateDrainRefused counts requests turned away with 503 because the
	// gateway was draining for shutdown.
	GateDrainRefused = "gate.drain_refused"
	// GateTimeouts counts requests cut off by their per-route timeout.
	GateTimeouts = "gate.timeouts"
	// GatePoolDials counts grid.Client connections dialed by the pool
	// (the number that matters: 100k HTTP clients must not mean 100k of
	// these).
	GatePoolDials = "gate.pool_dials"
	// GatePoolEvictions counts pooled clients closed by the LRU cap or
	// the idle sweeper.
	GatePoolEvictions = "gate.pool_evictions"
	// GateRenewals counts transparent ticket renewals performed on
	// pooled clients after a mid-session expiry.
	GateRenewals = "gate.renewals"
	// GateInFlight gauges requests currently holding an admission slot.
	GateInFlight = "gauge.gate.inflight"
	// GateQueueDepth gauges requests currently parked in the accept
	// queue waiting for a slot.
	GateQueueDepth = "gauge.gate.queue_depth"
	// GatePooledClients gauges live grid.Client connections in the pool.
	GatePooledClients = "gauge.gate.pooled_clients"
)
