package proto

import (
	"gridproxy/internal/wire"
)

// table holds the body of every message code, indexed by code. A new
// code is one more constant and one more row here.
var table = [...]func() Body{
	CodeHello:             func() Body { return &Hello{} },
	CodeHelloAck:          func() Body { return &HelloAck{} },
	CodeError:             func() Body { return &ErrorBody{} },
	CodePing:              func() Body { return &Ping{} },
	CodePong:              func() Body { return &Pong{} },
	CodeAuthRequest:       func() Body { return &AuthRequest{} },
	CodeAuthReply:         func() Body { return &AuthReply{} },
	CodePermCheck:         func() Body { return &PermCheck{} },
	CodePermReply:         func() Body { return &PermReply{} },
	CodeTicketRequest:     func() Body { return &TicketRequest{} },
	CodeTicketReply:       func() Body { return &TicketReply{} },
	CodeStatusQuery:       func() Body { return &StatusQuery{} },
	CodeStatusReport:      func() Body { return &StatusReport{} },
	CodeNodeReport:        func() Body { return &NodeReport{} },
	CodeJobSubmit:         func() Body { return &JobSubmit{} },
	CodeJobUpdate:         func() Body { return &JobUpdate{} },
	CodeSpawnReply:        func() Body { return &SpawnReply{} },
	CodeStreamOpen:        func() Body { return &StreamOpen{} },
	CodeStreamOpenReply:   func() Body { return &StreamOpenReply{} },
	CodeJobQuery:          func() Body { return &JobQuery{} },
	CodeRegistryQuery:     func() Body { return &RegistryQuery{} },
	CodeRegistryReply:     func() Body { return &RegistryReply{} },
	CodePrepareSpawn:      func() Body { return &PrepareSpawn{} },
	CodePrepareSpawnReply: func() Body { return &PrepareSpawnReply{} },
	CodeCommitSpawn:       func() Body { return &CommitSpawn{} },
	CodeAbortSpawn:        func() Body { return &AbortSpawn{} },
	CodeAbortSpawnReply:   func() Body { return &AbortSpawnReply{} },
	CodeJobCancel:         func() Body { return &JobCancel{} },
	CodeJobList:           func() Body { return &JobList{} },
	CodeJobListReply:      func() Body { return &JobListReply{} },
	CodeStagePut:          func() Body { return &StagePut{} },
	CodeStagePutReply:     func() Body { return &StagePutReply{} },
	CodeStageGet:          func() Body { return &StageGet{} },
	CodeStageGetReply:     func() Body { return &StageGetReply{} },
	CodeStageStat:         func() Body { return &StageStat{} },
	CodeStageStatReply:    func() Body { return &StageStatReply{} },
	CodeGossipSync:        func() Body { return &GossipSync{} },
	CodeGossipDelta:       func() Body { return &GossipDelta{} },
	CodeMemberList:        func() Body { return &MemberList{} },
	CodeMemberListReply:   func() Body { return &MemberListReply{} },
	CodePeerBye:           func() Body { return &PeerBye{} },
	CodePeerByeAck:        func() Body { return &PeerByeAck{} },
	CodeProbeRequest:      func() Body { return &ProbeRequest{} },
	CodeProbeReply:        func() Body { return &ProbeReply{} },
	CodeFenceNotice:       func() Body { return &FenceNotice{} },
	CodeFenceReply:        func() Body { return &FenceReply{} },
}

// Hello opens a proxy-to-proxy session.
type Hello struct {
	// Site is the announcing proxy's site name.
	Site string
	// Version is the protocol version the sender speaks.
	Version uint16
	// Capabilities lists optional features ("mpi", "ticket").
	Capabilities []string
	// WANAddr is the announcing proxy's own inter-site listen address,
	// so the accepting side learns a dialable address for the membership
	// directory (the transport's remote address is an ephemeral port).
	WANAddr string
	// BondConns is the tunnel width the dialer offers (at least 1), and
	// BondID the 16-byte id its extra connections will join under.
	BondConns uint8
	BondID    []byte
}

// Code implements Body.
func (*Hello) Code() Code { return CodeHello }

func (m *Hello) fields(c *codec) {
	c.String(&m.Site)
	c.Uint16(&m.Version)
	c.Strings(&m.Capabilities)
	c.String(&m.WANAddr)
	c.Uint8(&m.BondConns)
	c.Bytes(&m.BondID)
}

// HelloAck accepts a Hello.
type HelloAck struct {
	Site    string
	Version uint16
	// BondConns is the tunnel width the acceptor granted: min(offered,
	// locally configured). The dialer opens BondConns - 1 extra
	// connections.
	BondConns uint8
}

// Code implements Body.
func (*HelloAck) Code() Code { return CodeHelloAck }

func (m *HelloAck) fields(c *codec) {
	c.String(&m.Site)
	c.Uint16(&m.Version)
	c.Uint8(&m.BondConns)
}

// ErrorBody reports a protocol-level failure.
type ErrorBody struct {
	// Status is a machine-readable failure class.
	Status uint16
	// Text is a human-readable explanation.
	Text string
}

// Error status classes.
const (
	StatusInternal uint16 = iota + 1
	StatusUnauthorized
	StatusDenied
	StatusNotFound
	StatusBadRequest
	StatusUnavailable
	// StatusAuthExpired distinguishes "your ticket/session lapsed,
	// re-authenticate and retry" from a hard StatusUnauthorized, so
	// clients can recover transparently instead of failing the call.
	StatusAuthExpired
)

// Code implements Body.
func (*ErrorBody) Code() Code { return CodeError }

func (m *ErrorBody) fields(c *codec) {
	c.Uint16(&m.Status)
	c.String(&m.Text)
}

// Ping probes peer liveness.
type Ping struct{ Nonce uint64 }

// Code implements Body.
func (*Ping) Code() Code { return CodePing }

func (m *Ping) fields(c *codec) { c.Uint64(&m.Nonce) }

// Pong answers a Ping, echoing its nonce.
type Pong struct{ Nonce uint64 }

// Code implements Body.
func (*Pong) Code() Code { return CodePong }

func (m *Pong) fields(c *codec) { c.Uint64(&m.Nonce) }

// AuthMethod selects how an AuthRequest proves identity.
type AuthMethod uint8

// Authentication methods. The paper's first phase uses userid/password plus
// digital signatures; tickets are the foreseen Kerberos-style replacement.
const (
	AuthPassword AuthMethod = iota + 1
	AuthSignature
	AuthTicket
)

// AuthRequest carries user credentials for validation.
type AuthRequest struct {
	User string
	// Method selects which proof fields are meaningful.
	Method AuthMethod
	// PasswordProof is the salted proof for AuthPassword.
	PasswordProof []byte
	// Challenge and Signature implement AuthSignature: the signature is
	// over the server-issued challenge.
	Challenge []byte
	Signature []byte
	// Ticket is a sealed session ticket for AuthTicket.
	Ticket []byte
}

// Code implements Body.
func (*AuthRequest) Code() Code { return CodeAuthRequest }

func (m *AuthRequest) fields(c *codec) {
	c.String(&m.User)
	c.Uint8((*uint8)(&m.Method))
	c.Bytes(&m.PasswordProof)
	c.Bytes(&m.Challenge)
	c.Bytes(&m.Signature)
	c.Bytes(&m.Ticket)
}

// AuthReply reports an authentication verdict.
type AuthReply struct {
	OK     bool
	Reason string
	// Token is an opaque session token the client presents on later
	// requests.
	Token []byte
	// ExpiresUnix is the token expiry (Unix seconds).
	ExpiresUnix int64
}

// Code implements Body.
func (*AuthReply) Code() Code { return CodeAuthReply }

func (m *AuthReply) fields(c *codec) {
	c.Bool(&m.OK)
	c.String(&m.Reason)
	c.Bytes(&m.Token)
	c.Int64(&m.ExpiresUnix)
}

// PermCheck asks a proxy to validate an access permission.
type PermCheck struct {
	User     string
	Action   string
	Resource string
	Token    []byte
}

// Code implements Body.
func (*PermCheck) Code() Code { return CodePermCheck }

func (m *PermCheck) fields(c *codec) {
	c.String(&m.User)
	c.String(&m.Action)
	c.String(&m.Resource)
	c.Bytes(&m.Token)
}

// PermReply answers a PermCheck.
type PermReply struct {
	Allowed bool
	Reason  string
}

// Code implements Body.
func (*PermReply) Code() Code { return CodePermReply }

func (m *PermReply) fields(c *codec) {
	c.Bool(&m.Allowed)
	c.String(&m.Reason)
}

// TicketRequest asks the ticket-granting service for a session ticket.
type TicketRequest struct {
	// TGT is the sealed ticket-granting ticket from initial sign-on.
	TGT []byte
	// Service names the target service ("proxy:siteB", "mpi").
	Service string
}

// Code implements Body.
func (*TicketRequest) Code() Code { return CodeTicketRequest }

func (m *TicketRequest) fields(c *codec) {
	c.Bytes(&m.TGT)
	c.String(&m.Service)
}

// TicketReply returns a session ticket.
type TicketReply struct {
	OK     bool
	Reason string
	Ticket []byte
}

// Code implements Body.
func (*TicketReply) Code() Code { return CodeTicketReply }

func (m *TicketReply) fields(c *codec) {
	c.Bool(&m.OK)
	c.String(&m.Reason)
	c.Bytes(&m.Ticket)
}

// StatusQuery asks a proxy for compiled site status. An empty Sites slice
// requests the responder's own site only; the paper notes it "is not always
// necessary to check the grid's overall status, but only that of some of
// the sites".
type StatusQuery struct {
	Sites []string
}

// Code implements Body.
func (*StatusQuery) Code() Code { return CodeStatusQuery }

func (m *StatusQuery) fields(c *codec) { c.Strings(&m.Sites) }

// SiteStatus is the wire form of one site's compiled status summary.
// AgeMillis, Incarnation and Member stamp how the answering proxy knows
// the summary: how long ago its view received it, under which membership
// incarnation, and in which membership state the site currently is —
// so a consumer can tell a fresh answer from a stale cached one. Speed
// is the summed relative speed of the site's up nodes, and Hosted breaks
// RunningProcs down by the origin sites whose ranks the site runs: what
// placement at other sites needs.
type SiteStatus struct {
	Site          string
	Nodes         uint32
	NodesUp       uint32
	CPUFreePct    float64
	RAMFreeMB     int64
	DiskFreeMB    int64
	Load1         float64
	RunningProcs  uint32
	CollectedUnix int64
	AgeMillis     int64
	Incarnation   uint64
	Member        uint8
	Speed         float64
	Hosted        []HostedProcs
}

func (m *SiteStatus) fields(c *codec) {
	c.String(&m.Site)
	c.Uint32(&m.Nodes)
	c.Uint32(&m.NodesUp)
	c.Float64(&m.CPUFreePct)
	c.Int64(&m.RAMFreeMB)
	c.Int64(&m.DiskFreeMB)
	c.Float64(&m.Load1)
	c.Uint32(&m.RunningProcs)
	c.Int64(&m.CollectedUnix)
	c.Int64(&m.AgeMillis)
	c.Uint64(&m.Incarnation)
	c.Uint8(&m.Member)
	c.Float64(&m.Speed)
	slice(c, &m.Hosted, (*HostedProcs).fields)
}

// HostedProcs counts the running ranks a site hosts for one origin.
type HostedProcs struct {
	Origin string
	Procs  uint32
}

func (m *HostedProcs) fields(c *codec) {
	c.String(&m.Origin)
	c.Uint32(&m.Procs)
}

// StatusReport carries one or more site status summaries.
type StatusReport struct {
	Sites []SiteStatus
}

// Code implements Body.
func (*StatusReport) Code() Code { return CodeStatusReport }

func (m *StatusReport) fields(c *codec) { slice(c, &m.Sites, (*SiteStatus).fields) }

// NodeReport carries one node's raw statistics to its site proxy.
type NodeReport struct {
	Node       string
	CPUFreePct float64
	RAMFreeMB  int64
	DiskFreeMB int64
	Load1      float64
	Procs      uint32
	UnixNano   int64
}

// Code implements Body.
func (*NodeReport) Code() Code { return CodeNodeReport }

func (m *NodeReport) fields(c *codec) {
	c.String(&m.Node)
	c.Float64(&m.CPUFreePct)
	c.Int64(&m.RAMFreeMB)
	c.Int64(&m.DiskFreeMB)
	c.Float64(&m.Load1)
	c.Uint32(&m.Procs)
	c.Int64(&m.UnixNano)
}

// StageRef is the wire form of a staged-file reference: the name ranks
// address the file by plus the content hash (and size) of the backing
// blob in the content-addressed store.
type StageRef struct {
	Name string
	Hash string
	Size int64
}

func (m *StageRef) fields(c *codec) {
	c.String(&m.Name)
	c.String(&m.Hash)
	c.Int64(&m.Size)
}

// JobSubmit submits a job for scheduling.
type JobSubmit struct {
	JobID   string
	Owner   string
	Program string
	Args    []string
	Procs   uint32
	// Requirements are "key=value" constraint strings understood by the
	// scheduler (e.g. "min_ram_mb=512").
	Requirements []string
	// StageIn references blobs (already in the origin proxy's store) to
	// stage to every site hosting ranks before the job starts.
	StageIn []StageRef
	// StageOut restricts which published outputs flow back to the
	// origin; empty returns everything the ranks publish.
	StageOut []string
}

// Code implements Body.
func (*JobSubmit) Code() Code { return CodeJobSubmit }

func (m *JobSubmit) fields(c *codec) {
	c.String(&m.JobID)
	c.String(&m.Owner)
	c.String(&m.Program)
	c.Strings(&m.Args)
	c.Uint32(&m.Procs)
	c.Strings(&m.Requirements)
	slice(c, &m.StageIn, (*StageRef).fields)
	c.Strings(&m.StageOut)
}

// JobState enumerates job lifecycle states on the wire.
type JobState uint8

// Job lifecycle states.
const (
	JobQueued JobState = iota + 1
	JobRunning
	JobDone
	JobFailed
	JobCancelled
)

// Name is the state's name in job listings and the gateway's API.
func (s JobState) Name() string {
	if s < JobQueued || s > JobCancelled {
		return "unknown"
	}
	return jobWords[s-JobQueued]
}

// jobWords are the state names, in state order, and the details a proxy
// gives a job that has not failed: a decoded JobRecord or JobUpdate shares
// them.
var jobWords = []string{"queued", "running", "done", "failed", "cancelled", "preparing", "completed", "canceled by operator"}

// MaxInlineOutputs bounds the output bytes one JobUpdate carries inline:
// one tunnel segment (the tunnel's maxSegment, which is also the credit
// every stream starts with), so a report never waits for a window update
// and costs the control stream well under a millisecond at link rate.
// Outputs past it travel over the data plane.
const MaxInlineOutputs = 64 << 10

// InlineOutput is the content of one of a JobUpdate's Outputs, carried in
// the report itself.
type InlineOutput struct {
	// Ref indexes the update's Outputs.
	Ref  uint32
	Data []byte
}

func (m *InlineOutput) fields(c *codec) {
	c.Uint32(&m.Ref)
	c.Bytes(&m.Data)
}

// JobUpdate reports a job state transition.
//
//	job str | state u8 | detail str | site str | refs | n u32 | n × (ref u32 | bytes)
type JobUpdate struct {
	JobID  string
	State  JobState
	Detail string
	// Site names the reporting site, so the origin can attribute a
	// completion report without parsing Detail.
	Site string
	// Outputs references blobs the reporting site's ranks published; the
	// origin pulls any it does not already hold.
	Outputs []StageRef
	// Inline carries the bytes of some Outputs, in ascending Ref order
	// and MaxInlineOutputs in total at most, so that fetching a small
	// output does not cost a round trip after the report that announced
	// it. Only site-to-site completion reports use it; the receiver
	// checks each against its ref's hash like any transferred blob.
	Inline []InlineOutput
}

// Code implements Body.
func (*JobUpdate) Code() Code { return CodeJobUpdate }

func (m *JobUpdate) fields(c *codec) {
	c.String(&m.JobID)
	c.Uint8((*uint8)(&m.State))
	c.Word(&m.Detail, jobWords)
	c.String(&m.Site)
	slice(c, &m.Outputs, (*StageRef).fields)
	slice(c, &m.Inline, (*InlineOutput).fields)
}

// check refuses inline outputs that do not name the report's refs in
// ascending order, or exceed MaxInlineOutputs in total.
func (m *JobUpdate) check() error {
	if len(m.Inline) > len(m.Outputs) {
		return ErrMalformed
	}
	total := 0
	for i, in := range m.Inline {
		total += len(in.Data)
		ascending := i == 0 || in.Ref > m.Inline[i-1].Ref
		if !ascending || int(in.Ref) >= len(m.Outputs) || total > MaxInlineOutputs {
			return ErrMalformed
		}
	}
	return nil
}

// JobQuery asks for a job's current state.
type JobQuery struct {
	JobID string
}

// Code implements Body.
func (*JobQuery) Code() Code { return CodeJobQuery }

func (m *JobQuery) fields(c *codec) { c.String(&m.JobID) }

// RankLocation places one rank of an application at a site. Only the
// site that runs a rank knows its node: it places its share itself.
type RankLocation struct {
	Rank uint32
	Site string
}

func (m *RankLocation) fields(c *codec) {
	c.Uint32(&m.Rank)
	c.String(&m.Site)
}

// RankEndpoint reports where a spawned rank is listening.
type RankEndpoint struct {
	Rank uint32
	Addr string
}

func (m *RankEndpoint) fields(c *codec) {
	c.Uint32(&m.Rank)
	c.String(&m.Addr)
}

// SpawnReply answers a CommitSpawn.
type SpawnReply struct {
	AppID     string
	OK        bool
	Reason    string
	Endpoints []RankEndpoint
}

// Code implements Body.
func (*SpawnReply) Code() Code { return CodeSpawnReply }

func (m *SpawnReply) fields(c *codec) {
	c.String(&m.AppID)
	c.Bool(&m.OK)
	c.String(&m.Reason)
	slice(c, &m.Endpoints, (*RankEndpoint).fields)
}

// PrepareSpawn reserves an application at a destination site: the proxy
// validates the owner, creates the address space, and places its ranks on
// its own nodes, but starts nothing. Processes only run after a
// CommitSpawn, so a launch that fails at any site can be aborted without
// stranding ranks anywhere. Re-preparing a hosted application (same
// origin) replaces its pending ranks and location map — the rescheduling
// path lands replacement ranks on sites that already host the app.
type PrepareSpawn struct {
	// AppID identifies the application's address space on the proxies.
	AppID string
	// Origin is the launching site; destinations track it to reap hosted
	// apps whose origin proxy stays unreachable past the orphan grace.
	Origin string
	// Owner is the submitting user; the destination proxy re-validates
	// the owner's permission (paper: "validated at the originating and
	// destination proxies").
	Owner     string
	Program   string
	Args      []string
	WorldSize uint32
	// Ranks lists the ranks the receiving proxy places on its own nodes
	// and spawns on commit.
	Ranks []uint32
	// Locations names the site of every rank of the application.
	Locations []RankLocation
	// StageIn references input blobs the receiving proxy must hold
	// before commit; it pulls the ones missing from its store back from
	// the origin over dedicated data streams.
	StageIn []StageRef
	// StageOut restricts which published outputs are reported back.
	StageOut []string
	// Epoch is the launch epoch these ranks belong to. Reschedules
	// re-prepare with an incremented epoch; a destination that has
	// already accepted a newer epoch for the application refuses the
	// stale prepare, and a newer prepare fences off (kills) any still-
	// running ranks it overlaps from older epochs.
	Epoch uint64
}

// Code implements Body.
func (*PrepareSpawn) Code() Code { return CodePrepareSpawn }

func (m *PrepareSpawn) fields(c *codec) {
	c.String(&m.AppID)
	c.String(&m.Origin)
	c.String(&m.Owner)
	c.String(&m.Program)
	c.Strings(&m.Args)
	c.Uint32(&m.WorldSize)
	slice(c, &m.Ranks, u32)
	slice(c, &m.Locations, (*RankLocation).fields)
	slice(c, &m.StageIn, (*StageRef).fields)
	c.Strings(&m.StageOut)
	c.Uint64(&m.Epoch)
}

// PrepareSpawnReply answers a PrepareSpawn.
type PrepareSpawnReply struct {
	AppID  string
	OK     bool
	Reason string
}

// Code implements Body.
func (*PrepareSpawnReply) Code() Code { return CodePrepareSpawnReply }

func (m *PrepareSpawnReply) fields(c *codec) {
	c.String(&m.AppID)
	c.Bool(&m.OK)
	c.String(&m.Reason)
}

// CommitSpawn starts the ranks reserved by a PrepareSpawn. The reply is
// a SpawnReply listing the spawned endpoints.
//
//	app str | epoch u64 | token str | unconfirmed u8
type CommitSpawn struct {
	AppID string
	// Epoch must match the epoch of the prepare being committed; a
	// destination that has accepted a newer epoch refuses the commit,
	// so a delayed commit from the losing side of a partition cannot
	// start ranks that were already rescheduled elsewhere.
	Epoch uint64
	// Token makes a retried commit idempotent: the destination caches
	// the outcome per (application, token) and replays it instead of
	// spawning the ranks a second time. Empty disables caching.
	Token string
	// Unconfirmed says the origin sent this commit behind its prepare
	// without waiting for the prepare's reply (the site is the launch's
	// only remote participant, so no other prepare gates it). The
	// destination holds it until that prepare has settled, and refuses
	// it if the prepare refused.
	Unconfirmed bool
}

// Code implements Body.
func (*CommitSpawn) Code() Code { return CodeCommitSpawn }

func (m *CommitSpawn) fields(c *codec) {
	c.String(&m.AppID)
	c.Uint64(&m.Epoch)
	c.String(&m.Token)
	c.Flag(&m.Unconfirmed)
}

// AbortSpawn tears a prepared or running application down at a
// destination site: pending ranks are discarded, running ranks killed,
// the address space closed. Idempotent — aborting an app the receiver
// does not host succeeds, so best-effort abort fan-outs can always be
// retried.
type AbortSpawn struct {
	AppID  string
	Reason string
}

// Code implements Body.
func (*AbortSpawn) Code() Code { return CodeAbortSpawn }

func (m *AbortSpawn) fields(c *codec) {
	c.String(&m.AppID)
	c.String(&m.Reason)
}

// AbortSpawnReply answers an AbortSpawn.
type AbortSpawnReply struct {
	AppID string
	OK    bool
	// Killed counts the running ranks the abort terminated.
	Killed uint32
}

// Code implements Body.
func (*AbortSpawnReply) Code() Code { return CodeAbortSpawnReply }

func (m *AbortSpawnReply) fields(c *codec) {
	c.String(&m.AppID)
	c.Bool(&m.OK)
	c.Uint32(&m.Killed)
}

// JobCancel asks the origin proxy to cancel a job it launched. The reply
// is a JobUpdate carrying the job's (terminal) state.
type JobCancel struct {
	JobID string
}

// Code implements Body.
func (*JobCancel) Code() Code { return CodeJobCancel }

func (m *JobCancel) fields(c *codec) { c.String(&m.JobID) }

// JobList asks a proxy for one page of its job table, newest first: the
// jobs of Owner (every owner's when empty) submitted before the cursor
// Before (the newest jobs when zero). The fields were appended to a body
// that had none, so an empty payload still decodes, as the newest page of
// every owner's jobs.
type JobList struct {
	Owner  string
	Before uint64
}

// Code implements Body.
func (*JobList) Code() Code { return CodeJobList }

func (m *JobList) fields(c *codec) {
	c.Optional()
	c.String(&m.Owner)
	c.Uint64(&m.Before)
}

// JobRecord is a listed job, from the proxy's job log to the gateway's
// JSON. State is the state's Name.
type JobRecord struct {
	JobID  string
	State  string
	Detail string
}

func (m *JobRecord) fields(c *codec) {
	c.String(&m.JobID)
	c.Word(&m.State, jobWords)
	c.Word(&m.Detail, jobWords)
}

// JobListReply answers a JobList with one page of jobs, newest first.
// Next is the Before of the following page; zero on the last page, and in
// a reply that ends before it (a proxy that did not page).
type JobListReply struct {
	Jobs []JobRecord
	Next uint64
}

// Code implements Body.
func (*JobListReply) Code() Code { return CodeJobListReply }

func (m *JobListReply) fields(c *codec) {
	slice(c, &m.Jobs, (*JobRecord).fields)
	c.Optional()
	c.Uint64(&m.Next)
}

// StreamKind describes what a spliced tunnel stream carries.
type StreamKind uint8

// Stream kinds.
const (
	// StreamData is generic application data (the secure-tunnel use
	// case).
	StreamData StreamKind = iota + 1
	// StreamMPI carries MPI traffic between a virtual slave and a real
	// rank.
	StreamMPI
	// StreamStage carries the staging chunk protocol: the receiving
	// proxy serves blob requests directly from its content-addressed
	// store instead of splicing to a node.
	StreamStage
)

// StreamOpen asks a proxy to splice a stream. Between proxies it is the
// tunnel-stream metadata naming the target inside the receiving site: an
// MPI stream names a rank, which the receiving proxy resolves to one of
// its nodes through the application's address space; a data stream names
// an address. From a local client to its own proxy it additionally names
// the destination site and carries the client's session token.
type StreamOpen struct {
	AppID string
	// TargetSite is the destination site (local splice requests only;
	// empty between proxies, where the stream itself implies the site).
	TargetSite string
	// Rank is the target rank of an MPI stream.
	Rank uint32
	// TargetAddr is the target address of a data stream.
	TargetAddr string
	Kind       StreamKind
	// Token authenticates a local splice request.
	Token []byte
}

// Code implements Body.
func (*StreamOpen) Code() Code { return CodeStreamOpen }

func (m *StreamOpen) fields(c *codec) {
	c.String(&m.AppID)
	c.String(&m.TargetSite)
	c.Uint32(&m.Rank)
	c.String(&m.TargetAddr)
	c.Uint8((*uint8)(&m.Kind))
	c.Bytes(&m.Token)
}

// StageChunk is the most blob bytes one client message carries. Blobs
// move between a client and its proxy in chunks of this size — one
// request and one reply per chunk — so a blob of any size fits the
// control channel's frames, and a blob of at most one chunk costs one
// message each way.
const StageChunk = 1 << 20

// PutStep says what a StagePut does to its upload.
type PutStep uint8

const (
	// PutMore appends the chunk; more follow.
	PutMore PutStep = iota
	// PutLast appends the chunk and commits the blob to the store.
	PutLast
	// PutAbort drops the upload; the chunk carries no bytes.
	PutAbort
)

// StagePut carries one chunk of a blob a client uploads into the serving
// proxy's content-addressed store (client API). The chunks of one upload
// go out one at a time, in order, each answered by a StagePutReply; a blob
// of at most StageChunk bytes is a single PutLast.
//
//	upload u64 | offset i64 | size i64 | step u8 | name str | n u32 | n bytes
type StagePut struct {
	// Upload names the upload among those open on this connection; the
	// client picks it.
	Upload uint64
	// Offset is where Data goes: the count of bytes sent before it.
	Offset int64
	// Size is the blob's announced size, or -1 when the client does not
	// know it; the proxy sizes its buffer from the first chunk's.
	Size int64
	Step PutStep
	// Name is advisory — the store is keyed by content, but tools echo
	// the name back in refs.
	Name string
	// Data aliases the decoded frame.
	Data []byte
}

// Code implements Body.
func (*StagePut) Code() Code { return CodeStagePut }

func (m *StagePut) fields(c *codec) {
	c.Uint64(&m.Upload)
	c.Int64(&m.Offset)
	c.Int64(&m.Size)
	c.Uint8((*uint8)(&m.Step))
	c.String(&m.Name)
	c.Tail(&m.Data)
}

func (m *StagePut) check() error {
	if m.Offset < 0 || m.Size < -1 || m.Step > PutAbort {
		return ErrMalformed
	}
	return nil
}

// StagePutReply answers a StagePut. After PutLast the ref names the stored
// blob; before it the ref carries only Size, the bytes received so far.
type StagePutReply struct {
	Ref StageRef
}

// Code implements Body.
func (*StagePutReply) Code() Code { return CodeStagePutReply }

// The ref goes out as a counted list of one, and a count other than one
// is truncation.
func (m *StagePutReply) fields(c *codec) {
	one := uint32(1)
	if c.Uint32(&one); one != 1 {
		c.fail(wire.ErrTruncated)
	}
	m.Ref.fields(c)
}

// StageGet asks the serving proxy's store for one range of a blob (client
// API): at most Length bytes from Offset, clipped to StageChunk and to the
// blob's end.
type StageGet struct {
	Hash   string
	Offset int64
	Length int64
}

// Code implements Body.
func (*StageGet) Code() Code { return CodeStageGet }

func (m *StageGet) fields(c *codec) {
	c.String(&m.Hash)
	c.Int64(&m.Offset)
	c.Int64(&m.Length)
}

func (m *StageGet) check() error {
	if m.Offset < 0 || m.Length < 0 {
		return ErrMalformed
	}
	return nil
}

// StageGetReply answers a StageGet with the bytes of the range and the
// size of the whole blob, which is how a reader learns where to stop.
//
//	size i64 | offset i64 | n u32 | n bytes
type StageGetReply struct {
	Size   int64
	Offset int64
	// Data aliases the store's blob when encoded and the decoded frame
	// when decoded.
	Data []byte
}

// Code implements Body.
func (*StageGetReply) Code() Code { return CodeStageGetReply }

func (m *StageGetReply) fields(c *codec) {
	c.Int64(&m.Size)
	c.Int64(&m.Offset)
	c.Tail(&m.Data)
}

func (m *StageGetReply) check() error {
	if m.Offset < 0 || m.Offset+int64(len(m.Data)) > m.Size {
		return ErrMalformed
	}
	return nil
}

// StageStat asks whether the serving proxy's store holds a blob.
type StageStat struct {
	Hash string
}

// Code implements Body.
func (*StageStat) Code() Code { return CodeStageStat }

func (m *StageStat) fields(c *codec) { c.String(&m.Hash) }

// StageStatReply answers a StageStat.
type StageStatReply struct {
	Hash    string
	Present bool
	Size    int64
}

// Code implements Body.
func (*StageStatReply) Code() Code { return CodeStageStatReply }

func (m *StageStatReply) fields(c *codec) {
	c.String(&m.Hash)
	c.Bool(&m.Present)
	c.Int64(&m.Size)
}

// StreamOpenReply confirms or refuses a StreamOpen.
type StreamOpenReply struct {
	OK     bool
	Reason string
}

// Code implements Body.
func (*StreamOpenReply) Code() Code { return CodeStreamOpenReply }

func (m *StreamOpenReply) fields(c *codec) {
	c.Bool(&m.OK)
	c.String(&m.Reason)
}

// Resource is one resource a site reports about itself, such as a node.
type Resource struct {
	Name string
	Kind string
	Site string
	// Attrs are "key=value" attribute strings.
	Attrs []string
}

func (m *Resource) fields(c *codec) {
	c.String(&m.Name)
	c.String(&m.Kind)
	c.String(&m.Site)
	c.Strings(&m.Attrs)
}

// RegistryQuery asks for the resources of one site. Site was appended:
// empty (or a payload that ends before it) means the answering proxy's
// own site; a client's proxy forwards any other site's query there, and
// that site answers from its own nodes.
type RegistryQuery struct {
	Kind string
	// Attrs are "key=value" constraints; all must match.
	Attrs []string
	Site  string
}

// Code implements Body.
func (*RegistryQuery) Code() Code { return CodeRegistryQuery }

func (m *RegistryQuery) fields(c *codec) {
	c.String(&m.Kind)
	c.Strings(&m.Attrs)
	c.Optional()
	c.String(&m.Site)
}

// RegistryReply answers a RegistryQuery.
type RegistryReply struct {
	Resources []Resource
}

// Code implements Body.
func (*RegistryReply) Code() Code { return CodeRegistryReply }

func (m *RegistryReply) fields(c *codec) { slice(c, &m.Resources, (*Resource).fields) }

// GossipEntry is the wire form of one membership directory entry: who a
// site is (name, dialable address), how alive the sender believes it is
// (state under an incarnation number), and the site's versioned status
// summary. Ordering is (Incarnation, Version, State): last writer wins.
type GossipEntry struct {
	Site        string
	Addr        string
	State       uint8
	Incarnation uint64
	Version     uint64
	HasSummary  bool
	Summary     SiteStatus
}

func (m *GossipEntry) fields(c *codec) {
	c.String(&m.Site)
	c.String(&m.Addr)
	c.Uint8(&m.State)
	c.Uint64(&m.Incarnation)
	c.Uint64(&m.Version)
	c.Bool(&m.HasSummary)
	if m.HasSummary {
		m.Summary.fields(c)
	}
}

// GossipDigestItem summarizes what the sender knows about one site, so
// the receiver can answer with only the entries it knows better.
type GossipDigestItem struct {
	Site        string
	Incarnation uint64
	Version     uint64
	State       uint8
}

func (m *GossipDigestItem) fields(c *codec) {
	c.String(&m.Site)
	c.Uint64(&m.Incarnation)
	c.Uint64(&m.Version)
	c.Uint8(&m.State)
}

// GossipSync is one membership gossip exchange: the sender pushes its hot
// (recently changed, retransmission budget remaining) directory entries
// and, on anti-entropy rounds, includes a digest of its whole directory
// asking the receiver to reply with everything it knows better.
type GossipSync struct {
	// From and Addr identify the sender so the receiver learns a
	// dialable address for it even on a first contact.
	From string
	Addr string
	// Entries is the push half: the sender's hot entries.
	Entries []GossipEntry
	// HasDigest marks an anti-entropy round; Digest then summarizes the
	// sender's whole directory (it may be empty for a cold bootstrap).
	HasDigest bool
	Digest    []GossipDigestItem
}

// Code implements Body.
func (*GossipSync) Code() Code { return CodeGossipSync }

func (m *GossipSync) fields(c *codec) {
	c.String(&m.From)
	c.String(&m.Addr)
	slice(c, &m.Entries, (*GossipEntry).fields)
	c.Bool(&m.HasDigest)
	slice(c, &m.Digest, (*GossipDigestItem).fields)
}

// GossipDelta answers a GossipSync: the entries the receiver holds newer
// versions of (judged against the digest on anti-entropy rounds, or its
// own hot set otherwise).
type GossipDelta struct {
	From    string
	Entries []GossipEntry
}

// Code implements Body.
func (*GossipDelta) Code() Code { return CodeGossipDelta }

func (m *GossipDelta) fields(c *codec) {
	c.String(&m.From)
	slice(c, &m.Entries, (*GossipEntry).fields)
}

// MemberList asks a proxy for its membership directory (client API).
type MemberList struct{}

// Code implements Body.
func (*MemberList) Code() Code { return CodeMemberList }

func (*MemberList) fields(*codec) {}

// MemberInfo is one row of a MemberListReply.
type MemberInfo struct {
	Site        string
	Addr        string
	State       uint8
	Incarnation uint64
	Version     uint64
	// AgeMillis is the local age of the site's status summary; -1 when
	// no summary has been received yet.
	AgeMillis int64
	// Tunnel reports whether the answering proxy currently holds a live
	// tunnel to the site.
	Tunnel bool
	// HeardMillis is how long ago the answering proxy last received
	// fresher information about the site; SuspectMillis how long the
	// entry has been suspect (-1 unless suspect). Operators watch these
	// to see a partition forming before the dead verdict lands.
	HeardMillis   int64
	SuspectMillis int64
	// BondConns is the width of the live bonded tunnel to the site (0
	// when no tunnel); RTTMicros the smoothed round-trip time across its
	// member connections in microseconds (0 until a probe completes);
	// WindowBytes the per-stream receive window the answering proxy's end
	// of that tunnel has learned (0 when no tunnel).
	BondConns   uint8
	RTTMicros   int64
	WindowBytes int64
}

func (m *MemberInfo) fields(c *codec) {
	c.String(&m.Site)
	c.String(&m.Addr)
	c.Uint8(&m.State)
	c.Uint64(&m.Incarnation)
	c.Uint64(&m.Version)
	c.Int64(&m.AgeMillis)
	c.Bool(&m.Tunnel)
	c.Int64(&m.HeardMillis)
	c.Int64(&m.SuspectMillis)
	c.Uint8(&m.BondConns)
	c.Int64(&m.RTTMicros)
	c.Int64(&m.WindowBytes)
}

// MemberListReply answers a MemberList with the proxy's directory.
type MemberListReply struct {
	Members []MemberInfo
}

// Code implements Body.
func (*MemberListReply) Code() Code { return CodeMemberListReply }

func (m *MemberListReply) fields(c *codec) { slice(c, &m.Members, (*MemberInfo).fields) }

// PeerBye announces an intentional teardown of the session it arrives on
// — the sender is about to close it for reasons that say nothing about
// site health (LRU eviction, idle close, orderly shutdown). The receiver
// marks the session's close as expected; an unannounced close remains
// direct failure evidence for the membership directory.
type PeerBye struct {
	// Reason labels the teardown for logs ("evicted", "idle",
	// "shutdown").
	Reason string
}

// Code implements Body.
func (*PeerBye) Code() Code { return CodePeerBye }

func (m *PeerBye) fields(c *codec) { c.String(&m.Reason) }

// PeerByeAck answers a PeerBye so the evicting side can close knowing
// the announcement was seen.
type PeerByeAck struct{}

// Code implements Body.
func (*PeerByeAck) Code() Code { return CodePeerByeAck }

func (*PeerByeAck) fields(*codec) {}

// ProbeRequest asks the receiving proxy to confirm whether it can reach
// Target right now. It is sent to k confirmers before a failed direct
// contact escalates into membership suspicion: if any confirmer still
// reaches the target, the failure was the path (or the prober itself),
// not the target, and no suspicion is recorded.
type ProbeRequest struct {
	Target string
}

// Code implements Body.
func (*ProbeRequest) Code() Code { return CodeProbeRequest }

func (m *ProbeRequest) fields(c *codec) { c.String(&m.Target) }

// ProbeReply answers a ProbeRequest: OK reports whether the confirmer
// reached the target.
type ProbeReply struct {
	Target string
	OK     bool
}

// Code implements Body.
func (*ProbeReply) Code() Code { return CodeProbeReply }

func (m *ProbeReply) fields(c *codec) {
	c.String(&m.Target)
	c.Bool(&m.OK)
}

// FenceNotice tells a destination that the listed ranks of an
// application were rescheduled under a newer launch epoch: any copy of
// those ranks still running from an epoch below Epoch must be killed.
// The origin records a fence when it reschedules around an unreachable
// site and retries delivery until the site answers — on heal, the fence
// lands before the split-brain copies can double-run further.
// Idempotent: fencing an unknown application, or ranks already gone,
// succeeds.
type FenceNotice struct {
	AppID string
	Epoch uint64
	Ranks []uint32
}

// Code implements Body.
func (*FenceNotice) Code() Code { return CodeFenceNotice }

func (m *FenceNotice) fields(c *codec) {
	c.String(&m.AppID)
	c.Uint64(&m.Epoch)
	slice(c, &m.Ranks, u32)
}

// FenceReply answers a FenceNotice; Killed counts the stale ranks the
// fence terminated.
type FenceReply struct {
	AppID  string
	Killed uint32
}

// Code implements Body.
func (*FenceReply) Code() Code { return CodeFenceReply }

func (m *FenceReply) fields(c *codec) {
	c.String(&m.AppID)
	c.Uint32(&m.Killed)
}
