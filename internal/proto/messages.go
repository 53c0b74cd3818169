package proto

import (
	"gridproxy/internal/wire"
)

// init registers the decoders of all core message bodies. Registration is
// deterministic and has no side effects beyond populating the code
// registry, which must be complete before any message is decoded.
func init() {
	registerCore(CodeHello, func() Body { return &Hello{} })
	registerCore(CodeHelloAck, func() Body { return &HelloAck{} })
	registerCore(CodeError, func() Body { return &ErrorBody{} })
	registerCore(CodePing, func() Body { return &Ping{} })
	registerCore(CodePong, func() Body { return &Pong{} })
	registerCore(CodeAuthRequest, func() Body { return &AuthRequest{} })
	registerCore(CodeAuthReply, func() Body { return &AuthReply{} })
	registerCore(CodePermCheck, func() Body { return &PermCheck{} })
	registerCore(CodePermReply, func() Body { return &PermReply{} })
	registerCore(CodeTicketRequest, func() Body { return &TicketRequest{} })
	registerCore(CodeTicketReply, func() Body { return &TicketReply{} })
	registerCore(CodeStatusQuery, func() Body { return &StatusQuery{} })
	registerCore(CodeStatusReport, func() Body { return &StatusReport{} })
	registerCore(CodeNodeReport, func() Body { return &NodeReport{} })
	registerCore(CodeJobSubmit, func() Body { return &JobSubmit{} })
	registerCore(CodeJobUpdate, func() Body { return &JobUpdate{} })
	registerCore(CodeJobQuery, func() Body { return &JobQuery{} })
	registerCore(CodeSpawnReply, func() Body { return &SpawnReply{} })
	registerCore(CodeStreamOpen, func() Body { return &StreamOpen{} })
	registerCore(CodeStreamOpenReply, func() Body { return &StreamOpenReply{} })
	registerCore(CodeRegistryQuery, func() Body { return &RegistryQuery{} })
	registerCore(CodeRegistryReply, func() Body { return &RegistryReply{} })
	registerCore(CodePrepareSpawn, func() Body { return &PrepareSpawn{} })
	registerCore(CodePrepareSpawnReply, func() Body { return &PrepareSpawnReply{} })
	registerCore(CodeCommitSpawn, func() Body { return &CommitSpawn{} })
	registerCore(CodeAbortSpawn, func() Body { return &AbortSpawn{} })
	registerCore(CodeAbortSpawnReply, func() Body { return &AbortSpawnReply{} })
	registerCore(CodeJobCancel, func() Body { return &JobCancel{} })
	registerCore(CodeJobList, func() Body { return &JobList{} })
	registerCore(CodeJobListReply, func() Body { return &JobListReply{} })
	registerCore(CodeStagePut, func() Body { return &StagePut{} })
	registerCore(CodeStagePutReply, func() Body { return &StagePutReply{} })
	registerCore(CodeStageGet, func() Body { return &StageGet{} })
	registerCore(CodeStageGetReply, func() Body { return &StageGetReply{} })
	registerCore(CodeStageStat, func() Body { return &StageStat{} })
	registerCore(CodeStageStatReply, func() Body { return &StageStatReply{} })
	registerCore(CodeGossipSync, func() Body { return &GossipSync{} })
	registerCore(CodeGossipDelta, func() Body { return &GossipDelta{} })
	registerCore(CodeMemberList, func() Body { return &MemberList{} })
	registerCore(CodeMemberListReply, func() Body { return &MemberListReply{} })
	registerCore(CodePeerBye, func() Body { return &PeerBye{} })
	registerCore(CodePeerByeAck, func() Body { return &PeerByeAck{} })
	registerCore(CodeProbeRequest, func() Body { return &ProbeRequest{} })
	registerCore(CodeProbeReply, func() Body { return &ProbeReply{} })
	registerCore(CodeFenceNotice, func() Body { return &FenceNotice{} })
	registerCore(CodeFenceReply, func() Body { return &FenceReply{} })
}

// Hello opens a proxy-to-proxy session.
type Hello struct {
	// Site is the announcing proxy's site name.
	Site string
	// Version is the protocol version the sender speaks.
	Version uint16
	// Capabilities lists optional features ("mpi", "ticket", "webui").
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

// Encode implements Body.
func (m *Hello) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.Site)
	b = wire.AppendUint16(b, m.Version)
	b = wire.AppendStringSlice(b, m.Capabilities)
	b = wire.AppendString(b, m.WANAddr)
	b = append(b, m.BondConns)
	b = wire.AppendBytes(b, m.BondID)
	return b
}

// Decode implements Body.
func (m *Hello) Decode(buf *wire.Buffer) error {
	m.Site = buf.String()
	m.Version = buf.Uint16()
	m.Capabilities = buf.StringSlice()
	m.WANAddr = buf.String()
	m.BondConns = buf.Uint8()
	m.BondID = buf.Bytes()
	return buf.Err()
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

// Encode implements Body.
func (m *HelloAck) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.Site)
	b = wire.AppendUint16(b, m.Version)
	b = append(b, m.BondConns)
	return b
}

// Decode implements Body.
func (m *HelloAck) Decode(buf *wire.Buffer) error {
	m.Site = buf.String()
	m.Version = buf.Uint16()
	m.BondConns = buf.Uint8()
	return buf.Err()
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

// Encode implements Body.
func (m *ErrorBody) Encode(b []byte) []byte {
	b = wire.AppendUint16(b, m.Status)
	b = wire.AppendString(b, m.Text)
	return b
}

// Decode implements Body.
func (m *ErrorBody) Decode(buf *wire.Buffer) error {
	m.Status = buf.Uint16()
	m.Text = buf.String()
	return buf.Err()
}

// Ping probes peer liveness.
type Ping struct{ Nonce uint64 }

// Code implements Body.
func (*Ping) Code() Code { return CodePing }

// Encode implements Body.
func (m *Ping) Encode(b []byte) []byte { return wire.AppendUint64(b, m.Nonce) }

// Decode implements Body.
func (m *Ping) Decode(buf *wire.Buffer) error {
	m.Nonce = buf.Uint64()
	return buf.Err()
}

// Pong answers a Ping, echoing its nonce.
type Pong struct{ Nonce uint64 }

// Code implements Body.
func (*Pong) Code() Code { return CodePong }

// Encode implements Body.
func (m *Pong) Encode(b []byte) []byte { return wire.AppendUint64(b, m.Nonce) }

// Decode implements Body.
func (m *Pong) Decode(buf *wire.Buffer) error {
	m.Nonce = buf.Uint64()
	return buf.Err()
}

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

// Encode implements Body.
func (m *AuthRequest) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.User)
	b = append(b, byte(m.Method))
	b = wire.AppendBytes(b, m.PasswordProof)
	b = wire.AppendBytes(b, m.Challenge)
	b = wire.AppendBytes(b, m.Signature)
	b = wire.AppendBytes(b, m.Ticket)
	return b
}

// Decode implements Body.
func (m *AuthRequest) Decode(buf *wire.Buffer) error {
	m.User = buf.String()
	m.Method = AuthMethod(buf.Uint8())
	m.PasswordProof = buf.Bytes()
	m.Challenge = buf.Bytes()
	m.Signature = buf.Bytes()
	m.Ticket = buf.Bytes()
	return buf.Err()
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

// Encode implements Body.
func (m *AuthReply) Encode(b []byte) []byte {
	b = wire.AppendBool(b, m.OK)
	b = wire.AppendString(b, m.Reason)
	b = wire.AppendBytes(b, m.Token)
	b = wire.AppendInt64(b, m.ExpiresUnix)
	return b
}

// Decode implements Body.
func (m *AuthReply) Decode(buf *wire.Buffer) error {
	m.OK = buf.Bool()
	m.Reason = buf.String()
	m.Token = buf.Bytes()
	m.ExpiresUnix = buf.Int64()
	return buf.Err()
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

// Encode implements Body.
func (m *PermCheck) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.User)
	b = wire.AppendString(b, m.Action)
	b = wire.AppendString(b, m.Resource)
	b = wire.AppendBytes(b, m.Token)
	return b
}

// Decode implements Body.
func (m *PermCheck) Decode(buf *wire.Buffer) error {
	m.User = buf.String()
	m.Action = buf.String()
	m.Resource = buf.String()
	m.Token = buf.Bytes()
	return buf.Err()
}

// PermReply answers a PermCheck.
type PermReply struct {
	Allowed bool
	Reason  string
}

// Code implements Body.
func (*PermReply) Code() Code { return CodePermReply }

// Encode implements Body.
func (m *PermReply) Encode(b []byte) []byte {
	b = wire.AppendBool(b, m.Allowed)
	b = wire.AppendString(b, m.Reason)
	return b
}

// Decode implements Body.
func (m *PermReply) Decode(buf *wire.Buffer) error {
	m.Allowed = buf.Bool()
	m.Reason = buf.String()
	return buf.Err()
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

// Encode implements Body.
func (m *TicketRequest) Encode(b []byte) []byte {
	b = wire.AppendBytes(b, m.TGT)
	b = wire.AppendString(b, m.Service)
	return b
}

// Decode implements Body.
func (m *TicketRequest) Decode(buf *wire.Buffer) error {
	m.TGT = buf.Bytes()
	m.Service = buf.String()
	return buf.Err()
}

// TicketReply returns a session ticket.
type TicketReply struct {
	OK     bool
	Reason string
	Ticket []byte
}

// Code implements Body.
func (*TicketReply) Code() Code { return CodeTicketReply }

// Encode implements Body.
func (m *TicketReply) Encode(b []byte) []byte {
	b = wire.AppendBool(b, m.OK)
	b = wire.AppendString(b, m.Reason)
	b = wire.AppendBytes(b, m.Ticket)
	return b
}

// Decode implements Body.
func (m *TicketReply) Decode(buf *wire.Buffer) error {
	m.OK = buf.Bool()
	m.Reason = buf.String()
	m.Ticket = buf.Bytes()
	return buf.Err()
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

// Encode implements Body.
func (m *StatusQuery) Encode(b []byte) []byte { return wire.AppendStringSlice(b, m.Sites) }

// Decode implements Body.
func (m *StatusQuery) Decode(buf *wire.Buffer) error {
	m.Sites = buf.StringSlice()
	return buf.Err()
}

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

// HostedProcs counts the running ranks a site hosts for one origin.
type HostedProcs struct {
	Origin string
	Procs  uint32
}

func (s *SiteStatus) encode(b []byte) []byte {
	b = wire.AppendString(b, s.Site)
	b = wire.AppendUint32(b, s.Nodes)
	b = wire.AppendUint32(b, s.NodesUp)
	b = wire.AppendFloat64(b, s.CPUFreePct)
	b = wire.AppendInt64(b, s.RAMFreeMB)
	b = wire.AppendInt64(b, s.DiskFreeMB)
	b = wire.AppendFloat64(b, s.Load1)
	b = wire.AppendUint32(b, s.RunningProcs)
	b = wire.AppendInt64(b, s.CollectedUnix)
	b = wire.AppendInt64(b, s.AgeMillis)
	b = wire.AppendUint64(b, s.Incarnation)
	b = append(b, s.Member)
	b = wire.AppendFloat64(b, s.Speed)
	b = wire.AppendUint32(b, uint32(len(s.Hosted)))
	for _, h := range s.Hosted {
		b = wire.AppendString(b, h.Origin)
		b = wire.AppendUint32(b, h.Procs)
	}
	return b
}

func (s *SiteStatus) decode(buf *wire.Buffer) {
	s.Site = buf.String()
	s.Nodes = buf.Uint32()
	s.NodesUp = buf.Uint32()
	s.CPUFreePct = buf.Float64()
	s.RAMFreeMB = buf.Int64()
	s.DiskFreeMB = buf.Int64()
	s.Load1 = buf.Float64()
	s.RunningProcs = buf.Uint32()
	s.CollectedUnix = buf.Int64()
	s.AgeMillis = buf.Int64()
	s.Incarnation = buf.Uint64()
	s.Member = buf.Uint8()
	s.Speed = buf.Float64()
	n := int(buf.Uint32())
	if n > buf.Remaining() {
		buf.View(n) // marks the buffer truncated
		return
	}
	if n > 0 {
		s.Hosted = make([]HostedProcs, n)
	}
	for i := range s.Hosted {
		s.Hosted[i].Origin = buf.String()
		s.Hosted[i].Procs = buf.Uint32()
	}
}

// StatusReport carries one or more site status summaries.
type StatusReport struct {
	Sites []SiteStatus
}

// Code implements Body.
func (*StatusReport) Code() Code { return CodeStatusReport }

// Encode implements Body.
func (m *StatusReport) Encode(b []byte) []byte {
	b = wire.AppendUint32(b, uint32(len(m.Sites)))
	for i := range m.Sites {
		b = m.Sites[i].encode(b)
	}
	return b
}

// Decode implements Body.
func (m *StatusReport) Decode(buf *wire.Buffer) error {
	n := int(buf.Uint32())
	if err := buf.Err(); err != nil {
		return err
	}
	if n > buf.Remaining() {
		return wire.ErrTruncated
	}
	m.Sites = make([]SiteStatus, n)
	for i := range m.Sites {
		m.Sites[i].decode(buf)
	}
	return buf.Err()
}

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

// Encode implements Body.
func (m *NodeReport) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.Node)
	b = wire.AppendFloat64(b, m.CPUFreePct)
	b = wire.AppendInt64(b, m.RAMFreeMB)
	b = wire.AppendInt64(b, m.DiskFreeMB)
	b = wire.AppendFloat64(b, m.Load1)
	b = wire.AppendUint32(b, m.Procs)
	b = wire.AppendInt64(b, m.UnixNano)
	return b
}

// Decode implements Body.
func (m *NodeReport) Decode(buf *wire.Buffer) error {
	m.Node = buf.String()
	m.CPUFreePct = buf.Float64()
	m.RAMFreeMB = buf.Int64()
	m.DiskFreeMB = buf.Int64()
	m.Load1 = buf.Float64()
	m.Procs = buf.Uint32()
	m.UnixNano = buf.Int64()
	return buf.Err()
}

// StageRef is the wire form of a staged-file reference: the name ranks
// address the file by plus the content hash (and size) of the backing
// blob in the content-addressed store.
type StageRef struct {
	Name string
	Hash string
	Size int64
}

func appendStageRefs(b []byte, refs []StageRef) []byte {
	b = wire.AppendUint32(b, uint32(len(refs)))
	for _, r := range refs {
		b = wire.AppendString(b, r.Name)
		b = wire.AppendString(b, r.Hash)
		b = wire.AppendInt64(b, r.Size)
	}
	return b
}

func decodeStageRefs(buf *wire.Buffer) ([]StageRef, error) {
	n := int(buf.Uint32())
	if err := buf.Err(); err != nil {
		return nil, err
	}
	if n > buf.Remaining() {
		return nil, wire.ErrTruncated
	}
	refs := make([]StageRef, n)
	for i := range refs {
		refs[i].Name = buf.String()
		refs[i].Hash = buf.String()
		refs[i].Size = buf.Int64()
	}
	return refs, buf.Err()
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

// Encode implements Body.
func (m *JobSubmit) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.JobID)
	b = wire.AppendString(b, m.Owner)
	b = wire.AppendString(b, m.Program)
	b = wire.AppendStringSlice(b, m.Args)
	b = wire.AppendUint32(b, m.Procs)
	b = wire.AppendStringSlice(b, m.Requirements)
	b = appendStageRefs(b, m.StageIn)
	b = wire.AppendStringSlice(b, m.StageOut)
	return b
}

// Decode implements Body.
func (m *JobSubmit) Decode(buf *wire.Buffer) error {
	m.JobID = buf.String()
	m.Owner = buf.String()
	m.Program = buf.String()
	m.Args = buf.StringSlice()
	m.Procs = buf.Uint32()
	m.Requirements = buf.StringSlice()
	var err error
	if m.StageIn, err = decodeStageRefs(buf); err != nil {
		return err
	}
	m.StageOut = buf.StringSlice()
	return buf.Err()
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

// Encode implements Body.
func (m *JobUpdate) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.JobID)
	b = append(b, byte(m.State))
	b = wire.AppendString(b, m.Detail)
	b = wire.AppendString(b, m.Site)
	b = appendStageRefs(b, m.Outputs)
	b = wire.AppendUint32(b, uint32(len(m.Inline)))
	for _, in := range m.Inline {
		b = wire.AppendUint32(b, in.Ref)
		b = wire.AppendBytes(b, in.Data)
	}
	return b
}

// Decode implements Body.
func (m *JobUpdate) Decode(buf *wire.Buffer) error {
	m.JobID = buf.String()
	m.State = JobState(buf.Uint8())
	m.Detail = buf.String()
	m.Site = buf.String()
	var err error
	if m.Outputs, err = decodeStageRefs(buf); err != nil {
		return err
	}
	n := int(buf.Uint32())
	if err := buf.Err(); err != nil {
		return err
	}
	if n > len(m.Outputs) {
		return ErrMalformed
	}
	if n > 0 {
		m.Inline = make([]InlineOutput, n)
	}
	total := 0
	for i := range m.Inline {
		in := &m.Inline[i]
		in.Ref = buf.Uint32()
		in.Data = buf.Bytes()
		if err := buf.Err(); err != nil {
			return err
		}
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

// Encode implements Body.
func (m *JobQuery) Encode(b []byte) []byte { return wire.AppendString(b, m.JobID) }

// Decode implements Body.
func (m *JobQuery) Decode(buf *wire.Buffer) error {
	m.JobID = buf.String()
	return buf.Err()
}

// RankLocation places one rank of an application at a site. Only the
// site that runs a rank knows its node: it places its share itself.
type RankLocation struct {
	Rank uint32
	Site string
}

// RankEndpoint reports where a spawned rank is listening.
type RankEndpoint struct {
	Rank uint32
	Addr string
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

// Encode implements Body.
func (m *SpawnReply) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.AppID)
	b = wire.AppendBool(b, m.OK)
	b = wire.AppendString(b, m.Reason)
	b = wire.AppendUint32(b, uint32(len(m.Endpoints)))
	for _, ep := range m.Endpoints {
		b = wire.AppendUint32(b, ep.Rank)
		b = wire.AppendString(b, ep.Addr)
	}
	return b
}

// Decode implements Body.
func (m *SpawnReply) Decode(buf *wire.Buffer) error {
	m.AppID = buf.String()
	m.OK = buf.Bool()
	m.Reason = buf.String()
	n := int(buf.Uint32())
	if err := buf.Err(); err != nil {
		return err
	}
	if n > buf.Remaining() {
		return wire.ErrTruncated
	}
	m.Endpoints = make([]RankEndpoint, n)
	for i := range m.Endpoints {
		m.Endpoints[i].Rank = buf.Uint32()
		m.Endpoints[i].Addr = buf.String()
	}
	return buf.Err()
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

// Encode implements Body.
func (m *PrepareSpawn) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.AppID)
	b = wire.AppendString(b, m.Origin)
	b = wire.AppendString(b, m.Owner)
	b = wire.AppendString(b, m.Program)
	b = wire.AppendStringSlice(b, m.Args)
	b = wire.AppendUint32(b, m.WorldSize)
	b = wire.AppendUint32(b, uint32(len(m.Ranks)))
	for _, rank := range m.Ranks {
		b = wire.AppendUint32(b, rank)
	}
	b = wire.AppendUint32(b, uint32(len(m.Locations)))
	for _, loc := range m.Locations {
		b = wire.AppendUint32(b, loc.Rank)
		b = wire.AppendString(b, loc.Site)
	}
	b = appendStageRefs(b, m.StageIn)
	b = wire.AppendStringSlice(b, m.StageOut)
	b = wire.AppendUint64(b, m.Epoch)
	return b
}

// Decode implements Body.
func (m *PrepareSpawn) Decode(buf *wire.Buffer) error {
	m.AppID = buf.String()
	m.Origin = buf.String()
	m.Owner = buf.String()
	m.Program = buf.String()
	m.Args = buf.StringSlice()
	m.WorldSize = buf.Uint32()
	n := int(buf.Uint32())
	if err := buf.Err(); err != nil {
		return err
	}
	if n > buf.Remaining() {
		return wire.ErrTruncated
	}
	m.Ranks = make([]uint32, n)
	for i := range m.Ranks {
		m.Ranks[i] = buf.Uint32()
	}
	nl := int(buf.Uint32())
	if err := buf.Err(); err != nil {
		return err
	}
	if nl > buf.Remaining() {
		return wire.ErrTruncated
	}
	m.Locations = make([]RankLocation, nl)
	for i := range m.Locations {
		m.Locations[i].Rank = buf.Uint32()
		m.Locations[i].Site = buf.String()
	}
	var err error
	if m.StageIn, err = decodeStageRefs(buf); err != nil {
		return err
	}
	m.StageOut = buf.StringSlice()
	m.Epoch = buf.Uint64()
	return buf.Err()
}

// PrepareSpawnReply answers a PrepareSpawn.
type PrepareSpawnReply struct {
	AppID  string
	OK     bool
	Reason string
}

// Code implements Body.
func (*PrepareSpawnReply) Code() Code { return CodePrepareSpawnReply }

// Encode implements Body.
func (m *PrepareSpawnReply) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.AppID)
	b = wire.AppendBool(b, m.OK)
	b = wire.AppendString(b, m.Reason)
	return b
}

// Decode implements Body.
func (m *PrepareSpawnReply) Decode(buf *wire.Buffer) error {
	m.AppID = buf.String()
	m.OK = buf.Bool()
	m.Reason = buf.String()
	return buf.Err()
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

// Encode implements Body.
func (m *CommitSpawn) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.AppID)
	b = wire.AppendUint64(b, m.Epoch)
	b = wire.AppendString(b, m.Token)
	b = wire.AppendBool(b, m.Unconfirmed)
	return b
}

// Decode implements Body.
func (m *CommitSpawn) Decode(buf *wire.Buffer) error {
	m.AppID = buf.String()
	m.Epoch = buf.Uint64()
	m.Token = buf.String()
	flag := buf.Uint8()
	if err := buf.Err(); err != nil {
		return err
	}
	if flag > 1 {
		return ErrMalformed
	}
	m.Unconfirmed = flag == 1
	return nil
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

// Encode implements Body.
func (m *AbortSpawn) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.AppID)
	b = wire.AppendString(b, m.Reason)
	return b
}

// Decode implements Body.
func (m *AbortSpawn) Decode(buf *wire.Buffer) error {
	m.AppID = buf.String()
	m.Reason = buf.String()
	return buf.Err()
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

// Encode implements Body.
func (m *AbortSpawnReply) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.AppID)
	b = wire.AppendBool(b, m.OK)
	b = wire.AppendUint32(b, m.Killed)
	return b
}

// Decode implements Body.
func (m *AbortSpawnReply) Decode(buf *wire.Buffer) error {
	m.AppID = buf.String()
	m.OK = buf.Bool()
	m.Killed = buf.Uint32()
	return buf.Err()
}

// JobCancel asks the origin proxy to cancel a job it launched. The reply
// is a JobUpdate carrying the job's (terminal) state.
type JobCancel struct {
	JobID string
}

// Code implements Body.
func (*JobCancel) Code() Code { return CodeJobCancel }

// Encode implements Body.
func (m *JobCancel) Encode(b []byte) []byte { return wire.AppendString(b, m.JobID) }

// Decode implements Body.
func (m *JobCancel) Decode(buf *wire.Buffer) error {
	m.JobID = buf.String()
	return buf.Err()
}

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

// Encode implements Body.
func (m *JobList) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.Owner)
	return wire.AppendUint64(b, m.Before)
}

// Decode implements Body.
func (m *JobList) Decode(buf *wire.Buffer) error {
	if buf.Remaining() == 0 {
		return buf.Err()
	}
	m.Owner = buf.String()
	m.Before = buf.Uint64()
	return buf.Err()
}

// JobRecord is one entry of a JobListReply. State is the human-readable
// state name ("queued", "running", "done", "failed", "cancelled").
type JobRecord struct {
	JobID  string
	State  string
	Detail string
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

// Encode implements Body.
func (m *JobListReply) Encode(b []byte) []byte {
	b = wire.AppendUint32(b, uint32(len(m.Jobs)))
	for _, j := range m.Jobs {
		b = wire.AppendString(b, j.JobID)
		b = wire.AppendString(b, j.State)
		b = wire.AppendString(b, j.Detail)
	}
	return wire.AppendUint64(b, m.Next)
}

// Decode implements Body.
func (m *JobListReply) Decode(buf *wire.Buffer) error {
	n := int(buf.Uint32())
	if err := buf.Err(); err != nil {
		return err
	}
	if n > buf.Remaining() {
		return wire.ErrTruncated
	}
	m.Jobs = make([]JobRecord, n)
	for i := range m.Jobs {
		m.Jobs[i].JobID = buf.String()
		m.Jobs[i].State = buf.String()
		m.Jobs[i].Detail = buf.String()
	}
	if buf.Err() == nil && buf.Remaining() > 0 {
		m.Next = buf.Uint64()
	}
	return buf.Err()
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

// Encode implements Body.
func (m *StreamOpen) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.AppID)
	b = wire.AppendString(b, m.TargetSite)
	b = wire.AppendUint32(b, m.Rank)
	b = wire.AppendString(b, m.TargetAddr)
	b = append(b, byte(m.Kind))
	b = wire.AppendBytes(b, m.Token)
	return b
}

// Decode implements Body.
func (m *StreamOpen) Decode(buf *wire.Buffer) error {
	m.AppID = buf.String()
	m.TargetSite = buf.String()
	m.Rank = buf.Uint32()
	m.TargetAddr = buf.String()
	m.Kind = StreamKind(buf.Uint8())
	m.Token = buf.Bytes()
	return buf.Err()
}

// StageChunk is the most blob bytes one client message carries. Blobs
// move between a client and its proxy in chunks of this size — one
// request and one reply per chunk — so a blob of any size fits the
// control channel's frames, and a blob of at most one chunk costs one
// message each way.
const StageChunk = 1 << 20

// tailed is implemented by the two bodies that carry blob bytes. Their
// layout ends with the bytes, so WriteBody can hand them to the frame
// writer as a segment of their own instead of copying them behind the
// header, and Decode can alias the frame instead of copying them out.
type tailed interface {
	Body
	// encodeHead appends everything Encode does except the tail bytes.
	encodeHead(b []byte) []byte
	tail() []byte
}

// decodeTail reads the "n u32 | n bytes" run that ends a tailed body. The
// run must end the payload exactly, and the returned slice aliases it.
func decodeTail(buf *wire.Buffer) ([]byte, error) {
	n := buf.Uint32()
	if err := buf.Err(); err != nil {
		return nil, err
	}
	if n > StageChunk || int(n) != buf.Remaining() {
		return nil, ErrMalformed
	}
	return buf.View(int(n)), nil
}

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

func (m *StagePut) encodeHead(b []byte) []byte {
	b = wire.AppendUint64(b, m.Upload)
	b = wire.AppendInt64(b, m.Offset)
	b = wire.AppendInt64(b, m.Size)
	b = append(b, byte(m.Step))
	b = wire.AppendString(b, m.Name)
	return wire.AppendUint32(b, uint32(len(m.Data)))
}

func (m *StagePut) tail() []byte { return m.Data }

// Encode implements Body.
func (m *StagePut) Encode(b []byte) []byte { return append(m.encodeHead(b), m.Data...) }

// Decode implements Body.
func (m *StagePut) Decode(buf *wire.Buffer) error {
	m.Upload = buf.Uint64()
	m.Offset = buf.Int64()
	m.Size = buf.Int64()
	m.Step = PutStep(buf.Uint8())
	m.Name = buf.String()
	var err error
	if m.Data, err = decodeTail(buf); err != nil {
		return err
	}
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

// Encode implements Body.
func (m *StagePutReply) Encode(b []byte) []byte {
	return appendStageRefs(b, []StageRef{m.Ref})
}

// Decode implements Body.
func (m *StagePutReply) Decode(buf *wire.Buffer) error {
	refs, err := decodeStageRefs(buf)
	if err != nil {
		return err
	}
	if len(refs) != 1 {
		return wire.ErrTruncated
	}
	m.Ref = refs[0]
	return buf.Err()
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

// Encode implements Body.
func (m *StageGet) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.Hash)
	b = wire.AppendInt64(b, m.Offset)
	return wire.AppendInt64(b, m.Length)
}

// Decode implements Body.
func (m *StageGet) Decode(buf *wire.Buffer) error {
	m.Hash = buf.String()
	m.Offset = buf.Int64()
	m.Length = buf.Int64()
	if err := buf.Err(); err != nil {
		return err
	}
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

func (m *StageGetReply) encodeHead(b []byte) []byte {
	b = wire.AppendInt64(b, m.Size)
	b = wire.AppendInt64(b, m.Offset)
	return wire.AppendUint32(b, uint32(len(m.Data)))
}

func (m *StageGetReply) tail() []byte { return m.Data }

// Encode implements Body.
func (m *StageGetReply) Encode(b []byte) []byte { return append(m.encodeHead(b), m.Data...) }

// Decode implements Body.
func (m *StageGetReply) Decode(buf *wire.Buffer) error {
	m.Size = buf.Int64()
	m.Offset = buf.Int64()
	var err error
	if m.Data, err = decodeTail(buf); err != nil {
		return err
	}
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

// Encode implements Body.
func (m *StageStat) Encode(b []byte) []byte { return wire.AppendString(b, m.Hash) }

// Decode implements Body.
func (m *StageStat) Decode(buf *wire.Buffer) error {
	m.Hash = buf.String()
	return buf.Err()
}

// StageStatReply answers a StageStat.
type StageStatReply struct {
	Hash    string
	Present bool
	Size    int64
}

// Code implements Body.
func (*StageStatReply) Code() Code { return CodeStageStatReply }

// Encode implements Body.
func (m *StageStatReply) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.Hash)
	b = wire.AppendBool(b, m.Present)
	b = wire.AppendInt64(b, m.Size)
	return b
}

// Decode implements Body.
func (m *StageStatReply) Decode(buf *wire.Buffer) error {
	m.Hash = buf.String()
	m.Present = buf.Bool()
	m.Size = buf.Int64()
	return buf.Err()
}

// StreamOpenReply confirms or refuses a StreamOpen.
type StreamOpenReply struct {
	OK     bool
	Reason string
}

// Code implements Body.
func (*StreamOpenReply) Code() Code { return CodeStreamOpenReply }

// Encode implements Body.
func (m *StreamOpenReply) Encode(b []byte) []byte {
	b = wire.AppendBool(b, m.OK)
	b = wire.AppendString(b, m.Reason)
	return b
}

// Decode implements Body.
func (m *StreamOpenReply) Decode(buf *wire.Buffer) error {
	m.OK = buf.Bool()
	m.Reason = buf.String()
	return buf.Err()
}

// Resource is one resource a site reports about itself, such as a node.
type Resource struct {
	Name string
	Kind string
	Site string
	// Attrs are "key=value" attribute strings.
	Attrs []string
}

func (r *Resource) encode(b []byte) []byte {
	b = wire.AppendString(b, r.Name)
	b = wire.AppendString(b, r.Kind)
	b = wire.AppendString(b, r.Site)
	b = wire.AppendStringSlice(b, r.Attrs)
	return b
}

func (r *Resource) decode(buf *wire.Buffer) {
	r.Name = buf.String()
	r.Kind = buf.String()
	r.Site = buf.String()
	r.Attrs = buf.StringSlice()
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

// Encode implements Body.
func (m *RegistryQuery) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.Kind)
	b = wire.AppendStringSlice(b, m.Attrs)
	return wire.AppendString(b, m.Site)
}

// Decode implements Body.
func (m *RegistryQuery) Decode(buf *wire.Buffer) error {
	m.Kind = buf.String()
	m.Attrs = buf.StringSlice()
	if buf.Err() == nil && buf.Remaining() > 0 {
		m.Site = buf.String()
	}
	return buf.Err()
}

// RegistryReply answers a RegistryQuery.
type RegistryReply struct {
	Resources []Resource
}

// Code implements Body.
func (*RegistryReply) Code() Code { return CodeRegistryReply }

// Encode implements Body.
func (m *RegistryReply) Encode(b []byte) []byte {
	b = wire.AppendUint32(b, uint32(len(m.Resources)))
	for i := range m.Resources {
		b = m.Resources[i].encode(b)
	}
	return b
}

// Decode implements Body.
func (m *RegistryReply) Decode(buf *wire.Buffer) error {
	n := int(buf.Uint32())
	if err := buf.Err(); err != nil {
		return err
	}
	if n > buf.Remaining() {
		return wire.ErrTruncated
	}
	m.Resources = make([]Resource, n)
	for i := range m.Resources {
		m.Resources[i].decode(buf)
	}
	return buf.Err()
}

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

func (e *GossipEntry) encode(b []byte) []byte {
	b = wire.AppendString(b, e.Site)
	b = wire.AppendString(b, e.Addr)
	b = append(b, e.State)
	b = wire.AppendUint64(b, e.Incarnation)
	b = wire.AppendUint64(b, e.Version)
	b = wire.AppendBool(b, e.HasSummary)
	if e.HasSummary {
		b = e.Summary.encode(b)
	}
	return b
}

func (e *GossipEntry) decode(buf *wire.Buffer) {
	e.Site = buf.String()
	e.Addr = buf.String()
	e.State = buf.Uint8()
	e.Incarnation = buf.Uint64()
	e.Version = buf.Uint64()
	e.HasSummary = buf.Bool()
	if e.HasSummary {
		e.Summary.decode(buf)
	}
}

func appendGossipEntries(b []byte, entries []GossipEntry) []byte {
	b = wire.AppendUint32(b, uint32(len(entries)))
	for i := range entries {
		b = entries[i].encode(b)
	}
	return b
}

func decodeGossipEntries(buf *wire.Buffer) ([]GossipEntry, error) {
	n := int(buf.Uint32())
	if err := buf.Err(); err != nil {
		return nil, err
	}
	if n > buf.Remaining() {
		return nil, wire.ErrTruncated
	}
	if n == 0 {
		return nil, nil
	}
	entries := make([]GossipEntry, n)
	for i := range entries {
		entries[i].decode(buf)
	}
	return entries, buf.Err()
}

// GossipDigestItem summarizes what the sender knows about one site, so
// the receiver can answer with only the entries it knows better.
type GossipDigestItem struct {
	Site        string
	Incarnation uint64
	Version     uint64
	State       uint8
}

func (d *GossipDigestItem) encode(b []byte) []byte {
	b = wire.AppendString(b, d.Site)
	b = wire.AppendUint64(b, d.Incarnation)
	b = wire.AppendUint64(b, d.Version)
	b = append(b, d.State)
	return b
}

func (d *GossipDigestItem) decode(buf *wire.Buffer) {
	d.Site = buf.String()
	d.Incarnation = buf.Uint64()
	d.Version = buf.Uint64()
	d.State = buf.Uint8()
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

// Encode implements Body.
func (m *GossipSync) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.From)
	b = wire.AppendString(b, m.Addr)
	b = appendGossipEntries(b, m.Entries)
	b = wire.AppendBool(b, m.HasDigest)
	b = wire.AppendUint32(b, uint32(len(m.Digest)))
	for i := range m.Digest {
		b = m.Digest[i].encode(b)
	}
	return b
}

// Decode implements Body.
func (m *GossipSync) Decode(buf *wire.Buffer) error {
	m.From = buf.String()
	m.Addr = buf.String()
	entries, err := decodeGossipEntries(buf)
	if err != nil {
		return err
	}
	m.Entries = entries
	m.HasDigest = buf.Bool()
	n := int(buf.Uint32())
	if err := buf.Err(); err != nil {
		return err
	}
	if n > buf.Remaining() {
		return wire.ErrTruncated
	}
	if n > 0 {
		m.Digest = make([]GossipDigestItem, n)
		for i := range m.Digest {
			m.Digest[i].decode(buf)
		}
	}
	return buf.Err()
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

// Encode implements Body.
func (m *GossipDelta) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.From)
	b = appendGossipEntries(b, m.Entries)
	return b
}

// Decode implements Body.
func (m *GossipDelta) Decode(buf *wire.Buffer) error {
	m.From = buf.String()
	entries, err := decodeGossipEntries(buf)
	if err != nil {
		return err
	}
	m.Entries = entries
	return buf.Err()
}

// MemberList asks a proxy for its membership directory (client API).
type MemberList struct{}

// Code implements Body.
func (*MemberList) Code() Code { return CodeMemberList }

// Encode implements Body.
func (m *MemberList) Encode(b []byte) []byte { return b }

// Decode implements Body.
func (m *MemberList) Decode(buf *wire.Buffer) error { return buf.Err() }

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

func (mi *MemberInfo) encode(b []byte) []byte {
	b = wire.AppendString(b, mi.Site)
	b = wire.AppendString(b, mi.Addr)
	b = append(b, mi.State)
	b = wire.AppendUint64(b, mi.Incarnation)
	b = wire.AppendUint64(b, mi.Version)
	b = wire.AppendInt64(b, mi.AgeMillis)
	b = wire.AppendBool(b, mi.Tunnel)
	b = wire.AppendInt64(b, mi.HeardMillis)
	b = wire.AppendInt64(b, mi.SuspectMillis)
	b = append(b, mi.BondConns)
	b = wire.AppendInt64(b, mi.RTTMicros)
	b = wire.AppendInt64(b, mi.WindowBytes)
	return b
}

func (mi *MemberInfo) decode(buf *wire.Buffer) {
	mi.Site = buf.String()
	mi.Addr = buf.String()
	mi.State = buf.Uint8()
	mi.Incarnation = buf.Uint64()
	mi.Version = buf.Uint64()
	mi.AgeMillis = buf.Int64()
	mi.Tunnel = buf.Bool()
	mi.HeardMillis = buf.Int64()
	mi.SuspectMillis = buf.Int64()
	mi.BondConns = buf.Uint8()
	mi.RTTMicros = buf.Int64()
	mi.WindowBytes = buf.Int64()
}

// MemberListReply answers a MemberList with the proxy's directory.
type MemberListReply struct {
	Members []MemberInfo
}

// Code implements Body.
func (*MemberListReply) Code() Code { return CodeMemberListReply }

// Encode implements Body.
func (m *MemberListReply) Encode(b []byte) []byte {
	b = wire.AppendUint32(b, uint32(len(m.Members)))
	for i := range m.Members {
		b = m.Members[i].encode(b)
	}
	return b
}

// Decode implements Body.
func (m *MemberListReply) Decode(buf *wire.Buffer) error {
	n := int(buf.Uint32())
	if err := buf.Err(); err != nil {
		return err
	}
	if n > buf.Remaining() {
		return wire.ErrTruncated
	}
	if n > 0 {
		m.Members = make([]MemberInfo, n)
		for i := range m.Members {
			m.Members[i].decode(buf)
		}
	}
	return buf.Err()
}

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

// Encode implements Body.
func (m *PeerBye) Encode(b []byte) []byte { return wire.AppendString(b, m.Reason) }

// Decode implements Body.
func (m *PeerBye) Decode(buf *wire.Buffer) error {
	m.Reason = buf.String()
	return buf.Err()
}

// PeerByeAck answers a PeerBye so the evicting side can close knowing
// the announcement was seen.
type PeerByeAck struct{}

// Code implements Body.
func (*PeerByeAck) Code() Code { return CodePeerByeAck }

// Encode implements Body.
func (m *PeerByeAck) Encode(b []byte) []byte { return b }

// Decode implements Body.
func (m *PeerByeAck) Decode(buf *wire.Buffer) error { return buf.Err() }

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

// Encode implements Body.
func (m *ProbeRequest) Encode(b []byte) []byte { return wire.AppendString(b, m.Target) }

// Decode implements Body.
func (m *ProbeRequest) Decode(buf *wire.Buffer) error {
	m.Target = buf.String()
	return buf.Err()
}

// ProbeReply answers a ProbeRequest: OK reports whether the confirmer
// reached the target.
type ProbeReply struct {
	Target string
	OK     bool
}

// Code implements Body.
func (*ProbeReply) Code() Code { return CodeProbeReply }

// Encode implements Body.
func (m *ProbeReply) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.Target)
	b = wire.AppendBool(b, m.OK)
	return b
}

// Decode implements Body.
func (m *ProbeReply) Decode(buf *wire.Buffer) error {
	m.Target = buf.String()
	m.OK = buf.Bool()
	return buf.Err()
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

// Encode implements Body.
func (m *FenceNotice) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.AppID)
	b = wire.AppendUint64(b, m.Epoch)
	b = wire.AppendUint32(b, uint32(len(m.Ranks)))
	for _, r := range m.Ranks {
		b = wire.AppendUint32(b, r)
	}
	return b
}

// Decode implements Body.
func (m *FenceNotice) Decode(buf *wire.Buffer) error {
	m.AppID = buf.String()
	m.Epoch = buf.Uint64()
	n := int(buf.Uint32())
	if err := buf.Err(); err != nil {
		return err
	}
	if n > buf.Remaining() {
		return wire.ErrTruncated
	}
	if n > 0 {
		m.Ranks = make([]uint32, n)
		for i := range m.Ranks {
			m.Ranks[i] = buf.Uint32()
		}
	}
	return buf.Err()
}

// FenceReply answers a FenceNotice; Killed counts the stale ranks the
// fence terminated.
type FenceReply struct {
	AppID  string
	Killed uint32
}

// Code implements Body.
func (*FenceReply) Code() Code { return CodeFenceReply }

// Encode implements Body.
func (m *FenceReply) Encode(b []byte) []byte {
	b = wire.AppendString(b, m.AppID)
	b = wire.AppendUint32(b, m.Killed)
	return b
}

// Decode implements Body.
func (m *FenceReply) Decode(buf *wire.Buffer) error {
	m.AppID = buf.String()
	m.Killed = buf.Uint32()
	return buf.Err()
}
