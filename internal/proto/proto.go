// Package proto defines the inter-proxy control protocol of the grid.
//
// The paper (Section 3) standardizes control communication "through the
// creation of a protocol used among the proxies" whose codes "can be
// expanded to deal with a new situation". Accordingly every message is a
// (Code, CorrelationID, Payload) triple framed by package wire, and the
// codes index one table of message bodies: a new code is one more
// constant and one more row of that table, without touching the
// dispatcher. Each body states its layout once, as a walk over its fields
// that encodes and decodes it (see codec).
package proto

import (
	"errors"
	"fmt"
	"sync"

	"gridproxy/internal/wire"
)

// Code identifies a control-protocol message type.
type Code uint16

// Protocol codes. A retired code keeps its number, as "_".
const (
	CodeInvalid Code = iota
	// CodeHello opens a proxy-to-proxy session: announces site name,
	// protocol version and capabilities.
	CodeHello
	// CodeHelloAck accepts a Hello.
	CodeHelloAck
	// CodeError reports a protocol-level failure, correlated to the
	// request that caused it.
	CodeError
	// CodePing and CodePong implement liveness probing.
	CodePing
	CodePong

	// CodeAuthRequest carries user credentials (password proof and/or
	// digital signature) for validation at the destination proxy.
	CodeAuthRequest
	// CodeAuthReply reports the authentication verdict and, on success,
	// a session token.
	CodeAuthReply
	// CodePermCheck asks the destination proxy to validate an access
	// permission for an authenticated user (the paper validates
	// permissions at both originating and destination proxies).
	CodePermCheck
	// CodePermReply answers a CodePermCheck.
	CodePermReply
	// CodeTicketRequest asks the ticket service for a session ticket.
	CodeTicketRequest
	// CodeTicketReply returns a session ticket.
	CodeTicketReply

	// CodeStatusQuery asks a proxy for its site's compiled status.
	CodeStatusQuery
	// CodeStatusReport carries a site status summary.
	CodeStatusReport
	// CodeNodeReport carries one node's raw stats (node agent to its
	// site proxy).
	CodeNodeReport

	// CodeJobSubmit submits a job for scheduling at a site.
	CodeJobSubmit
	// CodeJobUpdate reports job state transitions.
	CodeJobUpdate

	_ // retired in protocol 6 (single-phase spawn); number kept reserved
	// CodeSpawnReply answers a CommitSpawn, listing the endpoints of the
	// started processes.
	CodeSpawnReply

	// CodeStreamOpen asks the peer proxy to splice a new tunnel stream
	// to a rank (or, for a tunnel application, an endpoint) inside its
	// site.
	CodeStreamOpen
	// CodeStreamOpenReply confirms or refuses the splice.
	CodeStreamOpenReply

	// CodeJobQuery asks for a job's current state; the reply is a
	// CodeJobUpdate.
	CodeJobQuery

	_ // retired in protocol 6 (inventory announcement); number kept reserved
	// CodeRegistryQuery asks a proxy for the resources of one site, which
	// that site's proxy answers from its own nodes.
	CodeRegistryQuery
	// CodeRegistryReply answers a registry query.
	CodeRegistryReply

	// CodePrepareSpawn reserves an application's address space and rank
	// assignments at a destination site without starting processes —
	// phase one of the atomic two-phase launch.
	CodePrepareSpawn
	// CodePrepareSpawnReply answers a PrepareSpawn.
	CodePrepareSpawnReply
	// CodeCommitSpawn starts the ranks reserved by a PrepareSpawn; the
	// reply is a CodeSpawnReply listing the spawned endpoints.
	CodeCommitSpawn
	// CodeAbortSpawn tears a prepared or running application down at a
	// destination site (launch abort, cancellation). Idempotent: aborting
	// an unknown application succeeds.
	CodeAbortSpawn
	// CodeAbortSpawnReply answers an AbortSpawn.
	CodeAbortSpawnReply
	// CodeJobCancel asks the origin proxy to cancel a job (client API);
	// the reply is a CodeJobUpdate with the terminal state.
	CodeJobCancel
	// CodeJobList asks a proxy for its job table (client API).
	CodeJobList
	// CodeJobListReply answers a JobList.
	CodeJobListReply

	// CodeStagePut stores a blob in the proxy's content-addressed store
	// (client API); the reply names the content hash.
	CodeStagePut
	// CodeStagePutReply answers a StagePut.
	CodeStagePutReply
	// CodeStageGet fetches a blob from the proxy's store (client API).
	CodeStageGet
	// CodeStageGetReply answers a StageGet.
	CodeStageGetReply
	// CodeStageStat asks whether a blob is held and how large it is.
	CodeStageStat
	// CodeStageStatReply answers a StageStat.
	CodeStageStatReply

	// CodeGossipSync carries one membership gossip exchange: the sender's
	// hot directory entries, optionally with a digest requesting an
	// anti-entropy delta of everything the receiver knows better.
	CodeGossipSync
	// CodeGossipDelta answers a GossipSync with directory entries the
	// receiver holds newer versions of.
	CodeGossipDelta
	// CodeMemberList asks a proxy for its membership directory (client
	// API).
	CodeMemberList
	// CodeMemberListReply answers a MemberList.
	CodeMemberListReply
	// CodePeerBye announces an intentional teardown of the session it
	// arrives on (cache eviction, idle close, shutdown), so the receiver
	// does not read the imminent close as site failure. With on-demand
	// dialing, tunnels are disposable and only the membership directory
	// rules on liveness; an unannounced close stays direct death
	// evidence.
	CodePeerBye
	// CodePeerByeAck answers a PeerBye.
	CodePeerByeAck

	// CodeProbeRequest asks a peer to confirm whether it can reach a
	// third site — the indirect probe that runs before a failed direct
	// contact escalates into membership suspicion, so one broken path
	// does not put a live site on trial.
	CodeProbeRequest
	// CodeProbeReply answers a ProbeRequest with the confirmer's verdict.
	CodeProbeReply
	// CodeFenceNotice tells a destination that every rank of an
	// application below the carried launch epoch has been rescheduled
	// elsewhere and must be killed — the split-brain fence that stops a
	// healed partition from double-running ranks.
	CodeFenceNotice
	// CodeFenceReply answers a FenceNotice.
	CodeFenceReply
)

// Version is the protocol version spoken by this build. It covers the
// tunnel's frame layouts as well as the control messages: 3 put the
// initial credit into SYN and SYNACK and the learned window into
// MemberInfo; 4 moves blobs between client and proxy in chunks (StagePut,
// StageGetReply) and checks transfer chunks with CRC-32C; 5 lets a
// CommitSpawn say it left unconfirmed, behind its prepare, and a JobUpdate
// carry small outputs inline; 6 drops the inventory announcement, lets
// each site place its own ranks (PrepareSpawn and an MPI StreamOpen name
// ranks, not nodes) and adds speed and hosted ranks to SiteStatus.
const Version uint16 = 6

// Message is one control-protocol exchange unit.
type Message struct {
	// Code selects the payload type.
	Code Code
	// Corr correlates replies to requests. Requests carry a fresh
	// nonzero value; replies echo it.
	Corr uint64
	// Payload is the encoded message body.
	Payload []byte
}

// Protocol errors.
var (
	// ErrUnknownCode indicates a message whose code has no row in the
	// table of bodies.
	ErrUnknownCode = errors.New("proto: unknown message code")
	// ErrVersionMismatch indicates the peer speaks an incompatible
	// protocol version.
	ErrVersionMismatch = errors.New("proto: protocol version mismatch")
	// ErrMalformed reports a body whose fields decoded but contradict
	// each other (a chunk that names more bytes than it carries, a
	// negative offset). The blob layouts of earlier protocol versions fail
	// this way rather than decoding as something shorter.
	ErrMalformed = errors.New("proto: malformed message body")
)

// Body is implemented by every typed message body: the types below, one
// per code, each listed in table.
type Body interface {
	// Code returns the message code this body encodes as.
	Code() Code
	// fields walks the body's fields in wire order.
	fields(c *codec)
}

// Append appends body's payload to b.
func Append(b []byte, body Body) []byte {
	head, tail := encode(b, body)
	return append(head, tail...)
}

// DecodeInto decodes payload into body, which should be empty: a field
// an older layout leaves out keeps the value body held. Blob bytes the
// body carries alias payload.
func DecodeInto(body Body, payload []byte) error {
	c := codecs.Get().(*codec)
	c.b, c.decode, c.budget = payload, true, decodeBudget(len(payload))
	body.fields(c)
	err := c.err
	*c = codec{}
	codecs.Put(c)
	if err == errEnded {
		err = nil
	}
	if checked, ok := body.(interface{ check() error }); ok && err == nil {
		return checked.check()
	}
	return err
}

// encode appends body's payload to b, all but the blob bytes a Tail
// leaves for the end, which it returns as they are.
func encode(b []byte, body Body) (head, tail []byte) {
	c := codecs.Get().(*codec)
	c.b = b
	body.fields(c)
	head = c.b
	if c.tail != nil {
		tail = *c.tail
	}
	*c = codec{}
	codecs.Put(c)
	return head, tail
}

// codecs recycles walks: a codec passed to a body's fields escapes, and
// a control message is too small for its own allocation to be noise.
var codecs = sync.Pool{New: func() any { return new(codec) }}

// Marshal encodes a typed body into a Message with the given correlation
// id.
func Marshal(corr uint64, body Body) Message {
	return Message{Code: body.Code(), Corr: corr, Payload: Append(make([]byte, 0, 64), body)}
}

// Unmarshal decodes the payload of msg into its Body type.
func Unmarshal(msg Message) (Body, error) {
	if int(msg.Code) >= len(table) || table[msg.Code] == nil {
		return nil, fmt.Errorf("%w: %#x", ErrUnknownCode, uint16(msg.Code))
	}
	body := table[msg.Code]()
	if err := DecodeInto(body, msg.Payload); err != nil {
		return nil, fmt.Errorf("proto: decode code %#x: %w", uint16(msg.Code), err)
	}
	return body, nil
}

// frameTypeControl is the wire frame type used for control messages.
const frameTypeControl byte = 0x01

// WriteMessage frames and writes msg.
func WriteMessage(w *wire.Writer, msg Message) error {
	head := wire.AppendUint64(wire.AppendUint16(make([]byte, 0, 10), uint16(msg.Code)), msg.Corr)
	return w.WriteFramev(frameTypeControl, head, msg.Payload)
}

// WriteBody frames body under corr and writes it, and returns the
// payload bytes written. The body is encoded into a pooled buffer, which
// the frame writer copies into its batch; blob bytes a body carries go to
// the frame writer as a segment of their own, so they are copied once,
// into the batch, and not also behind their header.
func WriteBody(w *wire.Writer, corr uint64, body Body) (int, error) {
	buf := encodeBufs.Get().(*[]byte)
	head, tail := encode(wire.AppendUint64(wire.AppendUint16((*buf)[:0], uint16(body.Code())), corr), body)
	err := w.WriteFramev(frameTypeControl, head, tail)
	if *buf = head; cap(head) <= 64<<10 { // a larger one is rare: not kept
		encodeBufs.Put(buf)
	}
	return len(head) - 10 + len(tail), err
}

var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// ReadMessage reads the next control message from r.
func ReadMessage(r *wire.Reader) (Message, error) {
	frame, err := r.ReadFrame()
	if err != nil {
		return Message{}, err
	}
	return FrameMessage(frame)
}

// PeekCode returns the code of the control message r holds next, without
// consuming the message or reading its payload.
func PeekCode(r *wire.Reader) (Code, error) {
	typ, head, err := r.Peek(2)
	if err != nil {
		return CodeInvalid, err
	}
	if typ != frameTypeControl {
		return CodeInvalid, fmt.Errorf("proto: unexpected frame type %#x", typ)
	}
	return Code(wire.NewBuffer(head).Uint16()), nil
}

// FrameMessage decodes the control message frame carries. Its Payload
// aliases the frame's.
func FrameMessage(frame wire.Frame) (Message, error) {
	if frame.Type != frameTypeControl {
		return Message{}, fmt.Errorf("proto: unexpected frame type %#x", frame.Type)
	}
	if len(frame.Payload) < 10 {
		return Message{}, wire.ErrTruncated
	}
	buf := wire.NewBuffer(frame.Payload)
	msg := Message{
		Code: Code(buf.Uint16()),
		Corr: buf.Uint64(),
	}
	msg.Payload = frame.Payload[10:]
	return msg, buf.Err()
}
