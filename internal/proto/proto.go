// Package proto defines the inter-proxy control protocol of the grid.
//
// The paper (Section 3) standardizes control communication "through the
// creation of a protocol used among the proxies" whose codes "can be
// expanded to deal with a new situation". Accordingly this package keeps an
// open registry of message codes: every message is a (Code, CorrelationID,
// Payload) triple framed by package wire, and new codes can be registered
// by extensions without touching the dispatcher.
package proto

import (
	"errors"
	"fmt"
	"sync"

	"gridproxy/internal/wire"
)

// Code identifies a control-protocol message type. Codes below 0x1000 are
// reserved for the core protocol; extensions register codes at or above
// ExtensionBase.
type Code uint16

// ExtensionBase is the first Code available to protocol extensions.
const ExtensionBase Code = 0x1000

// Core protocol codes.
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

	// CodeSpawnRequest asks a proxy to start application processes on
	// nodes of its site (used by the MPI launcher).
	CodeSpawnRequest
	// CodeSpawnReply acknowledges a spawn, listing the endpoints of the
	// started processes.
	CodeSpawnReply

	// CodeStreamOpen asks the peer proxy to splice a new tunnel stream
	// to a node endpoint inside its site.
	CodeStreamOpen
	// CodeStreamOpenReply confirms or refuses the splice.
	CodeStreamOpenReply

	// CodeJobQuery asks for a job's current state; the reply is a
	// CodeJobUpdate.
	CodeJobQuery

	// CodeRegistryAnnounce advertises resources owned by a site.
	CodeRegistryAnnounce
	// CodeRegistryQuery looks resources up across the grid.
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
// carry small outputs inline.
const Version uint16 = 5

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
	// ErrUnknownCode indicates a message whose code has no registered
	// decoder.
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

// Body is implemented by every typed message body.
type Body interface {
	// Code returns the message code this body encodes as.
	Code() Code
	// Encode appends the body's wire form to b.
	Encode(b []byte) []byte
	// Decode parses the body from a wire buffer.
	Decode(buf *wire.Buffer) error
}

// registry maps codes to factory functions for decoding. Extensions add
// entries via Register.
var (
	registryMu sync.RWMutex
	registry   = make(map[Code]func() Body)
)

// Register associates a code with a Body factory so Decode can produce
// typed bodies. Registering a core code (below ExtensionBase) outside this
// package panics, as does double registration: both are programmer errors.
func Register(code Code, factory func() Body) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[code]; dup {
		panic(fmt.Sprintf("proto: duplicate registration for code %#x", uint16(code)))
	}
	registry[code] = factory
}

func registerCore(code Code, factory func() Body) {
	registry[code] = factory
}

// NewBody returns an empty Body for the given code, or ErrUnknownCode.
func NewBody(code Code) (Body, error) {
	registryMu.RLock()
	factory, ok := registry[code]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %#x", ErrUnknownCode, uint16(code))
	}
	return factory(), nil
}

// Marshal encodes a typed body into a Message with the given correlation
// id.
func Marshal(corr uint64, body Body) Message {
	return Message{Code: body.Code(), Corr: corr, Payload: body.Encode(nil)}
}

// Unmarshal decodes the payload of msg into its registered Body type.
func Unmarshal(msg Message) (Body, error) {
	body, err := NewBody(msg.Code)
	if err != nil {
		return nil, err
	}
	buf := wire.NewBuffer(msg.Payload)
	if err := body.Decode(buf); err != nil {
		return nil, fmt.Errorf("proto: decode code %#x: %w", uint16(msg.Code), err)
	}
	return body, nil
}

// frameTypeControl is the wire frame type used for control messages.
const frameTypeControl byte = 0x01

// WriteMessage frames and writes msg.
func WriteMessage(w *wire.Writer, msg Message) error {
	b := make([]byte, 0, 10+len(msg.Payload))
	b = wire.AppendUint16(b, uint16(msg.Code))
	b = wire.AppendUint64(b, msg.Corr)
	b = append(b, msg.Payload...)
	return w.WriteFrame(frameTypeControl, b)
}

// WriteBody frames body under corr and writes it, and returns the
// payload bytes written. Blob bytes a body carries go to the frame writer
// as a segment of their own, so they are copied once, into the writer's
// batch, and not also behind their header; every other body goes the way
// of WriteMessage.
func WriteBody(w *wire.Writer, corr uint64, body Body) (int, error) {
	t, ok := body.(tailed)
	if !ok {
		msg := Marshal(corr, body)
		return len(msg.Payload), WriteMessage(w, msg)
	}
	head := make([]byte, 0, 64)
	head = wire.AppendUint16(head, uint16(body.Code()))
	head = wire.AppendUint64(head, corr)
	head = t.encodeHead(head)
	tail := t.tail()
	return len(head) - 10 + len(tail), w.WriteFramev(frameTypeControl, head, tail)
}

// ReadMessage reads the next control message from r.
func ReadMessage(r *wire.Reader) (Message, error) {
	frame, err := r.ReadFrame()
	if err != nil {
		return Message{}, err
	}
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
