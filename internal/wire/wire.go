// Package wire implements the binary framing and primitive encoding shared
// by every gridproxy protocol (the inter-proxy control protocol, the tunnel
// multiplexer, and MPI message transport).
//
// A frame on the wire is:
//
//	+---------+---------+------------------+-------------------+
//	| magic   | type    | length (uint32)  | payload (length)  |
//	| 1 byte  | 1 byte  | big endian       | bytes             |
//	+---------+---------+------------------+-------------------+
//
// The magic byte guards against cross-protocol confusion (for example a raw
// application connecting to a control port). Length counts only the payload.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Magic is the first byte of every gridproxy frame ('G' for grid).
const Magic byte = 'G'

// Frame header geometry.
const (
	headerSize = 1 + 1 + 4

	// MaxPayload is the largest payload a frame may carry. Anything
	// larger must be segmented by the caller (the tunnel does this for
	// stream data).
	MaxPayload = 16 << 20 // 16 MiB
)

// Framing errors.
var (
	// ErrBadMagic indicates the peer is not speaking the gridproxy
	// framing protocol.
	ErrBadMagic = errors.New("wire: bad magic byte")
	// ErrFrameTooLarge indicates a frame advertised a payload larger
	// than MaxPayload.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum payload size")
	// ErrTruncated indicates a decode ran past the end of the buffer.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrStringTooLong indicates an encoded string exceeded its length
	// bound.
	ErrStringTooLong = errors.New("wire: string exceeds maximum length")
)

// Frame is a decoded frame: a protocol-specific type byte plus payload.
type Frame struct {
	Type    byte
	Payload []byte
}

// Reader reads frames from an underlying io.Reader. It is not safe for
// concurrent use; protocols own a single read loop per connection.
type Reader struct {
	br  *bufio.Reader
	hdr [headerSize]byte
}

// NewReader wraps r in a frame reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 32<<10)}
}

// Raw returns the underlying buffered reader. Protocols that switch from
// framed to raw byte mode after a handshake must continue reading through
// it, or bytes already buffered would be lost.
func (r *Reader) Raw() io.Reader { return r.br }

// ReadFrame reads the next frame. The returned payload is freshly
// allocated and owned by the caller.
func (r *Reader) ReadFrame() (Frame, error) {
	return r.readFrame(math.MaxInt)
}

// ReadFramePooled reads the next frame into a payload buffer leased from
// the package payload pool (when the frame fits; oversized frames fall back
// to a fresh allocation). Ownership of the payload transfers to the caller,
// who must hand it back with PutPayload exactly once when done with it —
// including on decode-and-drop paths. After PutPayload the slice contents
// may be overwritten by an unrelated frame at any time.
func (r *Reader) ReadFramePooled() (Frame, error) {
	return r.readFrame(0)
}

// ReadFramePooledFrom reads the next frame as ReadFramePooled does when
// its payload is at least min bytes long, and as ReadFrame does otherwise.
// PutPayload accepts either.
func (r *Reader) ReadFramePooledFrom(min int) (Frame, error) {
	return r.readFrame(min)
}

func (r *Reader) readFrame(poolFrom int) (Frame, error) {
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("wire: read header: %w", err)
	}
	if r.hdr[0] != magicByte {
		return Frame{}, ErrBadMagic
	}
	length := binary.BigEndian.Uint32(r.hdr[2:])
	if length > MaxPayload {
		return Frame{}, ErrFrameTooLarge
	}
	pooled := int(length) >= poolFrom
	var payload []byte
	if pooled {
		payload = GetPayload(int(length))
	} else {
		payload = make([]byte, length)
	}
	if _, err := io.ReadFull(r.br, payload); err != nil {
		if pooled {
			PutPayload(payload)
		}
		return Frame{}, fmt.Errorf("wire: read payload: %w", err)
	}
	return Frame{Type: r.hdr[1], Payload: payload}, nil
}

// magicByte aliases Magic for internal use.
const magicByte = Magic

// --- primitive encoding ------------------------------------------------
//
// Fixed-width big-endian integers and uvarint-length-prefixed byte
// strings, appended by the helpers below and read back through a *Buffer
// cursor, which detects truncation once at the end. The tunnel, staging,
// ticket and MPI layouts use them; control messages use the same
// primitives through package proto's codec.

// AppendUint16 appends v big-endian.
func AppendUint16(b []byte, v uint16) []byte {
	return append(b, byte(v>>8), byte(v))
}

// AppendUint32 appends v big-endian.
func AppendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendUint64 appends v big-endian.
func AppendUint64(b []byte, v uint64) []byte {
	return append(b,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendInt64 appends v big-endian (two's complement).
func AppendInt64(b []byte, v int64) []byte { return AppendUint64(b, uint64(v)) }

// AppendBytes appends a uvarint length prefix followed by p.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendString appends s with a uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendStringSlice appends a uvarint count followed by each string.
func AppendStringSlice(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// Buffer is a decode cursor over an encoded payload. Decode methods record
// the first error and subsequently return zero values, so callers check
// Err() once after reading all fields.
type Buffer struct {
	data []byte
	off  int
	err  error
}

// NewBuffer returns a cursor over data. The buffer does not copy data.
func NewBuffer(data []byte) *Buffer { return &Buffer{data: data} }

// Err returns the first decoding error encountered, or nil.
func (b *Buffer) Err() error { return b.err }

// Remaining returns the number of unread bytes.
func (b *Buffer) Remaining() int { return len(b.data) - b.off }

func (b *Buffer) fail() {
	if b.err == nil {
		b.err = ErrTruncated
	}
}

func (b *Buffer) take(n int) []byte {
	if b.err != nil {
		return nil
	}
	if n < 0 || b.off+n > len(b.data) {
		b.fail()
		return nil
	}
	p := b.data[b.off : b.off+n]
	b.off += n
	return p
}

// Uint8 decodes a single byte.
func (b *Buffer) Uint8() uint8 {
	p := b.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Uint16 decodes a big-endian uint16.
func (b *Buffer) Uint16() uint16 {
	p := b.take(2)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint16(p)
}

// Uint32 decodes a big-endian uint32.
func (b *Buffer) Uint32() uint32 {
	p := b.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

// Uint64 decodes a big-endian uint64.
func (b *Buffer) Uint64() uint64 {
	p := b.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

// Int64 decodes a big-endian int64.
func (b *Buffer) Int64() int64 { return int64(b.Uint64()) }

// Bytes decodes a uvarint-prefixed byte string. The returned slice is a
// copy and is owned by the caller.
func (b *Buffer) Bytes() []byte {
	n := b.uvarint()
	p := b.take(n)
	if p == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

// String decodes a uvarint-prefixed string.
func (b *Buffer) String() string {
	n := b.uvarint()
	p := b.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}

// StringSlice decodes a uvarint count followed by that many strings.
func (b *Buffer) StringSlice() []string {
	n := b.uvarint()
	if b.err != nil {
		return nil
	}
	// Guard against absurd counts from corrupted input: each string needs
	// at least one length byte.
	if n > b.Remaining() {
		b.fail()
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, b.String())
	}
	if b.err != nil {
		return nil
	}
	return out
}

func (b *Buffer) uvarint() int {
	if b.err != nil {
		return 0
	}
	v, n := binary.Uvarint(b.data[b.off:])
	if n <= 0 || v > math.MaxInt32 {
		b.fail()
		return 0
	}
	b.off += n
	return int(v)
}
