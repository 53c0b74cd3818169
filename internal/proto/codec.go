package proto

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"unsafe"

	"gridproxy/internal/wire"
)

// codec walks a body's fields in wire order, appending each to a payload
// (encoding) or reading it out of one (decoding). Each body states its
// layout once, in its fields method, and the same walk serves both
// directions. A decoding walk keeps its first failure and turns every
// later read into a no-op, so the caller looks at the error once, at the
// end. Encoding never writes to the body, so one body may be encoded by
// several goroutines at once.
//
// Three layout rules live here and nowhere else:
//   - a counted slice is a count and then each element; decoding makes
//     room for all of them at once, but only once the payload is known to
//     hold a byte per element (else ErrTruncated) and the message's
//     decodeBudget to cover their memory (else ErrMalformed);
//   - a tail is "n u32 | n bytes" ending the payload exactly; decoding
//     aliases the bytes, and WriteBody hands them to the frame writer as
//     a segment of their own;
//   - Optional marks where an older, shorter layout may end: a payload
//     that ends there decodes with the fields after it zero.
type codec struct {
	b   []byte // encoding: the payload so far; decoding: the payload
	off int    // decoding: bytes read so far
	err error  // decoding: the first failure, or errEnded
	// tail is, when encoding, the blob bytes Tail left for the end: Append
	// copies them behind the rest, WriteBody hands them over as they are.
	tail   *[]byte
	decode bool
	budget int // decoding: the bytes of slice elements still allowed
}

// errEnded stops a decoding walk at an Optional mark the payload ends at.
var errEnded = errors.New("proto: payload ended at an optional field")

// decodeBudget is the memory of slice elements one message may decode
// into, 1 MiB or twice its payload: else 1 MiB of empty strings decodes
// into 16 MiB. A 1000-site grid's largest delta takes a quarter; one of
// over ~5 000 entries without summaries (48 B on the wire, 192 in memory)
// is refused.
func decodeBudget(payload int) int { return max(1<<20, 2*payload) }

func (c *codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.b)-c.off {
		c.err = wire.ErrTruncated
		return nil
	}
	p := c.b[c.off : c.off+n]
	c.off += n
	return p
}

// Uint8 walks one byte.
func (c *codec) Uint8(v *uint8) {
	if !c.decode {
		c.b = append(c.b, *v)
	} else if p := c.take(1); p != nil {
		*v = p[0]
	}
}

// Uint16 walks a big-endian uint16.
func (c *codec) Uint16(v *uint16) {
	if !c.decode {
		c.b = binary.BigEndian.AppendUint16(c.b, *v)
	} else if p := c.take(2); p != nil {
		*v = binary.BigEndian.Uint16(p)
	}
}

// Uint32 walks a big-endian uint32.
func (c *codec) Uint32(v *uint32) {
	if !c.decode {
		c.b = binary.BigEndian.AppendUint32(c.b, *v)
	} else if p := c.take(4); p != nil {
		*v = binary.BigEndian.Uint32(p)
	}
}

// Uint64 walks a big-endian uint64.
func (c *codec) Uint64(v *uint64) {
	if !c.decode {
		c.b = binary.BigEndian.AppendUint64(c.b, *v)
	} else if p := c.take(8); p != nil {
		*v = binary.BigEndian.Uint64(p)
	}
}

// Int64 walks a big-endian two's-complement int64.
func (c *codec) Int64(v *int64) {
	u := uint64(*v)
	if c.Uint64(&u); c.decode {
		*v = int64(u)
	}
}

// Float64 walks the big-endian IEEE-754 bits of a float64.
func (c *codec) Float64(v *float64) {
	u := math.Float64bits(*v)
	if c.Uint64(&u); c.decode {
		*v = math.Float64frombits(u)
	}
}

// Bool walks one byte, 0 or 1; decoding reads any nonzero byte as true.
func (c *codec) Bool(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	if c.Uint8(&u); c.decode {
		*v = u != 0
	}
}

// Flag walks a bool that must be 0 or 1: decoding refuses any other byte
// as ErrMalformed.
func (c *codec) Flag(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	if c.Uint8(&u); c.decode {
		*v = u == 1
		if u > 1 {
			c.fail(ErrMalformed)
		}
	}
}

// length walks a uvarint length or count.
func (c *codec) length(n int) int {
	if !c.decode {
		c.b = binary.AppendUvarint(c.b, uint64(n))
		return n
	}
	if c.err != nil {
		return 0
	}
	v, k := binary.Uvarint(c.b[c.off:])
	if k <= 0 || v > math.MaxInt32 {
		c.fail(wire.ErrTruncated)
		return 0
	}
	c.off += k
	return int(v)
}

// String walks a uvarint-prefixed string.
func (c *codec) String(v *string) { c.Word(v, nil) }

// Word walks a string that is usually one of words: decoding one of them
// shares that word rather than allocating a copy of it.
func (c *codec) Word(v *string, words []string) {
	n := c.length(len(*v))
	if !c.decode {
		c.b = append(c.b, *v...)
		return
	}
	p := c.take(n)
	i := slices.IndexFunc(words, func(w string) bool { return string(p) == w })
	switch {
	case c.err != nil:
	case i >= 0:
		*v = words[i]
	default:
		*v = string(p)
	}
}

// Bytes walks a uvarint-prefixed byte string. Decoding copies it out of
// the payload.
func (c *codec) Bytes(v *[]byte) {
	n := c.length(len(*v))
	if !c.decode {
		c.b = append(c.b, *v...)
	} else if p := c.take(n); c.err == nil {
		*v = make([]byte, n)
		copy(*v, p)
	}
}

// Strings walks a uvarint count and then each string.
func (c *codec) Strings(v *[]string) {
	elements(c, v, c.length(len(*v)), str)
}

// Tail walks the "n u32 | n bytes" run that ends a body carrying blob
// bytes. Decoding refuses a run longer than StageChunk, or one that does
// not end the payload exactly, as ErrMalformed; the bytes it returns
// alias the payload.
func (c *codec) Tail(v *[]byte) {
	n := uint32(len(*v))
	c.Uint32(&n)
	switch {
	case !c.decode:
		c.tail = v
	case c.err != nil:
	case n > StageChunk || int(n) != len(c.b)-c.off:
		c.err = ErrMalformed
	default:
		*v = c.take(int(n))
	}
}

// Optional marks where an older, shorter layout of the body ends: a
// payload that ends here decodes with the fields after the mark zero.
func (c *codec) Optional() {
	if c.decode && c.err == nil && c.off == len(c.b) {
		c.err = errEnded
	}
}

// slice walks a counted slice: a u32 count, then each element by f.
func slice[T any](c *codec, s *[]T, f func(*T, *codec)) {
	n := uint32(len(*s))
	c.Uint32(&n)
	elements(c, s, int(n), f)
}

// elements walks the n elements of a counted slice. Every element takes
// at least a byte, so a count above the bytes left is truncation, and
// one whose elements the budget does not cover is malformed, both before
// anything is allocated.
func elements[T any](c *codec, s *[]T, n int, f func(*T, *codec)) {
	if !c.decode {
		for i := range *s {
			f(&(*s)[i], c)
		}
		return
	}
	if c.err != nil || n == 0 {
		return
	}
	if n > len(c.b)-c.off {
		c.fail(wire.ErrTruncated)
		return
	}
	var zero T
	size := int(unsafe.Sizeof(zero))
	if n > c.budget/size {
		c.fail(ErrMalformed)
		return
	}
	c.budget -= n * size
	out := make([]T, n)
	for i := 0; i < n && c.err == nil; i++ {
		f(&out[i], c)
	}
	*s = out
}

func u32(v *uint32, c *codec) { c.Uint32(v) }

func str(v *string, c *codec) { c.String(v) }
