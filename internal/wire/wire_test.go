package wire

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	tests := []struct {
		name      string
		frameType byte
		payload   []byte
	}{
		{"empty", 0x01, nil},
		{"small", 0x02, []byte("hello grid")},
		{"binary", 0xFF, []byte{0, 1, 2, 255, 254}},
		{"large", 0x10, bytes.Repeat([]byte{0xAB}, 1<<20)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if err := w.WriteFrame(tt.frameType, tt.payload); err != nil {
				t.Fatalf("WriteFrame: %v", err)
			}
			r := NewReader(&buf)
			frame, err := r.ReadFrame()
			if err != nil {
				t.Fatalf("ReadFrame: %v", err)
			}
			if frame.Type != tt.frameType {
				t.Errorf("type = %#x, want %#x", frame.Type, tt.frameType)
			}
			if !bytes.Equal(frame.Payload, tt.payload) {
				t.Errorf("payload mismatch: got %d bytes, want %d", len(frame.Payload), len(tt.payload))
			}
		})
	}
}

func TestFrameSequence(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 100; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, i)
		if err := w.WriteFrame(byte(i), payload); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	r := NewReader(&buf)
	for i := 0; i < 100; i++ {
		frame, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if frame.Type != byte(i) || len(frame.Payload) != i {
			t.Fatalf("frame %d: type %d len %d", i, frame.Type, len(frame.Payload))
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Errorf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.WriteFrame(1, make([]byte, MaxPayload+1)); err != ErrFrameTooLarge {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{'X', 0x01, 0, 0, 0, 0}))
	if _, err := r.ReadFrame(); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestOversizeAdvertisedLength(t *testing.T) {
	// Header advertising > MaxPayload must be rejected before allocating.
	hdr := []byte{Magic, 0x01, 0xFF, 0xFF, 0xFF, 0xFF}
	r := NewReader(bytes.NewReader(hdr))
	if _, err := r.ReadFrame(); err != ErrFrameTooLarge {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFrame(7, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	// Chop the last two payload bytes.
	data := buf.Bytes()[:buf.Len()-2]
	r := NewReader(bytes.NewReader(data))
	if _, err := r.ReadFrame(); err == nil {
		t.Error("expected error reading truncated frame")
	}
}

func TestPrimitiveRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUint16(b, 0xBEEF)
	b = AppendUint32(b, 0xDEADBEEF)
	b = AppendUint64(b, 0x0123456789ABCDEF)
	b = AppendInt64(b, -42)
	b = AppendBytes(b, []byte{9, 8, 7})
	b = AppendString(b, "grid")
	b = AppendStringSlice(b, []string{"a", "", "ccc"})

	buf := NewBuffer(b)
	if got := buf.Uint16(); got != 0xBEEF {
		t.Errorf("Uint16 = %#x", got)
	}
	if got := buf.Uint32(); got != 0xDEADBEEF {
		t.Errorf("Uint32 = %#x", got)
	}
	if got := buf.Uint64(); got != 0x0123456789ABCDEF {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := buf.Int64(); got != -42 {
		t.Errorf("Int64 = %d", got)
	}
	if got := buf.Bytes(); !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := buf.String(); got != "grid" {
		t.Errorf("String = %q", got)
	}
	ss := buf.StringSlice()
	if len(ss) != 3 || ss[0] != "a" || ss[1] != "" || ss[2] != "ccc" {
		t.Errorf("StringSlice = %v", ss)
	}
	if err := buf.Err(); err != nil {
		t.Errorf("Err = %v", err)
	}
	if buf.Remaining() != 0 {
		t.Errorf("Remaining = %d", buf.Remaining())
	}
}

func TestBufferTruncation(t *testing.T) {
	buf := NewBuffer([]byte{0x01})
	_ = buf.Uint32()
	if buf.Err() != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", buf.Err())
	}
	// Subsequent reads keep returning zero values, not panicking.
	if got := buf.String(); got != "" {
		t.Errorf("String after error = %q", got)
	}
}

func TestStringSliceCorruptCount(t *testing.T) {
	// A count far larger than the remaining bytes must fail cleanly.
	b := AppendUint64(nil, math.MaxUint64)
	buf := NewBuffer(b)
	if ss := buf.StringSlice(); ss != nil {
		t.Errorf("got %v, want nil", ss)
	}
	if buf.Err() == nil {
		t.Error("expected error for corrupt count")
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string, p []byte, u uint64) bool {
		var b []byte
		b = AppendString(b, s)
		b = AppendBytes(b, p)
		b = AppendUint64(b, u)
		buf := NewBuffer(b)
		gotS := buf.String()
		gotP := buf.Bytes()
		gotU := buf.Uint64()
		return buf.Err() == nil && gotS == s && bytes.Equal(gotP, p) && gotU == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	// Arbitrary bytes fed to the decoder must error, not panic.
	f := func(data []byte) bool {
		buf := NewBuffer(data)
		_ = buf.String()
		_ = buf.StringSlice()
		_ = buf.Bytes()
		_ = buf.Uint64()
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
