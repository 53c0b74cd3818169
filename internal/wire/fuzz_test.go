package wire

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must never
// panic, never allocate beyond MaxPayload, and on valid input round-trip
// exactly.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	w := NewWriter(&seed)
	_ = w.WriteFrame(0x01, []byte("seed payload"))
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{Magic})
	f.Add([]byte{Magic, 0x13, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{'X', 0x01, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for {
			frame, err := r.ReadFrame()
			if err != nil {
				if err == io.EOF || err == ErrBadMagic || err == ErrFrameTooLarge {
					return
				}
				// Wrapped I/O errors are fine too.
				return
			}
			if len(frame.Payload) > MaxPayload {
				t.Fatalf("oversized payload accepted: %d", len(frame.Payload))
			}
		}
	})
}

// FuzzBufferDecode drives every Buffer decode method over arbitrary input.
func FuzzBufferDecode(f *testing.F) {
	var b []byte
	b = AppendString(b, "hello")
	b = AppendStringSlice(b, []string{"a", "b"})
	b = AppendUint64(b, 42)
	f.Add(b)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := NewBuffer(data)
		_ = buf.String()
		_ = buf.StringSlice()
		_ = buf.Bytes()
		_ = buf.Uint8()
		_ = buf.Uint16()
		_ = buf.Uint32()
		_ = buf.Uint64()
		if buf.Remaining() < 0 {
			t.Fatal("negative remaining")
		}
	})
}
