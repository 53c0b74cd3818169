package wire

import (
	"bytes"
	"sync"
	"testing"
)

func TestPayloadPoolSizes(t *testing.T) {
	for _, n := range []int{0, 1, 100, pooledPayloadCap} {
		p := GetPayload(n)
		if len(p) != n || cap(p) != pooledPayloadCap {
			t.Fatalf("GetPayload(%d): len %d cap %d", n, len(p), cap(p))
		}
		PutPayload(p)
	}
	for _, n := range []int{pooledPayloadCap + 1, 1 << 20, largePayloadCap} {
		p := GetPayload(n)
		if len(p) != n || cap(p) != largePayloadCap {
			t.Fatalf("GetPayload(%d): len %d cap %d", n, len(p), cap(p))
		}
		PutPayload(p)
	}
	big := GetPayload(largePayloadCap + 1)
	if len(big) != largePayloadCap+1 || cap(big) == largePayloadCap {
		t.Fatalf("oversize lease: len %d cap %d", len(big), cap(big))
	}
	// Oversize fallbacks and foreign slices are dropped, not pooled.
	PutPayload(big)
	PutPayload(make([]byte, 50))
	PutPayload(nil)
}

// TestPayloadPoolConcurrentReuse hammers lease/fill/verify/release from
// many goroutines under -race: a buffer handed back and re-leased
// elsewhere must never alias one still in use.
func TestPayloadPoolConcurrentReuse(t *testing.T) {
	const goroutines, rounds, size = 8, 200, 4096
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := bytes.Repeat([]byte{byte(g + 1)}, size)
			for i := 0; i < rounds; i++ {
				p := GetPayload(size)
				copy(p, want)
				if !bytes.Equal(p, want) {
					t.Errorf("goroutine %d round %d: buffer mutated while leased", g, i)
					return
				}
				PutPayload(p)
			}
		}(g)
	}
	wg.Wait()
}

// TestReadFramePooled verifies pooled reads decode identically to plain
// reads and that released payloads may be recycled across frames.
func TestReadFramePooled(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 50; i++ {
		if err := w.WriteFrame(byte(i), bytes.Repeat([]byte{byte(i)}, i*7)); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i := 0; i < 50; i++ {
		f, err := r.ReadFramePooled()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != byte(i) || len(f.Payload) != i*7 {
			t.Fatalf("frame %d: type %#x len %d", i, f.Type, len(f.Payload))
		}
		for _, b := range f.Payload {
			if b != byte(i) {
				t.Fatalf("frame %d: corrupt payload byte %#x", i, b)
			}
		}
		PutPayload(f.Payload)
	}
}
