package proto

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"gridproxy/internal/wire"
)

// inflatedCount ends prefix with a u32 count of every byte left in a
// payload of size bytes, and fills those bytes with 0xFF, which no
// element decodes from: the count claims far more than the payload holds.
func inflatedCount(prefix []byte, size int) []byte {
	p := wire.AppendUint32(prefix, uint32(size-len(prefix)-4))
	return append(p, bytes.Repeat([]byte{0xFF}, size-len(p))...)
}

// TestInflatedCountAllocBudget: a count read off the wire does not size
// an allocation. A 1 MiB payload whose slice count fills it decodes to an
// error, having allocated at most four times its size (when a decoder made
// room for the count first, GossipDelta's took 192 MiB).
func TestInflatedCountAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	const size = 1 << 20
	reply := wire.AppendString(append(wire.AppendString(nil, "app-1"), 0), "") // app, !OK, reason
	for code, payload := range map[Code][]byte{
		CodeGossipDelta:     inflatedCount(wire.AppendString(nil, "b"), size),
		CodeStatusReport:    inflatedCount(nil, size),
		CodeMemberListReply: inflatedCount(nil, size),
		CodeRegistryReply:   inflatedCount(nil, size),
		CodeJobListReply:    inflatedCount(nil, size),
		CodeSpawnReply:      inflatedCount(reply, size),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unmarshal(Message{Code: code, Corr: 1, Payload: payload})
		runtime.ReadMemStats(&after)
		allocated := after.TotalAlloc - before.TotalAlloc
		if err == nil {
			t.Errorf("code %#x: an inflated count decoded", uint16(code))
		}
		if allocated > 4*size {
			t.Errorf("code %#x: a %d-byte payload allocated %d bytes", uint16(code), size, allocated)
		}
	}
}

// BenchmarkMarshalUnmarshal encodes and decodes every sample once per op.
func BenchmarkMarshalUnmarshal(b *testing.B) {
	bodies := allBodies()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			if _, err := Unmarshal(Marshal(1, body)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestLongSliceRoundTrips: a slice longer than the room made for it before
// its elements decode grows to hold them all.
func TestLongSliceRoundTrips(t *testing.T) {
	fence := &FenceNotice{AppID: "app", Epoch: 2}
	for r := uint32(0); r < 3*maxPrealloc+1; r++ {
		fence.Ranks = append(fence.Ranks, r)
	}
	body, err := Unmarshal(Marshal(1, fence))
	if err != nil {
		t.Fatal(err)
	}
	if got := body.(*FenceNotice); !reflect.DeepEqual(got, fence) {
		t.Errorf("%d ranks decoded as %d", len(fence.Ranks), len(got.Ranks))
	}
}

// TestConcurrentWalks: walks from a shared pool, over bodies shared by
// several goroutines, encode every sample to its one layout.
func TestConcurrentWalks(t *testing.T) {
	bodies := allBodies()
	want := make([][]byte, len(bodies))
	for i, body := range bodies {
		want[i] = Append(nil, body)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, body := range bodies {
					msg := Marshal(1, body)
					if _, err := Unmarshal(msg); err != nil || !bytes.Equal(msg.Payload, want[i]) {
						t.Errorf("%T: %v, or %x is not %x", body, err, msg.Payload, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
