package proto

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"gridproxy/internal/wire"
)

// inflatedCount ends prefix with a u32 count of every byte left in a
// payload of size bytes, and fills those bytes with 0xFF, which no
// element decodes from: the count claims far more than the payload holds.
func inflatedCount(prefix []byte, size int) []byte {
	p := wire.AppendUint32(prefix, uint32(size-len(prefix)-4))
	return append(p, bytes.Repeat([]byte{0xFF}, size-len(p))...)
}

// emptyElements encodes the body made by fill with as many empty elements
// as fit a payload of size bytes: each costs a byte or a few of payload
// but up to 192 bytes decoded.
func emptyElements(size int, fill func(n int) Body) []byte {
	empty := len(Append(nil, fill(0)))
	return Append(nil, fill((size-empty)/(len(Append(nil, fill(1)))-empty)))
}

// TestInflatedCountAllocBudget: a count read off the wire does not size
// an allocation, and elements the payload does carry decode only into as
// much memory as the message's decode budget allows. A 1 MiB payload whose
// slice count fills it decodes to an error, having allocated at most four
// times its size (when a decoder made room for the count first,
// GossipDelta's took 192 MiB; when it decoded every empty element,
// JobSubmit's took 33 MiB).
func TestInflatedCountAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	const size = 1 << 20
	reply := wire.AppendString(append(wire.AppendString(nil, "app-1"), 0), "") // app, !OK, reason
	for _, tc := range []struct {
		name    string
		code    Code
		payload []byte
	}{
		{"inflated GossipDelta", CodeGossipDelta, inflatedCount(wire.AppendString(nil, "b"), size)},
		{"inflated StatusReport", CodeStatusReport, inflatedCount(nil, size)},
		{"inflated MemberListReply", CodeMemberListReply, inflatedCount(nil, size)},
		{"inflated RegistryReply", CodeRegistryReply, inflatedCount(nil, size)},
		{"inflated JobListReply", CodeJobListReply, inflatedCount(nil, size)},
		{"inflated SpawnReply", CodeSpawnReply, inflatedCount(reply, size)},
		{"empty GossipDelta entries", CodeGossipDelta, emptyElements(size, func(n int) Body { return &GossipDelta{Entries: make([]GossipEntry, n)} })},
		{"empty JobSubmit args", CodeJobSubmit, emptyElements(size, func(n int) Body { return &JobSubmit{Args: make([]string, n)} })},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unmarshal(Message{Code: tc.code, Corr: 1, Payload: tc.payload})
		runtime.ReadMemStats(&after)
		allocated := after.TotalAlloc - before.TotalAlloc
		if err == nil {
			t.Errorf("%s decoded", tc.name)
		}
		if allocated > 4*size {
			t.Errorf("%s: a %d-byte payload allocated %d KiB", tc.name, len(tc.payload), allocated>>10)
		}
	}
}

// TestDecodeBudget: a message decodes as many elements as its budget
// covers, and one more is malformed.
func TestDecodeBudget(t *testing.T) {
	const floor = 1 << 20
	args := func(n int) *JobSubmit { return &JobSubmit{Args: make([]string, n)} }
	fits := floor / 16 // an empty string is one byte of payload, 16 of memory
	if body, err := Unmarshal(Marshal(1, args(fits))); err != nil || len(body.(*JobSubmit).Args) != fits {
		t.Fatalf("%d empty args: %v", fits, err)
	}
	if _, err := Unmarshal(Marshal(1, args(fits+1))); !errors.Is(err, ErrMalformed) {
		t.Fatalf("%d empty args: %v, want ErrMalformed", fits+1, err)
	}
	// Past the floor the budget is twice the payload: 8-byte strings take
	// 9 bytes of payload and 16 of memory, so any number of them fits.
	eight := make([]string, 3*floor/16)
	for i := range eight {
		eight[i] = "12345678"
	}
	if body, err := Unmarshal(Marshal(1, &JobSubmit{Args: eight})); err != nil || len(body.(*JobSubmit).Args) != len(eight) {
		t.Fatalf("%d 8-byte args: %v", len(eight), err)
	}
	// What a 1000-site grid's gossip carries at most: a digest of every
	// site, and a delta of every site's entry with its summary.
	sync, delta := &GossipSync{From: "site-0000", HasDigest: true}, &GossipDelta{}
	for i := 0; i < 1000; i++ {
		site := fmt.Sprintf("site-%04d", i)
		sync.Digest = append(sync.Digest, GossipDigestItem{Site: site, Incarnation: 3, Version: 9})
		delta.Entries = append(delta.Entries, GossipEntry{Site: site, Addr: "10.0.0.1:7100", Incarnation: 3, Version: 9, HasSummary: true,
			Summary: SiteStatus{Site: site, Nodes: 4, Hosted: []HostedProcs{{Origin: "site-0001", Procs: 2}, {Origin: "site-0002", Procs: 1}}}})
	}
	for _, body := range []Body{sync, delta} {
		if got, err := Unmarshal(Marshal(1, body)); err != nil || !reflect.DeepEqual(got, body) {
			t.Fatalf("%T of 1000 sites: %v", body, err)
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

// TestLongSliceRoundTrips: a slice of thousands of elements decodes
// whole.
func TestLongSliceRoundTrips(t *testing.T) {
	fence := &FenceNotice{AppID: "app", Epoch: 2}
	for r := uint32(0); r < 3*1024+1; r++ {
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

// TestKnownJobWordsAreShared: a job's state name and a detail the proxy
// gives every job decode as the one shared string, anything else as a
// copy of its own.
func TestKnownJobWordsAreShared(t *testing.T) {
	want := &JobListReply{Jobs: []JobRecord{
		{JobID: "j1", State: "done", Detail: "completed"},
		{JobID: "j2", State: "failed", Detail: "rank 0: boom"},
	}, Next: 3}
	got := new(JobListReply)
	if err := DecodeInto(got, Append(nil, want)); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v, %v", got, err)
	}
	shared := func(s string) bool {
		return slices.ContainsFunc(jobWords, func(w string) bool { return unsafe.StringData(w) == unsafe.StringData(s) })
	}
	if j := got.Jobs; !shared(j[0].State) || !shared(j[0].Detail) || !shared(j[1].State) || shared(j[1].Detail) || shared(j[1].JobID) {
		t.Errorf("decoded %+v: shared %v %v %v %v %v", j, shared(j[0].State), shared(j[0].Detail), shared(j[1].State), shared(j[1].Detail), shared(j[1].JobID))
	}
}
