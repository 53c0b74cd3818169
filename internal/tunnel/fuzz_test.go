package tunnel

import (
	"context"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// fuzzFrame appends one record of FuzzSessionFrames' input encoding: a
// selector byte (low nibble picks the frame type 0x10..0x1F — every
// defined tunnel frame plus five unknown ones — bit 6 the control lane,
// bit 5 the bond's second member connection instead of the primary), a
// length byte, and that many payload bytes.
func fuzzFrame(b []byte, selector byte, payload ...byte) []byte {
	return append(append(b, selector, byte(len(payload))), payload...)
}

// FuzzSessionFrames feeds arbitrary frame sequences into one end of a
// live two-connection session pair (toServer picks which), interleaved
// with the sessions' own traffic. Whatever arrives — SYN and SYNACK with
// any credit, DATA and FIN at duplicate, early or out-of-window sequences
// or for a stream whose SYN is still to come, WINDOW, BONDACK, PING, RST,
// unknown types, payloads too short to parse — a session may kill itself
// over it, but must not panic, must not deadlock (the input is processed,
// or the session is down, within the timeout), and must not buffer more
// than its memory clamp: MemBudget plus the earlyCredit the protocol owes
// each stream.
//
// Only one end is flooded per input; the other plays the peer that keeps
// reading.
func FuzzSessionFrames(f *testing.F) {
	const (
		syn, synack, rst, data = frameSYN &^ 0x10, frameSYNACK &^ 0x10, frameRST &^ 0x10, frameDATA &^ 0x10
		member1                = 0x20
	)
	stream := func(id byte, rest ...byte) []byte { return append([]byte{0, 0, 0, id}, rest...) }
	seq := func(id, n byte, payload string) []byte {
		return append(stream(id, 0, 0, 0, 0, 0, 0, 0, n), payload...)
	}
	var in []byte
	in = fuzzFrame(in, syn, append(stream(1, 0, 1, 0, 0), "meta"...)...)
	in = fuzzFrame(in, data, seq(1, 2, "early")...)
	in = fuzzFrame(in, data, seq(1, 0, "in order")...)
	in = fuzzFrame(in, data, seq(1, 0, "dup")...)
	in = fuzzFrame(in, frameFIN&^0x10, seq(1, 3, "")...)
	in = fuzzFrame(in, data, seq(1, 1, "fills the gap")...)
	in = fuzzFrame(in, frameWINDOW&^0x10, stream(1, 0, 0, 0x10, 0)...)
	in = fuzzFrame(in, 0x40|frameBONDACK&^0x10, 0, 0, 0, 0, 0, 0, 0, 0, 9)
	in = fuzzFrame(in, 0x40|framePING&^0x10, 1, 2, 3, 4, 5, 6, 7, 8)
	in = fuzzFrame(in, rst, stream(1)...)
	f.Add(true, in)
	f.Add(false, in)
	f.Add(true, fuzzFrame(nil, data, append(seq(1, 0xFF, ""), make([]byte, 200)...)...)) // out of window
	f.Add(true, fuzzFrame(nil, data, 0, 0))                                              // too short for an id
	f.Add(false, fuzzFrame(nil, 0x0F))                                                   // unknown type
	f.Add(true, fuzzFrame(nil, frameBONDJOIN&^0x10, make([]byte, 17)...))

	// Credit in SYN and SYNACK: none (raised to earlyCredit), more than
	// any window may be (cut to maxCredit), and too short to hold one.
	// Stream 1 is the honest one the client opened, so on the client a
	// SYNACK for it is a second one, and must not add credit again.
	in = fuzzFrame(nil, syn, stream(3, 0, 0, 0, 0)...)
	in = fuzzFrame(in, data, seq(3, 0, "counts against the floor")...)
	in = fuzzFrame(in, syn, stream(5, 0xFF, 0xFF, 0xFF, 0xFF)...)
	in = fuzzFrame(in, syn, stream(7, 0, 1)...)
	f.Add(true, in)
	in = fuzzFrame(nil, 0x40|synack, stream(1, 0xFF, 0xFF, 0xFF, 0xFF)...)
	in = fuzzFrame(in, 0x40|synack, stream(1, 0, 0, 0, 0)...)
	in = fuzzFrame(in, 0x40|synack, stream(1)...)
	f.Add(false, in)
	// DATA ahead of its SYN, on the primary and on the other member: it
	// is dropped, not parked, and the stream the SYN then opens starts
	// clean.
	for _, sel := range []byte{data, member1 | data} {
		in = fuzzFrame(nil, sel, seq(9, 0, "nobody home yet")...)
		in = fuzzFrame(in, syn, stream(9, 0, 1, 0, 0)...)
		in = fuzzFrame(in, sel, seq(9, 0, "now somebody is")...)
		f.Add(true, in)
	}
	// SYNACK and RST for ids nobody opened.
	in = fuzzFrame(nil, 0x40|synack, stream(11, 0, 1, 0, 0)...)
	in = fuzzFrame(in, 0x40|rst, stream(13)...)
	f.Add(true, in)
	f.Add(false, in)

	cfg := Config{
		Adaptive:      true,
		Window:        4 << 10,
		WindowMin:     4 << 10,
		WindowMax:     16 << 10,
		MemBudget:     32 << 10,
		MaxStreams:    8,
		AcceptBacklog: 8,
		ProbeInterval: time.Millisecond,
	}
	f.Fuzz(func(t *testing.T, toServer bool, input []byte) {
		client, server := bondedPair(t, 2, 0, cfg, -1)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// One honest stream, so there is live state on both ends to hit.
		if _, err := client.Open(ctx, nil); err != nil {
			t.Fatal(err)
		}
		from := server
		if toServer {
			from = client
		}
		within(t, "dispatch", func() {
			for len(input) >= 2 {
				selector, n := input[0], int(input[1])
				input = input[2:]
				payload := input[:min(n, len(input))]
				input = input[len(payload):]
				w := from.w
				if ms := from.liveMembers(); selector&0x20 != 0 && len(ms) > 1 {
					w = ms[1].w
				}
				write := w.WriteFrame
				if selector&0x40 != 0 {
					write = w.WriteControl
				}
				if write(0x10|selector&0x0F, payload) != nil && w == from.w {
					return // that end is down
				}
			}
			// A ping is answered only after everything before it on the
			// primary was dispatched; on a session that was killed it
			// fails at once.
			_ = client.Ping(ctx)
			_ = server.Ping(ctx)
		})
		clamp := cfg.MemBudget + int64(cfg.MaxStreams)*earlyCredit
		for _, s := range []*Session{client, server} {
			buffered := 0
			for _, st := range s.table.snapshot() {
				st.recvMu.Lock()
				buffered += st.recvBuf.Len() + st.oooBytes
				parked := len(st.ooo)
				st.recvMu.Unlock()
				if parked > earlyCredit {
					t.Fatalf("stream %d parks %d frames", st.id, parked)
				}
			}
			if int64(buffered) > clamp {
				t.Fatalf("session buffers %d bytes past its %d clamp", buffered, clamp)
			}
		}
		within(t, "close", func() {
			_ = client.Close()
			_ = server.Close()
		})
	})
}

// within fails the test, dumping all goroutines, unless fn returns in 4 s
// (twice that stays under the fuzz engine's own 10 s per-input limit,
// which kills the worker without a trace).
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(4 * time.Second):
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		t.Fatalf("session pair deadlocked in %s on fuzzed frames", what)
	}
}
