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
// defined tunnel frame plus five unknown ones — bit 6 the control lane),
// a length byte, and that many payload bytes.
func fuzzFrame(b []byte, selector byte, payload ...byte) []byte {
	return append(append(b, selector, byte(len(payload))), payload...)
}

// FuzzSessionFrames feeds arbitrary frame sequences into one end of a
// live session pair (toServer picks which), interleaved with the
// sessions' own traffic. Whatever arrives — SYN, DATA and FIN at
// duplicate, early or out-of-window sequences, WINDOW, BONDACK, PING, RST,
// unknown types, payloads too short to parse — a session may kill itself
// over it, but must not panic, must not deadlock (the input is processed,
// or the session is down, within the timeout), and must not buffer more
// than its memory budget.
//
// Only one end is flooded per input; the other plays the peer that keeps
// reading. A read loop answers PING and SYN synchronously, so flooding
// both ends at once wedges the pair: each stops reading while its peer's
// pipe is full. Two honest sessions cannot do that to each other —
// MaxStreams bounds the SYNs in flight and the prober paces the PINGs.
func FuzzSessionFrames(f *testing.F) {
	const data = frameDATA &^ 0x10 // a selector's low nibble is type - 0x10
	stream1 := []byte{0, 0, 0, 1}
	seq := func(n byte) []byte { return append(append([]byte(nil), stream1...), 0, 0, 0, 0, 0, 0, 0, n) }
	var in []byte
	in = fuzzFrame(in, frameSYN&^0x10, append(stream1, "meta"...)...)
	in = fuzzFrame(in, data, append(seq(2), "early"...)...)
	in = fuzzFrame(in, data, append(seq(0), "in order"...)...)
	in = fuzzFrame(in, data, append(seq(0), "dup"...)...)
	in = fuzzFrame(in, frameFIN&^0x10, seq(3)...)
	in = fuzzFrame(in, data, append(seq(1), "fills the gap"...)...)
	in = fuzzFrame(in, frameWINDOW&^0x10, append(stream1, 0, 0, 0x10, 0)...)
	in = fuzzFrame(in, 0x40|frameBONDACK&^0x10, 0, 0, 0, 0, 0, 0, 0, 0, 9)
	in = fuzzFrame(in, 0x40|framePING&^0x10, 1, 2, 3, 4, 5, 6, 7, 8)
	in = fuzzFrame(in, frameRST&^0x10, stream1...)
	f.Add(true, in)
	f.Add(false, in)
	f.Add(true, fuzzFrame(nil, data, append(seq(0xFF), make([]byte, 200)...)...)) // out of window
	f.Add(true, fuzzFrame(nil, data, 0, 0))                                       // too short for an id
	f.Add(false, fuzzFrame(nil, 0x0F))                                            // unknown type
	f.Add(true, fuzzFrame(nil, frameBONDJOIN&^0x10, make([]byte, 17)...))

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
		client, server := pair(t, cfg)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// One honest stream, so there is live state on both ends to hit.
		if _, err := client.Open(ctx, nil); err != nil {
			t.Fatal(err)
		}
		w := server.w
		if toServer {
			w = client.w
		}
		within(t, "dispatch", func() {
			for len(input) >= 2 {
				selector, n := input[0], int(input[1])
				input = input[2:]
				payload := input[:min(n, len(input))]
				input = input[len(payload):]
				write := w.WriteFrame
				if selector&0x40 != 0 {
					write = w.WriteControl
				}
				if write(0x10|selector&0x0F, payload) != nil {
					return // that end is down
				}
			}
			// A ping is answered only after everything before it was
			// dispatched; on a session that was killed it fails at once.
			_ = client.Ping(ctx)
			_ = server.Ping(ctx)
		})
		for _, s := range []*Session{client, server} {
			buffered := 0
			for _, st := range s.table.snapshot() {
				st.recvMu.Lock()
				buffered += st.recvBuf.Len() + st.oooBytes
				parked := len(st.ooo)
				st.recvMu.Unlock()
				if parked > cfg.Window {
					t.Fatalf("stream %d parks %d frames", st.id, parked)
				}
			}
			if int64(buffered) > cfg.MemBudget {
				t.Fatalf("session buffers %d bytes past its %d budget", buffered, cfg.MemBudget)
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
