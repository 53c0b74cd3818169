package tunnel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"gridproxy/internal/transport"
	"gridproxy/internal/wire"
)

// TestEarlyOpenOneRoundTrip: over a link with one-way delay d, Open costs
// no round trip, and a request written right behind it is answered one
// round trip after the Open began (two when Open waited for the SYNACK).
func TestEarlyOpenOneRoundTrip(t *testing.T) {
	const d = 50 * time.Millisecond
	client, server := pairOver(t, Config{}, Config{}, transport.LinkParams{OneWay: d})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	go func() {
		st, err := server.Accept(ctx)
		if err != nil {
			return
		}
		req := make([]byte, 4)
		if _, err := io.ReadFull(st, req); err == nil {
			_, _ = st.Write(bytes.ToUpper(req))
		}
	}()

	start := time.Now()
	st, err := client.Open(ctx, []byte("meta"))
	if err != nil {
		t.Fatal(err)
	}
	if opened := time.Since(start); opened > d/2 {
		t.Errorf("Open took %v on a link with %v one-way delay: it waited for the peer", opened, d)
	}
	if _, err := st.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 4)
	if _, err := io.ReadFull(st, reply); err != nil {
		t.Fatal(err)
	}
	if string(reply) != "PING" {
		t.Fatalf("reply %q", reply)
	}
	if took := time.Since(start); took < 2*d || took > 3*d {
		t.Errorf("open + request + reply took %v, want one round trip (%v) and under 1.5", took, 2*d)
	}
}

// TestEarlyOpenRefusalSurfacesOnFirstIO: Open cannot report a refusal any
// more, so the stream's first Read does, every Write after it does, and
// the opener's table forgets the stream. Both ways an acceptor refuses.
func TestEarlyOpenRefusalSurfacesOnFirstIO(t *testing.T) {
	for name, scfg := range map[string]Config{
		"backlog full": {AcceptBacklog: 1},
		"max streams":  {MaxStreams: 1},
	} {
		t.Run(name, func(t *testing.T) {
			client, _ := pairOver(t, Config{}, scfg, transport.LinkParams{})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			// Nobody accepts: the first stream takes the acceptor's only
			// slot, the second is refused.
			if _, err := client.Open(ctx, nil); err != nil {
				t.Fatal(err)
			}
			st, err := client.Open(ctx, nil)
			if err != nil {
				t.Fatalf("Open reported %v; a refusal belongs to the first I/O", err)
			}
			if _, err := st.Write([]byte("rides behind the SYN")); err != nil {
				t.Fatalf("write before the verdict: %v", err)
			}
			if _, err := st.Read(make([]byte, 1)); !errors.Is(err, ErrStreamRefused) {
				t.Fatalf("first read = %v, want ErrStreamRefused", err)
			}
			if _, err := st.Write([]byte("x")); !errors.Is(err, ErrStreamRefused) {
				t.Fatalf("write after the RST = %v, want ErrStreamRefused", err)
			}
			if client.table.get(st.id) != nil || client.NumStreams() != 1 {
				t.Fatalf("refused stream still in the table (%d streams)", client.NumStreams())
			}
		})
	}
}

// TestEarlyOpenBondedNoOvertake is the hazard zero-RTT open creates on a
// wide bond: the SYN rides the primary, DATA is sprayed over all members,
// and the far end drops DATA for a stream it has not heard of. 500 streams
// are opened and written at once over k = 4; every byte and every FIN must
// arrive, in order. It fails (streams lose their head and never reach EOF)
// if a stream's frames may leave the primary before its SYNACK.
func TestEarlyOpenBondedNoOvertake(t *testing.T) {
	const streams = 500
	cfg := Config{AcceptBacklog: streams}
	client, server := bondedPair(t, 4, 50*time.Microsecond, cfg, -1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Three frames' worth, so a stream's tail is still being written when
	// its SYNACK lands and the spray widens mid-stream.
	body := func(i int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("stream %03d|", i)), 2*maxSegment/11+i)
	}
	errs := make(chan error, 2*streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			st, err := client.Open(ctx, wire.AppendUint32(nil, uint32(i)))
			if err == nil {
				_, err = st.Write(body(i))
			}
			if err == nil {
				err = st.CloseWrite()
			}
			if err != nil {
				errs <- fmt.Errorf("opener %d: %w", i, err)
			}
		}(i)
		go func() {
			defer wg.Done()
			st, err := server.Accept(ctx)
			if err != nil {
				errs <- fmt.Errorf("accept: %w", err)
				return
			}
			i := int(wire.NewBuffer(st.Meta()).Uint32())
			_ = st.SetReadDeadline(time.Now().Add(20 * time.Second))
			got, err := io.ReadAll(st)
			if err != nil {
				errs <- fmt.Errorf("stream %d: read %d bytes, then %w", i, len(got), err)
			} else if !bytes.Equal(got, body(i)) {
				errs <- fmt.Errorf("stream %d: got %d bytes, want %d", i, len(got), len(body(i)))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestInitialCreditIsTheLearnedWindow: a fresh stream's peer may send, before
// any WINDOW frame exists, what the opener's session has learned — or
// exactly the configured window on a static session.
func TestInitialCreditIsTheLearnedWindow(t *testing.T) {
	const learned = 4 << 20
	for name, tc := range map[string]struct {
		cfg  Config
		want int
	}{
		// The prober never ticks, so the target stays where the test put it.
		"adaptive": {Config{Adaptive: true, ProbeInterval: time.Hour}, learned},
		"static":   {Config{Window: 128 << 10}, 128 << 10},
	} {
		t.Run(name, func(t *testing.T) {
			client, server := pair(t, tc.cfg)
			if tc.cfg.Adaptive {
				client.flow.target.Store(learned)
			}
			st, err := client.Open(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			peer, err := server.Accept(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			// The opener never reads, so it never grants: the acceptor
			// sends its initial credit and stalls.
			_ = peer.SetWriteDeadline(time.Now().Add(500 * time.Millisecond))
			n, err := peer.Write(make([]byte, 2*learned))
			if n != tc.want || !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("acceptor sent %d bytes (%v) before any grant, want exactly %d", n, err, tc.want)
			}
			waitUntil(t, 5*time.Second, func() bool {
				st.recvMu.Lock()
				defer st.recvMu.Unlock()
				return st.recvBuf.Len() == tc.want
			})
		})
	}
}

// TestOpenBeforeSynackFrameRules pins what a session does with the frames
// zero-RTT open makes ordinary: DATA for a stream it does not (yet) know
// is dropped without parking anything, SYNACK and RST for unknown ids are
// ignored, a SYN's credit below earlyCredit is raised to it, and only a
// stream's first SYNACK adds credit.
func TestOpenBeforeSynackFrameRules(t *testing.T) {
	session, raw := rawPeer(t)
	w := wire.NewWriter(raw)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	send := func(typ byte, payload []byte) {
		t.Helper()
		if err := w.WriteFrame(typ, payload); err != nil {
			t.Fatal(err)
		}
	}
	data := func(id uint32, seq uint64, s string) []byte {
		return append(wire.AppendUint64(wire.AppendUint32(nil, id), seq), s...)
	}

	send(frameDATA, data(9, 0, "nobody home yet"))
	send(frameSYNACK, rawSYN(11))
	send(frameRST, wire.AppendUint32(nil, 13))
	send(frameSYN, wire.AppendUint32(wire.AppendUint32(nil, 9), 0)) // credit 0
	send(frameDATA, data(9, 0, "hello"))
	st, err := session.Accept(ctx)
	if err != nil {
		t.Fatalf("session did not survive frames for unknown streams: %v", err)
	}
	got := make([]byte, 5)
	if _, err := io.ReadFull(st, got); err != nil || string(got) != "hello" {
		t.Fatalf("read %q, %v: the early DATA was kept", got, err)
	}
	if st.sendWindow != earlyCredit {
		t.Errorf("send window %d from a SYN advertising 0, want earlyCredit", st.sendWindow)
	}
	if session.NumStreams() != 1 {
		t.Errorf("%d streams in the table, want 1", session.NumStreams())
	}

	// The opening side: the SYNACK's credit replaces earlyCredit once.
	mine, err := session.Open(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	synack := wire.AppendUint32(wire.AppendUint32(nil, mine.id), 1<<20)
	send(frameSYNACK, synack)
	send(frameSYNACK, synack)
	if err := pingRaw(w, raw); err != nil {
		t.Fatal(err)
	}
	mine.sendMu.Lock()
	window := mine.sendWindow
	mine.sendMu.Unlock()
	if window != 1<<20 {
		t.Errorf("send window %d after two SYNACKs of 1 MiB, want 1 MiB", window)
	}
}

// pingRaw returns once the session has dispatched every frame written to
// it before: its PONG answers a PING sent behind them.
func pingRaw(w *wire.Writer, raw net.Conn) error {
	if err := w.WriteFrame(framePING, make([]byte, 8)); err != nil {
		return err
	}
	r := wire.NewReader(raw)
	for {
		f, err := r.ReadFrame()
		if err != nil || f.Type == framePONG {
			return err
		}
	}
}
