package tunnel

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/transport"
	"gridproxy/internal/wire"
)

// pair builds a connected client/server session over the in-memory network.
func pair(t *testing.T, cfg Config) (*Session, *Session) {
	t.Helper()
	return pairOver(t, cfg, cfg, transport.LinkParams{})
}

// across is mem as seen by a dialer on one side of a link with params p;
// the zero LinkParams is the bare pipe.
func across(mem *transport.MemNetwork, p transport.LinkParams) transport.Network {
	if p == (transport.LinkParams{}) {
		return mem
	}
	return transport.NewLink(p).Side(0, mem)
}

// pairOver is pair with a config per end, the client dialing across a
// link with params p.
func pairOver(t *testing.T, ccfg, scfg Config, p transport.LinkParams) (*Session, *Session) {
	t.Helper()
	mem := transport.NewMemNetwork()
	ln, err := mem.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		conn net.Conn
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		conn, err := ln.Accept()
		ch <- res{conn, err}
	}()
	clientConn, err := across(mem, p).Dial(context.Background(), "peer")
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	client := Client(clientConn, ccfg)
	server := Server(r.conn, scfg)
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return client, server
}

func TestOpenAcceptEcho(t *testing.T) {
	client, server := pair(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	go func() {
		st, err := server.Accept(ctx)
		if err != nil {
			return
		}
		defer st.Close()
		_, _ = io.Copy(st, st)
	}()

	st, err := client.Open(ctx, []byte("echo"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	msg := []byte("hello through the tunnel")
	if _, err := st.Write(msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(st, got); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("echo = %q, want %q", got, msg)
	}
}

func TestMetaDelivered(t *testing.T) {
	client, server := pair(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	meta := []byte("stream-open-metadata")
	go func() {
		_, _ = client.Open(ctx, meta)
	}()
	st, err := server.Accept(ctx)
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	if !bytes.Equal(st.Meta(), meta) {
		t.Errorf("Meta = %q, want %q", st.Meta(), meta)
	}
}

func TestLargeTransferExceedsWindow(t *testing.T) {
	// Transfers much larger than the flow-control window exercise WINDOW
	// credit replenishment.
	client, server := pair(t, Config{Window: 16 << 10})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const size = 2 << 20 // 128x the window
	payload := make([]byte, size)
	if _, err := rand.Read(payload); err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 1)
	go func() {
		st, err := server.Accept(ctx)
		if err != nil {
			errCh <- err
			return
		}
		defer st.Close()
		if _, err := st.Write(payload); err != nil {
			errCh <- err
			return
		}
		errCh <- st.CloseWrite()
	}()

	st, err := client.Open(ctx, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got, err := io.ReadAll(st)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: got %d bytes want %d", len(got), len(payload))
	}
}

func TestManyConcurrentStreams(t *testing.T) {
	client, server := pair(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const streams = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < streams; i++ {
			st, err := server.Accept(ctx)
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer st.Close()
				_, _ = io.Copy(st, st)
			}()
		}
	}()

	var clientWG sync.WaitGroup
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		clientWG.Add(1)
		go func(i int) {
			defer clientWG.Done()
			st, err := client.Open(ctx, nil)
			if err != nil {
				errs <- fmt.Errorf("open %d: %w", i, err)
				return
			}
			defer st.Close()
			msg := bytes.Repeat([]byte{byte(i)}, 1000+i)
			if _, err := st.Write(msg); err != nil {
				errs <- fmt.Errorf("write %d: %w", i, err)
				return
			}
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(st, got); err != nil {
				errs <- fmt.Errorf("read %d: %w", i, err)
				return
			}
			if !bytes.Equal(got, msg) {
				errs <- fmt.Errorf("stream %d corrupted", i)
			}
		}(i)
	}
	clientWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPing(t *testing.T) {
	client, _ := pair(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := client.Ping(ctx); err != nil {
		t.Fatalf("Ping: %v", err)
	}
}

func TestSessionCloseFailsStreams(t *testing.T) {
	client, server := pair(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	go func() {
		st, err := server.Accept(ctx)
		if err != nil {
			return
		}
		_ = st // hold open
	}()
	st, err := client.Open(ctx, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := st.Read(make([]byte, 1)); err == nil {
		t.Error("Read after session close should fail")
	}
	if _, err := client.Open(ctx, nil); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Open after close = %v, want ErrSessionClosed", err)
	}
}

func TestPeerDisappearanceUnblocksReaders(t *testing.T) {
	client, server := pair(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	go func() {
		_, _ = server.Accept(ctx)
	}()
	st, err := client.Open(ctx, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	readErr := make(chan error, 1)
	go func() {
		_, err := st.Read(make([]byte, 1))
		readErr <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_ = server.Close()
	select {
	case err := <-readErr:
		if err == nil {
			t.Error("expected read error after peer close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader not unblocked after peer disappeared")
	}
}

func TestHalfClose(t *testing.T) {
	client, server := pair(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	done := make(chan struct{})
	go func() {
		defer close(done)
		st, err := server.Accept(ctx)
		if err != nil {
			return
		}
		// Read until EOF, then respond.
		data, err := io.ReadAll(st)
		if err != nil {
			return
		}
		_, _ = st.Write(bytes.ToUpper(data))
		_ = st.CloseWrite()
	}()

	st, err := client.Open(ctx, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := st.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(st)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(got) != "ABC" {
		t.Errorf("got %q, want ABC", got)
	}
	<-done
}

func TestReadDeadline(t *testing.T) {
	client, server := pair(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() { _, _ = server.Accept(ctx) }()
	st, err := client.Open(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = st.Read(make([]byte, 1))
	if !errors.Is(err, errDeadline(err)) && err == nil {
		t.Fatalf("expected deadline error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("deadline took %v", elapsed)
	}
}

// errDeadline helps assert any timeout-ish error without importing os here.
func errDeadline(err error) error { return err }

func TestWriteBlockedByWindowRespectsDeadline(t *testing.T) {
	client, server := pair(t, Config{Window: 4096})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() {
		// Accept but never read, so the sender exhausts its window.
		_, _ = server.Accept(ctx)
	}()
	st, err := client.Open(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetWriteDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err = st.Write(make([]byte, 1<<20))
	if err == nil {
		t.Fatal("expected write to fail on deadline while window-blocked")
	}
}

func TestStreamIDsDoNotCollide(t *testing.T) {
	client, server := pair(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Open from both sides simultaneously.
	go func() {
		for i := 0; i < 10; i++ {
			_, _ = server.Accept(ctx)
		}
	}()
	go func() {
		for i := 0; i < 10; i++ {
			_, _ = client.Accept(ctx)
		}
	}()
	ids := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			st, err := client.Open(ctx, nil)
			if err == nil {
				mu.Lock()
				ids[fmt.Sprintf("c%d", st.ID())] = true
				mu.Unlock()
			}
		}()
		go func() {
			defer wg.Done()
			st, err := server.Open(ctx, nil)
			if err == nil {
				mu.Lock()
				ids[fmt.Sprintf("s%d", st.ID())] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Client ids odd, server ids even.
	for id := range ids {
		var n uint32
		var side byte
		if _, err := fmt.Sscanf(id, "%c%d", &side, &n); err != nil {
			t.Fatalf("parse %q: %v", id, err)
		}
		if side == 'c' && n%2 != 1 {
			t.Errorf("client stream id %d not odd", n)
		}
		if side == 's' && n%2 != 0 {
			t.Errorf("server stream id %d not even", n)
		}
	}
}

func TestMetricsCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	client, server := pair(t, Config{Metrics: reg})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	go func() {
		st, err := server.Accept(ctx)
		if err != nil {
			return
		}
		buf := make([]byte, 1024)
		for {
			if _, err := st.Read(buf); err != nil {
				return
			}
		}
	}()
	st, err := client.Open(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write(make([]byte, 10_000)); err != nil {
		t.Fatal(err)
	}
	// Both sessions share the registry; the receiving side counts
	// tunneled bytes.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter(metrics.BytesTunneled).Value() >= 10_000 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Counter(metrics.BytesTunneled).Value(); got < 10_000 {
		t.Errorf("BytesTunneled = %d, want >= 10000", got)
	}
	if got := reg.Counter(metrics.StreamsOpened).Value(); got < 1 {
		t.Errorf("StreamsOpened = %d, want >= 1", got)
	}
}

// rawPeer gives a test direct frame-level access to one side of a
// session, for protocol-violation injection.
func rawPeer(t *testing.T) (*Session, net.Conn) {
	t.Helper()
	mem := transport.NewMemNetwork()
	ln, err := mem.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	connCh := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			connCh <- conn
		}
	}()
	raw, err := mem.Dial(context.Background(), "peer")
	if err != nil {
		t.Fatal(err)
	}
	serverConn := <-connCh
	session := Server(serverConn, Config{Window: 8 << 10})
	t.Cleanup(func() { _ = session.Close() })
	return session, raw
}

// rawSYN is the payload of a SYN for stream id that advertises the
// smallest credit and carries no metadata.
func rawSYN(id uint32) []byte {
	return wire.AppendUint32(wire.AppendUint32(nil, id), earlyCredit)
}

func TestWindowOverrunKillsSession(t *testing.T) {
	session, raw := rawPeer(t)
	w := wire.NewWriter(raw)

	// Open a stream legitimately (SYN id=1) ...
	if err := w.WriteFrame(frameSYN, rawSYN(1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := session.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	// ... then flood it to twice its receive window (the 8 KiB configured
	// is below earlyCredit, which every stream gets) without any reads
	// happening.
	for i := 0; i < 2*earlyCredit/4096; i++ {
		chunk := make([]byte, 0, 12+4096)
		chunk = wire.AppendUint32(chunk, 1)
		chunk = wire.AppendUint64(chunk, uint64(i)) // stream seq
		chunk = append(chunk, make([]byte, 4096)...)
		if err := w.WriteFrame(0x13, chunk); err != nil {
			break // session may already have torn down the conn
		}
	}
	select {
	case <-session.Done():
		if session.Err() == nil {
			t.Error("session died without recording the violation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("window overrun tolerated")
	}
}

func TestUnknownFrameTypeKillsSession(t *testing.T) {
	session, raw := rawPeer(t)
	w := wire.NewWriter(raw)
	if err := w.WriteFrame(0x7F, wire.AppendUint32(nil, 9)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-session.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("unknown frame type tolerated")
	}
}

func TestShortFrameKillsSession(t *testing.T) {
	session, raw := rawPeer(t)
	w := wire.NewWriter(raw)
	// DATA frame with a 2-byte payload cannot carry a stream id.
	if err := w.WriteFrame(0x13, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-session.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("short frame tolerated")
	}
}

func TestDuplicateSYNKillsSession(t *testing.T) {
	session, raw := rawPeer(t)
	w := wire.NewWriter(raw)
	syn := rawSYN(5)
	if err := w.WriteFrame(0x10, syn); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := session.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(0x10, syn); err != nil {
		t.Fatal(err)
	}
	select {
	case <-session.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate SYN tolerated")
	}
}

func TestMaxStreamsEnforced(t *testing.T) {
	client, server := pair(t, Config{MaxStreams: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() {
		for {
			st, err := server.Accept(ctx)
			if err != nil {
				return
			}
			// Drain until the client half-closes, then release the
			// server-side slot too.
			go func() {
				_, _ = io.Copy(io.Discard, st)
				_ = st.Close()
			}()
		}
	}()
	var streams []*Stream
	for i := 0; i < 3; i++ {
		st, err := client.Open(ctx, nil)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		streams = append(streams, st)
	}
	if _, err := client.Open(ctx, nil); !errors.Is(err, ErrTooManyStreams) {
		t.Fatalf("fourth open = %v, want ErrTooManyStreams", err)
	}
	// Closing a stream frees a slot on both sides (the server may lag
	// by one FIN round trip).
	_ = streams[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		if _, lastErr = client.Open(ctx, nil); lastErr == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lastErr != nil {
		t.Fatalf("open after close: %v", lastErr)
	}
	if n := client.NumStreams(); n != 3 {
		t.Errorf("NumStreams = %d", n)
	}
}
