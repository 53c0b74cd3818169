package transport

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"gridproxy/internal/ca"
	"gridproxy/internal/metrics"
)

// acceptOne accepts one connection in the background.
func acceptOne(t *testing.T, ln net.Listener) <-chan net.Conn {
	t.Helper()
	ch := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			ch <- conn
		} else {
			close(ch)
		}
	}()
	return ch
}

func testEcho(t *testing.T, client, server net.Conn) {
	t.Helper()
	go func() {
		buf := make([]byte, 1024)
		for {
			n, err := server.Read(buf)
			if n > 0 {
				if _, werr := server.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	msg := []byte("ping across the grid")
	if _, err := client.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	if err := client.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(client, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("echo = %q", got)
	}
}

func TestMemNetworkBasic(t *testing.T) {
	mem := NewMemNetwork()
	ln, err := mem.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	connCh := acceptOne(t, ln)
	client, err := mem.Dial(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	server := <-connCh
	testEcho(t, client, server)
}

func TestMemNetworkDialUnknown(t *testing.T) {
	mem := NewMemNetwork()
	if _, err := mem.Dial(context.Background(), "nope"); err == nil {
		t.Error("expected connection refused")
	}
}

func TestMemNetworkAddressInUse(t *testing.T) {
	mem := NewMemNetwork()
	if _, err := mem.Listen("svc"); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Listen("svc"); err == nil {
		t.Error("expected address-in-use error")
	}
}

func TestMemNetworkListenerCloseReleasesAddress(t *testing.T) {
	mem := NewMemNetwork()
	ln, err := mem.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Listen("svc"); err != nil {
		t.Errorf("relisten after close: %v", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, ErrClosed) {
		t.Errorf("Accept after close = %v", err)
	}
}

func TestMemNetworkDialContextCancel(t *testing.T) {
	mem := NewMemNetwork()
	ln, err := mem.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	_ = ln // never accept
	// Fill any internal accept slack, then a cancelled dial must return.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The first dial parks in the accept queue; keep dialing until
		// the context cancels one.
		for {
			if _, err := mem.Dial(ctx, "svc"); err != nil {
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Dial did not honour context cancellation")
	}
}

func TestMemConnEOFAfterClose(t *testing.T) {
	mem := NewMemNetwork()
	ln, err := mem.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	connCh := acceptOne(t, ln)
	client, err := mem.Dial(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	server := <-connCh
	if _, err := server.Write([]byte("bye")); err != nil {
		t.Fatal(err)
	}
	_ = server.Close()
	// Buffered data must still be readable, then EOF.
	got, err := io.ReadAll(client)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(got) != "bye" {
		t.Errorf("got %q", got)
	}
}

func TestMemConnDeadline(t *testing.T) {
	mem := NewMemNetwork()
	ln, err := mem.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	connCh := acceptOne(t, ln)
	client, err := mem.Dial(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	<-connCh
	if err := client.SetReadDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = client.Read(make([]byte, 1))
	var nerr net.Error
	isTimeout := errors.As(err, &nerr) && nerr.Timeout()
	if err == nil || (!errors.Is(err, context.DeadlineExceeded) && !isTimeout && err.Error() != "i/o timeout") {
		// os.ErrDeadlineExceeded satisfies net.Error via errors.Is in
		// newer Go; accept any timeout-shaped error.
		if !errors.Is(err, errAnyDeadline(err)) {
			t.Logf("deadline error type: %T %v", err, err)
		}
	}
	if err == nil {
		t.Fatal("expected deadline error")
	}
	if time.Since(start) > 3*time.Second {
		t.Error("deadline fired too late")
	}
}

func errAnyDeadline(err error) error { return err }

func newTLSPair(t *testing.T, reg *metrics.Registry) (*TLS, *TLS, *MemNetwork) {
	t.Helper()
	authority, err := ca.New("testgrid")
	if err != nil {
		t.Fatal(err)
	}
	credA, err := authority.IssueHost("proxy.siteA")
	if err != nil {
		t.Fatal(err)
	}
	credB, err := authority.IssueHost("proxy.siteB")
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemNetwork()
	pool := authority.CertPool()
	return NewTLS(mem, credA, pool, reg), NewTLS(mem, credB, pool, reg), mem
}

func TestTLSOverMemEcho(t *testing.T) {
	reg := metrics.NewRegistry()
	tlsA, tlsB, _ := newTLSPair(t, reg)
	ln, err := tlsA.Listen("proxyA")
	if err != nil {
		t.Fatal(err)
	}
	var server net.Conn
	var acceptErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		server, acceptErr = ln.Accept()
	}()
	client, err := tlsB.Dial(context.Background(), "proxyA")
	if err != nil {
		t.Fatalf("tls dial: %v", err)
	}
	wg.Wait()
	if acceptErr != nil {
		t.Fatalf("tls accept: %v", acceptErr)
	}
	testEcho(t, client, server)

	if got := reg.Counter(metrics.TLSHandshakes).Value(); got < 2 {
		t.Errorf("handshakes = %d, want >= 2 (client+server)", got)
	}
	if got := reg.Counter(metrics.BytesEncrypted).Value(); got == 0 {
		t.Error("no encrypted bytes counted")
	}
	if cn := PeerCommonName(server); cn != "proxy.siteB" {
		t.Errorf("server sees peer CN %q, want proxy.siteB", cn)
	}
	if cn := PeerCommonName(client); cn != "proxy.siteA" {
		t.Errorf("client sees peer CN %q, want proxy.siteA", cn)
	}
}

func TestTLSRejectsForeignCA(t *testing.T) {
	authorityA, err := ca.New("gridA")
	if err != nil {
		t.Fatal(err)
	}
	authorityB, err := ca.New("gridB")
	if err != nil {
		t.Fatal(err)
	}
	credA, err := authorityA.IssueHost("proxy.siteA")
	if err != nil {
		t.Fatal(err)
	}
	credEvil, err := authorityB.IssueHost("proxy.evil")
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemNetwork()
	good := NewTLS(mem, credA, authorityA.CertPool(), nil)
	evil := NewTLS(mem, credEvil, authorityB.CertPool(), nil)

	ln, err := good.Listen("proxyA")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		// Accept fails during handshake; that is the point.
		_, _ = ln.Accept()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := evil.Dial(ctx, "proxyA"); err == nil {
		t.Error("dial with foreign-CA cert succeeded; want handshake failure")
	}
}

func TestTLSOverTCP(t *testing.T) {
	authority, err := ca.New("testgrid")
	if err != nil {
		t.Fatal(err)
	}
	credA, err := authority.IssueHost("proxy.siteA", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	credB, err := authority.IssueHost("proxy.siteB", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	pool := authority.CertPool()
	tlsA := NewTLS(TCP{}, credA, pool, nil)
	tlsB := NewTLS(TCP{}, credB, pool, nil)

	ln, err := tlsA.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	connCh := acceptOne(t, ln)
	client, err := tlsB.Dial(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	server, ok := <-connCh
	if !ok {
		t.Fatal("accept failed")
	}
	testEcho(t, client, server)
}

func TestInstrumentCounts(t *testing.T) {
	mem := NewMemNetwork()
	ln, err := mem.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	connCh := acceptOne(t, ln)
	raw, err := mem.Dial(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	server := <-connCh
	var in, out metrics.Counter
	client := Instrument(raw, &in, &out)
	go func() {
		buf := make([]byte, 64)
		n, _ := server.Read(buf)
		_, _ = server.Write(buf[:n])
	}()
	payload := make([]byte, 37)
	if _, err := rand.Read(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(client, make([]byte, 37)); err != nil {
		t.Fatal(err)
	}
	if out.Value() != 37 {
		t.Errorf("out = %d, want 37", out.Value())
	}
	if in.Value() != 37 {
		t.Errorf("in = %d, want 37", in.Value())
	}
}

// TestTLSAcceptSurvivesSilentClient connects a raw TCP client that never
// speaks TLS and checks Accept errors out within the handshake timeout
// instead of blocking the accept loop forever, and that a genuine TLS
// dial still succeeds afterwards.
func TestTLSAcceptSurvivesSilentClient(t *testing.T) {
	authority, err := ca.New("silentgrid")
	if err != nil {
		t.Fatal(err)
	}
	credSrv, err := authority.IssueHost("proxy.srv")
	if err != nil {
		t.Fatal(err)
	}
	credCli, err := authority.IssueHost("proxy.cli")
	if err != nil {
		t.Fatal(err)
	}
	pool := authority.CertPool()
	tlsSrv := NewTLS(TCP{}, credSrv, pool, nil)
	tlsSrv.HandshakeTimeout = 200 * time.Millisecond
	ln, err := tlsSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	errCh := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("accept of a silent client reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept blocked on a silent client; handshake deadline not applied")
	}

	// The listener must still serve real peers.
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			_ = conn.Close()
		}
		errCh <- err
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tlsCli := NewTLS(TCP{}, credCli, pool, nil)
	client, err := tlsCli.Dial(ctx, addr)
	if err != nil {
		t.Fatalf("tls dial after silent client: %v", err)
	}
	_ = client.Close()
	if err := <-errCh; err != nil {
		t.Fatalf("accept after silent client: %v", err)
	}
}
