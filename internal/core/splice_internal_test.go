package core

import (
	"io"
	"net"
	"testing"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/transport"
)

// tcpPair returns the two ends of a fresh loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, _ := ln.Accept()
		accepted <- conn
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return client, server
}

// TestSpliceKeepsHalfClose: a requester that sends, half-closes and waits
// gets the reply through a splice, whichever end of it the wrapped local
// conns sit on — the dialled endpoint (countedConn) or the splice client
// (transport.ReadThrough). A wrapper that hid CloseWrite made the splice
// tear both directions down at the requester's half-close.
func TestSpliceKeepsHalfClose(t *testing.T) {
	p := &Proxy{}
	counter := metrics.NewRegistry().Counter(metrics.BytesLocal)
	for _, tc := range []struct {
		name string
		// wrap returns the splice's two ends for the responder's side
		// and the requester's side.
		wrap func(responder, requester net.Conn) (net.Conn, net.Conn)
	}{
		{"dialled endpoint", func(resp, req net.Conn) (net.Conn, net.Conn) {
			return instrumented(resp, counter), req
		}},
		{"splice client", func(resp, req net.Conn) (net.Conn, net.Conn) {
			return transport.ReadThrough(resp, resp), req
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requester, a := tcpPair(t)
			b, responder := tcpPair(t)
			go p.splice(tc.wrap(b, a))
			go func() {
				req, _ := io.ReadAll(responder)
				_, _ = io.WriteString(responder, "got:"+string(req))
				_ = responder.Close()
			}()
			if _, err := io.WriteString(requester, "ping"); err != nil {
				t.Fatal(err)
			}
			if err := requester.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			if err := requester.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			reply, err := io.ReadAll(requester)
			if err != nil || string(reply) != "got:ping" {
				t.Fatalf("reply after half-close = %q, %v; want \"got:ping\"", reply, err)
			}
		})
	}
}
