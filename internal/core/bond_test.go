package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/core"
	"gridproxy/internal/proto"
	"gridproxy/internal/site"
	"gridproxy/internal/transport"
	"gridproxy/internal/tunnel"
	"gridproxy/internal/wire"
)

func bondGrid(t *testing.T, tunnels ...*tunnel.Config) *site.Testbed {
	t.Helper()
	cfg := site.TestbedConfig{GridName: "bondtest"}
	for i, tc := range tunnels {
		cfg.Sites = append(cfg.Sites, site.SiteSpec{
			Name:   fmt.Sprintf("site%c", 'a'+i),
			Nodes:  site.UniformNodes(1, 1),
			Tunnel: tc,
		})
	}
	tb, err := site.NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tb.ConnectAll(ctx); err != nil {
		t.Fatal(err)
	}
	return tb
}

func waitBondWidth(t *testing.T, tb *site.Testbed, from, to string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		conns, _, ok := tb.Site(from).Proxy.PeerBondWidth(to)
		if ok && conns == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s→%s bond width = %d (ok=%v), want %d", from, to, conns, ok, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBondHandshakeMixedWidths is the width negotiation at the grid
// level: a proxy configured for four connections peering with a
// default-configured one is granted min(4, 1) = 1, while two
// bond-configured proxies negotiate the smaller of the two widths.
func TestBondHandshakeMixedWidths(t *testing.T) {
	tb := bondGrid(t,
		&tunnel.Config{BondConns: 4}, // sitea: wants to bond
		nil,                          // siteb: defaults, one connection
	)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Mixed widths: the tunnel still works, over exactly one conn.
	waitBondWidth(t, tb, "sitea", "siteb", 1)
	a := tb.Sites[0].Proxy
	if err := a.PingPeer(ctx, "siteb"); err != nil {
		t.Fatal(err)
	}
	summaries, err := a.Status(ctx, []string{"siteb"})
	if err != nil || len(summaries) != 1 {
		t.Fatalf("status over width-1 tunnel: %v (%d summaries)", err, len(summaries))
	}
}

func TestBondHandshakeBothSidesBond(t *testing.T) {
	tb := bondGrid(t,
		&tunnel.Config{BondConns: 3},
		&tunnel.Config{BondConns: 2},
	)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// min(3, 2) = 2 connections, on whichever side dialed; the acceptor
	// adopts the extra member asynchronously, so poll both directions
	// and require at least one to report the bonded width.
	deadline := time.Now().Add(10 * time.Second)
	for {
		wAB, _, okAB := tb.Site("sitea").Proxy.PeerBondWidth("siteb")
		wBA, _, okBA := tb.Site("siteb").Proxy.PeerBondWidth("sitea")
		if (okAB && wAB == 2) || (okBA && wBA == 2) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no direction reached bond width 2: a→b=%d(%v) b→a=%d(%v)", wAB, okAB, wBA, okBA)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The bonded tunnel must carry control traffic like any other.
	if err := tb.Sites[0].Proxy.PingPeer(ctx, "siteb"); err != nil {
		t.Fatal(err)
	}
	summaries, err := tb.Sites[0].Proxy.Status(ctx, nil)
	if err != nil || len(summaries) != 2 {
		t.Fatalf("status over bonded tunnel: %v (%d summaries)", err, len(summaries))
	}
}

// versionProxy starts a lone proxy on a fresh memory WAN with a short
// Hello deadline, for handshakes against a hand-rolled older peer.
func versionProxy(t *testing.T) (*core.Proxy, *transport.MemNetwork) {
	t.Helper()
	users, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	wan := transport.NewMemNetwork()
	t.Cleanup(func() { _ = wan.Close() })
	proxy, err := core.New(core.Config{
		Site:    "sitea",
		WANAddr: "wan.sitea",
		WAN:     wan,
		Local:   transport.NewMemNetwork(),
		Users:   users,
	})
	if err != nil {
		t.Fatal(err)
	}
	core.SetHelloTimeout(proxy, 200*time.Millisecond)
	if err := proxy.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })
	return proxy, wan
}

func waitSessionDone(t *testing.T, s *tunnel.Session, what string) {
	t.Helper()
	select {
	case <-s.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: session leaked", what)
	}
}

// TestOldVersionHelloRefused: there is no negotiating down. An acceptor
// answers the Hello of an older version — the previous one, or version 1
// in this build's layout or in the shorter one that ends before the
// tunnel-width fields — with a bad-request error, registers no peer, and
// reaps the session.
func TestOldVersionHelloRefused(t *testing.T) {
	hello := &proto.Hello{Site: "old", Version: 1, WANAddr: "wan.old", BondConns: 1, BondID: make([]byte, 16)}
	full := proto.Append(nil, hello)
	hello.Version = proto.Version - 1
	previous := proto.Append(nil, hello)
	// Version 4 by number: its CommitSpawn and JobUpdate end a field
	// before this build's.
	hello.Version = 4
	for name, payload := range map[string][]byte{
		"v1 full":  full,
		"v1 short": full[:len(full)-18],
		"previous": previous,
		"v4":       proto.Append(nil, hello),
	} {
		t.Run(name, func(t *testing.T) {
			proxy, wan := versionProxy(t)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			conn, err := wan.Dial(ctx, "wan.sitea")
			if err != nil {
				t.Fatal(err)
			}
			session := tunnel.Client(conn, tunnel.Config{})
			defer session.Close()
			ctrl, err := session.Open(ctx, []byte("gridproxy-control"))
			if err != nil {
				t.Fatal(err)
			}
			msg := proto.Message{Code: proto.CodeHello, Corr: 1, Payload: payload}
			if err := proto.WriteMessage(wire.NewWriter(ctrl), msg); err != nil {
				t.Fatal(err)
			}
			reply, err := proto.ReadMessage(wire.NewReader(ctrl))
			if err != nil {
				t.Fatal(err)
			}
			body, err := proto.Unmarshal(reply)
			if err != nil {
				t.Fatal(err)
			}
			if e, ok := body.(*proto.ErrorBody); !ok || e.Status != proto.StatusBadRequest {
				t.Fatalf("old-version Hello answered with %#v, want a bad-request error", body)
			}
			waitSessionDone(t, session, "refused dialer")
			if got := proxy.Peers(); len(got) != 0 {
				t.Fatalf("refused dialer registered as peer: %v", got)
			}
		})
	}
}

// TestOldVersionAckRefused: a dialer that is acked by an acceptor of the
// previous version fails Connect with proto.ErrVersionMismatch, registers
// no peer, and closes the session it opened.
func TestOldVersionAckRefused(t *testing.T) {
	proxy, wan := versionProxy(t)
	ln, err := wan.Listen("wan.old")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sessions := make(chan *tunnel.Session, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		session := tunnel.Server(conn, tunnel.Config{})
		sessions <- session
		ctrl, err := session.Accept(ctx)
		if err != nil {
			return
		}
		msg, err := proto.ReadMessage(wire.NewReader(ctrl))
		if err != nil {
			return
		}
		ack := &proto.HelloAck{Site: "old", Version: proto.Version - 1, BondConns: 1}
		_ = proto.WriteMessage(wire.NewWriter(ctrl), proto.Marshal(msg.Corr, ack))
	}()
	if err := proxy.Connect(ctx, "old", "wan.old"); !errors.Is(err, proto.ErrVersionMismatch) {
		t.Fatalf("Connect to an older acceptor = %v, want ErrVersionMismatch", err)
	}
	waitSessionDone(t, <-sessions, "refused acceptor")
	if got := proxy.Peers(); len(got) != 0 {
		t.Fatalf("refused acceptor registered as peer: %v", got)
	}
}
