package core_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/core"
	"gridproxy/internal/monitor"
	"gridproxy/internal/proto"
	"gridproxy/internal/transport"
	"gridproxy/internal/wire"
)

// watchedLocal is a site network that counts the listeners bound on it
// and, with failFirst, fails each listener's first Accept the way a
// process out of descriptors does.
type watchedLocal struct {
	transport.Network
	failFirst bool
	listens   atomic.Int32
}

func (n *watchedLocal) Listen(addr string) (net.Listener, error) {
	n.listens.Add(1)
	ln, err := n.Network.Listen(addr)
	if err != nil || !n.failFirst {
		return ln, err
	}
	return &failOnce{Listener: ln}, nil
}

type failOnce struct {
	net.Listener
	failed atomic.Bool
}

func (l *failOnce) Accept() (net.Conn, error) {
	if l.failed.CompareAndSwap(false, true) {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// startLocal starts a proxy with no WAN listener on the given site
// network; its one user is admin/admin.
func startLocal(t *testing.T, local transport.Network) *core.Proxy {
	t.Helper()
	users, err := auth.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := users.AddUser("admin", "admin"); err != nil {
		t.Fatal(err)
	}
	proxy, err := core.New(core.Config{
		Site:      "sitea",
		LocalAddr: "proxy.sitea",
		WAN:       transport.NewMemNetwork(),
		Local:     local,
		Users:     users,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })
	return proxy
}

var adminLogin = &proto.AuthRequest{User: "admin", Method: proto.AuthPassword, PasswordProof: []byte("admin")}

// TestLocalListensOnce: clients, node agents and splices share local_addr;
// the proxy binds nothing else on its site network.
func TestLocalListensOnce(t *testing.T) {
	local := &watchedLocal{Network: transport.NewMemNetwork()}
	startLocal(t, local)
	if n := local.listens.Load(); n != 1 {
		t.Errorf("Start bound %d listeners on the site network, want 1", n)
	}
}

// TestLocalAcceptSurvivesTransientError: an Accept that fails for want of
// a descriptor does not end the local services; the next connection is
// served.
func TestLocalAcceptSurvivesTransientError(t *testing.T) {
	local := &watchedLocal{Network: transport.NewMemNetwork(), failFirst: true}
	proxy := startLocal(t, local)
	c := openRaw(t, local, proxy.LocalAddr())
	if err := c.conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if reply, ok := c.call(adminLogin).(*proto.AuthReply); !ok || !reply.OK {
		t.Fatalf("login after a failed Accept: %+v", reply)
	}
}

// TestLocalSessionAllocBudget: a connection that has not logged in cannot
// make the proxy decode what it may not send. Each payload fills 1 MiB
// with elements it really carries; decoded, the first three took 48, 36
// and 24 MiB. Refused undecoded, each costs about its frame.
func TestLocalSessionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	s := newGrid(t, nil, 1).Sites[0]
	const size = 1 << 20
	for _, tc := range []struct {
		name   string
		status uint16
		body   func(n int) proto.Body
	}{
		{"JobListReply", proto.StatusBadRequest, func(n int) proto.Body { return &proto.JobListReply{Jobs: make([]proto.JobRecord, n)} }},
		{"RegistryReply", proto.StatusBadRequest, func(n int) proto.Body { return &proto.RegistryReply{Resources: make([]proto.Resource, n)} }},
		{"GossipDelta", proto.StatusBadRequest, func(n int) proto.Body { return &proto.GossipDelta{Entries: make([]proto.GossipEntry, n)} }},
		{"JobSubmit", proto.StatusUnauthorized, func(n int) proto.Body { return &proto.JobSubmit{Args: make([]string, n)} }},
	} {
		empty := len(proto.Append(nil, tc.body(0)))
		n := (size - empty) / (len(proto.Append(nil, tc.body(1))) - empty)
		var frame bytes.Buffer
		if err := proto.WriteMessage(wire.NewWriter(&frame), proto.Marshal(1, tc.body(n))); err != nil {
			t.Fatal(err)
		}
		c := openRaw(t, s.Local, s.LocalAddr())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := c.conn.Write(frame.Bytes()); err != nil {
			t.Fatal(err)
		}
		reply := c.reply()
		runtime.ReadMemStats(&after)
		refused(t, tc.name, reply, tc.status)
		if allocated := after.TotalAlloc - before.TotalAlloc; allocated > 4*size {
			t.Errorf("%s of %d elements: refusing it allocated %d KiB", tc.name, n, allocated>>10)
		}
	}
}

// TestLocalEndpointServesEveryRole: client sessions, pushed node reports
// and splice requests arrive together on the one local address, and each
// connection is served as its first message says.
func TestLocalEndpointServesEveryRole(t *testing.T) {
	s := newGrid(t, nil, 1).Sites[0]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// exchange opens a connection, sends body under corr and returns the
	// reply: none for a notification.
	exchange := func(corr uint64, body proto.Body) (proto.Body, error) {
		conn, err := s.Local.Dial(ctx, s.LocalAddr())
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		if err := proto.WriteMessage(wire.NewWriter(conn), proto.Marshal(corr, body)); err != nil || corr == 0 {
			return nil, err
		}
		msg, err := proto.ReadMessage(wire.NewReader(conn))
		if err != nil {
			return nil, err
		}
		return proto.Unmarshal(msg)
	}
	const rounds = 4
	errs := make(chan error, 3*rounds)
	var wg sync.WaitGroup
	for i := range rounds {
		wg.Add(3)
		go func() {
			defer wg.Done()
			if reply, err := exchange(1, adminLogin); err != nil {
				errs <- err
			} else if ar, ok := reply.(*proto.AuthReply); !ok || !ar.OK {
				errs <- fmt.Errorf("login: %+v", reply)
			}
		}()
		go func() {
			defer wg.Done()
			stats := monitor.NodeStats{Node: fmt.Sprintf("pushed-%d", i), RAMFreeMB: 1, Collected: time.Now()}
			if _, err := exchange(0, stats.ToReport()); err != nil {
				errs <- err
			}
		}()
		go func() {
			defer wg.Done()
			open := &proto.StreamOpen{AppID: "app", TargetSite: "nowhere", TargetAddr: "x", Kind: proto.StreamData, Token: []byte("forged")}
			if reply, err := exchange(1, open); err != nil {
				errs <- err
			} else if r, ok := reply.(*proto.StreamOpenReply); !ok || r.OK || r.Reason != badToken {
				errs <- fmt.Errorf("splice: %+v", reply)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	waitFor(t, 10*time.Second, func() bool { return s.Proxy.LocalSummary().Nodes == 1+rounds })
}
