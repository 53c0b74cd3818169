package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestLabelTCPHostPortPassthrough(t *testing.T) {
	n := NewLabelTCP()
	ln, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = io.Copy(conn, conn)
	}()
	conn, err := n.Dial(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(conn, buf); err != nil || buf[0] != 'x' {
		t.Fatalf("echo failed: %v %q", err, buf)
	}
}

func TestLabelTCPLabelRoundTrip(t *testing.T) {
	n := NewLabelTCP()
	ln, err := n.Listen("node0/app/r1")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = conn.Write([]byte("hi"))
	}()
	conn, err := n.Dial(context.Background(), "node0/app/r1")
	if err != nil {
		t.Fatalf("label dial: %v", err)
	}
	defer conn.Close()
	buf := make([]byte, 2)
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, buf); err != nil || string(buf) != "hi" {
		t.Fatalf("got %q, %v", buf, err)
	}
}

func TestLabelTCPUnknownLabel(t *testing.T) {
	n := NewLabelTCP()
	if _, err := n.Dial(context.Background(), "no/such/label"); err == nil {
		t.Error("unknown label dial succeeded")
	}
}

func TestLabelTCPDuplicateLabel(t *testing.T) {
	n := NewLabelTCP()
	ln, err := n.Listen("dup/label")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := n.Listen("dup/label"); err == nil {
		t.Error("duplicate label accepted")
	}
}

func TestLabelTCPCloseReleasesLabel(t *testing.T) {
	n := NewLabelTCP()
	ln, err := n.Listen("temp/label")
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	ln2, err := n.Listen("temp/label")
	if err != nil {
		t.Fatalf("relisten after close: %v", err)
	}
	_ = ln2.Close()
}

func TestIsHostPort(t *testing.T) {
	tests := []struct {
		addr string
		want bool
	}{
		{"127.0.0.1:80", true},
		{"[::1]:8080", true},
		{"example.org:7100", true},
		{"node0/app/r1", false},
		{"proxy.sitea/vs/app/r2", false},
		{"127.0.0.1:80/nodes", false},
		{"127.0.0.1", false},
		{"127.0.0.1:", false},
		{"host:http", false},
	}
	for _, tt := range tests {
		if got := isHostPort(tt.addr); got != tt.want {
			t.Errorf("isHostPort(%q) = %v, want %v", tt.addr, got, tt.want)
		}
	}
}

// sharedPort is the address of n's shared label listener.
func sharedPort(n *LabelTCP) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.port
}

// awaitClosed fails the test unless the far end of conn closes it within
// five seconds, without sending anything first.
func awaitClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if n, err := conn.Read(b[:]); n != 0 || (err != io.EOF && !isReset(err)) {
		t.Fatalf("read = %d, %v; want the connection closed", n, err)
	}
}

func isReset(err error) bool { return errors.Is(err, syscall.ECONNRESET) }

func TestLabelTCPListenCloseHoldsNoDescriptor(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts /proc/self/fd")
	}
	n := NewLabelTCP()
	defer n.Close()
	// The first label binds the shared listener; count from there on.
	first, err := n.Listen("first/label")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}
	before := fds()
	for i := 0; i < 1000; i++ {
		ln, err := n.Listen(fmt.Sprintf("node0/app-%d/r%d", i, i%7))
		if err != nil {
			t.Fatal(err)
		}
		if err := ln.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Connections other tests left behind may finish closing meanwhile,
	// so the count can only be held to not growing.
	if after := fds(); after > before {
		t.Fatalf("open descriptors %d before 1000 label Listen/Close cycles, %d after", before, after)
	}
}

func TestLabelTCPBytesBehindPrefaceArriveExact(t *testing.T) {
	n := NewLabelTCP()
	defer n.Close()
	ln, err := n.Listen("node0/app/r0")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i*7 + i>>9)
	}
	got := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer conn.Close()
		b, _ := io.ReadAll(conn)
		got <- b
	}()
	conn, err := n.Dial(context.Background(), "node0/app/r0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	if b := <-got; !bytes.Equal(b, payload) {
		t.Fatalf("acceptor read %d bytes, want the %d written behind the preface", len(b), len(payload))
	}
}

func TestLabelTCPStalledPrefaceDelaysNoOtherLabel(t *testing.T) {
	n := NewLabelTCP()
	n.prefaceTimeout = 500 * time.Millisecond
	defer n.Close()
	ln, err := n.Listen("node0/app/r1")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The listener's deadline starts at its accept, after this.
	dialled := time.Now()
	silent, err := net.Dial("tcp", sharedPort(n))
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	oversized, err := net.Dial("tcp", sharedPort(n))
	if err != nil {
		t.Fatal(err)
	}
	defer oversized.Close()
	if _, err := oversized.Write([]byte{0xff, 0xff, 'x'}); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	conn, err := n.Dial(context.Background(), "node0/app/r1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	_ = accepted.Close()
	if waited := time.Since(start); waited >= n.prefaceTimeout {
		t.Fatalf("accept behind a stalled preface took %v, the whole preface deadline", waited)
	}
	awaitClosed(t, oversized)
	awaitClosed(t, silent)
	if waited := time.Since(dialled); waited < n.prefaceTimeout {
		t.Fatalf("silent connection dropped after %v, before the %v deadline", waited, n.prefaceTimeout)
	}
}

func TestLabelTCPLabelOverCapIsRefused(t *testing.T) {
	n := NewLabelTCP()
	defer n.Close()
	if ln, err := n.Listen(strings.Repeat("x/", maxLabelLen/2) + "x"); err == nil {
		_ = ln.Close()
		t.Fatal("a label no preface can carry was bound")
	}
}

func TestLabelTCPPrefaceForUnboundLabelIsClosed(t *testing.T) {
	n := NewLabelTCP()
	defer n.Close()
	ln, err := n.Listen("bound/label")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", sharedPort(n))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	label := "unbound/label"
	if _, err := conn.Write(append([]byte{0, byte(len(label))}, label...)); err != nil {
		t.Fatal(err)
	}
	awaitClosed(t, conn)
}

func TestLabelTCPCloseNetwork(t *testing.T) {
	n := NewLabelTCP()
	ln, err := n.Listen("node0/app/r2")
	if err != nil {
		t.Fatal(err)
	}
	// One connection queued on the label, never accepted.
	queued, err := n.Dial(context.Background(), "node0/app/r2")
	if err != nil {
		t.Fatal(err)
	}
	defer queued.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if l := ln.(*labelListener); len(l.queue) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dialled connection never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept after Close = %v, want net.ErrClosed", err)
	}
	awaitClosed(t, queued)
	if _, err := n.Dial(context.Background(), "node0/app/r2"); err == nil {
		t.Fatal("label dial after Close succeeded")
	}
	if _, err := n.Listen("node0/app/r3"); err == nil {
		t.Fatal("label listen after Close succeeded")
	}
}

func TestLabelTCPConcurrentLabelsAcceptOnlyTheirOwn(t *testing.T) {
	const labels, connsPer = 64, 4
	n := NewLabelTCP()
	defer n.Close()
	errs := make(chan error, labels*(connsPer+1))
	var wg sync.WaitGroup
	for i := 0; i < labels; i++ {
		label := fmt.Sprintf("node%d/app/r%d", i%4, i)
		ln, err := n.Listen(label)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < connsPer; j++ {
				conn, err := ln.Accept()
				if err != nil {
					errs <- err
					return
				}
				b, err := io.ReadAll(conn)
				_ = conn.Close()
				if err != nil || string(b) != label {
					errs <- fmt.Errorf("listener %s accepted a connection for %q (%v)", label, b, err)
				}
			}
		}()
		for j := 0; j < connsPer; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn, err := n.Dial(context.Background(), label)
				if err != nil {
					errs <- err
					return
				}
				defer conn.Close()
				if _, err := io.WriteString(conn, label); err != nil {
					errs <- err
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
