package failure

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"gridproxy/internal/node"
	"gridproxy/internal/transport"
)

func setup(t *testing.T) (*FlakyNetwork, net.Listener) {
	t.Helper()
	mem := transport.NewMemNetwork()
	flaky := New(mem)
	ln, err := flaky.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	return flaky, ln
}

func TestTransparentWhenHealthy(t *testing.T) {
	flaky, ln := setup(t)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 16)
		n, _ := conn.Read(buf)
		_, _ = conn.Write(buf[:n])
	}()
	conn, err := flaky.Dial(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hi" {
		t.Errorf("echo = %q", got)
	}
}

func TestFailRefusesDials(t *testing.T) {
	flaky, _ := setup(t)
	flaky.Fail()
	if !flaky.Failed() {
		t.Error("Failed() = false after Fail")
	}
	if _, err := flaky.Dial(context.Background(), "svc"); !errors.Is(err, ErrInjected) {
		t.Errorf("dial after fail = %v", err)
	}
}

func TestFailSeversExistingConnections(t *testing.T) {
	flaky, ln := setup(t)
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn
		}
	}()
	conn, err := flaky.Dial(context.Background(), "svc")
	if err != nil {
		t.Fatal(err)
	}
	<-accepted

	readErr := make(chan error, 1)
	go func() {
		_, err := conn.Read(make([]byte, 1))
		readErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	flaky.Fail()
	select {
	case err := <-readErr:
		if err == nil {
			t.Error("read survived injected failure")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read not unblocked by Fail")
	}
}

func TestHealRestoresService(t *testing.T) {
	flaky, ln := setup(t)
	flaky.Fail()
	flaky.Heal()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			_ = conn.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := flaky.Dial(ctx, "svc"); err != nil {
		t.Errorf("dial after heal = %v", err)
	}
}

func TestFailedListenerDropsInbound(t *testing.T) {
	mem := transport.NewMemNetwork()
	flaky := New(mem)
	ln, err := flaky.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	flaky.Fail()

	acceptReturned := make(chan struct{})
	go func() {
		_, _ = ln.Accept()
		close(acceptReturned)
	}()
	// Dials from the raw network reach the listener but are dropped
	// while failed.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, _ = mem.Dial(ctx, "svc")
	select {
	case <-acceptReturned:
		t.Error("failed listener accepted a connection")
	case <-time.After(100 * time.Millisecond):
		// Accept stayed blocked: black-holed, as intended.
	}
}

func TestFailAfterDials(t *testing.T) {
	flaky, ln := setup(t)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	flaky.FailAfterDials(2)
	for i := 0; i < 2; i++ {
		conn, err := flaky.Dial(context.Background(), "svc")
		if err != nil {
			t.Fatalf("dial %d before the countdown expired: %v", i, err)
		}
		conn.Close()
	}
	if _, err := flaky.Dial(context.Background(), "svc"); !errors.Is(err, ErrInjected) {
		t.Fatalf("dial after countdown = %v, want ErrInjected", err)
	}
	if !flaky.Failed() {
		t.Error("network not failed after the countdown tripped")
	}
	flaky.Heal()
	if _, err := flaky.Dial(context.Background(), "svc"); err != nil {
		t.Errorf("dial after heal = %v (countdown must disarm)", err)
	}
}

func TestCrashRanks(t *testing.T) {
	ran := false
	program := func(ctx context.Context, env node.Env) error {
		ran = true
		return nil
	}
	wrapped := CrashRanks(program, 1)
	if err := wrapped(context.Background(), node.Env{Rank: 1}); !errors.Is(err, ErrInjected) {
		t.Errorf("victim rank = %v, want ErrInjected", err)
	}
	if ran {
		t.Error("victim rank ran the wrapped program")
	}
	if err := wrapped(context.Background(), node.Env{Rank: 0}); err != nil || !ran {
		t.Errorf("healthy rank: err=%v ran=%v", err, ran)
	}
	all := CrashRanks(program)
	if err := all(context.Background(), node.Env{Rank: 7}); !errors.Is(err, ErrInjected) {
		t.Errorf("crash-all rank = %v, want ErrInjected", err)
	}
}

func TestHeldBodyStopsAtItsHoldPoint(t *testing.T) {
	payload := []byte("0123456789")
	body := HoldBody(payload, 4)
	got := make(chan []byte, 1)
	go func() {
		all, _ := io.ReadAll(body)
		got <- all
	}()
	<-body.Parked()
	select {
	case all := <-got:
		t.Fatalf("read %q through a held body", all)
	case <-time.After(10 * time.Millisecond):
	}
	body.Release()
	body.Release() // idempotent
	if all := <-got; string(all) != string(payload) {
		t.Fatalf("read %q, want %q", all, payload)
	}
}
