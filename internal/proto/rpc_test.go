package proto

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"

	"gridproxy/internal/metrics"
	"gridproxy/internal/wire"
)

// TestLargeRepliesLeaveThePool: a reply big enough to be read into a
// pooled 1 MiB frame is copied out at its own length and the frame goes
// back to the pool, so each 100 KiB reply costs about its own size, not a
// fresh 1 MiB buffer.
func TestLargeRepliesLeaveThePool(t *testing.T) {
	const calls = 32
	text := strings.Repeat("x", 100<<10)
	a, b := net.Pipe()
	server := NewRPC(context.Background(), a, wire.NewReader(a), RoleAcceptor, func(context.Context, Message) (Body, error) {
		return nil, errors.New(text)
	}, nil, metrics.NewRegistry())
	client := NewRPC(context.Background(), b, wire.NewReader(b), RoleDialer, func(context.Context, Message) (Body, error) {
		return nil, nil
	}, nil, metrics.NewRegistry())
	server.Start()
	client.Start()
	defer server.Close()
	defer client.Close()

	call := func() {
		_, err := client.Call(context.Background(), &Ping{})
		var se *StatusError
		if !errors.As(err, &se) || se.Text != text {
			t.Fatalf("the large reply did not arrive whole: %.80v", err)
		}
	}
	call() // the pool's first frame
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		call()
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= 1<<20 {
		t.Errorf("each 100 KiB reply allocated %d KiB", perCall>>10)
	}
}
