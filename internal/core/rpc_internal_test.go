package core

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"

	"gridproxy/internal/logging"
	"gridproxy/internal/metrics"
	"gridproxy/internal/proto"
)

// TestLargeRepliesLeaveThePool: a reply big enough to be read into a
// pooled 1 MiB frame is copied out at its own length and the frame goes
// back to the pool, so each 100 KiB reply costs about its own size, not a
// fresh 1 MiB buffer.
func TestLargeRepliesLeaveThePool(t *testing.T) {
	const calls = 32
	text := strings.Repeat("x", 100<<10)
	a, b := net.Pipe()
	server := newRPC(context.Background(), a, roleAcceptor, func(context.Context, proto.Message) (proto.Body, error) {
		return nil, errors.New(text)
	}, logging.Discard(), metrics.NewRegistry())
	client := newRPC(context.Background(), b, roleDialer, func(context.Context, proto.Message) (proto.Body, error) {
		return nil, nil
	}, logging.Discard(), metrics.NewRegistry())
	server.start()
	client.start()
	defer server.close()
	defer client.close()

	call := func() {
		_, err := client.call(context.Background(), &proto.Ping{})
		var se *statusError
		if !errors.As(err, &se) || se.text != text {
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
