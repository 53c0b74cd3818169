package peerlink

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.RPCTimeout != DefaultRPCTimeout || c.HelloTimeout != DefaultHelloTimeout {
		t.Errorf("timeout defaults not applied: %+v", c)
	}
	// Negative means disabled and must survive.
	if d := (Config{RPCTimeout: -1}).WithDefaults(); d.RPCTimeout != -1 {
		t.Errorf("negative (disabled) RPCTimeout overridden: %+v", d)
	}
	// StatusTTL has no default: caching is opt-in.
	if c.StatusTTL != 0 {
		t.Errorf("StatusTTL defaulted to %v, want 0", c.StatusTTL)
	}
}

// TestFanOutBoundedByPerTargetDeadline injects one hung target among
// healthy ones and checks the fan-out completes in O(deadline), not
// O(forever), with per-target results preserved in order.
func TestFanOutBoundedByPerTargetDeadline(t *testing.T) {
	targets := []string{"a", "hung", "b"}
	start := time.Now()
	results := FanOut(context.Background(), targets, 100*time.Millisecond,
		func(ctx context.Context, target string) (string, error) {
			if target == "hung" {
				<-ctx.Done() // a hung peer: only the deadline frees us
				return "", ctx.Err()
			}
			return "ok:" + target, nil
		})
	elapsed := time.Since(start)
	if elapsed > time.Second {
		t.Fatalf("fan-out took %v; hung target not bounded by deadline", elapsed)
	}
	if len(results) != 3 {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Value != "ok:a" || results[0].Err != nil {
		t.Errorf("target a: %+v", results[0])
	}
	if !errors.Is(results[1].Err, context.DeadlineExceeded) {
		t.Errorf("hung target err = %v, want DeadlineExceeded", results[1].Err)
	}
	if results[2].Value != "ok:b" || results[2].Err != nil {
		t.Errorf("target b: %+v", results[2])
	}
}
