package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"gridproxy/internal/mpi"
	"gridproxy/internal/mpirun"
	"gridproxy/internal/node"
)

// The node programs the workloads submit. They are installed next to the
// demo programs, under names no demo uses.
const (
	progDigest   = "bench-digest"
	progNoop     = "bench-noop"
	progExchange = "bench-exchange"

	pingBytes   = 1 << 10
	streamBytes = 256 << 10
)

func registerBenchPrograms(agent *node.Agent) {
	agent.RegisterProgram(progDigest, benchDigest)
	agent.RegisterProgram(progNoop, benchNoop)
	agent.RegisterProgram(progExchange, mpirun.Program(benchExchange))
}

// benchDigest hashes every staged input named in its arguments and
// publishes "digest-<rank>": one "rank name size sha256" line per input.
// The rank is part of the content so the two ranks' outputs are distinct
// blobs and the remote one really crosses back to the origin.
func benchDigest(ctx context.Context, env node.Env) error {
	var out strings.Builder
	for _, name := range env.Args {
		data, ok := env.StagedInput(name)
		if !ok {
			return fmt.Errorf("%s: no staged input %q", progDigest, name)
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(&out, "%d %s %d %s\n", env.Rank, name, len(data), hex.EncodeToString(sum[:]))
	}
	return env.PublishOutput(fmt.Sprintf("digest-%d", env.Rank), []byte(out.String()))
}

// benchNoop checks that its one staged input is readable and exits. It
// publishes nothing, so a control_mix job moves no payload at all.
func benchNoop(ctx context.Context, env node.Env) error {
	for _, name := range env.Args {
		if _, ok := env.StagedInput(name); !ok {
			return fmt.Errorf("%s: no staged input %q", progNoop, name)
		}
	}
	return nil
}

// exchangeTimings is what rank 0 of bench-exchange measured.
type exchangeTimings struct {
	RTTNanos    []int64 `json:"rtt_ns"`
	StreamNanos int64   `json:"stream_ns"`
	StreamBytes int64   `json:"stream_bytes"`
}

// exchangeCheck is what rank 1 of bench-exchange saw.
type exchangeCheck struct {
	Pings      int  `json:"pings"`
	StreamMsgs int  `json:"stream_msgs"`
	PatternOK  bool `json:"pattern_ok"`
}

func fillPattern(p []byte, round int) {
	for i := range p {
		p[i] = byte(i*7 + round)
	}
}

func checkPattern(p []byte, size, round int) bool {
	if len(p) != size {
		return false
	}
	for i := range p {
		if p[i] != byte(i*7+round) {
			return false
		}
	}
	return true
}

// exchange is the two-rank body shared by the node program and the
// ladder's direct (no proxy) pair: pings 1 KiB round trips, then
// streamMsgs 256 KiB messages one way with a final ack. Tag 0 is an
// untimed round trip that establishes the connections.
func exchange(ctx context.Context, w *mpi.World, pings, streamMsgs int) (exchangeTimings, exchangeCheck, error) {
	var timings exchangeTimings
	check := exchangeCheck{PatternOK: true}
	if w.Size() != 2 {
		return timings, check, fmt.Errorf("%s: needs exactly 2 ranks, got %d", progExchange, w.Size())
	}
	peer := 1 - w.Rank()
	ackTag := pings + streamMsgs + 1
	if w.Rank() == 0 {
		ping := make([]byte, pingBytes)
		for round := 0; round <= pings; round++ {
			fillPattern(ping, round)
			start := time.Now()
			if err := w.Send(ctx, peer, round, ping); err != nil {
				return timings, check, err
			}
			m, err := w.Recv(ctx, peer, round)
			if err != nil {
				return timings, check, err
			}
			if round > 0 {
				timings.RTTNanos = append(timings.RTTNanos, time.Since(start).Nanoseconds())
			}
			if !checkPattern(m.Data, pingBytes, round) {
				return timings, check, fmt.Errorf("%s: echo %d came back corrupted", progExchange, round)
			}
		}
		msg := make([]byte, streamBytes)
		start := time.Now()
		for i := 0; i < streamMsgs; i++ {
			fillPattern(msg, i)
			if err := w.Send(ctx, peer, pings+1+i, msg); err != nil {
				return timings, check, err
			}
		}
		if _, err := w.Recv(ctx, peer, ackTag); err != nil {
			return timings, check, err
		}
		timings.StreamNanos = time.Since(start).Nanoseconds()
		timings.StreamBytes = int64(streamMsgs) * streamBytes
		return timings, check, nil
	}
	for round := 0; round <= pings; round++ {
		m, err := w.Recv(ctx, peer, round)
		if err != nil {
			return timings, check, err
		}
		if !checkPattern(m.Data, pingBytes, round) {
			check.PatternOK = false
		}
		if round > 0 {
			check.Pings++
		}
		if err := w.Send(ctx, peer, round, m.Data); err != nil {
			return timings, check, err
		}
	}
	for i := 0; i < streamMsgs; i++ {
		m, err := w.Recv(ctx, peer, pings+1+i)
		if err != nil {
			return timings, check, err
		}
		if !checkPattern(m.Data, streamBytes, i) {
			check.PatternOK = false
		}
		check.StreamMsgs++
	}
	return timings, check, w.Send(ctx, peer, ackTag, []byte{1})
}

// benchExchange runs exchange on a spawned rank and publishes what it
// measured ("timings", rank 0) or saw ("check", rank 1).
// Args: pings, stream messages.
func benchExchange(ctx context.Context, w *mpi.World, env node.Env) error {
	if len(env.Args) != 2 {
		return fmt.Errorf("%s: want args <pings> <stream-msgs>", progExchange)
	}
	pings, err := strconv.Atoi(env.Args[0])
	if err != nil {
		return err
	}
	streamMsgs, err := strconv.Atoi(env.Args[1])
	if err != nil {
		return err
	}
	timings, check, err := exchange(ctx, w, pings, streamMsgs)
	if err != nil {
		return err
	}
	name, blob := "timings", any(timings)
	if w.Rank() == 1 {
		name, blob = "check", any(check)
	}
	data, err := json.Marshal(blob)
	if err != nil {
		return err
	}
	return env.PublishOutput(name, data)
}
