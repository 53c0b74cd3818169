package tunnel

import (
	"sync"
	"sync/atomic"
	"time"

	"gridproxy/internal/wire"
)

// RTT-adaptive flow control. A fixed per-stream window is wrong twice on
// a real WAN: on a fat-long pipe it is saturation-starved (the sender
// idles waiting for grants the moment window < bandwidth × RTT), and on a
// thin pipe it is idle-wasteful (the receiver promises buffer space the
// link can never fill). BBR's insight applies directly since WINDOW
// grants already pace the sender: estimate the path's bandwidth-delay
// product from a windowed-minimum RTT (PING probes per member
// connection) and a windowed-maximum delivery rate (differentiated from
// the receiver's in-order byte count), size the window to
//
//	target = bdpGain × gain × max_bandwidth × min_RTT
//
// and cycle gain through [1.25, 0.75, 1 ×6]: the high phase probes for
// more bandwidth, the drain phase below 1 releases any queue the probe
// built, so the min-RTT estimate stays honest. The target is clamped to
// [WindowMin, WindowMax] and to MemBudget split across live streams, so
// a thousand-stream session cannot promise unbounded receive buffering.
//
// The estimator lives at the receiver (grants are its to give) and
// belongs to the session, not to a stream: a new stream's first credit —
// the field its SYN or SYNACK carries — is the target the session has
// already learned (promiseCredit), so a link measured minutes ago is not
// ramped up to again by every stream opened over it.

// flowGains is the window gain cycle (see package comment above).
var flowGains = [...]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// flowTargetFloor is the absolute minimum adaptive target: even a brutal
// memory clamp leaves room for one small segment so streams keep making
// progress.
const flowTargetFloor = 4 << 10

// probeExpiry is how long an unanswered prober PING stays pending before
// its waiter is swept. Expiring after a single tick would censor exactly
// the samples that matter — a congested path whose PONGs queue behind
// bulk data for longer than one ProbeInterval — and bias min-RTT toward
// idle moments. Age-based expiry keeps slow samples and still bounds the
// waiter map.
const probeExpiry = 2 * time.Second

// flowState holds the adaptive window estimators. target is read on
// every grant decision (hot path, atomic); the sample rings are touched
// only by probes and the prober tick.
type flowState struct {
	target atomic.Int64

	mu      sync.Mutex
	rttRing [16]int64 // recent RTT samples, microseconds
	rttLen  int
	rttIdx  int
	bwRing  [8]float64 // recent delivery-rate samples, bytes/second
	bwLen   int
	bwIdx   int
}

func (f *flowState) init(cfg Config) {
	f.target.Store(int64(cfg.Window))
}

// observeRTT records one probe round trip. Windowed (ring) rather than
// all-time, so a route change that lengthens the path ages out of the
// minimum instead of pinning it forever.
func (f *flowState) observeRTT(rtt time.Duration) {
	us := rtt.Microseconds()
	if us <= 0 {
		us = 1
	}
	f.mu.Lock()
	f.rttRing[f.rttIdx] = us
	f.rttIdx = (f.rttIdx + 1) % len(f.rttRing)
	if f.rttLen < len(f.rttRing) {
		f.rttLen++
	}
	f.mu.Unlock()
}

// observeBW records one delivery-rate sample.
func (f *flowState) observeBW(bps float64) {
	if bps <= 0 {
		return
	}
	f.mu.Lock()
	f.bwRing[f.bwIdx] = bps
	f.bwIdx = (f.bwIdx + 1) % len(f.bwRing)
	if f.bwLen < len(f.bwRing) {
		f.bwLen++
	}
	f.mu.Unlock()
}

// minRTT returns the windowed-minimum RTT, or 0 with no samples yet.
func (f *flowState) minRTT() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	var min int64
	for i := 0; i < f.rttLen; i++ {
		if v := f.rttRing[i]; min == 0 || v < min {
			min = v
		}
	}
	return time.Duration(min) * time.Microsecond
}

// maxBW returns the windowed-maximum delivery rate, or 0 with no samples.
func (f *flowState) maxBW() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var max float64
	for i := 0; i < f.bwLen; i++ {
		if f.bwRing[i] > max {
			max = f.bwRing[i]
		}
	}
	return max
}

// retarget recomputes the per-stream window target from the current
// estimates. Until both estimators have a sample the configured initial
// window stands (still subject to the memory clamp).
func (f *flowState) retarget(cfg Config, gain float64, streams int) {
	target := int64(cfg.Window)
	rtt := f.minRTT()
	bw := f.maxBW()
	if rtt > 0 && bw > 0 {
		bdp := bw * rtt.Seconds()
		target = int64(bdpGain * gain * bdp)
	}
	if target < int64(cfg.WindowMin) {
		target = int64(cfg.WindowMin)
	}
	if target > int64(cfg.WindowMax) {
		target = int64(cfg.WindowMax)
	}
	// The memory budget is a hard clamp: it wins even against WindowMin,
	// because it is what bounds receiver buffering across streams.
	if cfg.MemBudget > 0 {
		if streams < 1 {
			streams = 1
		}
		if per := cfg.MemBudget / int64(streams); target > per {
			target = per
		}
		if target < flowTargetFloor {
			target = flowTargetFloor
		}
	}
	f.target.Store(target)
}

// Window returns the per-stream receive window, in bytes, the session
// currently grants up to: static sessions keep their configured window,
// adaptive ones track what the estimator has learned of the path.
func (s *Session) Window() int64 { return s.flow.target.Load() }

// promiseCredit sizes the credit a new stream advertises in its SYN or
// SYNACK and books it against the session: the learned target, never
// less than the configured window (a loopback BDP reads tiny) or than
// earlyCredit, which the protocol owes every stream. On an adaptive
// session MemBudget binds here, at open time, against what the live
// streams were promised when they opened — retarget only learns the
// stream count at its next tick, too late for a burst of opens. A stream
// that finds the budget spent starts at earlyCredit and is topped up by
// its first WINDOW grant. removeStream hands the credit back.
func (s *Session) promiseCredit() int64 {
	credit := max(int64(s.cfg.Window), s.Window(), earlyCredit)
	booked := s.promised.Add(credit)
	if s.cfg.Adaptive && s.cfg.MemBudget > 0 && booked > s.cfg.MemBudget {
		refund := min(booked-s.cfg.MemBudget, credit-earlyCredit)
		s.promised.Add(-refund)
		credit -= refund
	}
	return credit
}

// probeLoop runs for the life of every session: each tick it sweeps
// straggler BONDACKs, pings every live member (attributing the RTT sample
// to the connection it returns on, for the spray metrics), samples the
// delivery rate, and refreshes the RTT and window gauges; for adaptive
// sessions it first advances the gain cycle and refreshes the window
// target.
func (s *Session) probeLoop() {
	ticker := time.NewTicker(s.cfg.ProbeInterval)
	defer ticker.Stop()
	var (
		gainIdx       int
		lastDelivered = s.delivered.Load()
		lastAt        = time.Now()
	)
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
		}

		s.flushBondAcks()

		// Sweep prober waiters that have aged out (a PONG queued behind
		// bulk traffic may legitimately take many ticks), then launch
		// this tick's round.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		for n, w := range s.pongs {
			if w.ch == nil && time.Since(w.sentAt) > probeExpiry {
				delete(s.pongs, n)
			}
		}
		s.mu.Unlock()
		for _, m := range s.liveMembers() {
			if m.dead.Load() {
				continue
			}
			nonce := s.pingSeq.Add(1)
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.pongs[nonce] = &pongWaiter{sentAt: time.Now()}
			s.mu.Unlock()
			var nb [8]byte
			if err := m.w.WriteControl(framePING, wire.AppendUint64(nb[:0], nonce)); err != nil {
				s.mu.Lock()
				delete(s.pongs, nonce)
				s.mu.Unlock()
				continue
			}
		}

		now := time.Now()
		cur := s.delivered.Load()
		if dt := now.Sub(lastAt); dt > 0 {
			if dBytes := cur - lastDelivered; dBytes > 0 {
				s.flow.observeBW(float64(dBytes) / dt.Seconds())
			}
		}
		lastDelivered, lastAt = cur, now

		if rtt := s.SmoothedRTT(); rtt > 0 {
			s.rttGauge.Set(rtt.Microseconds())
		}
		if s.cfg.Adaptive {
			s.flow.retarget(s.cfg, flowGains[gainIdx], s.table.len())
			gainIdx = (gainIdx + 1) % len(flowGains)
		}
		s.windowGauge.Set(s.Window())
	}
}
