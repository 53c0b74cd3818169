package failure

import (
	"io"
	"sync"
	"time"
)

// SlowLoris models the stalled-client attack against an HTTP front
// door: a request body that dribbles in one small chunk at a time — or
// stops arriving entirely — while the server holds a handler slot open
// waiting for it. Bodies minted by the same injector share one stall
// gate, so a test (or load experiment) can freeze a whole cohort of
// in-flight requests and release them at a chosen instant. This is the
// failure mode a gateway's admission control and per-route deadlines
// must survive: slots held by clients that are connected but not
// making progress.
type SlowLoris struct {
	// Chunk is how many bytes each Read releases. Default 1 — the
	// classic one-byte drip.
	Chunk int
	// Delay is the pause before each chunk. Default 0 (no pacing; use
	// Stall/Heal for deterministic control).
	Delay time.Duration

	mu sync.Mutex
	ch chan struct{} // non-nil while stalled; closed on Heal
}

// Stall freezes every body minted by this injector: reads block without
// erroring until Heal or the body is closed.
func (s *SlowLoris) Stall() {
	s.mu.Lock()
	if s.ch == nil {
		s.ch = make(chan struct{})
	}
	s.mu.Unlock()
}

// Heal unblocks every read waiting on the stall.
func (s *SlowLoris) Heal() {
	s.mu.Lock()
	if s.ch != nil {
		close(s.ch)
		s.ch = nil
	}
	s.mu.Unlock()
}

// Body returns payload as a drip-fed request body gated by the
// injector. Closing the body unblocks any stalled read with an error,
// the way an HTTP server tearing down a connection abandons the client.
func (s *SlowLoris) Body(payload []byte) io.ReadCloser {
	return &lorisBody{loris: s, rest: payload, closed: make(chan struct{})}
}

type lorisBody struct {
	loris  *SlowLoris
	once   sync.Once
	closed chan struct{}

	mu   sync.Mutex
	rest []byte
}

func (b *lorisBody) Read(p []byte) (int, error) {
	b.loris.mu.Lock()
	gate := b.loris.ch
	delay := b.loris.Delay
	chunk := b.loris.Chunk
	b.loris.mu.Unlock()
	if chunk <= 0 {
		chunk = 1
	}
	if err := awaitGate(gate, b.closed, time.Time{}); err != nil {
		return 0, err
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-b.closed:
			return 0, io.ErrClosedPipe
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.rest) == 0 {
		return 0, io.EOF
	}
	n := min(chunk, min(len(p), len(b.rest)))
	copy(p, b.rest[:n])
	b.rest = b.rest[n:]
	return n, nil
}

func (b *lorisBody) Close() error {
	b.once.Do(func() { close(b.closed) })
	return nil
}

// HeldBody is a payload that arrives up to a point and then stops: Read
// yields payload[:hold] and blocks there until Release, then yields the
// rest. It is the deterministic half of a slow-loris — a test parks an
// upload at a known byte, looks at what the server holds of it, and lets
// it go.
type HeldBody struct {
	payload []byte
	hold    int
	off     int
	parked  chan struct{}
	release chan struct{}
	once    sync.Once
}

// HoldBody returns payload as a body that stops after hold bytes.
func HoldBody(payload []byte, hold int) *HeldBody {
	return &HeldBody{payload: payload, hold: hold, parked: make(chan struct{}), release: make(chan struct{})}
}

// Parked is closed once a Read has blocked at the hold point.
func (b *HeldBody) Parked() <-chan struct{} { return b.parked }

// Release lets the rest of the payload through.
func (b *HeldBody) Release() { b.once.Do(func() { close(b.release) }) }

// Read implements io.Reader; it is called from one goroutine.
func (b *HeldBody) Read(p []byte) (int, error) {
	if b.off == b.hold {
		select {
		case <-b.release:
		default:
			close(b.parked)
			<-b.release
		}
		b.hold = len(b.payload)
	}
	if b.off == len(b.payload) {
		return 0, io.EOF
	}
	n := copy(p, b.payload[b.off:b.hold])
	b.off += n
	return n, nil
}
