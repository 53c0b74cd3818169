package wire

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateConn is an io.Writer whose first write blocks until released; every
// write is recorded. It lets tests park a flusher mid-flush so frames
// queue behind it deterministically.
type gateConn struct {
	mu      sync.Mutex
	writes  [][]byte
	gate    chan struct{}
	gateOne sync.Once
}

func newGateConn() *gateConn { return &gateConn{gate: make(chan struct{})} }

func (g *gateConn) release() { g.gateOne.Do(func() { close(g.gate) }) }

func (g *gateConn) Write(p []byte) (int, error) {
	g.mu.Lock()
	first := len(g.writes) == 0
	g.writes = append(g.writes, append([]byte(nil), p...))
	g.mu.Unlock()
	if first {
		<-g.gate
	}
	return len(p), nil
}

// frameTypes parses the concatenation of all recorded writes and returns
// the frame types in wire order.
func (g *gateConn) frameTypes(t *testing.T) []byte {
	t.Helper()
	g.mu.Lock()
	var all []byte
	for _, w := range g.writes {
		all = append(all, w...)
	}
	g.mu.Unlock()
	r := NewReader(bytes.NewReader(all))
	var types []byte
	for {
		f, err := r.ReadFrame()
		if err == io.EOF {
			return types
		}
		if err != nil {
			t.Fatalf("parse recorded writes: %v", err)
		}
		types = append(types, f.Type)
	}
}

func (g *gateConn) writeCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.writes)
}

// TestWriterControlLaneOrder parks a flusher, queues a bulk frame and then
// a control frame behind it, and verifies the control frame overtakes the
// earlier-queued bulk frame in the next flush.
func TestWriterControlLaneOrder(t *testing.T) {
	conn := newGateConn()
	w := NewWriter(conn)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	wg.Add(1)
	go func() { defer wg.Done(); errs[0] = w.WriteFrame(0x01, []byte("first")) }()
	// Wait until the first writer is parked inside the gated conn.Write.
	waitFor(t, func() bool { return conn.writeCount() == 1 })

	wg.Add(1)
	go func() { defer wg.Done(); errs[1] = w.WriteFrame(0x02, []byte("bulk")) }()
	time.Sleep(20 * time.Millisecond) // let the bulk frame queue
	wg.Add(1)
	go func() { defer wg.Done(); errs[2] = w.WriteControl(0x03, []byte("ctrl")) }()
	time.Sleep(20 * time.Millisecond)

	conn.release()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	types := conn.frameTypes(t)
	if len(types) != 3 || types[0] != 0x01 || types[1] != 0x03 || types[2] != 0x02 {
		t.Fatalf("frame order = %#v, want [0x01 0x03 0x02] (control overtakes queued bulk)", types)
	}
}

// TestWriterBackpressure verifies bulk writers block at MaxPending while
// control frames still get through, and that everything drains once the
// flusher unwedges.
func TestWriterBackpressure(t *testing.T) {
	conn := newGateConn()
	w := NewWriterOpts(conn, Options{MaxPending: 64, Linger: -1})
	var wg sync.WaitGroup
	write := func(control bool, typ byte, n int, done *atomic.Bool) {
		defer wg.Done()
		payload := bytes.Repeat([]byte{typ}, n)
		var err error
		if control {
			err = w.WriteControl(typ, payload)
		} else {
			err = w.WriteFrame(typ, payload)
		}
		if err != nil {
			t.Errorf("write %#x: %v", typ, err)
		}
		done.Store(true)
	}

	var d1, d2, d3, d4 atomic.Bool
	wg.Add(1)
	go write(false, 0x01, 16, &d1) // becomes flusher, parks in gated Write
	waitFor(t, func() bool { return conn.writeCount() == 1 })
	wg.Add(1)
	go write(false, 0x02, 100, &d2) // queues; bulk lane now over MaxPending
	time.Sleep(20 * time.Millisecond)
	wg.Add(1)
	go write(false, 0x03, 16, &d3) // must block on backpressure
	wg.Add(1)
	go write(true, 0x04, 16, &d4) // control: exempt from the cap, queues
	time.Sleep(50 * time.Millisecond)
	if d2.Load() || d3.Load() || d4.Load() {
		t.Fatal("a queued write completed while the flusher was wedged")
	}

	conn.release()
	wg.Wait()
	types := conn.frameTypes(t)
	if len(types) != 4 {
		t.Fatalf("got %d frames, want 4 (%#v)", len(types), types)
	}
}

// TestWriterErrorPoisons verifies the first write error freezes the
// Writer: the failing call and all subsequent calls return the error.
func TestWriterErrorPoisons(t *testing.T) {
	w := NewWriter(failWriter{})
	if err := w.WriteFrame(1, []byte("x")); err == nil {
		t.Fatal("expected error from failing conn")
	}
	err := w.WriteFrame(2, []byte("y"))
	if err == nil || !errors.Is(err, errFailWriter) {
		t.Fatalf("subsequent write: err = %v, want wrapped errFailWriter", err)
	}
	if err := w.WriteControl(3, nil); !errors.Is(err, errFailWriter) {
		t.Fatalf("control write after failure: err = %v", err)
	}
}

var errFailWriter = errors.New("conn broken")

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFailWriter }

// slowConn records writes and sleeps on each, like a WAN hop: while one
// flush is in flight, concurrent writers must queue behind it.
type slowConn struct {
	gateConn
	delay time.Duration
}

func (s *slowConn) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.writes = append(s.writes, append([]byte(nil), p...))
	s.mu.Unlock()
	time.Sleep(s.delay)
	return len(p), nil
}

// TestWriterCoalesces verifies concurrent writers share underlying writes:
// with a flusher amortizing batches over a slow conn, conn writes stay
// well under the frame count.
func TestWriterCoalesces(t *testing.T) {
	conn := &slowConn{delay: 500 * time.Microsecond}
	var frames, flushBytes atomic.Int64
	w := NewWriterOpts(conn, Options{
		Linger: 2 * time.Millisecond,
		Observer: func(fs FlushStats) {
			frames.Add(int64(fs.Frames))
			flushBytes.Add(int64(fs.Bytes))
		},
	})
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(i)}, 512)
			for j := 0; j < perWriter; j++ {
				if err := w.WriteFrame(byte(i), payload); err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	total := writers * perWriter
	if got := conn.frameTypes(t); len(got) != total {
		t.Fatalf("frames on wire = %d, want %d", len(got), total)
	}
	if frames.Load() != int64(total) {
		t.Fatalf("observer saw %d frames, want %d", frames.Load(), total)
	}
	wantBytes := int64(total * (headerSize + 512))
	if flushBytes.Load() != wantBytes {
		t.Fatalf("observer saw %d bytes, want %d", flushBytes.Load(), wantBytes)
	}
	if n := conn.writeCount(); n >= total {
		t.Fatalf("conn writes = %d for %d frames; expected coalescing", n, total)
	}
}

// TestWriteFramev verifies gathered segments are concatenated into one
// frame, and that the size limit applies to the gathered total.
func TestWriteFramev(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFramev(7, []byte("ab"), nil, []byte("cde"), []byte("f")); err != nil {
		t.Fatal(err)
	}
	f, err := NewReader(&buf).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != 7 || string(f.Payload) != "abcdef" {
		t.Fatalf("frame = %#x %q", f.Type, f.Payload)
	}
	half := make([]byte, MaxPayload/2+1)
	if err := w.WriteFramev(8, half, half); err != ErrFrameTooLarge {
		t.Fatalf("oversized gather: err = %v, want ErrFrameTooLarge", err)
	}
}

// TestWriteSeqFrames verifies a batch lands as consecutive frames (header
// and payload segments concatenated), in order with the writes around it,
// and that the size limit applies per frame.
func TestWriteSeqFrames(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	batch := []SeqFrame{
		{Type: 1, Hdr: []byte("h1"), Payload: []byte("one")},
		{Type: 2, Hdr: []byte("h2")},
	}
	if err := w.WriteSeqFrames(batch); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(9, []byte("single")); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSeqFrames(batch[:1]); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range []string{"h1one", "h2", "single", "h1one"} {
		f, err := r.ReadFrame()
		if err != nil || string(f.Payload) != want {
			t.Fatalf("frame %d = %q, %v; want %q", i, f.Payload, err, want)
		}
	}
	big := []SeqFrame{{Type: 1, Hdr: make([]byte, 1), Payload: make([]byte, MaxPayload)}}
	if err := w.WriteSeqFrames(big); err != ErrFrameTooLarge {
		t.Fatalf("oversized frame: err = %v, want ErrFrameTooLarge", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
