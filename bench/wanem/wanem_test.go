package wanem

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"gridproxy/internal/transport"
)

// yardstick is the link the benchmark's bulk_wan workload runs on.
var yardstick = Params{OneWay: 10 * time.Millisecond, Rate: 125e6}

// pair dials n connections across link l to a listener whose accepted
// (plain) sides are handed to serve.
func pair(t *testing.T, l *Link, n int, serve func(net.Conn)) []net.Conn {
	t.Helper()
	ln, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(c)
		}
	}()
	side := l.Side(0, transport.TCP{})
	conns := make([]net.Conn, n)
	for i := range conns {
		c, err := side.Dial(context.Background(), ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		conns[i] = c
	}
	return conns
}

func within(got, want, tol float64) bool { return got >= want*(1-tol) && got <= want*(1+tol) }

func TestRoundTripIsTwiceTheOneWayDelay(t *testing.T) {
	echo := func(c net.Conn) { defer c.Close(); io.Copy(c, c) }
	c := pair(t, NewLink(yardstick), 1, echo)[0]
	buf := make([]byte, 1)
	var best time.Duration
	for i := 0; i < 10; i++ {
		start := time.Now()
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatal(err)
		}
		if rtt := time.Since(start); best == 0 || rtt < best {
			best = rtt
		}
	}
	if !within(best.Seconds(), 0.020, 0.05) {
		t.Fatalf("rtt = %v, want 20ms ± 5%%", best)
	}
}

// sink drains a connection and reports on done how many bytes arrived.
func sink(done chan<- int64) func(net.Conn) {
	return func(c net.Conn) {
		defer c.Close()
		n, _ := io.Copy(io.Discard, c)
		done <- n
	}
}

func TestStreamRunsAtTheLinkRate(t *testing.T) {
	const total = 64 << 20
	done := make(chan int64, 1)
	link := NewLink(yardstick)
	c := pair(t, link, 1, sink(done))[0]
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i) // fault the pages in before the clock starts
	}
	start := time.Now()
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	// The writer returns once the last segment is queued; the link is
	// done when the serializer and the delay line have drained.
	admitted := time.Since(start)
	rate := float64(total) / (admitted + time.Duration(float64(2*yardstick.BDP())/yardstick.Rate*float64(time.Second))).Seconds()
	if rate > yardstick.Rate*1.05 || (rate < yardstick.Rate*0.95 && !raceEnabled) {
		t.Fatalf("stream rate = %.1f MB/s, want 125 ± 5%%", rate/1e6)
	}
}

func TestParallelConnsShareOneBucket(t *testing.T) {
	const k, each = 4, 16 << 20
	done := make(chan int64, k)
	link := NewLink(yardstick)
	conns := pair(t, link, k, sink(done))
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c net.Conn) {
			defer wg.Done()
			if _, err := c.Write(make([]byte, each)); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	admitted := time.Since(start)
	// k*each bytes were admitted in `admitted`, of which at most Queue are
	// still waiting for the serializer: the rest left at the link rate.
	sent := float64(k*each - 2*yardstick.BDP())
	if rate := sent / admitted.Seconds(); rate > yardstick.Rate*1.05 {
		t.Fatalf("%d conns moved %.1f MB/s, more than the 125 MB/s link", k, rate/1e6)
	}
}

func TestBlockedWriterHonoursDeadline(t *testing.T) {
	// A slow link whose queue fills at once: the second write must block,
	// and give up at its deadline rather than when the queue drains.
	link := NewLink(Params{OneWay: time.Millisecond, Rate: 1e6, Queue: 64 << 10})
	done := make(chan int64, 1)
	c := pair(t, link, 1, sink(done))[0]
	if _, err := c.Write(make([]byte, 128<<10)); err != nil {
		t.Fatal(err)
	}
	c.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	_, err := c.Write(make([]byte, 1<<20))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("blocked write returned %v, want deadline exceeded", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("deadline error %v is not a net timeout", err)
	}
	if waited := time.Since(start); waited > 200*time.Millisecond {
		t.Fatalf("blocked write took %v to notice a 20ms deadline", waited)
	}
}

func TestReadDeadlineAndClose(t *testing.T) {
	hold := func(c net.Conn) { defer c.Close(); io.Copy(io.Discard, c) }
	c := pair(t, NewLink(yardstick), 1, hold)[0]
	c.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("idle read returned %v, want deadline exceeded", err)
	}
	c.SetReadDeadline(time.Time{})
	errc := make(chan error, 1)
	go func() { _, err := c.Read(make([]byte, 1)); errc <- err }()
	time.Sleep(5 * time.Millisecond)
	c.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("read on a closed connection succeeded")
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not release a blocked reader")
	}
}

func TestCloseDeliversWhatWriteAccepted(t *testing.T) {
	// "Write the last frame, then Close" must reach the far end, one
	// propagation delay later, as TCP's close flushes the send buffer.
	const total = 1 << 20
	done := make(chan int64, 1)
	c := pair(t, NewLink(yardstick), 1, sink(done))[0]
	start := time.Now()
	if _, err := c.Write(make([]byte, total)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte{1}); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write after Close returned %v, want net.ErrClosed", err)
	}
	select {
	case got := <-done:
		if got != total {
			t.Fatalf("far end received %d of the %d bytes written before Close", got, total)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("far end never saw the connection close")
	}
	if took := time.Since(start); took < yardstick.OneWay {
		t.Fatalf("bytes crossed in %v, less than the one-way delay", took)
	}
}
