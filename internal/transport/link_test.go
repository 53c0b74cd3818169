package transport

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// yardstick is the link gridmark's bulk_wan workload runs on.
var yardstick = LinkParams{OneWay: 10 * time.Millisecond, Rate: 125e6}

// overEachNetwork runs test over a Link wrapping the in-memory network and
// over one wrapping real TCP sockets.
func overEachNetwork(t *testing.T, test func(t *testing.T, inner Network, addr string)) {
	t.Run("mem", func(t *testing.T) {
		mem := NewMemNetwork()
		t.Cleanup(func() { mem.Close() })
		test(t, mem, "svc")
	})
	t.Run("tcp", func(t *testing.T) { test(t, TCP{}, "127.0.0.1:0") })
}

// linkPair dials n connections across side 0 of l to a listener on inner
// whose accepted (plain) ends are handed to serve.
func linkPair(t *testing.T, inner Network, addr string, l *Link, n int, serve func(net.Conn)) []net.Conn {
	t.Helper()
	ln, err := inner.Listen(addr)
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
	side := l.Side(0, inner)
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

func echo(c net.Conn) { defer c.Close(); io.Copy(c, c) }

// sink drains a connection and reports on done how many bytes arrived.
func sink(done chan<- int64) func(net.Conn) {
	return func(c net.Conn) {
		defer c.Close()
		n, _ := io.Copy(io.Discard, c)
		done <- n
	}
}

// bestRTT is the fastest of ten one-byte round trips on c.
func bestRTT(t *testing.T, c net.Conn) time.Duration {
	t.Helper()
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
	return best
}

func within(got, want, tol float64) bool { return got >= want*(1-tol) && got <= want*(1+tol) }

func TestLinkRoundTripIsTwiceTheOneWayDelay(t *testing.T) {
	overEachNetwork(t, func(t *testing.T, inner Network, addr string) {
		c := linkPair(t, inner, addr, NewLink(yardstick), 1, echo)[0]
		if best := bestRTT(t, c); !within(best.Seconds(), 0.020, 0.05) {
			t.Fatalf("rtt = %v, want 20ms ± 5%%", best)
		}
	})
}

func TestLinkStreamRunsAtTheLinkRate(t *testing.T) {
	overEachNetwork(t, func(t *testing.T, inner Network, addr string) {
		const total = 16 << 20
		done := make(chan int64, 1)
		c := linkPair(t, inner, addr, NewLink(yardstick), 1, sink(done))[0]
		payload := make([]byte, total)
		for i := range payload {
			payload[i] = byte(i) // fault the pages in before the clock starts
		}
		start := time.Now()
		if _, err := c.Write(payload); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if got := <-done; got != total {
			t.Fatalf("far end received %d of %d bytes", got, total)
		}
		// Serialization plus one propagation delay, and nothing else.
		rate := float64(total) / (time.Since(start) - yardstick.OneWay).Seconds()
		if rate > yardstick.Rate*1.05 || (rate < yardstick.Rate*0.9 && !raceEnabled) {
			t.Fatalf("stream rate = %.1f MB/s, want 125 (-10 %%, +5 %%)", rate/1e6)
		}
	})
}

// TestLinkParallelConnsShareOneBucket is the property bonded tunnels and
// striped transfers rest on: k connections of one link share its rate.
// A per-connection cap would let four of them carry four times the link.
func TestLinkParallelConnsShareOneBucket(t *testing.T) {
	overEachNetwork(t, func(t *testing.T, inner Network, addr string) {
		const k, each = 4, 4 << 20
		done := make(chan int64, k)
		conns := linkPair(t, inner, addr, NewLink(yardstick), k, sink(done))
		start := time.Now()
		var wg sync.WaitGroup
		for _, c := range conns {
			wg.Add(1)
			go func(c net.Conn) {
				defer wg.Done()
				if _, err := c.Write(make([]byte, each)); err != nil {
					t.Error(err)
				}
				c.Close()
			}(c)
		}
		wg.Wait()
		var got int64
		for range conns {
			got += <-done
		}
		if got != k*each {
			t.Fatalf("far end received %d of %d bytes", got, k*each)
		}
		rate := float64(got) / (time.Since(start) - yardstick.OneWay).Seconds()
		if rate > yardstick.Rate*1.1 || (rate < yardstick.Rate*0.9 && !raceEnabled) {
			t.Fatalf("%d conns moved %.1f MB/s together, want the link's 125 ± 10 %%", k, rate/1e6)
		}
	})
}

func TestLinkBlockedWriterHonoursDeadline(t *testing.T) {
	overEachNetwork(t, func(t *testing.T, inner Network, addr string) {
		// A slow link whose 64 KiB queue fills at once: the second write
		// must block, and give up at its deadline rather than when the
		// queue drains.
		link := NewLink(LinkParams{OneWay: time.Millisecond, Rate: 1e6})
		done := make(chan int64, 1)
		c := linkPair(t, inner, addr, link, 1, sink(done))[0]
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
	})
}

// TestLinkReadDeadlineWhileBytesAreInFlight: a read deadline that passes
// before the bytes on the link arrive ends the Read at the deadline, and
// the bytes are still there for the next Read.
func TestLinkReadDeadlineWhileBytesAreInFlight(t *testing.T) {
	overEachNetwork(t, func(t *testing.T, inner Network, addr string) {
		c := linkPair(t, inner, addr, NewLink(yardstick), 1, echo)[0]
		if _, err := c.Write([]byte{7}); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
		start := time.Now()
		if _, err := c.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read before the echo arrived returned %v, want deadline exceeded", err)
		}
		if waited := time.Since(start); waited >= 2*yardstick.OneWay {
			t.Fatalf("read with a 5ms deadline returned after %v, when the echo arrived", waited)
		}
		c.SetReadDeadline(time.Time{})
		buf := make([]byte, 1)
		if _, err := io.ReadFull(c, buf); err != nil || buf[0] != 7 {
			t.Fatalf("echo after the deadline: %v %v", buf, err)
		}

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
	})
}

func TestLinkCloseDeliversWhatWriteAccepted(t *testing.T) {
	overEachNetwork(t, func(t *testing.T, inner Network, addr string) {
		// "Write the last frame, then Close" must reach the far end, one
		// propagation delay later, as TCP's close flushes the send buffer.
		const total = 1 << 20
		done := make(chan int64, 1)
		c := linkPair(t, inner, addr, NewLink(yardstick), 1, sink(done))[0]
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
	})
}

// TestLinkRateZeroIsADelayLine: with no rate there is no serializer, so a
// megabyte makes the round trip in two propagation delays and the time it
// takes to copy, as a byte does.
func TestLinkRateZeroIsADelayLine(t *testing.T) {
	overEachNetwork(t, func(t *testing.T, inner Network, addr string) {
		const oneWay, total = 10 * time.Millisecond, 1 << 20
		c := linkPair(t, inner, addr, NewLink(LinkParams{OneWay: oneWay}), 1, echo)[0]
		if best := bestRTT(t, c); !within(best.Seconds(), 2*oneWay.Seconds(), 0.1) {
			t.Fatalf("rtt = %v, want %v ± 10%%", best, 2*oneWay)
		}
		start := time.Now()
		go c.Write(make([]byte, total))
		if _, err := io.ReadFull(c, make([]byte, total)); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took < 2*oneWay || took > 4*oneWay {
			t.Fatalf("1 MiB made the round trip of a %v delay line in %v", 2*oneWay, took)
		}
	})
}

func TestNewLinkRejectsInvalidRates(t *testing.T) {
	for _, p := range []LinkParams{
		{Rate: -1},
		{Rate: math.NaN()},
		{Rate: math.Inf(1)},
		{OneWay: -time.Millisecond},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLink(%+v) did not panic", p)
				}
			}()
			NewLink(p)
		}()
	}
}
