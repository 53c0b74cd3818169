package tunnel

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"gridproxy/internal/transport"
)

func pingMedian(t *testing.T, s *Session, n int) time.Duration {
	t.Helper()
	samples := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		start := time.Now()
		err := s.Ping(ctx)
		cancel()
		if err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		samples = append(samples, time.Since(start))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

// TestPingRTTUnderSaturation is the control-plane starvation regression
// test: with bulk DATA saturating the tunnel, PING (which rides the
// control lane) must stay within 10x the idle round-trip. The idle
// baseline gets a small floor so scheduler noise on tiny idle medians
// cannot turn the ratio into a coin flip.
func TestPingRTTUnderSaturation(t *testing.T) {
	client, server := pairOver(t, Config{}, Config{}, transport.LinkParams{OneWay: 100 * time.Microsecond})

	// Server drains every stream.
	go func() {
		for {
			st, err := server.Accept(context.Background())
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, st) }()
		}
	}()

	idle := pingMedian(t, client, 31)

	// Saturate with bulk writers on two streams.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		st, err := client.Open(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(st *Stream) {
			defer wg.Done()
			payload := make([]byte, 64<<10)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := st.Write(payload); err != nil {
					return
				}
			}
		}(st)
	}
	// Let the pipeline fill before sampling.
	time.Sleep(20 * time.Millisecond)

	loaded := pingMedian(t, client, 31)
	close(stop)
	wg.Wait()

	floor := 300 * time.Microsecond
	baseline := idle
	if baseline < floor {
		baseline = floor
	}
	if loaded > 10*baseline {
		t.Fatalf("loaded ping median %v exceeds 10x idle baseline %v (idle median %v)",
			loaded, 10*baseline, idle)
	}
	t.Logf("ping RTT idle=%v loaded=%v", idle, loaded)
}

// TestConcurrentWritersOneStream runs many writers on a single stream
// under -race: total byte delivery must be exact and every writer's bytes
// must arrive intact (each writer uses a distinct fill byte, so the
// received histogram detects loss, duplication, or cross-writer
// corruption regardless of interleaving).
func TestConcurrentWritersOneStream(t *testing.T) {
	const writers, perWriter, chunk = 8, 40, 1024
	client, server := pair(t, Config{})

	st, err := client.Open(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := server.Accept(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var counts [writers]int64
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 32<<10)
		for {
			n, err := peer.Read(buf)
			for _, b := range buf[:n] {
				if int(b) >= writers {
					done <- io.ErrUnexpectedEOF
					return
				}
				counts[b]++
			}
			if err == io.EOF {
				done <- nil
				return
			}
			if err != nil {
				done <- err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(g)}, chunk)
			for i := 0; i < perWriter; i++ {
				if _, err := st.Write(payload); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("reader: %v", err)
	}
	for g := range counts {
		if counts[g] != perWriter*chunk {
			t.Fatalf("writer %d: delivered %d bytes, want %d", g, counts[g], perWriter*chunk)
		}
	}
}

// TestCrossStreamIntegrityPooled pushes distinct pseudo-random payloads
// over concurrent streams and verifies byte-exact delivery per stream:
// with pooled, recycled read buffers, any release-while-referenced bug
// shows up as cross-stream contamination here (and as a race under
// -race).
func TestCrossStreamIntegrityPooled(t *testing.T) {
	const streams = 4
	const perStream = 1 << 20
	client, server := pair(t, Config{})

	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		data := make([]byte, perStream)
		rand.New(rand.NewSource(int64(i + 1))).Read(data)

		st, err := client.Open(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		peer, err := server.Accept(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(st *Stream, data []byte) {
			defer wg.Done()
			if _, err := st.Write(data); err != nil {
				t.Errorf("write: %v", err)
			}
			_ = st.CloseWrite()
		}(st, data)
		go func(peer *Stream, want []byte) {
			defer wg.Done()
			got, err := io.ReadAll(peer)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stream payload mismatch: got %d bytes", len(got))
			}
		}(peer, data)
	}
	wg.Wait()
}

// TestConcurrentReadersOneStream has two readers draining one stream
// while a writer pushes a known byte volume: credit accounting has a
// single owner, so the total delivered must be exact with no stall even
// when both readers race to bank WINDOW credit.
func TestConcurrentReadersOneStream(t *testing.T) {
	const total = 2 << 20
	client, server := pair(t, Config{})

	st, err := client.Open(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := server.Accept(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		payload := make([]byte, 64<<10)
		sent := 0
		for sent < total {
			n := len(payload)
			if sent+n > total {
				n = total - sent
			}
			if _, err := st.Write(payload[:n]); err != nil {
				return
			}
			sent += n
		}
		_ = st.CloseWrite()
	}()

	var mu sync.Mutex
	got := 0
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 16<<10)
			for {
				n, err := peer.Read(buf)
				mu.Lock()
				got += n
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if got != total {
		t.Fatalf("readers drained %d bytes, want %d", got, total)
	}
}
