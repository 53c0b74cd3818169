package experiments

import (
	"context"
	"crypto/rand"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"gridproxy/internal/ca"
	"gridproxy/internal/metrics"
	"gridproxy/internal/transport"
	"gridproxy/internal/tunnel"
)

// E8Row is one (scheme, concurrency) tunnel-multiplexing measurement.
type E8Row struct {
	Scheme        string // "multiplexed" or "conn-per-stream"
	Streams       int
	BytesEach     int
	Handshakes    int64
	Duration      time.Duration
	ThroughputMBs float64
}

// E8Config parameterizes experiment E8.
type E8Config struct {
	StreamCounts []int
	BytesEach    int
}

// DefaultE8 returns the parameters used in EXPERIMENTS.md.
func DefaultE8() E8Config {
	return E8Config{StreamCounts: []int{1, 8, 32, 128}, BytesEach: 64 << 10}
}

// E8 compares the proxy's stream multiplexing — all inter-site traffic
// sharing ONE TLS connection per peer ("the proxy acts as a multiplexer
// of the communication") — against opening a TLS connection per
// application stream. Expected shape: the multiplexed tunnel performs a
// constant number of handshakes regardless of concurrency, while
// connection-per-stream handshakes scale linearly.
func E8(cfg E8Config) ([]E8Row, error) {
	var rows []E8Row
	for _, streams := range cfg.StreamCounts {
		mux, err := runE8Mux(streams, cfg.BytesEach)
		if err != nil {
			return nil, fmt.Errorf("e8 mux %d: %w", streams, err)
		}
		rows = append(rows, mux)
		per, err := runE8PerConn(streams, cfg.BytesEach)
		if err != nil {
			return nil, fmt.Errorf("e8 per-conn %d: %w", streams, err)
		}
		rows = append(rows, per)
	}
	return rows, nil
}

// e8Env is the shared TLS plumbing for both schemes.
type e8Env struct {
	reg     *metrics.Registry
	network *transport.TLS
	peer    *transport.TLS
	mem     *transport.MemNetwork
}

func newE8Env() (*e8Env, error) {
	authority, err := ca.New("e8")
	if err != nil {
		return nil, err
	}
	credA, err := authority.IssueHost("proxy.a")
	if err != nil {
		return nil, err
	}
	credB, err := authority.IssueHost("proxy.b")
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	mem := transport.NewMemNetwork()
	pool := authority.CertPool()
	return &e8Env{
		reg:     reg,
		network: transport.NewTLS(mem, credA, pool, reg),
		peer:    transport.NewTLS(mem, credB, pool, reg),
		mem:     mem,
	}, nil
}

func payloadOf(n int) ([]byte, error) {
	p := make([]byte, n)
	if _, err := rand.Read(p); err != nil {
		return nil, err
	}
	return p, nil
}

// runE8Mux pushes N concurrent streams through one tunnel session over a
// single TLS connection.
func runE8Mux(streams, bytesEach int) (E8Row, error) {
	env, err := newE8Env()
	if err != nil {
		return E8Row{}, err
	}
	defer env.mem.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	ln, err := env.peer.Listen("peer")
	if err != nil {
		return E8Row{}, err
	}
	defer ln.Close()
	serverErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			serverErr <- err
			return
		}
		session := tunnel.Server(conn, tunnel.Config{Metrics: env.reg, AcceptBacklog: streams + 8})
		defer session.Close()
		var wg sync.WaitGroup
		for i := 0; i < streams; i++ {
			stream, err := session.Accept(ctx)
			if err != nil {
				serverErr <- err
				return
			}
			wg.Add(1)
			go func(stream *tunnel.Stream) {
				defer wg.Done()
				_, _ = io.Copy(io.Discard, stream)
			}(stream)
		}
		wg.Wait()
		serverErr <- nil
	}()

	conn, err := env.network.Dial(ctx, "peer")
	if err != nil {
		return E8Row{}, err
	}
	session := tunnel.Client(conn, tunnel.Config{Metrics: env.reg})
	defer session.Close()

	payload, err := payloadOf(bytesEach)
	if err != nil {
		return E8Row{}, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stream, err := session.Open(ctx, nil)
			if err != nil {
				errs <- err
				return
			}
			if _, err := stream.Write(payload); err != nil {
				errs <- err
				return
			}
			errs <- stream.Close()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return E8Row{}, err
		}
	}
	// The session stays open until the server has drained every stream:
	// an opener no longer waits for its SYNACK, so it can be done writing
	// before the acceptor has accepted, and closing under it fails the
	// acceptor's session.
	if err := <-serverErr; err != nil {
		return E8Row{}, err
	}
	return e8Row("multiplexed", streams, bytesEach, env, time.Since(start)), nil
}

// runE8PerConn opens one TLS connection per stream (no multiplexer).
func runE8PerConn(streams, bytesEach int) (E8Row, error) {
	env, err := newE8Env()
	if err != nil {
		return E8Row{}, err
	}
	defer env.mem.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	ln, err := env.peer.Listen("peer")
	if err != nil {
		return E8Row{}, err
	}
	defer ln.Close()
	var acceptWG sync.WaitGroup
	acceptWG.Add(1)
	go func() {
		defer acceptWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			acceptWG.Add(1)
			go func(conn net.Conn) {
				defer acceptWG.Done()
				defer conn.Close()
				_, _ = io.Copy(io.Discard, conn)
			}(conn)
		}
	}()

	payload, err := payloadOf(bytesEach)
	if err != nil {
		return E8Row{}, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := env.network.Dial(ctx, "peer")
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			if _, err := conn.Write(payload); err != nil {
				errs <- err
				return
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return E8Row{}, err
		}
	}
	elapsed := time.Since(start)
	_ = ln.Close()
	acceptWG.Wait()
	return e8Row("conn-per-stream", streams, bytesEach, env, elapsed), nil
}

func e8Row(scheme string, streams, bytesEach int, env *e8Env, elapsed time.Duration) E8Row {
	total := float64(streams*bytesEach) / (1 << 20)
	return E8Row{
		Scheme:        scheme,
		Streams:       streams,
		BytesEach:     bytesEach,
		Handshakes:    env.reg.Counter(metrics.TLSHandshakes).Value(),
		Duration:      elapsed,
		ThroughputMBs: total / elapsed.Seconds(),
	}
}

// E8Table renders E8 rows.
func E8Table(rows []E8Row) Table {
	t := Table{
		Title:  "E8 — one multiplexed tunnel vs TLS connection per stream",
		Claim:  "the proxy multiplexes all inter-site streams over one secured connection",
		Header: []string{"scheme", "streams", "bytes_each", "handshakes", "duration", "MB/s"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Scheme, itoa(r.Streams), itoa(r.BytesEach), i64(r.Handshakes), dur(r.Duration), f2(r.ThroughputMBs),
		})
	}
	return t
}
