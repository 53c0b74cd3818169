// Package gridproxy_test holds the repository-level benchmark harness:
// one testing.B benchmark per experiment table (E1–E8, see DESIGN.md §5
// and EXPERIMENTS.md) plus micro-benchmarks of the hot substrates the
// experiments rest on. Regenerate everything with:
//
//	go test -bench=. -benchmem .
package gridproxy_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"gridproxy/internal/auth"
	"gridproxy/internal/balance"
	"gridproxy/internal/ca"
	"gridproxy/internal/experiments"
	"gridproxy/internal/metrics"
	"gridproxy/internal/mpi"
	"gridproxy/internal/proto"
	"gridproxy/internal/sim"
	"gridproxy/internal/ticket"
	"gridproxy/internal/transport"
	"gridproxy/internal/tunnel"
	"gridproxy/internal/wire"
)

// --- per-experiment benchmarks (one table per op) --------------------------

func BenchmarkE1_MPIPingPong(b *testing.B) {
	cfg := experiments.E1Config{MsgSizes: []int{4096}, Rounds: 20}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_EdgeVsPerNodeCrypto(b *testing.B) {
	cfg := experiments.E2Config{
		Sites: 2, NodesPerSite: 2, Flows: 12, BytesPerFlow: 8 << 10,
		IntraFracs: []float64{0.5}, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_SchedulingPolicies(b *testing.B) {
	cfg := experiments.E3Config{
		Sites: 2, NodesPerSite: 8, Tasks: 256, TaskSkew: 4,
		NodeSkews: []float64{4},
		Policies:  []string{"round-robin", "least-loaded"},
		Seed:      1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4_StatusCollection(b *testing.B) {
	cfg := experiments.E4Config{Shapes: [][2]int{{3, 4}}}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5_AuthSchemes(b *testing.B) {
	cfg := experiments.E5Config{RequestCounts: []int{50}}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6_DeploymentFootprint(b *testing.B) {
	cfg := experiments.DefaultE6()
	for i := 0; i < b.N; i++ {
		_ = experiments.E6(cfg)
	}
}

func BenchmarkE7_FailureContainment(b *testing.B) {
	cfg := experiments.E7Config{Shapes: [][2]int{{3, 2}}}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_TunnelMultiplexing(b *testing.B) {
	cfg := experiments.E8Config{StreamCounts: []int{16}, BytesEach: 16 << 10}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---------------------------------------------

func BenchmarkWireFrameRoundTrip(b *testing.B) {
	payload := bytes.Repeat([]byte{0xAA}, 4096)
	var buf bytes.Buffer
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		buf.Reset()
		w := wire.NewWriter(&buf)
		if err := w.WriteFrame(1, payload); err != nil {
			b.Fatal(err)
		}
		r := wire.NewReader(&buf)
		if _, err := r.ReadFrame(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProtoStatusReportCodec(b *testing.B) {
	report := &proto.StatusReport{}
	for i := 0; i < 16; i++ {
		report.Sites = append(report.Sites, proto.SiteStatus{
			Site: fmt.Sprintf("site%d", i), Nodes: 64, NodesUp: 63,
			CPUFreePct: 42.5, RAMFreeMB: 1 << 20, DiskFreeMB: 1 << 24,
			Load1: 1.25, RunningProcs: 100, CollectedUnix: 1_700_000_000,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg := proto.Marshal(1, report)
		if _, err := proto.Unmarshal(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTunnelStreamThroughput(b *testing.B) {
	mem := transport.NewMemNetwork()
	defer mem.Close()
	ln, err := mem.Listen("peer")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	acceptCh := make(chan *tunnel.Session, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		acceptCh <- tunnel.Server(conn, tunnel.Config{})
	}()
	conn, err := mem.Dial(ctx, "peer")
	if err != nil {
		b.Fatal(err)
	}
	client := tunnel.Client(conn, tunnel.Config{})
	defer client.Close()
	server := <-acceptCh
	defer server.Close()
	go func() {
		for {
			stream, err := server.Accept(ctx)
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, stream) }()
		}
	}()
	stream, err := client.Open(ctx, nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stream.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTLSConnThroughput(b *testing.B) {
	authority, err := ca.New("bench")
	if err != nil {
		b.Fatal(err)
	}
	credA, err := authority.IssueHost("a")
	if err != nil {
		b.Fatal(err)
	}
	credB, err := authority.IssueHost("b")
	if err != nil {
		b.Fatal(err)
	}
	mem := transport.NewMemNetwork()
	defer mem.Close()
	pool := authority.CertPool()
	tlsA := transport.NewTLS(mem, credA, pool, nil)
	tlsB := transport.NewTLS(mem, credB, pool, nil)
	ln, err := tlsA.Listen("peer")
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, conn)
	}()
	conn, err := tlsB.Dial(context.Background(), "peer")
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPISendRecv(b *testing.B) {
	ctx := context.Background()
	mem := transport.NewMemNetwork()
	defer mem.Close()
	table := map[int]string{0: "r0", 1: "r1"}
	w0, err := mpi.Join(ctx, mpi.Config{Rank: 0, WorldSize: 2, Table: table, ListenAddr: "r0", Network: mem})
	if err != nil {
		b.Fatal(err)
	}
	defer w0.Close()
	w1, err := mpi.Join(ctx, mpi.Config{Rank: 1, WorldSize: 2, Table: table, ListenAddr: "r1", Network: mem})
	if err != nil {
		b.Fatal(err)
	}
	defer w1.Close()
	payload := make([]byte, 4096)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			if _, err := w1.Recv(ctx, 0, 1); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w0.Send(ctx, 1, 1, payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

func BenchmarkMPIAllreduce8(b *testing.B) {
	ctx := context.Background()
	mem := transport.NewMemNetwork()
	defer mem.Close()
	const n = 8
	table := make(map[int]string, n)
	for i := 0; i < n; i++ {
		table[i] = fmt.Sprintf("r%d", i)
	}
	worlds := make([]*mpi.World, n)
	for i := 0; i < n; i++ {
		w, err := mpi.Join(ctx, mpi.Config{Rank: i, WorldSize: n, Table: table, ListenAddr: table[i], Network: mem})
		if err != nil {
			b.Fatal(err)
		}
		worlds[i] = w
		defer w.Close()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errs := make(chan error, n)
		for _, w := range worlds {
			go func(w *mpi.World) {
				_, err := w.Allreduce(ctx, mpi.OpSum, []float64{1})
				errs <- err
			}(w)
		}
		for j := 0; j < n; j++ {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAuthPasswordVerify(b *testing.B) {
	store, err := auth.NewStore()
	if err != nil {
		b.Fatal(err)
	}
	if err := store.AddUser("alice", "pw"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.VerifyPassword("alice", "pw"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTicketValidate(b *testing.B) {
	store, err := auth.NewStore()
	if err != nil {
		b.Fatal(err)
	}
	if err := store.AddUser("alice", "pw"); err != nil {
		b.Fatal(err)
	}
	tgs, err := ticket.NewGrantingService(store)
	if err != nil {
		b.Fatal(err)
	}
	key, err := tgs.RegisterService("svc")
	if err != nil {
		b.Fatal(err)
	}
	tgt, err := tgs.SignOnPassword("alice", "pw")
	if err != nil {
		b.Fatal(err)
	}
	tick, err := tgs.GrantTicket(tgt, "svc")
	if err != nil {
		b.Fatal(err)
	}
	validator := ticket.NewValidator("svc", key, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := validator.Validate(tick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBalanceAssign times the placement algorithm the proxy runs for
// every launch and reschedule: 32 processes over 64 candidate nodes.
func BenchmarkBalanceAssign(b *testing.B) {
	nodes := make([]balance.NodeInfo, 64)
	for i := range nodes {
		nodes[i] = balance.NodeInfo{
			Name: fmt.Sprintf("n%d", i), Site: fmt.Sprintf("s%d", i%4),
			Speed: 1 + float64(i%8), RAMFreeMB: 2048,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := balance.Assign(balance.LeastLoaded{}, nodes, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulate512Tasks(b *testing.B) {
	nodes := sim.HeterogeneousNodes(4, 8, 8, 1)
	tasks := sim.SkewedTasks(512, 2, 1, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(nodes, tasks, balance.LeastLoaded{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetricsCounter(b *testing.B) {
	reg := metrics.NewRegistry()
	c := reg.Counter("bench")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// BenchmarkE1CrossSiteLatency isolates the latency the proxy pair adds on
// one shaped WAN link (the headline Figure 3 comparison at bench speed).
func BenchmarkE1CrossSiteLatency(b *testing.B) {
	row, err := experiments.E1(experiments.E1Config{
		MsgSizes: []int{1024},
		Rounds:   b.N + 1,
		WAN:      transport.LinkParams{OneWay: 50 * time.Microsecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = row
}

// --- ablation benchmarks (design choices called out in DESIGN.md §7) --------

// BenchmarkTunnelWindowSizes ablates the per-stream flow-control window:
// too small and the sender stalls waiting for WINDOW credits; large
// windows approach raw connection throughput at the cost of buffering.
func BenchmarkTunnelWindowSizes(b *testing.B) {
	for _, window := range []int{16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("window=%dKiB", window>>10), func(b *testing.B) {
			mem := transport.NewMemNetwork()
			defer mem.Close()
			ln, err := mem.Listen("peer")
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			cfg := tunnel.Config{Window: window}
			sessCh := make(chan *tunnel.Session, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				sessCh <- tunnel.Server(conn, cfg)
			}()
			conn, err := mem.Dial(ctx, "peer")
			if err != nil {
				b.Fatal(err)
			}
			client := tunnel.Client(conn, cfg)
			defer client.Close()
			server := <-sessCh
			defer server.Close()
			go func() {
				stream, err := server.Accept(ctx)
				if err != nil {
					return
				}
				buf := make([]byte, 64<<10)
				for {
					if _, err := stream.Read(buf); err != nil {
						return
					}
				}
			}()
			stream, err := client.Open(ctx, nil)
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 256<<10)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stream.Write(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBalancePolicies ablates placement-policy CPU cost at scale —
// the control-plane price of load awareness.
func BenchmarkBalancePolicies(b *testing.B) {
	nodes := make([]balance.NodeInfo, 256)
	for i := range nodes {
		nodes[i] = balance.NodeInfo{Name: fmt.Sprintf("n%d", i), Speed: 1 + float64(i%8)}
	}
	for _, name := range []string{"round-robin", "least-loaded", "weighted-speed", "random"} {
		b.Run(name, func(b *testing.B) {
			policy, err := balance.New(name, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := policy.Pick(nodes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPBKDF2Ablation shows why per-request password auth cannot be
// cheap: the deliberate key-stretching cost E5's ticket scheme amortizes
// away.
func BenchmarkPBKDF2Ablation(b *testing.B) {
	store, err := auth.NewStore()
	if err != nil {
		b.Fatal(err)
	}
	if err := store.AddUser("u", "p"); err != nil {
		b.Fatal(err)
	}
	tok, _, err := store.IssueToken("u")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("password-verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := store.VerifyPassword("u", "p"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("token-validate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := store.ValidateToken(tok); err != nil {
				b.Fatal(err)
			}
		}
	})
}
