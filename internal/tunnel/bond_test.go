package tunnel

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"gridproxy/internal/transport"
	"gridproxy/internal/wire"
)

// bondRig is a client/server session pair over a memory network whose
// members dial across a delay line, plus what it takes to widen the bond
// later.
type bondRig struct {
	client, server *Session
	reg            *BondRegistry
	dial           func(i int) net.Conn
}

// join adds member connection i to the rig's bond and waits until both
// ends list it.
func (r *bondRig) join(t *testing.T, i int) {
	t.Helper()
	var id BondID
	copy(id[:], "bond-test-id-16b")
	r.reg.Expect(id, r.server, 1)
	width := r.client.BondWidth() + 1
	if err := r.client.AddBondConn(id, i, r.dial(i)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool {
		return r.client.BondWidth() == width && r.server.BondWidth() == width
	})
}

// newBondRig builds a width-1 rig whose members dial across one link with
// one-way delay lat (index 0 is the primary). Member slow, unless
// negative, dials across a second link ten times as long.
func newBondRig(t *testing.T, lat time.Duration, cfg Config, slow int) *bondRig {
	t.Helper()
	mem := transport.NewMemNetwork()
	t.Cleanup(func() { _ = mem.Close() })
	near := across(mem, transport.LinkParams{OneWay: lat})
	far := across(mem, transport.LinkParams{OneWay: 10 * lat})
	ln, err := mem.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	r := &bondRig{reg: NewBondRegistry()}
	sessCh := make(chan *Session, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				s, err := ServerConn(conn, r.reg, cfg, 5*time.Second)
				if err == nil && s != nil {
					sessCh <- s
				}
			}(conn)
		}
	}()

	r.dial = func(i int) net.Conn {
		network := near
		if i == slow {
			network = far
		}
		conn, err := network.Dial(context.Background(), "peer")
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	r.client = Client(r.dial(0), cfg)
	// The server session materializes on the client's first frame.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.client.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	r.server = <-sessCh
	t.Cleanup(func() {
		_ = r.client.Close()
		_ = r.server.Close()
	})
	return r
}

// bondedPair builds a client/server session bonded over k connections.
func bondedPair(t *testing.T, k int, lat time.Duration, cfg Config, slow int) (*Session, *Session) {
	t.Helper()
	r := newBondRig(t, lat, cfg, slow)
	for i := 1; i < k; i++ {
		r.join(t, i)
	}
	return r.client, r.server
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// transferExact writes data on a fresh client stream and verifies the
// server receives it byte for byte.
func transferExact(t *testing.T, client, server *Session, data []byte, during func()) {
	t.Helper()
	st, err := client.Open(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := server.Accept(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, werr := st.Write(data)
		if werr == nil {
			werr = st.CloseWrite()
		}
		errCh <- werr
	}()
	if during != nil {
		during()
	}
	got, err := io.ReadAll(peer)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if werr := <-errCh; werr != nil {
		t.Fatalf("write: %v", werr)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("payload mismatch: got %d bytes want %d", len(got), len(data))
	}
}

// TestBondedPairReassembly sprays one stream over three member
// connections and requires byte-exact in-order delivery.
func TestBondedPairReassembly(t *testing.T) {
	client, server := bondedPair(t, 3, 50*time.Microsecond, Config{}, -1)
	if got := client.BondWidth(); got != 3 {
		t.Fatalf("client bond width %d, want 3", got)
	}
	data := make([]byte, 4<<20)
	rand.New(rand.NewSource(7)).Read(data)
	transferExact(t, client, server, data, nil)
}

// TestBondMemberDeathZeroByteLoss kills a secondary member mid-stream:
// the unacknowledged tail must be resprayed over the survivors and the
// receiver must still observe every byte exactly once, in order. Run
// with -race this also exercises the failover locking.
func TestBondMemberDeathZeroByteLoss(t *testing.T) {
	client, server := bondedPair(t, 3, 50*time.Microsecond, Config{}, -1)
	data := make([]byte, 8<<20)
	rand.New(rand.NewSource(11)).Read(data)
	transferExact(t, client, server, data, func() {
		// Let the spray get going, then yank a secondary's transport.
		time.Sleep(5 * time.Millisecond)
		ms := client.liveMembers()
		if len(ms) != 3 {
			t.Errorf("bond width %d before kill, want 3", len(ms))
			return
		}
		_ = ms[2].conn.Close()
	})
	waitUntil(t, 5*time.Second, func() bool { return client.BondWidth() == 2 })
	if server.isClosed() || client.isClosed() {
		t.Fatal("session died on secondary member failure")
	}
	// The shrunken bond must still carry traffic.
	transferExact(t, client, server, data[:1<<20], nil)
}

// TestBondSlowMemberStillExact routes one member over a link ten times
// as long as its siblings' — on a reliable transport, what loss looks like
// to the sender: the least-outstanding spray should route around it, and
// delivery must stay byte-exact regardless.
func TestBondSlowMemberStillExact(t *testing.T) {
	client, server := bondedPair(t, 3, 50*time.Microsecond, Config{}, 2)
	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(13)).Read(data)
	transferExact(t, client, server, data, nil)
}

// scrambleRelay forwards src's frames to dst, holding DATA and FIN frames
// back three at a time to emit them in a shuffled order with random
// duplicates — what failover respray does to a stream, reproduced on a
// single connection. Everything else passes straight through.
func scrambleRelay(src, dst net.Conn, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r, w := wire.NewReader(src), wire.NewWriter(dst)
	var held []wire.Frame
	for {
		f, err := r.ReadFrame()
		if err != nil {
			_ = dst.Close()
			return
		}
		if f.Type != frameDATA && f.Type != frameFIN {
			_ = w.WriteFrame(f.Type, f.Payload)
			continue
		}
		held = append(held, f)
		if len(held) < 3 && f.Type != frameFIN {
			continue
		}
		rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
		for _, h := range held {
			_ = w.WriteFrame(h.Type, h.Payload)
			if rng.Intn(3) == 0 {
				_ = w.WriteFrame(h.Type, h.Payload)
			}
		}
		held = held[:0]
	}
}

// TestWidthOneReorderDupExact is the degenerate bond: a session that
// never sees a BONDJOIN runs the same sequenced path as any other, so
// its frames survive reordering and duplication byte for byte — and once
// the transfer drains, the lone member holds no frame back for a
// failover that cannot happen: its send queue and retention are empty and
// every payload lease it charged has been settled.
func TestWidthOneReorderDupExact(t *testing.T) {
	mem := transport.NewMemNetwork()
	t.Cleanup(func() { _ = mem.Close() })
	peerLn, err := mem.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	relayLn, err := mem.Listen("relay")
	if err != nil {
		t.Fatal(err)
	}
	sessCh := make(chan *Session, 1)
	go func() {
		conn, err := peerLn.Accept()
		if err != nil {
			return
		}
		s, err := ServerConn(conn, NewBondRegistry(), Config{BondConns: 4}, 5*time.Second)
		if err == nil && s != nil {
			sessCh <- s
		}
	}()
	go func() {
		up, err := relayLn.Accept()
		if err != nil {
			return
		}
		down, err := mem.Dial(context.Background(), "peer")
		if err != nil {
			_ = up.Close()
			return
		}
		go func() { _, _ = io.Copy(up, down); _ = up.Close() }()
		scrambleRelay(up, down, 5)
	}()
	conn, err := mem.Dial(context.Background(), "relay")
	if err != nil {
		t.Fatal(err)
	}
	client := Client(conn, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := client.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	server := <-sessCh
	t.Cleanup(func() { _ = client.Close(); _ = server.Close() })
	if client.BondWidth() != 1 || server.BondWidth() != 1 {
		t.Fatal("bond width != 1 on single-connection session")
	}

	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(3)).Read(data)
	transferExact(t, client, server, data, nil)

	m := client.liveMembers()[0]
	waitUntil(t, 5*time.Second, func() bool {
		m.qmu.Lock()
		queued := len(m.queue)
		m.qmu.Unlock()
		m.retMu.Lock()
		retained := len(m.retained)
		m.retMu.Unlock()
		return queued == 0 && retained == 0 && m.outstanding.Load() == 0
	})
	for _, st := range server.table.snapshot() {
		st.recvMu.Lock()
		parked, bytes := len(st.ooo), st.oooBytes
		st.recvMu.Unlock()
		if parked != 0 || bytes != 0 {
			t.Fatalf("stream %d still parks %d frames (%d bytes) after EOF", st.id, parked, bytes)
		}
	}
}

// TestStreamOpenedBeforeJoinUsesNewMember: a stream has no framing mode
// to remember, so one opened while the bond was a single connection
// sprays over a member that joins later — and loses nothing when that
// member then dies under it.
func TestStreamOpenedBeforeJoinUsesNewMember(t *testing.T) {
	r := newBondRig(t, 50*time.Microsecond, Config{}, -1)
	st, err := r.client.Open(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := r.server.Accept(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8<<20)
	rand.New(rand.NewSource(19)).Read(data)
	head, tail := data[:64<<10], data[64<<10:]
	if _, err := st.Write(head); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := io.ReadFull(peer, got[:len(head)]); err != nil {
		t.Fatal(err)
	}

	r.join(t, 1)
	joined := r.server.liveMembers()[1]
	errCh := make(chan error, 1)
	go func() {
		_, werr := st.Write(tail)
		if werr == nil {
			werr = st.CloseWrite()
		}
		errCh <- werr
	}()
	// Kill the new member once it has demonstrably carried stream data.
	waitUntil(t, 5*time.Second, func() bool { return joined.rcvdSeq.Load() > 0 })
	_ = r.client.liveMembers()[1].conn.Close()

	if _, err := io.ReadFull(peer, got[len(head):]); err != nil {
		t.Fatalf("read: %v", err)
	}
	if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after CloseWrite: read err = %v, want EOF", err)
	}
	if werr := <-errCh; werr != nil {
		t.Fatalf("write: %v", werr)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch across join and member death")
	}
	waitUntil(t, 5*time.Second, func() bool { return r.client.BondWidth() == 1 })
	if r.client.isClosed() || r.server.isClosed() {
		t.Fatal("session died on secondary member failure")
	}
}

// TestDeliverSeqReorderAndDup unit-tests the reassembly rules directly:
// early frames park, duplicates (parked or already delivered) drop, FIN
// occupies a sequence slot so it cannot overtake data.
func TestDeliverSeqReorderAndDup(t *testing.T) {
	client, server := pair(t, Config{})
	st, err := client.Open(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := server.Accept(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Arrivals: seq 2 early, seq 1 early, dup of 2, FIN at 3, then seq 0
	// unlocks everything; dup of 0 after delivery is dropped.
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(peer.deliverSeq(2, []byte("c"), false))
	check(peer.deliverSeq(1, []byte("b"), false))
	check(peer.deliverSeq(2, []byte("X"), false)) // dup of parked frame
	check(peer.deliverSeq(3, nil, true))          // FIN
	check(peer.deliverSeq(0, []byte("a"), false))
	check(peer.deliverSeq(0, []byte("Y"), false)) // dup of delivered frame
	got, err := io.ReadAll(peer)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("reassembled %q, want \"abc\"", got)
	}
}

// TestDeliverSeqBoundsRunAhead: frames that take no window credit must
// not buy unbounded parking. Every data frame carries at least a byte, so
// a frame further ahead than the stream's credit, or an empty data frame,
// is a protocol violation.
func TestDeliverSeqBoundsRunAhead(t *testing.T) {
	const window = earlyCredit
	client, server := pair(t, Config{Window: window})
	if _, err := client.Open(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	peer, err := server.Accept(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.deliverSeq(window, nil, true); err != nil {
		t.Fatalf("FIN as far ahead as the credit allows: %v", err)
	}
	if err := peer.deliverSeq(window+1, nil, true); err == nil {
		t.Fatal("FIN beyond the window's worth of frames parked")
	}
	if err := peer.deliverSeq(1, nil, false); err == nil {
		t.Fatal("empty data frame accepted")
	}
}

// TestAdaptiveWindowConvergesUnderLoss runs an adaptive receiver behind
// a 1 ms link whose rate is below the sender's pace — on a reliable
// transport loss is delay, and here the delay grows and shrinks with the
// queue — and requires the estimator to settle on a sane window: RTT and
// bandwidth samples present, target inside [WindowMin, WindowMax] on
// every observation, and the transfer itself byte-exact.
func TestAdaptiveWindowConvergesUnderLoss(t *testing.T) {
	cfg := Config{
		Adaptive:      true,
		WindowMin:     32 << 10,
		WindowMax:     1 << 20,
		ProbeInterval: 5 * time.Millisecond,
	}
	mem := transport.NewMemNetwork()
	t.Cleanup(func() { _ = mem.Close() })
	ln, err := mem.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	connCh := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			connCh <- conn
		}
	}()
	// The client is the sender; the server is the adaptive receiver whose
	// PONGs and data cross the link.
	clientConn, err := across(mem, transport.LinkParams{OneWay: time.Millisecond, Rate: 20e6}).Dial(context.Background(), "peer")
	if err != nil {
		t.Fatal(err)
	}
	client := Client(clientConn, cfg)
	server := Server(<-connCh, cfg)
	t.Cleanup(func() { _ = client.Close(); _ = server.Close() })

	st, err := client.Open(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := server.Accept(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(17)).Read(data)
	writeDone := make(chan error, 1)
	go func() {
		_, werr := st.Write(data)
		if werr == nil {
			werr = st.CloseWrite()
		}
		writeDone <- werr
	}()

	var got bytes.Buffer
	buf := make([]byte, 64<<10)
	violations := 0
	for {
		n, rerr := peer.Read(buf)
		got.Write(buf[:n])
		// Observe the live target as the transfer runs: the clamp
		// invariant must hold at every instant, not just at the end.
		if target := server.Window(); target < int64(cfg.WindowMin) || target > int64(cfg.WindowMax) {
			violations++
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			t.Fatal(rerr)
		}
	}
	if err := <-writeDone; err != nil {
		t.Fatal(err)
	}
	if violations > 0 {
		t.Fatalf("window target escaped [WindowMin, WindowMax] %d times", violations)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("transfer corrupted: got %d bytes", got.Len())
	}
	// The estimators must have real samples by now: a 1ms link cannot
	// legitimately measure a zero RTT, and a 2 MiB transfer produces
	// delivery-rate ticks.
	if rtt := server.flow.minRTT(); rtt < 500*time.Microsecond {
		t.Fatalf("min RTT %v implausibly small for a 1ms shaped path", rtt)
	}
	if bw := server.flow.maxBW(); bw <= 0 {
		t.Fatal("no delivery-rate samples collected")
	}
	if target := server.Window(); target < int64(cfg.WindowMin) || target > int64(cfg.WindowMax) {
		t.Fatalf("final target %d outside clamps", target)
	}
}

// TestAdaptiveWindowRespectsMemBudget opens many streams on a session
// with a small memory budget and polls the live window target
// throughout a concurrent transfer: it must never exceed
// MemBudget / live-streams (floored), so total promised buffering stays
// bounded no matter what the estimators claim.
func TestAdaptiveWindowRespectsMemBudget(t *testing.T) {
	const streams = 8
	cfg := Config{
		Adaptive:      true,
		Window:        32 << 10,
		MemBudget:     64 << 10,
		ProbeInterval: 2 * time.Millisecond,
	}
	client, server := pair(t, cfg)

	var pairs [streams]struct{ st, peer *Stream }
	for i := 0; i < streams; i++ {
		st, err := client.Open(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		peer, err := server.Accept(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		pairs[i].st, pairs[i].peer = st, peer
	}
	// Budget clamp: 64 KiB over 8 streams = 8 KiB per stream (above the
	// 4 KiB floor, so the division is what must bind).
	const perStream = 64 << 10 / streams

	done := make(chan struct{})
	for i := 0; i < streams; i++ {
		go func(st *Stream) {
			payload := make([]byte, 16<<10)
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := st.Write(payload); err != nil {
					return
				}
			}
		}(pairs[i].st)
		go func(peer *Stream) {
			_, _ = io.Copy(io.Discard, peer)
		}(pairs[i].peer)
	}

	// Give the prober a few ticks to apply the clamp, then hold it to it.
	time.Sleep(20 * time.Millisecond)
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		if target := server.Window(); target > perStream {
			close(done)
			t.Fatalf("window target %d exceeds memory clamp %d", target, perStream)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(done)
}

// TestOpenBurstRespectsMemBudget: the memory clamp binds when a stream is
// opened, not a prober tick later. 256 streams opened at once each carry
// a credit in their SYN and get one back in the SYNACK; on either end the
// credits sum to no more than MemBudget, beyond the earlyCredit every
// stream is owed whatever the budget says (256 × the default window is
// twice the default budget). Closing the streams hands every byte back.
func TestOpenBurstRespectsMemBudget(t *testing.T) {
	const streams = 256
	cfg := Config{Adaptive: true, ProbeInterval: time.Hour}.withDefaults()
	client, server := pair(t, cfg)

	opened := make(chan *Stream, streams)
	for i := 0; i < streams; i++ {
		go func() {
			st, err := client.Open(context.Background(), nil)
			if err != nil {
				t.Error(err)
			}
			opened <- st
		}()
	}
	var all []*Stream
	for i := 0; i < streams; i++ {
		peer, err := server.Accept(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, <-opened, peer)
	}
	for _, s := range []*Session{client, server} {
		var sum, floors int64
		for _, st := range s.table.snapshot() {
			sum += st.credit
			if st.credit == earlyCredit {
				floors++
			}
		}
		if sum != s.promised.Load() {
			t.Errorf("session books %d bytes promised, its streams hold %d", s.promised.Load(), sum)
		}
		if floors == 0 || floors == streams {
			t.Errorf("%d of %d streams at the floor: the burst did not cross the budget", floors, streams)
		}
		if limit := cfg.MemBudget + floors*earlyCredit; sum > limit {
			t.Errorf("%d bytes of credit outstanding, budget %d + %d floors = %d", sum, cfg.MemBudget, floors, limit)
		}
	}
	for _, st := range all {
		_ = st.Close()
	}
	waitUntil(t, 5*time.Second, func() bool {
		return client.promised.Load() == 0 && server.promised.Load() == 0
	})
}
