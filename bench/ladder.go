package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"gridproxy/internal/core"
	gridapi "gridproxy/internal/grid"
	"gridproxy/internal/mpi"
	"gridproxy/internal/peerlink"
	"gridproxy/internal/proto"
	"gridproxy/internal/stage"
	"gridproxy/internal/ticket"
	"gridproxy/internal/transport"
	"gridproxy/internal/tunnel"
	"gridproxy/internal/wire"
)

// The layer ladder pushes the same payload through each layer's public
// entry point alone, on the workload's medium: every rung does the work
// of the rung below plus its own layer, so a layer's self time is its
// rung minus the rung below. Under pipelining that subtraction is an
// estimate (a layer that overlaps its work with the one below shows up
// smaller, even negative); it stands in until the program carries spans
// itself.
//
//	bulk ladder (the workload's two inputs, ms per MiB):
//	  transport  32 KiB pooled relay over one TLS connection (the naive baseline)
//	  wire       64 KiB frames, Writer.WriteFrame / Reader.ReadFramePooled
//	  tunnel     one stream of a Client/Server session, adaptive window
//	  stage      Store.Put at the source + striped Pull store-to-store
//	  core       Store.Put + Proxy.LaunchMPI(bench-digest) + outputs from the store
//	  grid       the same job through grid.Client
//	  gate       the same job through HTTP
//
//	small-op ladders (µs per op):
//	  cross-site: transport echo → wire echo → tunnel Session.Ping → core PingPeer
//	  front door: core Proxy.Status → grid Client.Status → gate GET /api/grid

var bulkRungs = []string{"gate", "grid", "core", "stage", "tunnel", "wire", "transport"}

// relayPool is the 32 KiB buffer pool of the naive relay loop.
var relayPool = sync.Pool{New: func() any { return new([32 << 10]byte) }}

type rig struct {
	ctx  context.Context
	d    *deployment
	tr   *tracer
	reps int // bulk repetitions per rung
	ops  int // small operations per rung

	handshakes []float64 // ms per TLS dial
}

// tlsPair dials a fresh TLS connection origin → remote on the run's
// medium, as the proxies' own WAN networks would.
func (r *rig) tlsPair() (client, server net.Conn, err error) {
	port, err := freePorts(1)
	if err != nil {
		return nil, nil, err
	}
	ln, err := r.d.grid.sites[1].wan.Listen(loopback(port))
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	start := time.Now()
	client, err = r.d.grid.sites[0].wan.Dial(r.ctx, loopback(port))
	if err != nil {
		return nil, nil, err
	}
	r.handshakes = append(r.handshakes, ms(time.Since(start)))
	if server = <-accepted; server == nil {
		client.Close()
		return nil, nil, fmt.Errorf("ladder: accept failed")
	}
	return client, server, nil
}

// tunnelPair wraps a fresh TLS pair in a tunnel session each way,
// configured as core configures its peers.
func (r *rig) tunnelPair() (cs, ss *tunnel.Session, err error) {
	client, server, err := r.tlsPair()
	if err != nil {
		return nil, nil, err
	}
	cfg := tunnel.Config{Adaptive: true}
	return tunnel.Client(client, cfg), tunnel.Server(server, cfg), nil
}

// gridClient logs a grid.Client in at the origin proxy over the site LAN,
// as gridctl would.
func (r *rig) gridClient() (*gridapi.Client, error) {
	gc, err := gridapi.Dial(r.ctx, transport.NewLabelTCP(), r.d.grid.sites[0].proxy.LocalAddr())
	if err != nil {
		return nil, err
	}
	if err := gc.Login(r.ctx, users[0].name, users[0].password); err != nil {
		gc.Close()
		return nil, err
	}
	return gc, nil
}

func totalLen(blobs [][]byte) int64 {
	var n int64
	for _, b := range blobs {
		n += int64(len(b))
	}
	return n
}

// relayBulk is the bottom rung: a pooled 32 KiB read/write loop on both
// ends of the TLS connection, then a one-byte ack.
func relayBulk(client, server net.Conn, blobs [][]byte) (time.Duration, error) {
	total := totalLen(blobs)
	done := make(chan error, 1)
	go func() {
		buf := relayPool.Get().(*[32 << 10]byte)
		defer relayPool.Put(buf)
		for got := int64(0); got < total; {
			n, err := server.Read(buf[:])
			got += int64(n)
			if err != nil {
				done <- err
				return
			}
		}
		_, err := server.Write([]byte{1})
		done <- err
	}()
	buf := relayPool.Get().(*[32 << 10]byte)
	defer relayPool.Put(buf)
	start := time.Now()
	for _, b := range blobs {
		// The wrappers hide WriterTo/ReaderFrom so the copy really goes
		// through the pooled buffer, 32 KiB at a time.
		if _, err := io.CopyBuffer(struct{ io.Writer }{client}, struct{ io.Reader }{bytes.NewReader(b)}, buf[:]); err != nil {
			return 0, err
		}
	}
	if _, err := io.ReadFull(client, buf[:1]); err != nil {
		return 0, err
	}
	took := time.Since(start)
	return took, <-done
}

const ladderFrame = 0x42

// wireBulk frames the payload in 64 KiB frames over the TLS connection.
func wireBulk(client, server net.Conn, cw, sw *wire.Writer, cr, sr *wire.Reader, blobs [][]byte) (time.Duration, error) {
	total := totalLen(blobs)
	done := make(chan error, 1)
	go func() {
		for got := int64(0); got < total; {
			f, err := sr.ReadFramePooled()
			if err != nil {
				done <- err
				return
			}
			got += int64(len(f.Payload))
			wire.PutPayload(f.Payload)
		}
		done <- sw.WriteFrame(ladderFrame, []byte{1})
	}()
	start := time.Now()
	for _, b := range blobs {
		for off := 0; off < len(b); off += 64 << 10 {
			if err := cw.WriteFrame(ladderFrame, b[off:min(off+64<<10, len(b))]); err != nil {
				return 0, err
			}
		}
	}
	if _, err := cr.ReadFrame(); err != nil {
		return 0, err
	}
	took := time.Since(start)
	return took, <-done
}

// tunnelBulk sends the payload down one stream in chunk-sized writes.
func tunnelBulk(ctx context.Context, cs, ss *tunnel.Session, blobs [][]byte) (time.Duration, error) {
	total := totalLen(blobs)
	done := make(chan error, 1)
	go func() {
		in, err := ss.Accept(ctx)
		if err != nil {
			done <- err
			return
		}
		defer in.Close()
		if _, err := io.CopyN(io.Discard, in, total); err != nil {
			done <- err
			return
		}
		_, err = in.Write([]byte{1})
		done <- err
	}()
	start := time.Now()
	st, err := cs.Open(ctx, nil)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	for _, b := range blobs {
		for off := 0; off < len(b); off += stage.DefaultChunkSize {
			if _, err := st.Write(b[off:min(off+stage.DefaultChunkSize, len(b))]); err != nil {
				return 0, err
			}
		}
	}
	if _, err := io.ReadFull(st, make([]byte, 1)); err != nil {
		return 0, err
	}
	took := time.Since(start)
	return took, <-done
}

// stageBulk puts the blobs into a source store and pulls them into an
// empty destination store over the session's streams, as a destination
// proxy stages a job's inputs. It also returns the Put time alone.
func stageBulk(ctx context.Context, cs *tunnel.Session, src *stage.Store, blobs [][]byte) (total, put time.Duration, err error) {
	dst, err := stage.NewStore(stage.Config{}, nil)
	if err != nil {
		return 0, 0, err
	}
	dial := func(ctx context.Context) (net.Conn, error) { return cs.Open(ctx, nil) }
	start := time.Now()
	var refs []stage.FileRef
	for _, b := range blobs {
		refs = append(refs, src.Put(b))
	}
	put = time.Since(start)
	for _, ref := range refs {
		if err := stage.Pull(ctx, dial, ref.Hash, dst, stage.Config{}, nil); err != nil {
			return 0, 0, err
		}
		if !dst.Has(ref.Hash) {
			return 0, 0, fmt.Errorf("ladder: pulled blob %s is not in the destination store", ref.Hash)
		}
	}
	return time.Since(start), put, nil
}

// wantDigest is what bench-digest's rank must have published for inputs
// in0, in1 of size bytes each with the given hashes.
func wantDigest(rank, size int, hashes [2]string) string {
	return fmt.Sprintf("%d in0 %d %s\n%d in1 %d %s\n", rank, size, hashes[0], rank, size, hashes[1])
}

// coreBulk runs the bulk job through core's own API on the origin proxy.
func coreBulk(ctx context.Context, origin *core.Proxy, blobs [][]byte, hashes [2]string) (time.Duration, error) {
	start := time.Now()
	spec := core.LaunchSpec{Owner: users[0].name, Program: progDigest, Args: []string{"in0", "in1"}, Procs: 2}
	for i, b := range blobs {
		ref := origin.Store().Put(b)
		if ref.Hash != hashes[i] {
			return 0, fmt.Errorf("ladder: store hashed %s, harness %s", ref.Hash, hashes[i])
		}
		spec.StageIn = append(spec.StageIn, proto.StageRef{Name: spec.Args[i], Hash: ref.Hash, Size: ref.Size})
	}
	launch, err := origin.LaunchMPI(ctx, spec)
	if err != nil {
		return 0, err
	}
	if err := launch.Wait(ctx); err != nil {
		return 0, err
	}
	outs := launch.Outputs()
	if len(outs) != 2 {
		return 0, fmt.Errorf("ladder: core job has %d outputs, want 2", len(outs))
	}
	for rank, ref := range outs { // sorted by name: digest-0, digest-1
		got, ok := origin.Store().Get(ref.Hash)
		if !ok || string(got) != wantDigest(rank, len(blobs[0]), hashes) {
			return 0, fmt.Errorf("ladder: core job output %s is wrong or missing", ref.Name)
		}
	}
	if got, ok := origin.Store().Get(hashes[0]); !ok || !bytes.Equal(got, blobs[0]) {
		return 0, fmt.Errorf("ladder: input read back from the store differs")
	}
	return time.Since(start), nil
}

// gridBulk runs the bulk job through grid.Client, polling like the
// harness's HTTP client does.
func gridBulk(ctx context.Context, gc *gridapi.Client, blobs [][]byte, hashes [2]string) (time.Duration, error) {
	start := time.Now()
	spec := gridapi.JobSpec{Program: progDigest, Args: []string{"in0", "in1"}, Procs: 2}
	for i, b := range blobs {
		ref, err := gc.Put(ctx, spec.Args[i], b)
		if err != nil {
			return 0, err
		}
		if ref.Hash != hashes[i] {
			return 0, fmt.Errorf("ladder: proxy hashed %s, harness %s", ref.Hash, hashes[i])
		}
		spec.StageIn = append(spec.StageIn, ref)
	}
	id, err := gc.SubmitJob(ctx, spec)
	if err != nil {
		return 0, err
	}
	for {
		state, detail, err := gc.JobState(ctx, id)
		if err != nil {
			return 0, err
		}
		if state == proto.JobDone {
			break
		}
		if state == proto.JobFailed || state == proto.JobCancelled {
			return 0, fmt.Errorf("ladder: grid job %s: %s", id, detail)
		}
		time.Sleep(pollEvery)
	}
	outs, err := gc.JobOutputs(ctx, id)
	if err != nil {
		return 0, err
	}
	if len(outs) != 2 {
		return 0, fmt.Errorf("ladder: grid job has %d outputs, want 2", len(outs))
	}
	for rank, ref := range outs {
		got, err := gc.Get(ctx, ref.Hash)
		if err != nil || string(got) != wantDigest(rank, len(blobs[0]), hashes) {
			return 0, fmt.Errorf("ladder: grid job output %s is wrong or missing: %v", ref.Name, err)
		}
	}
	if got, err := gc.Get(ctx, hashes[0]); err != nil || !bytes.Equal(got, blobs[0]) {
		return 0, fmt.Errorf("ladder: input read back through grid.Client differs: %v", err)
	}
	return time.Since(start), nil
}

// timeOps runs op n times and returns the median latency in µs and the
// whole interval.
func timeOps(n int, op func() error) (medianUS float64, start, end time.Time, err error) {
	samples := make([]float64, 0, n)
	start = time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := op(); err != nil {
			return 0, start, time.Now(), err
		}
		samples = append(samples, us(time.Since(t)))
	}
	return median(samples), start, time.Now(), nil
}

// ladder runs both ladders and the single-layer probes and adds their
// metrics to m.
func ladder(ctx context.Context, o options, d *deployment, tr *tracer, m map[string]metric) error {
	// The ladder's size follows the window: 3 bulk repetitions and 200
	// small operations per rung from 20 s up, fewer on the WAN, where
	// every small operation pays the 20 ms round trip.
	r := &rig{ctx: ctx, d: d, tr: tr,
		reps: min(3, max(1, int(o.seconds/5))),
		ops:  min(200, max(10, int(o.seconds*10))),
	}
	if o.workload.wan {
		r.reps, r.ops = min(2, r.reps), max(10, r.ops/8)
	}
	if err := r.bulk(m); err != nil {
		return fmt.Errorf("bulk: %w", err)
	}
	if err := r.small(m); err != nil {
		return fmt.Errorf("small ops: %w", err)
	}
	if err := r.probes(m); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	m["transport.handshake_ms"] = metric{median(r.handshakes), "ms"}
	return nil
}

// freshBlobs returns private copies of two freshly stamped inputs (stores
// keep the slices they are given, and the client restamps its own).
func (r *rig) freshBlobs() ([][]byte, [2]string) {
	c := r.d.clients[0]
	hashes := c.freshInputs()
	return [][]byte{bytes.Clone(c.inputs[0].data), bytes.Clone(c.inputs[1].data)}, hashes
}

func (r *rig) bulk(m map[string]metric) error {
	ctx, origin, c := r.ctx, r.d.grid.sites[0].proxy, r.d.clients[0]

	gc, err := r.gridClient()
	if err != nil {
		return err
	}
	defer gc.Close()
	stageC, stageS, err := r.tunnelPair()
	if err != nil {
		return err
	}
	defer stageC.Close()
	defer stageS.Close()
	src, err := stage.NewStore(stage.Config{}, nil)
	if err != nil {
		return err
	}
	go func() {
		for {
			st, err := stageS.Accept(ctx)
			if err != nil {
				return
			}
			go func() { _ = stage.Serve(st, src, stage.Config{}, nil) }()
		}
	}()
	tunC, tunS, err := r.tunnelPair()
	if err != nil {
		return err
	}
	defer tunC.Close()
	defer tunS.Close()
	wireC, wireS, err := r.tlsPair()
	if err != nil {
		return err
	}
	defer wireC.Close()
	defer wireS.Close()
	cw, sw, cr, sr := wire.NewWriter(wireC), wire.NewWriter(wireS), wire.NewReader(wireC), wire.NewReader(wireS)
	rawC, rawS, err := r.tlsPair()
	if err != nil {
		return err
	}
	defer rawC.Close()
	defer rawS.Close()

	payload := 2 * int64(c.inputBytes)
	rungMS := map[string][]float64{}
	var putMS []float64
	for rep := 0; rep < r.reps; rep++ {
		parent := 0
		for _, rung := range bulkRungs {
			var took time.Duration
			var err error
			start := time.Now()
			switch rung {
			case "gate":
				var js jobSample
				if js, err = bulkOp(ctx, c); err == nil {
					took = js.turnaround()
				}
			case "grid":
				blobs, hashes := r.freshBlobs()
				took, err = gridBulk(ctx, gc, blobs, hashes)
			case "core":
				blobs, hashes := r.freshBlobs()
				took, err = coreBulk(ctx, origin, blobs, hashes)
			case "stage":
				blobs, _ := r.freshBlobs()
				var put time.Duration
				took, put, err = stageBulk(ctx, stageC, src, blobs)
				putMS = append(putMS, ms(put))
			case "tunnel":
				blobs, _ := r.freshBlobs()
				took, err = tunnelBulk(ctx, tunC, tunS, blobs)
			case "wire":
				blobs, _ := r.freshBlobs()
				took, err = wireBulk(wireC, wireS, cw, sw, cr, sr, blobs)
			case "transport":
				blobs, _ := r.freshBlobs()
				took, err = relayBulk(rawC, rawS, blobs)
			}
			if err != nil {
				return fmt.Errorf("%s rung: %w", rung, err)
			}
			rungMS[rung] = append(rungMS[rung], ms(took))
			parent = r.tr.add(parent, fmt.Sprintf("ladder-bulk-%d", rep), "bulk:"+rung, rung, start, start.Add(took), payload)
		}
	}
	rung := func(name string) float64 { return median(rungMS[name]) }
	for i, name := range bulkRungs[:len(bulkRungs)-1] {
		m[name+".self_ms_per_MiB"] = metric{(rung(name) - rung(bulkRungs[i+1])) / (float64(payload) / mib), "ms/MiB"}
	}
	mbps := func(tookMS float64) float64 { return float64(payload) / 1e6 / (tookMS / 1e3) }
	m["transport.raw_MBps"] = metric{mbps(rung("transport")), "MB/s"}
	m["tunnel.stream_MBps"] = metric{mbps(rung("tunnel")), "MB/s"}
	m["stage.pull_MBps"] = metric{mbps(rung("stage") - median(putMS)), "MB/s"}
	m["stage.store_put_MBps"] = metric{mbps(median(putMS)), "MB/s"}
	return nil
}

// echoLoop echoes fixed-size messages until the connection closes.
func echoLoop(conn net.Conn, size int) {
	buf := make([]byte, size)
	for {
		if _, err := io.ReadFull(conn, buf); err != nil {
			return
		}
		if _, err := conn.Write(buf); err != nil {
			return
		}
	}
}

func (r *rig) small(m map[string]metric) error {
	ctx, origin, c := r.ctx, r.d.grid.sites[0].proxy, r.d.clients[0]
	const msg = 64

	// Cross-site chain, top down: core RPC → tunnel ping → frame echo →
	// byte echo, each over its own fresh TLS connection (core uses the
	// proxies' live tunnel).
	tunC, tunS, err := r.tunnelPair()
	if err != nil {
		return err
	}
	defer tunC.Close()
	defer tunS.Close()
	wireC, wireS, err := r.tlsPair()
	if err != nil {
		return err
	}
	defer wireC.Close()
	defer wireS.Close()
	go func() {
		sr, sw := wire.NewReader(wireS), wire.NewWriter(wireS)
		for {
			f, err := sr.ReadFramePooled()
			if err != nil {
				return
			}
			err = sw.WriteFrame(f.Type, f.Payload)
			wire.PutPayload(f.Payload)
			if err != nil {
				return
			}
		}
	}()
	rawC, rawS, err := r.tlsPair()
	if err != nil {
		return err
	}
	defer rawC.Close()
	defer rawS.Close()
	go echoLoop(rawS, msg)

	payload, reply := make([]byte, msg), make([]byte, msg)
	cw, cr := wire.NewWriter(wireC), wire.NewReader(wireC)
	gc, err := r.gridClient()
	if err != nil {
		return err
	}
	defer gc.Close()

	type rungOp struct {
		layer string
		op    func() error
	}
	chains := []struct {
		trace string
		rungs []rungOp
	}{
		{"ladder-small-cross", []rungOp{
			{"core", func() error { return origin.PingPeer(ctx, remoteSite) }},
			{"tunnel", func() error { return tunC.Ping(ctx) }},
			{"wire", func() error {
				if err := cw.WriteFrame(ladderFrame, payload); err != nil {
					return err
				}
				f, err := cr.ReadFramePooled()
				wire.PutPayload(f.Payload)
				return err
			}},
			{"transport", func() error {
				if _, err := rawC.Write(payload); err != nil {
					return err
				}
				_, err := io.ReadFull(rawC, reply)
				return err
			}},
		}},
		{"ladder-small-front", []rungOp{
			{"gate", func() error { return c.gridView(ctx) }},
			{"grid", func() error { _, err := gc.Status(ctx); return err }},
			{"core-local", func() error { _, err := origin.Status(ctx, nil); return err }},
		}},
	}
	rungUS := map[string]float64{}
	for _, chain := range chains {
		parent := 0
		for _, rung := range chain.rungs {
			med, start, end, err := timeOps(r.ops, rung.op)
			if err != nil {
				return fmt.Errorf("%s rung: %w", rung.layer, err)
			}
			rungUS[rung.layer] = med
			parent = r.tr.add(parent, chain.trace, "small:"+rung.layer, rung.layer, start, end, int64(r.ops))
		}
	}
	m["core.self_us_per_op"] = metric{rungUS["core"] - rungUS["tunnel"], "us"}
	m["tunnel.self_us_per_op"] = metric{rungUS["tunnel"] - rungUS["wire"], "us"}
	m["wire.self_us_per_op"] = metric{rungUS["wire"] - rungUS["transport"], "us"}
	m["transport.rtt_us"] = metric{rungUS["transport"], "us"}
	m["gate.self_us_per_req"] = metric{rungUS["gate"] - rungUS["grid"], "us"}
	m["grid.self_us_per_op"] = metric{rungUS["grid"] - rungUS["core-local"], "us"}
	return nil
}

// nullSession is the smallest peerlink.Session, for timing the cache's
// own checkout path.
type nullSession struct{ done chan struct{} }

func (s nullSession) Done() <-chan struct{} { return s.done }
func (s nullSession) Close() error          { return nil }

// directExchange runs bench-exchange's body on two ranks joined straight
// to each other on one site LAN: the MPI runtime without any proxy.
func directExchange(ctx context.Context, pings, stream int) (exchangeTimings, error) {
	lan := transport.NewLabelTCP()
	table := map[int]string{0: "direct/r0", 1: "direct/r1"}
	var worlds [2]*mpi.World
	for rank := range worlds {
		w, err := mpi.Join(ctx, mpi.Config{Rank: rank, WorldSize: 2, Table: table, ListenAddr: table[rank], Network: lan})
		if err != nil {
			return exchangeTimings{}, err
		}
		defer w.Close()
		worlds[rank] = w
	}
	peer := make(chan error, 1)
	go func() {
		_, check, err := exchange(ctx, worlds[1], pings, stream)
		if err == nil && (!check.PatternOK || check.Pings != pings) {
			err = fmt.Errorf("direct exchange: rank 1 saw %d pings, pattern ok=%v", check.Pings, check.PatternOK)
		}
		peer <- err
	}()
	timings, _, err := exchange(ctx, worlds[0], pings, stream)
	if err != nil {
		return timings, err
	}
	return timings, <-peer
}

func (r *rig) probes(m map[string]metric) error {
	ctx, g, c := r.ctx, r.d.grid, r.d.clients[0]
	origin := g.sites[0].proxy

	med, _, _, err := timeOps(r.ops, func() error { _, err := origin.Placement(2); return err })
	if err != nil {
		return err
	}
	m["scheduler.place_us"] = metric{med, "us"}

	tgt, err := g.tgs.SignOnPassword(users[0].name, users[0].password)
	if err != nil {
		return err
	}
	tick, err := g.tgs.GrantTicket(tgt, core.ServiceName(originSite))
	if err != nil {
		return err
	}
	validator := ticket.NewValidator(core.ServiceName(originSite), g.ticketKey, nil)
	med, _, _, err = timeOps(r.ops, func() error { _, err := validator.Validate(tick); return err })
	if err != nil {
		return err
	}
	m["ticket.validate_us"] = metric{med, "us"}

	cache := peerlink.NewCache[nullSession](peerlink.CacheConfig{}, func(context.Context, string) (nullSession, error) {
		return nullSession{done: make(chan struct{})}, nil
	}, nil)
	const checkouts = 10000
	start := time.Now()
	for i := 0; i < checkouts; i++ {
		s, err := cache.Get(ctx, remoteSite)
		if err != nil {
			return err
		}
		cache.Release(remoteSite, s)
	}
	m["peerlink.checkout_ns"] = metric{float64(time.Since(start).Nanoseconds()) / checkouts, "ns"}
	cache.CloseAll()

	// Allocations per frame: 64 KiB frames written to and read back from
	// memory, so only wire's own allocations count.
	var pipe bytes.Buffer
	fw, fr := wire.NewWriter(&pipe), wire.NewReader(&pipe)
	frame := make([]byte, 64<<10)
	const frames = 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		if err := fw.WriteFrame(ladderFrame, frame); err != nil {
			return err
		}
		f, err := fr.ReadFramePooled()
		if err != nil {
			return err
		}
		wire.PutPayload(f.Payload)
	}
	runtime.ReadMemStats(&after)
	m["wire.allocs_per_frame"] = metric{float64(after.Mallocs-before.Mallocs) / frames, "count"}

	// MPI: the same exchange with and without the two proxies in the path.
	pings, stream := r.ops, 8
	direct, err := directExchange(ctx, pings, stream)
	if err != nil {
		return err
	}
	spliced, err := exchangeJob(ctx, c, pings, stream)
	if err != nil {
		return err
	}
	r.tr.addJob("ladder-mpi-spliced", spliced)
	directUS := make([]float64, len(direct.RTTNanos))
	for i, ns := range direct.RTTNanos {
		directUS[i] = float64(ns) / 1e3
	}
	m["mpi.direct_rtt_us"] = metric{median(directUS), "us"}
	m["core.splice_added_us"] = metric{median(spliced.rttUS) - median(directUS), "us"}
	mpiMetrics(m, []jobSample{spliced})

	// node: what a job costs when it does nothing.
	if err := c.stageParam(ctx); err != nil {
		return err
	}
	var runMS []float64
	for i := 0; i < max(r.ops/10, 3); i++ {
		js, err := controlOp(ctx, c)
		if err != nil {
			return err
		}
		r.tr.addJob(fmt.Sprintf("ladder-noop-%d", i), js)
		runMS = append(runMS, ms(js.phases[2]))
	}
	m["node.run_ms"] = metric{median(runMS), "ms"}
	return nil
}
