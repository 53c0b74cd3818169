package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"
)

// workload is one closed-loop traffic mix driven through the front door.
type workload struct {
	name string
	why  string
	// wan runs the inter-site link through wanem instead of bare loopback.
	wan bool
	// clients is how many sessions loop concurrently (at most nproc = 2).
	clients int
	// inputBytes is the size of each of a bulk job's two inputs. Every
	// workload has one, because every traced run pushes a bulk job down
	// the ladder.
	inputBytes int
	// prepare, if set, preconditions the deployment after set-up and
	// before warm-up; it is not part of setup_s.
	prepare func(ctx context.Context, d *deployment) error
	// op runs one job through the gateway and verifies it.
	op func(ctx context.Context, c *client) (jobSample, error)
}

const (
	maxInputBytes = 8 << 20 // the gateway's default body cap
	paramBytes    = 4 << 10
	// One bench-exchange job: enough round trips for a p99 across a run,
	// and a stream long enough to leave slow start behind.
	exchangePings  = 1000
	exchangeStream = 32
)

var workloads = []*workload{
	{
		name:    "bulk_lan",
		why:     "fresh 16 MiB inputs per job over bare loopback: per-byte CPU of gate and grid copies, stage hashing, tunnel framing and TLS dominates; RTT is ~0, so windows and striping cannot help",
		clients: 1, inputBytes: maxInputBytes, prepare: prefillStores, op: bulkOp,
	},
	{
		name: "bulk_wan",
		why:  "the same job with 8 MiB of fresh inputs, from two sessions, over a 20 ms RTT, 125 MB/s shared link: round trips, window ramp-up and stripes dominate; CPU per byte does little",
		wan:  true,
		// A job here cannot take less than its dozen-odd round trips
		// (350 ms with 1 MiB inputs, 540 ms with 8 MiB ones), so one session
		// with bulk_lan's inputs finishes under 40 jobs in a window. Two
		// sessions with inputs of half the size finish over 100, which a p90
		// needs, and keep the link a third busy, so a better window still
		// shows undamped.
		clients: 2, inputBytes: maxInputBytes / 2, prepare: prefillStores, op: bulkOp,
	},
	{
		name:    "control_mix",
		why:     "two sessions of listings and no-op jobs whose one input is a warm cache hit: no payload moves, so admission, tickets, placement, prepare/commit RPCs and spawn do all the work",
		clients: 2, inputBytes: maxInputBytes, prepare: stageParams, op: controlOp,
	},
	{
		name:    "mpi_exchange",
		why:     "1 KiB ping-pong and a 256 KiB stream between ranks on two sites, spliced through both proxies: small latency-critical frames, where batching that helps bulk can cost",
		clients: 1, inputBytes: maxInputBytes, op: exchangeOp,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// jobSample is what one verified job contributes.
type jobSample struct {
	// phases are the client-side spans of the job, in order: upload,
	// submit, run, collect. Their sum is the job's turnaround.
	phases [4]time.Duration
	// start is when the first phase began.
	start time.Time
	// payload is how many payload bytes the job moved and verified:
	// staged inputs, or MPI messages for bench-exchange.
	payload int64
	// staged is how many input bytes had to cross to the remote site
	// (fresh content only; a warm input stages nothing).
	staged int64
	// rttUS and streamMBps are bench-exchange's own measurements.
	rttUS      []float64
	streamMBps float64
}

func (j jobSample) turnaround() time.Duration {
	return j.phases[0] + j.phases[1] + j.phases[2] + j.phases[3]
}

// blob is a payload whose content is made unique per job by restamping
// its last 64 bytes. The SHA-256 state over everything before the stamp
// is computed once, so a fresh blob and its hash cost microseconds and
// nothing large is generated or hashed inside the timed window.
type blob struct {
	data     []byte
	midstate []byte
}

const stampBytes = sha256.BlockSize

func newBlob(rng *rand.Rand, size int) *blob {
	b := &blob{data: make([]byte, size)}
	rng.Read(b.data)
	h := sha256.New()
	h.Write(b.data[:size-stampBytes])
	b.midstate, _ = h.(encoding.BinaryMarshaler).MarshalBinary()
	return b
}

// stamp makes the blob's content unique for (seed, serial) and returns
// its hex SHA-256.
func (b *blob) stamp(seed int64, serial uint64) string {
	tail := b.data[len(b.data)-stampBytes:]
	binary.BigEndian.PutUint64(tail, uint64(seed))
	binary.BigEndian.PutUint64(tail[8:], serial)
	h := sha256.New()
	_ = h.(encoding.BinaryUnmarshaler).UnmarshalBinary(b.midstate)
	h.Write(tail)
	return hex.EncodeToString(h.Sum(nil))
}

// client is one closed-loop worker: a session plus the inputs it owns.
type client struct {
	*session
	index      int
	seed       int64
	rng        *rand.Rand
	serial     uint64
	inputBytes int
	inputs     [2]*blob // bulk jobs' two inputs
	param      fileRef  // control_mix's staged-once input
}

func newClient(s *session, seed int64, index, inputBytes int) *client {
	rng := rand.New(rand.NewSource(seed*1000 + int64(index)))
	return &client{session: s, index: index, seed: seed, rng: rng, serial: uint64(index) << 48, inputBytes: inputBytes}
}

// freshInputs restamps both bulk inputs and returns their hashes.
func (c *client) freshInputs() [2]string {
	if c.inputs[0] == nil {
		c.inputs[0], c.inputs[1] = newBlob(c.rng, c.inputBytes), newBlob(c.rng, c.inputBytes)
	}
	var hashes [2]string
	for i, b := range c.inputs {
		c.serial++
		hashes[i] = b.stamp(c.seed, c.serial)
	}
	return hashes
}

// bulkOp uploads two fresh inputs, runs bench-digest on one rank
// per site, and checks every digest and one read-back input.
func bulkOp(ctx context.Context, c *client) (jobSample, error) {
	var js jobSample
	hashes := c.freshInputs()
	names := []string{"in0", "in1"}

	js.start = time.Now()
	job := jobRequest{Program: progDigest, Args: names, Procs: 2}
	for i, b := range c.inputs {
		ref, err := c.putFile(ctx, names[i], b.data, hashes[i])
		if err != nil {
			return js, err
		}
		job.StageIn = append(job.StageIn, ref)
	}
	uploaded := time.Now()
	id, err := c.submit(ctx, job)
	if err != nil {
		return js, err
	}
	submitted := time.Now()
	if err := c.waitDone(ctx, id); err != nil {
		return js, err
	}
	ran := time.Now()
	outs, err := c.outputs(ctx, id)
	if err != nil {
		return js, err
	}
	if len(outs) != 2 {
		return js, fmt.Errorf("job %s has %d outputs, want 2", id, len(outs))
	}
	for rank := 0; rank < 2; rank++ {
		ref, ok := outs["digest-"+strconv.Itoa(rank)]
		if !ok {
			return js, fmt.Errorf("job %s: no digest-%d output", id, rank)
		}
		got, err := c.getFile(ctx, ref.Hash)
		if err != nil {
			return js, err
		}
		if want := wantDigest(rank, c.inputBytes, hashes); string(got) != want {
			return js, fmt.Errorf("job %s: rank %d hashed something else than was uploaded:\n%swant\n%s", id, rank, got, want)
		}
	}
	back := int(c.serial % 2)
	got, err := c.getFile(ctx, hashes[back])
	if err != nil {
		return js, err
	}
	if !bytes.Equal(got, c.inputs[back].data) {
		return js, fmt.Errorf("job %s: input %s read back differs from what was uploaded", id, names[back])
	}
	done := time.Now()
	js.phases = [4]time.Duration{uploaded.Sub(js.start), submitted.Sub(uploaded), ran.Sub(submitted), done.Sub(ran)}
	js.payload = 2 * int64(c.inputBytes)
	js.staged = js.payload
	return js, nil
}

// stageParam uploads control_mix's one small input, once, at set-up; every
// job then finds it in both stores.
func (c *client) stageParam(ctx context.Context) error {
	b := newBlob(c.rng, paramBytes)
	hash := b.stamp(c.seed, c.serial)
	ref, err := c.putFile(ctx, "param", b.data, hash)
	c.param = ref
	return err
}

// controlOp is one control_mix iteration: the two listings in seeded
// order, then a no-op job on one rank per site.
func controlOp(ctx context.Context, c *client) (jobSample, error) {
	var js jobSample
	listings := []func() error{
		func() error { return c.gridView(ctx) },
		func() error { _, err := c.jobsList(ctx); return err },
	}
	if c.rng.Intn(2) == 1 {
		listings[0], listings[1] = listings[1], listings[0]
	}
	for _, list := range listings {
		if err := list(); err != nil {
			return js, err
		}
	}
	// The job's turnaround starts here: the listings are their own
	// operations and count as queries, so the upload phase is empty.
	js.start = time.Now()
	uploaded := time.Now()
	id, err := c.submit(ctx, jobRequest{Program: progNoop, Args: []string{"param"}, Procs: 2, StageIn: []fileRef{c.param}})
	if err != nil {
		return js, err
	}
	submitted := time.Now()
	if err := c.waitDone(ctx, id); err != nil {
		return js, err
	}
	ran := time.Now()
	outs, err := c.outputs(ctx, id)
	if err != nil {
		return js, err
	}
	if len(outs) != 0 {
		return js, fmt.Errorf("no-op job %s published %d outputs", id, len(outs))
	}
	done := time.Now()
	js.phases = [4]time.Duration{uploaded.Sub(js.start), submitted.Sub(uploaded), ran.Sub(submitted), done.Sub(ran)}
	js.payload = paramBytes
	return js, nil
}

// exchangeOp runs bench-exchange on one rank per site and checks what
// both ranks report.
func exchangeOp(ctx context.Context, c *client) (jobSample, error) {
	return exchangeJob(ctx, c, exchangePings, exchangeStream)
}

func exchangeJob(ctx context.Context, c *client, pings, stream int) (jobSample, error) {
	var js jobSample
	js.start = time.Now()
	uploaded := time.Now() // nothing to upload: an empty phase, measured as such
	id, err := c.submit(ctx, jobRequest{Program: progExchange, Args: []string{strconv.Itoa(pings), strconv.Itoa(stream)}, Procs: 2})
	if err != nil {
		return js, err
	}
	submitted := time.Now()
	if err := c.waitDone(ctx, id); err != nil {
		return js, err
	}
	ran := time.Now()
	outs, err := c.outputs(ctx, id)
	if err != nil {
		return js, err
	}
	var timings exchangeTimings
	var check exchangeCheck
	for name, into := range map[string]any{"timings": &timings, "check": &check} {
		ref, ok := outs[name]
		if !ok {
			return js, fmt.Errorf("job %s: no %q output", id, name)
		}
		data, err := c.getFile(ctx, ref.Hash)
		if err != nil {
			return js, err
		}
		if err := json.Unmarshal(data, into); err != nil {
			return js, fmt.Errorf("job %s: %s: %w", id, name, err)
		}
	}
	if len(timings.RTTNanos) != pings || check.Pings != pings || check.StreamMsgs != stream ||
		!check.PatternOK || timings.StreamBytes != int64(stream)*streamBytes || timings.StreamNanos <= 0 {
		return js, fmt.Errorf("job %s: ranks report %d/%d pings, %d stream messages, pattern ok=%v; want %d and %d",
			id, len(timings.RTTNanos), check.Pings, check.StreamMsgs, check.PatternOK, pings, stream)
	}
	done := time.Now()
	js.phases = [4]time.Duration{uploaded.Sub(js.start), submitted.Sub(uploaded), ran.Sub(submitted), done.Sub(ran)}
	js.payload = int64(pings)*2*pingBytes + timings.StreamBytes
	for _, ns := range timings.RTTNanos {
		js.rttUS = append(js.rttUS, float64(ns)/1e3)
	}
	js.streamMBps = float64(timings.StreamBytes) / 1e6 / (float64(timings.StreamNanos) / 1e9)
	return js, nil
}
