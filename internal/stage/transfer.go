package stage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/wire"
)

// The transfer protocol is request/response over a dedicated data
// stream. Each request is a small length-prefixed frame; a get response
// is a header frame followed by a run of checksummed chunks covering
// the requested byte range:
//
//	request:  uint32 len | op u8, hash str, offset i64, length i64, chunk u32
//	get rsp:  uint32 len | status u8, size i64
//	          then per chunk: uint32 n | crc32c(chunk) u32 | n payload bytes
//
// The puller knows the exact byte range it asked for, so chunk framing
// stays in sync even across a chunk whose checksum fails — the bad span
// is recorded and re-requested after the response completes. The chunk
// checksum is CRC-32C: it is there to find which chunk a faulty link or
// buffer damaged, so that only that span moves again, and the hardware
// computes it at memory speed. What a blob is trusted on is the SHA-256 of
// the whole of it, checked once before it enters the store (finish).
const (
	opGet = 1

	statusOK       = 0
	statusNotFound = 1
	statusBad      = 2

	// maxRequestFrame bounds a request (op + hash + offsets); anything
	// bigger is a protocol violation.
	maxRequestFrame = 1 << 10
)

// ErrNotFound reports that the serving store does not hold the blob.
var ErrNotFound = errors.New("stage: blob not found")

// emptyHash names the blob of no bytes.
var emptyHash = Hash(nil)

// chunkHeader is the "uint32 n | crc32c u32" that precedes a chunk's bytes.
const chunkHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// armRead sets the idle read deadline on conn (idle <= 0 disables).
func armRead(conn net.Conn, idle time.Duration) {
	if idle > 0 {
		conn.SetReadDeadline(time.Now().Add(idle))
	}
}

// armWrite sets the idle write deadline on conn.
func armWrite(conn net.Conn, idle time.Duration) {
	if idle > 0 {
		conn.SetWriteDeadline(time.Now().Add(idle))
	}
}

// framePrefix is the length prefix of a frame. A frame is built behind
// four reserved bytes, which writeFrame fills in.
const framePrefix = 4

// writeFrame writes frame, whose payload starts at framePrefix, as a
// single Write.
func writeFrame(conn net.Conn, idle time.Duration, frame []byte) error {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-framePrefix))
	armWrite(conn, idle)
	_, err := conn.Write(frame)
	return err
}

// readFrame reads one length-prefixed frame of at most max bytes.
func readFrame(conn net.Conn, idle time.Duration, max int) ([]byte, error) {
	var hdr [4]byte
	armRead(conn, idle)
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int(n) > max {
		return nil, fmt.Errorf("stage: frame of %d bytes exceeds limit %d", n, max)
	}
	payload := make([]byte, n)
	armRead(conn, idle)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// Serve answers transfer requests on conn out of store until the peer
// closes the stream or stalls past the idle deadline. It pushes nothing:
// an inbox request is answered statusBad. Outbox.Serve is the same loop
// for a peer that pushes.
func Serve(conn net.Conn, store *Store, cfg Config, reg *metrics.Registry) error {
	return serve(conn, store, nil, nil, cfg, reg)
}

func serve(conn net.Conn, store *Store, o *Outbox, inbox *atomic.Int32, cfg Config, reg *metrics.Registry) error {
	cfg = cfg.WithDefaults()
	if cfg.WrapConn != nil {
		conn = cfg.WrapConn(conn)
	}
	defer conn.Close()
	for {
		req, err := readFrame(conn, cfg.IdleTimeout, maxRequestFrame)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		buf := wire.NewBuffer(req)
		op := buf.Uint8()
		hash := buf.String()
		offset := buf.Int64()
		length := buf.Int64()
		chunk := int(buf.Uint32())
		if err := buf.Err(); err != nil {
			return writeFrame(conn, cfg.IdleTimeout, statusFrame(statusBad, 0))
		}
		switch {
		case op == opGet:
			full, err := serveGet(conn, store, cfg, reg, hash, offset, length, chunk)
			if err != nil {
				return err
			}
			if full && o != nil {
				o.record(hash)
			}
		case op == opInbox && o != nil:
			if inbox != nil {
				inbox.Add(1)
				defer inbox.Add(-1)
			}
			return o.adopt(conn)
		default:
			if err := writeFrame(conn, cfg.IdleTimeout, statusFrame(statusBad, 0)); err != nil {
				return err
			}
		}
	}
}

// request is a request frame, for writeFrame.
func request(op byte, hash string, offset, length int64, chunk int) []byte {
	req := append(make([]byte, framePrefix, framePrefix+96), op)
	req = wire.AppendString(req, hash)
	req = wire.AppendInt64(req, offset)
	req = wire.AppendInt64(req, length)
	return wire.AppendUint32(req, uint32(chunk))
}

func statusFrame(status byte, size int64) []byte {
	out := append(make([]byte, framePrefix, framePrefix+9), status)
	return wire.AppendInt64(out, size)
}

// bufferWriter is the vectored write surface a tunnel stream exposes:
// the segments are gathered into frames without an intermediate copy.
type bufferWriter interface {
	WriteBuffers(segs ...[]byte) (int64, error)
}

// serveGet answers one get: a header, then the requested range as
// chunks (writeChunks). full reports a response that ran to the blob's
// end.
func serveGet(conn net.Conn, store *Store, cfg Config, reg *metrics.Registry, hash string, offset, length int64, chunk int) (full bool, err error) {
	size, ok := store.Stat(hash)
	if !ok {
		return false, writeFrame(conn, cfg.IdleTimeout, statusFrame(statusNotFound, 0))
	}
	if chunk <= 0 || chunk > maxChunkSize {
		chunk = cfg.ChunkSize
	}
	if offset < 0 || offset > size {
		return false, writeFrame(conn, cfg.IdleTimeout, statusFrame(statusBad, size))
	}
	end := size
	if length > 0 && length < size-offset {
		end = offset + length
	}
	if err := writeFrame(conn, cfg.IdleTimeout, statusFrame(statusOK, size)); err != nil {
		return false, err
	}
	err = newChunkWriter(conn, chunk).writeChunks(store, hash, offset, end, cfg.IdleTimeout, reg, nil)
	return err == nil && end == size, err
}

// errCut is a push's terminator: the rest of the span is not coming, and
// the stream is still in step.
var errCut = errors.New("stage: push cut short")

// chunkWriter writes chunks, each behind its length and CRC-32C. On a
// stream with a vectored write the header and the payload are gathered
// without a copy; otherwise, for fault-injection wrappers, they go as one
// assembled Write so a corrupted chunk never desynchronizes the framing.
type chunkWriter struct {
	conn  net.Conn
	chunk int
	bw    bufferWriter
	frame []byte
	hdr   [chunkHeader]byte
}

func newChunkWriter(conn net.Conn, chunk int) *chunkWriter {
	cw := &chunkWriter{conn: conn, chunk: chunk}
	if cw.bw, _ = conn.(bufferWriter); cw.bw == nil {
		cw.frame = make([]byte, 0, chunkHeader+chunk)
	}
	return cw
}

// writeChunks writes bytes [pos, end) of the blob stored under hash, for
// a get or a push, as chunks leased one at a time from the store: a
// memory-resident blob's loans alias it, so on the vectored-write path
// the bytes travel store→wire with no copy. A push passes cut, asked
// before each chunk: when it says so, or the blob has left the store, a
// terminator replaces the rest and errCut is returned. A get's blob that
// leaves the store breaks the stream instead: the puller's framing would
// desync on anything else, and its retry path re-stats.
func (cw *chunkWriter) writeChunks(store *Store, hash string, pos, end int64, idle time.Duration, reg *metrics.Registry, cut func() bool) error {
	for pos < end {
		n := min(int64(cw.chunk), end-pos)
		loan, ok := ChunkLoan{}, cut == nil || !cut()
		if ok {
			loan, ok = store.LoanChunk(hash, pos, n)
		}
		armWrite(cw.conn, idle)
		if !ok && cut == nil {
			return fmt.Errorf("stage: blob %s evicted mid-transfer", short(hash))
		}
		if !ok {
			if err := cw.write(nil); err != nil {
				return err
			}
			return errCut
		}
		err := cw.write(loan.Data)
		loan.Release()
		if err != nil {
			return err
		}
		reg.Counter(metrics.StageBytesSent).Add(n)
		pos += n
	}
	return nil
}

// write writes data as one chunk; no data is a push's terminator.
func (cw *chunkWriter) write(data []byte) error {
	binary.BigEndian.PutUint32(cw.hdr[:4], uint32(len(data)))
	sum := uint32(0)
	if len(data) > 0 {
		sum = crc32.Checksum(data, castagnoli)
	}
	binary.BigEndian.PutUint32(cw.hdr[4:], sum)
	var err error
	if cw.bw != nil {
		_, err = cw.bw.WriteBuffers(cw.hdr[:], data)
	} else {
		cw.frame = append(append(cw.frame[:0], cw.hdr[:]...), data...)
		_, err = cw.conn.Write(cw.frame)
	}
	return err
}

// readChunks reads the chunks of bytes [pos, end) of b, for a get
// response or a push, into b's buffer, or drops them when b is nil. It
// returns the chunks that failed their checksum (framed correctly, so the
// stream is in sync and only they move again) and after an error the part
// not yet read; done reports that its bytes were b's last. The error is
// errCut after a push's terminator, else the stream broke or lost framing.
func readChunks(conn net.Conn, b *incoming, pos, end int64, idle time.Duration, reg *metrics.Registry) (missing []span, got int64, done bool, err error) {
	var chdr [chunkHeader]byte
	for pos < end {
		unread := span{b, pos, end}
		armRead(conn, idle)
		if _, err := io.ReadFull(conn, chdr[:]); err != nil {
			return append(missing, unread), got, false, err
		}
		n := int64(binary.BigEndian.Uint32(chdr[:4]))
		if n == 0 {
			return append(missing, unread), got, false, errCut
		}
		if pos+n > end || n > maxChunkSize {
			return append(missing, unread), got, false, fmt.Errorf("stage: bad chunk length %d at offset %d", n, pos)
		}
		var dst, dropped []byte // a chunk no blob keeps is read into a pooled buffer
		if b != nil {
			dst = b.buf[pos : pos+n]
		} else {
			dropped = wire.GetPayload(int(n))
			dst = dropped
		}
		armRead(conn, idle)
		_, err := io.ReadFull(conn, dst)
		wire.PutPayload(dropped)
		if err != nil {
			return append(missing, unread), got, false, err
		}
		switch {
		case b == nil:
		case binary.BigEndian.Uint32(chdr[4:]) != crc32.Checksum(dst, castagnoli):
			reg.Counter(metrics.StageCorruptChunks).Inc()
			missing = append(missing, span{b, pos, pos + n})
		default:
			reg.Counter(metrics.StageBytesReceived).Add(n)
			got += n
			done = b.left.Add(-n) == 0
		}
		pos += n
	}
	return missing, got, done, nil
}

// Dialer opens a fresh transfer connection to the serving site. A pull
// plan calls it once per stream and again after a link drop to resume.
type Dialer func(ctx context.Context) (net.Conn, error)

// ErrSizeMismatch reports that the serving store holds a blob at a
// different size than the ref that named it.
var ErrSizeMismatch = errors.New("stage: blob size differs from its ref")

// redialBackoff is the pause before a pull stream's first redial; it
// doubles with every round after, so a dial that fails fast does not
// spend the whole retry budget within microseconds.
const redialBackoff = 10 * time.Millisecond

// sleep waits d or until ctx ends, and reports whether d passed.
func sleep(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// maxPipelined bounds how many requests a stream writes before it reads
// their responses. A server answers in order and stops reading while it
// writes, so requests beyond what the transport buffers would block the
// puller's write against the server's; 32 requests are under 3 KiB.
const maxPipelined = 32

// span is a half-open byte range [off, end) of one incoming blob: the
// unit of request, retry, resume and push.
type span struct {
	b        *incoming
	off, end int64
}

// incoming is one blob on its way into a store: pulled by a plan, or
// pushed by a peer (inbox.go) for the plans that wait on it. size and buf
// are set before any span of it is in flight, or by the one leading span
// that learns the size from its get header (the other spans are dealt in
// the wave after that).
type incoming struct {
	hash string
	size int64        // -1 until known
	buf  []byte       // spans of different streams fill disjoint ranges
	left atomic.Int64 // bytes not yet read intact; a push counts its corrupt chunks as read, in holes

	mu  sync.Mutex
	err error // first failure; a failed blob's spans are dropped, not retried

	// A pushed blob's. push, from, holes, claimed, lost, settled and
	// adopted are held under Store.mu.
	push    uint64 // the push that announced it
	from    *Inbox
	state   atomic.Int32 // arriving, finishing, then arrived, holed or failed
	readers atomic.Int32 // announced spans whose stream has not finished with them
	alloc   sync.Once
	freed   sync.Once
	holes   []span        // the chunks that failed their checksum
	done    chan struct{} // closed when it settles, err set
	claimed bool          // a plan waits on it
	lost    bool          // a plan gave up on it: none claims it
	settled bool
	adopted bool // a plan took its holed buffer, or it was let go
}

func (b *incoming) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

func (b *incoming) failure() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// setSize sizes the blob and its buffer. The size comes from a peer: one
// the system cannot map fails the blob, not the process.
func (b *incoming) setSize(size int64, dst *Store) error {
	buf, err := dst.arena.alloc(int(size))
	if err != nil {
		return err
	}
	b.size, b.buf = size, buf
	b.left.Store(size)
	return nil
}

// finish enters a blob whose every byte is read into the store if its
// hash is its name, on the stream that read its last byte, so one blob's
// hashing overlaps the others' bytes. A pushed blob with corrupt chunks
// is not hashed: errHoled.
func (s *Store) finish(b *incoming) error {
	if len(b.holes) > 0 {
		return errHoled
	}
	if got := s.hash(b.buf); got != b.hash {
		return fmt.Errorf("stage: content hashes to %s, not %s", got, b.hash)
	}
	s.put(b.hash, b.buf)
	b.buf = nil
	return nil
}

// wanted is one distinct blob of a pull plan: the refs that name it, the
// push it waits on, and the record the plan pulls it into.
type wanted struct {
	refs  []int
	want  int64     // the ref's size: <= 0 is unknown
	push  *incoming // the push it waits on, if any
	first bool      // the first plan to wait on push: it counts the pull
	in    *incoming // the plan's own record, once it pulls or mends
}

// pullPlan is the state one PullAll shares between its streams.
type pullPlan struct {
	dial Dialer
	dst  *Store
	cfg  Config
	reg  *metrics.Registry

	mu sync.Mutex
	// discovered collects the spans behind the leading chunk of blobs
	// whose size the current wave learned; they form the next wave.
	discovered []span
}

// Pull fetches the one blob named by hash, its size unknown: PullAll of
// a single ref without a size.
func Pull(ctx context.Context, dial Dialer, hash string, dst *Store, cfg Config, reg *metrics.Registry) error {
	return PullAll(ctx, dial, []FileRef{{Hash: hash}}, dst, cfg, reg)[0]
}

// PullAll brings every blob refs name into dst under one plan and
// returns one error per ref (nil where the blob is now in dst). Refs dst
// already holds are cache hits and cost nothing. A blob a peer is pushing
// into dst is waited for, once the inbox streams have registered the
// share headers they hold (catchUp); a push that fails is pulled, and the
// corrupt chunks of one are requested alone. The bytes of the other
// missing blobs are laid end to end, cut into spans and dealt over at
// most cfg.Stripes streams, all dialed at once; each stream writes the
// get requests of its spans back to back and then reads the responses in
// order, so a plan costs one open and one request round trip however
// many blobs it names. Corrupt chunks are re-requested, a dropped stream
// redials and resumes from the bytes already received, and one blob
// failing leaves the others whole.
//
// Sizes come from the refs. A ref with Size <= 0 is of unknown size: its
// leading chunk is requested first, as one request, the header of that
// response carries the size, and the rest of the blob follows in a
// second wave on the same streams. The empty blob is known by its hash
// and is never requested.
func PullAll(ctx context.Context, dial Dialer, refs []FileRef, dst *Store, cfg Config, reg *metrics.Registry) []error {
	cfg = cfg.WithDefaults()
	errs := make([]error, len(refs))
	pl := &pullPlan{dial: dial, dst: dst, cfg: cfg, reg: reg}
	// How long the plan waits on inbox streams, even with deadlines off.
	patience := cfg.IdleTimeout
	if patience <= 0 {
		patience = DefaultIdleTimeout
	}
	dst.catchUp(patience)
	var (
		blobs  []*wanted
		byHash map[string]*wanted
		wave   []span
	)
	for i, ref := range refs {
		if w, ok := byHash[ref.Hash]; ok {
			// A second name for a blob this plan already fetches moves no
			// bytes of its own.
			w.refs = append(w.refs, i)
			reg.Counter(metrics.StageCacheHits).Inc()
			continue
		}
		a, first := dst.claim(ref.Hash)
		held := a == nil && dst.Has(ref.Hash)
		if held || a != nil && !first {
			// Held, or arriving by a push another plan counts.
			reg.Counter(metrics.StageCacheHits).Inc()
		} else {
			reg.Counter(metrics.StageCacheMisses).Inc()
		}
		if held {
			continue
		}
		if a == nil && ref.Hash == emptyHash {
			// Size 0 on a ref reads as unknown, but this hash names no
			// bytes whatever the ref says: there is nothing to request.
			if errs[i] = dst.PutHashed(ref.Hash, nil); errs[i] == nil {
				reg.Counter(metrics.StagePulls).Inc()
			}
			continue
		}
		w := &wanted{refs: []int{i}, want: ref.Size, push: a, first: first}
		if byHash == nil {
			byHash = make(map[string]*wanted)
		}
		byHash[ref.Hash] = w
		blobs = append(blobs, w)
		if a == nil {
			wave = pl.lead(wave, w, ref.Hash)
		}
	}

	// Streams stay open between waves: the one that learned a size also
	// carries its share of the remainder.
	conns := make([]net.Conn, cfg.Stripes)
	pl.run(ctx, conns, wave)
	wave = nil
	for _, w := range blobs {
		if w.push == nil {
			continue
		}
		err := dst.wait(ctx, w.push, patience)
		switch holes := dst.adopt(w.push, err); {
		case err == nil:
			if w.first {
				reg.Counter(metrics.StagePulls).Inc()
			}
		case holes != nil:
			// Every chunk arrived, some corrupt: those are requested
			// again, into the push's buffer.
			w.in = holes[0].b
			wave = append(wave, holes...)
			reg.Counter(metrics.StageChunkRetries).Add(int64(len(holes)))
		default:
			// What the push did not bring is pulled.
			wave = pl.lead(wave, w, w.push.hash)
		}
	}
	pl.run(ctx, conns, wave)
	for _, conn := range conns {
		if conn != nil {
			conn.Close()
		}
	}
	for _, w := range blobs {
		if w.in == nil {
			continue
		}
		dst.arena.free(w.in.buf) // nil once the store has it
		if err := w.in.failure(); err != nil {
			for _, i := range w.refs {
				errs[i] = fmt.Errorf("stage: pull %s: %w", short(w.in.hash), err)
			}
		}
	}
	return errs
}

// run pulls wave and the waves the sizes it learns bring after it.
func (pl *pullPlan) run(ctx context.Context, conns []net.Conn, wave []span) {
	for len(wave) > 0 {
		shares := dealSpans(wave, int64(pl.cfg.ChunkSize), pl.cfg.Stripes)
		var wg sync.WaitGroup
		for i := range shares {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				conns[i] = pl.pullShare(ctx, conns[i], shares[i])
			}(i)
		}
		wg.Wait()
		wave, pl.discovered = pl.discovered, nil
	}
}

// lead makes w's record and appends the first span of it to request to
// wave: the whole blob when the ref sized it, else its leading chunk.
func (pl *pullPlan) lead(wave []span, w *wanted, hash string) []span {
	b := &incoming{hash: hash, size: -1}
	w.in = b
	if w.want <= 0 {
		return append(wave, span{b, 0, int64(pl.cfg.ChunkSize)})
	}
	if err := b.setSize(w.want, pl.dst); err != nil {
		b.fail(err)
		return wave
	}
	return append(wave, span{b, 0, w.want})
}

// dealSpans lays a wave's spans end to end and cuts the run into up to
// stripes contiguous shares of at least one chunk each, one per stream:
// a big blob fans out, a plan of many tiny blobs rides one stream. A
// span is split where a share boundary falls inside it, except the
// leading span of a blob of unknown size: the one response to it is what
// sizes the blob's buffer, so it stays one request on one stream.
func dealSpans(spans []span, chunk int64, stripes int) [][]span {
	var total int64
	for _, sp := range spans {
		total += sp.end - sp.off
	}
	if n := (total + chunk - 1) / chunk; int64(stripes) > n {
		stripes = int(n)
	}
	if stripes < 1 {
		stripes = 1
	}
	per := total / int64(stripes)
	shares := make([][]span, stripes)
	i, room := 0, per
	for _, sp := range spans {
		if room <= 0 && i < stripes-1 {
			i, room = i+1, per
		}
		for sp.b.size >= 0 && i < stripes-1 && sp.end-sp.off >= room {
			shares[i] = append(shares[i], span{sp.b, sp.off, sp.off + room})
			sp.off += room
			i, room = i+1, per
		}
		if sp.off < sp.end {
			shares[i] = append(shares[i], sp)
			room -= sp.end - sp.off
		}
	}
	return shares
}

// pullShare fetches one stream's share of a wave, re-requesting corrupt
// chunks and redialing after link drops until every span is complete,
// its blob has failed, or the retry budget runs out (which fails the
// blobs still missing). conn, if non-nil, is the stream's connection
// from the previous wave; the connection is returned for the next one.
func (pl *pullPlan) pullShare(ctx context.Context, conn net.Conn, missing []span) net.Conn {
	var (
		received int64
		lastErr  error
	)
	for round := 0; ; round++ {
		live := missing[:0:0]
		for _, sp := range missing {
			if sp.b.failure() == nil {
				live = append(live, sp)
			}
		}
		missing = live
		if len(missing) == 0 {
			return conn
		}
		err := ctx.Err()
		if err == nil && round > pl.cfg.PullRetries {
			if lastErr == nil {
				lastErr = errors.New("checksum retries exhausted")
			}
			err = fmt.Errorf("incomplete after %d rounds: %w", round, lastErr)
		}
		if err != nil {
			for _, sp := range missing {
				sp.b.fail(err)
			}
			return conn
		}
		if conn == nil {
			if round > 0 && !sleep(ctx, redialBackoff<<(round-1)) {
				continue // the context ended: the next round fails the spans
			}
			conn, err = pl.dial(ctx)
			if err != nil {
				conn, lastErr = nil, err
				continue
			}
			if pl.cfg.WrapConn != nil {
				conn = pl.cfg.WrapConn(conn)
			}
			pl.reg.Counter(metrics.StageStreamsDialed).Inc()
			if received > 0 {
				// A redial with bytes in hand is a resume, not a
				// restart: the requests below carry the offsets.
				pl.reg.Counter(metrics.StageResumes).Inc()
			}
		}
		if round > 0 {
			pl.reg.Counter(metrics.StageChunkRetries).Add(int64(len(missing)))
		}
		var got int64
		missing, got, err = pl.exchange(conn, missing)
		received += got
		if err != nil {
			conn.Close()
			conn, lastErr = nil, err
		}
	}
}

// exchange runs one turn on conn: the get requests of spans go out back
// to back (at most maxPipelined at a time), then the responses are read
// in order. It returns the spans still missing — corrupt chunks, and
// after a broken connection everything not yet read — the bytes
// verified, and a non-nil error only when the connection is unusable.
func (pl *pullPlan) exchange(conn net.Conn, spans []span) (missing []span, got int64, err error) {
	for len(spans) > 0 {
		batch := spans[:min(len(spans), maxPipelined)]
		spans = spans[len(batch):]
		for _, sp := range batch {
			req := request(opGet, sp.b.hash, sp.off, sp.end-sp.off, pl.cfg.ChunkSize)
			if err := writeFrame(conn, pl.cfg.IdleTimeout, req); err != nil {
				return append(append(missing, batch...), spans...), got, err
			}
		}
		pl.reg.Counter(metrics.StageRequests).Add(int64(len(batch)))
		for i, sp := range batch {
			rest, n, err := pl.readResponse(conn, sp)
			got += n
			missing = append(missing, rest...)
			if err != nil {
				return append(append(missing, batch[i+1:]...), spans...), got, err
			}
		}
	}
	return missing, got, nil
}

// readResponse reads the response to the get for sp into its blob's
// buffer. It returns what of sp is still missing — the chunks that
// failed their checksum, and after an error the part not yet read — the
// bytes verified, and a non-nil error only when the connection broke or
// lost framing. A response that refuses the blob fails it and leaves
// the stream in sync.
func (pl *pullPlan) readResponse(conn net.Conn, sp span) (missing []span, got int64, err error) {
	b := sp.b
	hdr, err := readFrame(conn, pl.cfg.IdleTimeout, maxRequestFrame)
	if err != nil {
		return []span{sp}, 0, err
	}
	hb := wire.NewBuffer(hdr)
	status := hb.Uint8()
	size := hb.Int64()
	if err := hb.Err(); err != nil {
		return []span{sp}, 0, err
	}
	mismatch := func() error {
		return fmt.Errorf("%w: ref says %d bytes, the serving store %d", ErrSizeMismatch, b.size, size)
	}
	switch {
	case status == statusNotFound:
		b.fail(ErrNotFound)
		return nil, 0, nil
	case status != statusOK:
		// No chunks follow a refusal, so the stream stays in sync. The
		// refusal of an offset past the blob's end carries the size
		// that explains it; the others carry none.
		if size > 0 && b.size >= 0 && size != b.size {
			b.fail(mismatch())
		} else {
			b.fail(fmt.Errorf("stage: get rejected (status %d)", status))
		}
		return nil, 0, nil
	case size < 0:
		return []span{sp}, 0, fmt.Errorf("stage: get header announces %d bytes", size)
	case b.size >= 0 && size != b.size:
		// Whatever follows covers a range this plan did not size its
		// buffer for; the stream cannot be followed further.
		err := mismatch()
		b.fail(err)
		return nil, 0, err
	case b.size < 0:
		// The leading span of a blob of unknown size: its header is
		// where the size comes from.
		if err := b.setSize(size, pl.dst); err != nil {
			b.fail(err) // and the chunks that follow have nowhere to go
			return nil, 0, err
		}
		if size > sp.end {
			pl.mu.Lock()
			pl.discovered = append(pl.discovered, span{b, sp.end, size})
			pl.mu.Unlock()
		}
		sp.end = min(sp.end, size)
	}
	missing, got, done, err := readChunks(conn, b, sp.off, sp.end, pl.cfg.IdleTimeout, pl.reg)
	if done || size == 0 {
		if err := pl.dst.finish(b); err != nil {
			b.fail(err)
		} else {
			pl.reg.Counter(metrics.StagePulls).Inc()
		}
	}
	return missing, got, err
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}
