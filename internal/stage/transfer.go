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
// closes the stream or stalls past the idle deadline. It is run by the
// proxy for every inbound stage stream.
func Serve(conn net.Conn, store *Store, cfg Config, reg *metrics.Registry) error {
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
		switch op {
		case opGet:
			if err := serveGet(conn, store, cfg, reg, hash, offset, length, chunk); err != nil {
				return err
			}
		default:
			if err := writeFrame(conn, cfg.IdleTimeout, statusFrame(statusBad, 0)); err != nil {
				return err
			}
		}
	}
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

// serveGet streams the requested range as checksummed chunks, leased
// one at a time from the store. A memory-resident blob's loans alias
// its backing array, so on the vectored-write path (a bare tunnel
// stream) the bytes travel disk→store→wire with no intermediate copy:
// the chunk header and payload are gathered straight into the tunnel's
// pooled frame buffers. The assembled-frame fallback exists for
// fault-injection wrappers (which see the conn interface only) so they
// can corrupt a chunk without desynchronizing the framing.
func serveGet(conn net.Conn, store *Store, cfg Config, reg *metrics.Registry, hash string, offset, length int64, chunk int) error {
	size, ok := store.Stat(hash)
	if !ok {
		return writeFrame(conn, cfg.IdleTimeout, statusFrame(statusNotFound, 0))
	}
	if chunk <= 0 || chunk > maxChunkSize {
		chunk = cfg.ChunkSize
	}
	if offset < 0 || offset > size {
		return writeFrame(conn, cfg.IdleTimeout, statusFrame(statusBad, size))
	}
	end := size
	if length > 0 && length < size-offset {
		end = offset + length
	}
	if err := writeFrame(conn, cfg.IdleTimeout, statusFrame(statusOK, size)); err != nil {
		return err
	}
	bw, _ := conn.(bufferWriter)
	var frame []byte
	if bw == nil {
		frame = make([]byte, 0, chunkHeader+chunk)
	}
	var chdr [chunkHeader]byte
	for pos := offset; pos < end; {
		n := int64(chunk)
		if pos+n > end {
			n = end - pos
		}
		loan, ok := store.LoanChunk(hash, pos, n)
		if !ok {
			// The blob vanished between the stat and this chunk (evicted
			// with no spill tier). Breaking the connection mid-response
			// is the honest signal: the puller's framing would desync on
			// anything else, and its retry path re-stats.
			return fmt.Errorf("stage: blob %s evicted mid-transfer", short(hash))
		}
		payload := loan.Data
		binary.BigEndian.PutUint32(chdr[:4], uint32(n))
		binary.BigEndian.PutUint32(chdr[4:], crc32.Checksum(payload, castagnoli))
		armWrite(conn, cfg.IdleTimeout)
		var err error
		if bw != nil {
			_, err = bw.WriteBuffers(chdr[:], payload)
		} else {
			frame = append(append(frame[:0], chdr[:]...), payload...)
			_, err = conn.Write(frame)
		}
		loan.Release()
		if err != nil {
			return err
		}
		reg.Counter(metrics.StageBytesSent).Add(n)
		pos += n
	}
	return nil
}

// Dialer opens a fresh transfer connection to the serving site. A pull
// plan calls it once per stream and again after a link drop to resume.
type Dialer func(ctx context.Context) (net.Conn, error)

// ErrSizeMismatch reports that the serving store holds a blob at a
// different size than the ref that named it.
var ErrSizeMismatch = errors.New("stage: blob size differs from its ref")

// maxPipelined bounds how many requests a stream writes before it reads
// their responses. A server answers in order and stops reading while it
// writes, so requests beyond what the transport buffers would block the
// puller's write against the server's; 32 requests are under 3 KiB.
const maxPipelined = 32

// span is a half-open byte range [off, end) of one blob still missing
// from a pull plan: the unit of request, retry and resume.
type span struct {
	b        *pullBlob
	off, end int64
}

// pullBlob is one distinct blob of a pull plan. size and buf are set
// before any span of the blob is in flight: from the ref, or by the one
// leading span that learns the size from its get header (the blob's
// other spans are only dealt in the wave after that).
type pullBlob struct {
	hash string
	refs []int        // indices of the plan's refs that name this blob
	size int64        // -1 until known
	buf  []byte       // spans of different streams fill disjoint ranges
	left atomic.Int64 // bytes not yet received and verified

	mu  sync.Mutex
	err error // first failure; a failed blob's spans are dropped, not retried
}

func (b *pullBlob) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

func (b *pullBlob) failure() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// setSize sizes the blob and its buffer. The size comes from a peer: one
// the system cannot map fails the blob, not the process.
func (b *pullBlob) setSize(size int64, dst *Store) error {
	buf, err := dst.arena.alloc(int(size))
	if err != nil {
		return err
	}
	b.size, b.buf = size, buf
	b.left.Store(size)
	return nil
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
// already holds are cache hits and cost nothing. The bytes of the
// missing blobs are laid end to end, cut into spans and dealt over at
// most cfg.Stripes streams, all dialed at once; each stream writes the
// get requests of its spans back to back and then reads the responses
// in order, so a plan costs one open and one request round trip however
// many blobs it names. Every chunk checksum is verified, corrupt chunks
// are re-requested, a dropped stream redials and resumes from the bytes
// already received, and each reassembled blob is verified against its
// hash before it enters dst — one blob failing leaves the others whole.
//
// Sizes come from the refs. A ref with Size <= 0 is of unknown size: its
// leading chunk is requested first, as one request, the header of that
// response carries the size, and the rest of the blob follows in a
// second wave on the same streams. The empty blob is known by its hash
// and is never requested.
func PullAll(ctx context.Context, dial Dialer, refs []FileRef, dst *Store, cfg Config, reg *metrics.Registry) []error {
	cfg = cfg.WithDefaults()
	errs := make([]error, len(refs))
	var (
		blobs  []*pullBlob
		byHash map[string]*pullBlob
		wave   []span
	)
	for i, ref := range refs {
		if b, ok := byHash[ref.Hash]; ok {
			// A second name for a blob this plan already fetches moves no
			// bytes of its own.
			b.refs = append(b.refs, i)
			reg.Counter(metrics.StageCacheHits).Inc()
			continue
		}
		if dst.Has(ref.Hash) {
			reg.Counter(metrics.StageCacheHits).Inc()
			continue
		}
		reg.Counter(metrics.StageCacheMisses).Inc()
		if ref.Hash == emptyHash {
			// Size 0 on a ref reads as unknown, but this hash names no
			// bytes whatever the ref says: there is nothing to request.
			if errs[i] = dst.PutHashed(ref.Hash, nil); errs[i] == nil {
				reg.Counter(metrics.StagePulls).Inc()
			}
			continue
		}
		b := &pullBlob{hash: ref.Hash, refs: []int{i}, size: -1}
		if byHash == nil {
			byHash = make(map[string]*pullBlob)
		}
		byHash[ref.Hash] = b
		blobs = append(blobs, b)
		lead := int64(cfg.ChunkSize)
		if ref.Size > 0 {
			if err := b.setSize(ref.Size, dst); err != nil {
				b.fail(err)
				continue
			}
			lead = ref.Size
		}
		wave = append(wave, span{b, 0, lead})
	}

	if len(blobs) == 0 {
		return errs
	}
	pl := &pullPlan{dial: dial, dst: dst, cfg: cfg, reg: reg}
	// Streams stay open between waves: the one that learned a size also
	// carries its share of the remainder.
	conns := make([]net.Conn, cfg.Stripes)
	for len(wave) > 0 {
		shares := dealSpans(wave, int64(cfg.ChunkSize), cfg.Stripes)
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
	for _, conn := range conns {
		if conn != nil {
			conn.Close()
		}
	}
	for _, b := range blobs {
		dst.arena.free(b.buf) // nil once the store has it
		if err := b.failure(); err != nil {
			for _, i := range b.refs {
				errs[i] = fmt.Errorf("stage: pull %s: %w", short(b.hash), err)
			}
		}
	}
	return errs
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
			req := append(make([]byte, framePrefix, framePrefix+96), opGet)
			req = wire.AppendString(req, sp.b.hash)
			req = wire.AppendInt64(req, sp.off)
			req = wire.AppendInt64(req, sp.end-sp.off)
			req = wire.AppendUint32(req, uint32(pl.cfg.ChunkSize))
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
		if size == 0 {
			pl.finish(b)
		}
		if size > sp.end {
			pl.mu.Lock()
			pl.discovered = append(pl.discovered, span{b, sp.end, size})
			pl.mu.Unlock()
		}
		sp.end = min(sp.end, size)
	}
	var chdr [chunkHeader]byte
	for pos := sp.off; pos < sp.end; {
		unread := span{b, pos, sp.end}
		armRead(conn, pl.cfg.IdleTimeout)
		if _, err := io.ReadFull(conn, chdr[:]); err != nil {
			return append(missing, unread), got, err
		}
		n := int64(binary.BigEndian.Uint32(chdr[:4]))
		if n <= 0 || pos+n > sp.end || n > maxChunkSize {
			return append(missing, unread), got, fmt.Errorf("stage: bad chunk length %d at offset %d", n, pos)
		}
		armRead(conn, pl.cfg.IdleTimeout)
		if _, err := io.ReadFull(conn, b.buf[pos:pos+n]); err != nil {
			return append(missing, unread), got, err
		}
		if binary.BigEndian.Uint32(chdr[4:]) != crc32.Checksum(b.buf[pos:pos+n], castagnoli) {
			// The chunk is framed correctly but its payload is wrong:
			// record the span and keep reading — the stream is still
			// in sync, so later chunks are usable and only this span
			// is re-requested.
			pl.reg.Counter(metrics.StageCorruptChunks).Inc()
			missing = append(missing, span{b, pos, pos + n})
		} else {
			pl.reg.Counter(metrics.StageBytesReceived).Add(n)
			got += n
			if b.left.Add(-n) == 0 {
				pl.finish(b)
			}
		}
		pos += n
	}
	return missing, got, nil
}

// finish hands a fully received blob's buffer to the store if its hash is
// its name, on the stream that read its last byte, so one blob's hashing
// overlaps the others' bytes.
func (pl *pullPlan) finish(b *pullBlob) {
	if got := pl.dst.hash(b.buf); got != b.hash {
		b.fail(fmt.Errorf("stage: content hashes to %s, not %s", got, b.hash))
		return
	}
	pl.dst.put(b.hash, b.buf)
	b.buf = nil
	pl.reg.Counter(metrics.StagePulls).Inc()
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}
