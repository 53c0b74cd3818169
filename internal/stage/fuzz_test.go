package stage

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net"
	"testing"
	"time"

	"gridproxy/internal/wire"
)

// scriptConn is a transfer connection whose peer is a script: reads
// serve the script and then EOF, writes are kept. It never blocks, so a
// Serve or a pull over it that does not return is spinning.
type scriptConn struct {
	net.Conn // nil: only the methods below are called
	in       *bytes.Reader
	out      bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// wireStatus is a status frame as it appears on the wire.
func wireStatus(status byte, size int64) []byte {
	frame := statusFrame(status, size)
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-framePrefix))
	return frame
}

// wireChunk is one chunk as it appears on the wire: uint32 n | crc32c u32
// | payload. The length and the checksum are the caller's to get wrong.
func wireChunk(n, sum uint32, payload []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, n)
	out = binary.BigEndian.AppendUint32(out, sum)
	return append(out, payload...)
}

// fuzzGet appends one well-framed get request to a FuzzServeRequests
// input.
func fuzzGet(b []byte, hash string, off, length int64, chunk uint32) []byte {
	req := []byte{opGet}
	req = wire.AppendString(req, hash)
	req = wire.AppendInt64(req, off)
	req = wire.AppendInt64(req, length)
	req = wire.AppendUint32(req, chunk)
	b = binary.BigEndian.AppendUint32(b, uint32(len(req)))
	return append(b, req...)
}

// FuzzServeRequests drives both ends of the transfer protocol with
// arbitrary bytes.
//
// requests is the request side of one Serve loop: any number of
// pipelined frames, well formed or not, with spans that overlap, start
// past the end or run over it, negative offsets and lengths, chunk sizes
// of 0 and beyond maxChunkSize, unknown ops and hashes. Serve must
// return, and what it wrote must be, request by request in order,
// exactly the answer the protocol defines: a status frame, then for an
// accepted get the chunks of the clipped range, each behind its length
// and its CRC-32C, and not a byte more.
//
// responses is what a serving peer sends a puller, replayed on every
// stream a two-blob plan dials. The plan must return; its buffers are
// sized from the refs before the first byte arrives, so nothing the
// peer announces can make it allocate more; and a blob either fails or
// is in the store byte for byte.
func FuzzServeRequests(f *testing.F) {
	blobs := [][]byte{seededBlob(21, 5000), seededBlob(22, 3000), nil}
	src, _ := NewStore(Config{}, nil)
	var refs []FileRef
	for _, b := range blobs {
		refs = append(refs, src.Put(b))
	}
	byHash := map[string][]byte{}
	for i, ref := range refs {
		byHash[ref.Hash] = blobs[i]
	}
	cfg := Config{ChunkSize: 1 << 10, Stripes: 2, PullRetries: 1, IdleTimeout: time.Second}.WithDefaults()

	// Seeds: the plan's own two requests and the true answer to them; a
	// pipeline of odd spans; frames that are not requests.
	var plan []byte
	plan = fuzzGet(plan, refs[0].Hash, 0, 5000, 1<<10)
	plan = fuzzGet(plan, refs[1].Hash, 0, 3000, 1<<10)
	answer := &scriptConn{in: bytes.NewReader(plan)}
	if err := Serve(answer, src, cfg, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(plan, answer.out.Bytes())
	var odd []byte
	odd = fuzzGet(odd, refs[0].Hash, 4000, 4000, 0)         // runs over the end
	odd = fuzzGet(odd, refs[0].Hash, 1000, 2000, 7)         // overlaps the one before
	odd = fuzzGet(odd, refs[0].Hash, 5000, 1, 1)            // starts at the end
	odd = fuzzGet(odd, refs[0].Hash, 5001, 0, 1)            // starts past it
	odd = fuzzGet(odd, refs[1].Hash, -1, 10, 1<<10)         // negative offset
	odd = fuzzGet(odd, refs[1].Hash, 10, -10, maxChunkSize) // negative length: to the end
	odd = fuzzGet(odd, refs[1].Hash, 0, 0, maxChunkSize+1)  // chunk beyond the limit
	odd = fuzzGet(odd, refs[2].Hash, 0, 0, 0)               // the empty blob
	odd = fuzzGet(odd, Hash([]byte("nope")), 0, 0, 0)       // not held
	f.Add(odd, answer.out.Bytes()[:2000])
	f.Add(append(fuzzGet(nil, refs[0].Hash, 0, 0, 0)[:20], 0xFF), []byte{0, 0, 0, 9, statusOK})
	f.Add([]byte{0, 0, 0, 1, 2}, []byte{0, 0, 0, 9, statusNotFound, 0, 0, 0, 0, 0, 0, 0, 0})
	// Answers to the plan's first request whose one chunk header is wrong:
	// a payload bit flipped under a true checksum, a checksum bit flipped
	// over a true payload, a chunk of no bytes, a chunk beyond the limit.
	// The first two leave the stream in sync (the span is re-requested),
	// the last two cannot be followed; either way the blob must not enter
	// the store changed.
	first := blobs[0][:1<<10]
	sum := crc32.Checksum(first, castagnoli)
	flipped := append([]byte(nil), first...)
	flipped[17] ^= 0x04
	header := wireStatus(statusOK, 5000)
	for _, chunk := range [][]byte{
		wireChunk(1<<10, sum, flipped),
		wireChunk(1<<10, sum^0x0100, first),
		wireChunk(0, 0, nil),
		wireChunk(maxChunkSize+1, sum, first),
	} {
		f.Add(plan, append(append([]byte(nil), header...), chunk...))
	}

	f.Fuzz(func(t *testing.T, requests, responses []byte) {
		conn := &scriptConn{in: bytes.NewReader(requests)}
		_ = Serve(conn, src, cfg, nil)
		checkServed(t, cfg, byHash, requests, conn.out.Bytes())

		dst, _ := NewStore(Config{}, nil)
		dial := func(context.Context) (net.Conn, error) {
			return &scriptConn{in: bytes.NewReader(responses)}, nil
		}
		for i, err := range PullAll(context.Background(), dial, refs[:2], dst, cfg, nil) {
			if got, ok := dst.Get(refs[i].Hash); (err == nil) != ok || ok && !bytes.Equal(got, blobs[i]) {
				t.Fatalf("blob %d: err %v, in store %v, exact %v", i, err, ok, bytes.Equal(got, blobs[i]))
			}
		}
		wantQuiet(t, dst)
	})
}

// checkServed replays the request script against what Serve wrote.
func checkServed(t *testing.T, cfg Config, blobs map[string][]byte, requests, out []byte) {
	in := bytes.NewReader(requests)
	for {
		var n uint32
		if binary.Read(in, binary.BigEndian, &n) != nil || n > maxRequestFrame {
			break // EOF, a torn prefix or an oversized frame: Serve left without answering
		}
		req := make([]byte, n)
		if _, err := io.ReadFull(in, req); err != nil {
			break
		}
		buf := wire.NewBuffer(req)
		op, hash, off, length, chunk := buf.Uint8(), buf.String(), buf.Int64(), buf.Int64(), int(buf.Uint32())
		data, held := blobs[hash]
		status, size := byte(statusOK), int64(len(data))
		switch {
		case buf.Err() != nil || op != opGet:
			status, size = statusBad, 0
		case !held:
			status = statusNotFound
		case off < 0 || off > size:
			status = statusBad
		}
		if len(out) < 13 || !bytes.Equal(out[:13], wireStatus(status, size)) {
			t.Fatalf("request %x: want status %d size %d, Serve wrote %x", req, status, size, out[:min(13, len(out))])
		}
		out = out[13:]
		if buf.Err() != nil {
			break // Serve hangs up on a frame it cannot parse
		}
		if status != statusOK {
			continue
		}
		if chunk <= 0 || chunk > maxChunkSize {
			chunk = cfg.ChunkSize
		}
		end := size
		if length > 0 && length < size-off {
			end = off + length
		}
		for pos := off; pos < end; {
			n := min(int64(chunk), end-pos)
			want := wireChunk(uint32(n), crc32.Checksum(data[pos:pos+n], castagnoli), data[pos:pos+n])
			if !bytes.HasPrefix(out, want) {
				t.Fatalf("request %x: chunk at %d of [%d,%d) is not what Serve wrote", req, pos, off, end)
			}
			out = out[len(want):]
			pos += n
		}
	}
	if len(out) != 0 {
		t.Fatalf("Serve wrote %d bytes no request asked for", len(out))
	}
}
