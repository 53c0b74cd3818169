package stage

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"

	"gridproxy/internal/metrics"
)

// maxPrealloc bounds the buffer a Writer allocates on an announced size
// alone; a larger blob grows into its buffer as its bytes arrive, so what
// an upload holds follows what it has sent, not what it claimed.
const maxPrealloc = 64 << 20

// Writer assembles one blob for a store from chunks that arrive in order,
// hashing them as they arrive: when the last chunk is in, the blob's name
// is already known and Commit stores it without another pass. A Writer
// ends in Commit or Abort, and either gives up its buffer. It is not safe
// for concurrent use.
type Writer struct {
	store *Store
	sum   hash.Hash
	buf   []byte
}

// NewWriter starts a blob of the announced size; size < 0 means unknown.
// The size only sizes the buffer: a blob may turn out shorter or longer.
func (s *Store) NewWriter(size int64) *Writer {
	buf, _ := s.arena.alloc(int(max(0, min(size, maxPrealloc)))) // else Append grows one
	return &Writer{store: s, sum: sha256.New(), buf: buf[:0]}
}

// Append adds p to the end of the blob, or fails, leaving the blob as it
// was, when its buffer cannot grow to hold p.
func (w *Writer) Append(p []byte) error {
	if need := len(w.buf) + len(p); need > cap(w.buf) {
		// Doubling keeps the copies of a blob of unknown size under its
		// length in total; append's 1.25x would recopy it per chunk.
		grown, err := w.store.arena.alloc(max(need, 2*cap(w.buf)))
		if err != nil {
			return err
		}
		grown = grown[:copy(grown, w.buf)]
		w.store.arena.free(w.buf)
		w.buf = grown
	}
	w.buf = append(w.buf, p...)
	w.sum.Write(p)
	w.store.reg.Counter(metrics.StageHashedBytes).Add(int64(len(p)))
	return nil
}

// Len returns the bytes written so far.
func (w *Writer) Len() int64 { return int64(len(w.buf)) }

// Commit stores the blob under the hash of what was written and returns
// its ref (with an empty Name). The Writer must not be used afterwards.
func (w *Writer) Commit() FileRef {
	if cap(w.buf)-len(w.buf) > len(w.buf)/8 {
		// The buffer was grown on a wrong or missing size; the store holds
		// blobs for a long time and accounts them by length.
		if exact, err := w.store.arena.alloc(len(w.buf)); err == nil {
			copy(exact, w.buf)
			w.store.arena.free(w.buf)
			w.buf = exact
		}
	}
	ref := FileRef{Hash: hex.EncodeToString(w.sum.Sum(nil)), Size: int64(len(w.buf))}
	w.store.put(ref.Hash, w.buf)
	return ref
}

// Abort drops the blob (nil-safe). The Writer must not be used afterwards.
func (w *Writer) Abort() {
	if w != nil {
		w.store.arena.free(w.buf)
	}
}
