// Package stage implements the grid data plane: a per-site
// content-addressed blob store plus a chunked, resumable transfer
// protocol that runs over dedicated tunnel data streams between
// proxies.
//
// Blobs are keyed by the hex SHA-256 of their content, so an input
// staged twice — or shared by every rank of a job — is stored and
// transferred once. The store is size-capped with LRU eviction and can
// optionally persist blobs to a directory so a restarted proxy keeps
// its cache. Transfers move blobs in checksummed chunks over one or
// more parallel streams ("stripes"); a puller that loses its link
// resumes from the bytes it already holds rather than from byte zero,
// and a chunk that fails its checksum is re-requested without aborting
// the whole transfer.
package stage

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gridproxy/internal/metrics"
	"gridproxy/internal/wire"
)

// Defaults for Config fields left zero.
const (
	DefaultMaxBytes    = 256 << 20 // 256 MiB per-site cache
	DefaultChunkSize   = 256 << 10 // 256 KiB checksummed chunks
	DefaultStripes     = 4         // parallel streams per pull plan
	DefaultIdleTimeout = 10 * time.Second
	DefaultPullRetries = 4

	// maxChunkSize bounds what either end will accept for one chunk; it
	// keeps a single read allocation well under the wire frame limit.
	maxChunkSize = 8 << 20
)

// Config parameterizes a site's store and its transfers. The zero value
// means "defaults"; negative MaxBytes disables the size cap and negative
// IdleTimeout disables idle deadlines.
type Config struct {
	// Dir, when non-empty, persists blobs as files named by their hash
	// so the cache survives proxy restarts.
	Dir string
	// MaxBytes caps stored payload bytes; the least recently used blobs
	// are evicted when a put would exceed it. 0 means DefaultMaxBytes,
	// negative means unlimited.
	MaxBytes int64
	// ChunkSize is the unit of transfer checksumming and retry.
	ChunkSize int
	// Stripes is how many parallel streams a pull plan (all the blobs
	// one PullAll is missing) spreads its bytes over.
	Stripes int
	// IdleTimeout bounds how long either end of a transfer waits on a
	// single read or write before declaring the peer stalled. 0 means
	// DefaultIdleTimeout, negative disables the deadline.
	IdleTimeout time.Duration
	// PullRetries bounds retry rounds (checksum re-requests, redials)
	// per stream of a pull plan before the blobs it still misses fail.
	PullRetries int
	// WrapConn, when set, wraps every transfer connection on both the
	// serving and pulling side. Fault-injection hook for tests; nil in
	// production.
	WrapConn func(net.Conn) net.Conn
	// DiskSpill (requires Dir) keeps evicted blobs' files on disk and
	// serves their chunks through pooled buffers, so the memory cap
	// bounds the working set rather than what the site can serve. Off by
	// default: without it eviction deletes the disk file and the store
	// behaves exactly as before.
	DiskSpill bool
}

// WithDefaults fills zero fields with package defaults and clamps the
// chunk size to what the protocol accepts.
func (c Config) WithDefaults() Config {
	if c.MaxBytes == 0 {
		c.MaxBytes = DefaultMaxBytes
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = DefaultChunkSize
	}
	if c.ChunkSize > maxChunkSize {
		c.ChunkSize = maxChunkSize
	}
	if c.Stripes <= 0 {
		c.Stripes = DefaultStripes
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.PullRetries <= 0 {
		c.PullRetries = DefaultPullRetries
	}
	return c
}

// FileRef names one staged file: the name ranks address it by plus the
// content hash (and size) of the blob backing it.
type FileRef struct {
	Name string
	Hash string
	Size int64
}

// Hash returns the store key for data: the hex SHA-256 of its content.
func Hash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Store is a content-addressed, size-capped blob cache. All methods are
// safe for concurrent use.
//
// Blob bytes live in the store's arena, reference counted: one reference
// while the blob is linked, one per View or ChunkLoan. Eviction unlinks a
// blob at once; the last release frees its buffer.
type Store struct {
	mu    sync.Mutex
	dir   string
	max   int64 // <0 means unlimited
	spill bool
	cur   int64
	blobs map[string]*blob
	lru   *list.List // front = most recently used; values are *blob
	reg   *metrics.Registry
	arena *arena
	pins  atomic.Int64 // Views and ChunkLoans not yet released

	// arrivals are the blobs peers are pushing into the store, and those
	// pushed for plans that have not asked yet (inbox.go); settled are the
	// last pushes that ended, oldest first.
	arrivals  map[string]*incoming
	settled   []*incoming
	receivers map[*receiver]struct{} // the inbox streams feeding the store
	caught    chan struct{}          // closed when a receiver registers a header, then replaced
}

type blob struct {
	hash string
	data []byte
	elem *list.Element
	refs atomic.Int32
}

// NewStore builds a store from cfg. With Dir set, blobs already on disk
// are loaded back (entries whose content no longer matches their name
// are discarded).
func NewStore(cfg Config, reg *metrics.Registry) (*Store, error) {
	cfg = cfg.WithDefaults()
	s := &Store{
		dir:       cfg.Dir,
		max:       cfg.MaxBytes,
		spill:     cfg.DiskSpill && cfg.Dir != "",
		blobs:     make(map[string]*blob),
		lru:       list.New(),
		arrivals:  make(map[string]*incoming),
		receivers: make(map[*receiver]struct{}),
		caught:    make(chan struct{}),
		reg:       reg,
		arena:     newArena(reg),
	}
	if s.dir != "" {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, fmt.Errorf("stage: store dir: %w", err)
		}
		if err := s.load(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// load restores persisted blobs. Runs only from NewStore, before the
// store is shared.
//
//lint:allow-guardedby load runs single-goroutine from NewStore before any reference escapes
func (s *Store) load() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("stage: read store dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || len(e.Name()) != sha256.Size*2 {
			continue
		}
		path := filepath.Join(s.dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if s.hash(data) != e.Name() {
			// Torn write or tampering: the name is the contract.
			os.Remove(path)
			continue
		}
		b := &blob{hash: e.Name(), data: s.copyIn(data)}
		b.refs.Store(1)
		b.elem = s.lru.PushBack(b)
		s.blobs[b.hash] = b
		s.cur += int64(len(data))
	}
	// load runs before the store is shared, so no lock is held and the
	// victims' files can be removed inline.
	s.drop(s.evictLocked(nil))
	s.gaugeLocked()
	return nil
}

// Put stores a copy of data under its content hash and returns the ref
// (with an empty Name). Storing the same content twice is a no-op beyond
// an LRU touch.
func (s *Store) Put(data []byte) FileRef {
	h := s.hash(data)
	s.put(h, s.copyIn(data))
	return FileRef{Hash: h, Size: int64(len(data))}
}

// PutHashed stores a copy of data that is claimed to hash to hash,
// verifying the claim first, so a corrupted blob can never enter the store
// under a clean name.
func (s *Store) PutHashed(hash string, data []byte) error {
	if got := s.hash(data); got != hash {
		return fmt.Errorf("stage: content hashes to %s, not %s", got, hash)
	}
	s.put(hash, s.copyIn(data))
	return nil
}

// hash is Hash, counted: every SHA-256 pass a store makes goes through it
// or through a Writer.
func (s *Store) hash(data []byte) string {
	s.reg.Counter(metrics.StageHashedBytes).Add(int64(len(data)))
	return Hash(data)
}

// copyIn copies data into the arena, or onto the heap when the system
// cannot map that much: the store never links bytes it does not own.
func (s *Store) copyIn(data []byte) []byte {
	buf, err := s.arena.alloc(len(data))
	if err != nil {
		return append([]byte(nil), data...)
	}
	copy(buf, data)
	return buf
}

// put links data, which the store owns from here on, under hash. If the
// blob is already held data goes back to the arena.
func (s *Store) put(hash string, data []byte) {
	s.mu.Lock()
	if b, ok := s.blobs[hash]; ok {
		s.lru.MoveToFront(b.elem)
		s.mu.Unlock()
		s.arena.free(data)
		return
	}
	b := &blob{hash: hash, data: data}
	b.refs.Store(1)
	if s.dir != "" {
		b.refs.Add(1) // the disk write's pin
	}
	b.elem = s.lru.PushFront(b)
	s.blobs[hash] = b
	s.cur += int64(len(data))
	victims := s.evictLocked(b)
	s.reg.Counter(metrics.StagePuts).Inc()
	s.gaugeLocked()
	s.mu.Unlock()

	// Disk persistence runs outside the lock: a multi-megabyte blob on a
	// slow disk must not stall every concurrent Open and Put (lockhold).
	// The on-disk layer is a best-effort cache reconciled by load(), so
	// a racing put/evict of the same hash at worst loses a cache file,
	// never serves wrong content: the name-is-hash contract is verified
	// on load.
	if s.dir != "" {
		// Write via rename so a crash mid-write cannot leave a file
		// whose content does not match its name.
		tmp := filepath.Join(s.dir, "."+hash+".tmp")
		if err := os.WriteFile(tmp, data, 0o644); err == nil {
			os.Rename(tmp, filepath.Join(s.dir, hash))
		}
		s.release(b)
	}
	s.drop(victims)
}

// evictLocked unlinks least-recently-used blobs until the store fits its
// cap and returns them, for the caller to drop after releasing the lock.
// keep, if non-nil, is never evicted (the blob just added: a blob larger
// than the whole cap is stored alone rather than rejected, so an oversized
// job input still works at the cost of cache capacity).
func (s *Store) evictLocked(keep *blob) []*blob {
	if s.max < 0 {
		return nil
	}
	var victims []*blob
	for s.cur > s.max && s.lru.Len() > 0 {
		elem := s.lru.Back()
		victim := elem.Value.(*blob)
		if victim == keep {
			break
		}
		s.lru.Remove(elem)
		delete(s.blobs, victim.hash)
		s.cur -= int64(len(victim.data))
		victims = append(victims, victim)
		s.reg.Counter(metrics.StageEvictions).Inc()
	}
	return victims
}

// drop gives up the store's reference to evicted blobs and deletes their
// disk files. Callers must not hold s.mu. With DiskSpill the files are the
// spill tier, so eviction keeps them.
func (s *Store) drop(victims []*blob) {
	for _, b := range victims {
		if s.dir != "" && !s.spill {
			os.Remove(filepath.Join(s.dir, b.hash))
		}
		s.release(b)
	}
}

// release drops one reference to b; the last frees its buffer.
func (s *Store) release(b *blob) {
	if b.refs.Add(-1) == 0 {
		s.arena.free(b.data)
	}
}

func (s *Store) gaugeLocked() {
	s.reg.Gauge(metrics.StageBytesStored).Set(s.cur)
	s.reg.Gauge(metrics.StageBlobs).Set(int64(s.lru.Len()))
}

// View is a pinned, read-only view of one stored blob: its bytes stay
// valid, even across an eviction, until its one Close.
type View struct {
	s *Store
	b *blob
}

// Open pins the memory-resident blob stored under hash.
func (s *Store) Open(hash string) (View, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[hash]
	if !ok {
		return View{}, false
	}
	s.lru.MoveToFront(b.elem)
	b.refs.Add(1)
	s.pins.Add(1)
	return View{s, b}, true
}

// Bytes returns the blob. The slice is shared and read-only.
func (v View) Bytes() []byte { return v.b.data }

// Close releases the pin.
func (v View) Close() {
	v.s.pins.Add(-1)
	v.s.release(v.b)
}

// Get returns a copy of the memory-resident blob stored under hash.
func (s *Store) Get(hash string) ([]byte, bool) {
	v, ok := s.Open(hash)
	if !ok {
		return nil, false
	}
	defer v.Close()
	return append([]byte(nil), v.Bytes()...), true
}

// Stat reports whether hash is stored and its size, without touching
// the LRU order. With DiskSpill a blob whose bytes live only in the
// spill tier still stats (the disk file's size is its size: the
// name-is-hash contract was verified when it was written).
func (s *Store) Stat(hash string) (int64, bool) {
	s.mu.Lock()
	b, ok := s.blobs[hash]
	s.mu.Unlock()
	if ok {
		return int64(len(b.data)), true
	}
	if s.spill && len(hash) == sha256.Size*2 {
		if fi, err := os.Stat(filepath.Join(s.dir, hash)); err == nil && !fi.IsDir() {
			return fi.Size(), true
		}
	}
	return 0, false
}

// Has reports whether hash is stored.
func (s *Store) Has(hash string) bool {
	_, ok := s.Stat(hash)
	return ok
}

// BytesStored returns the payload bytes currently held.
func (s *Store) BytesStored() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Blobs returns how many distinct blobs are held.
func (s *Store) Blobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Outstanding reports the arena bytes beyond the blobs the store keeps
// (buffers being filled, evicted blobs still pinned) and the unreleased
// Views and ChunkLoans: (0, 0) when nothing is in flight.
func (s *Store) Outstanding() (int64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arena.mu.Lock()
	defer s.arena.mu.Unlock()
	n := s.arena.liveBytes
	for _, b := range s.blobs {
		if cap(b.data) >= arenaMin { // 0 below for a blob copyIn put on the heap
			n -= int64(len(s.arena.live[&b.data[:1][0]]))
		}
	}
	return n, s.pins.Load()
}

// ChunkLoan is a leased read-only view of one chunk of a stored blob.
// For a memory-resident blob Data aliases the blob itself, which the loan
// pins — no copy anywhere between the store and the wire; for a spilled
// blob it is a pooled buffer filled from disk. Either way the caller must
// Release exactly once, after the bytes have been written out.
type ChunkLoan struct {
	Data   []byte
	view   View
	pooled bool
}

// Release ends the loan. Callers release unconditionally.
func (l ChunkLoan) Release() {
	if l.pooled {
		wire.PutPayload(l.Data)
	} else if l.view.b != nil {
		l.view.Close()
	}
}

// LoanChunk leases bytes [off, off+n) of the blob stored under hash. The
// memory path is zero-copy: the loan aliases the blob's buffer and pins
// it. The spill path opens the blob's file per chunk — one open per
// 256 KiB is noise next to the disk read itself — and fills a pooled
// buffer the loan's Release returns.
func (s *Store) LoanChunk(hash string, off, n int64) (ChunkLoan, bool) {
	if off < 0 || n < 0 {
		return ChunkLoan{}, false
	}
	if v, ok := s.Open(hash); ok {
		if off+n > int64(len(v.b.data)) {
			v.Close()
			return ChunkLoan{}, false
		}
		return ChunkLoan{Data: v.b.data[off : off+n], view: v}, true
	}
	if !s.spill || len(hash) != sha256.Size*2 {
		return ChunkLoan{}, false
	}
	f, err := os.Open(filepath.Join(s.dir, hash))
	if err != nil {
		return ChunkLoan{}, false
	}
	defer f.Close()
	buf := wire.GetPayload(int(n))
	if _, err := f.ReadAt(buf, off); err != nil {
		wire.PutPayload(buf)
		return ChunkLoan{}, false
	}
	return ChunkLoan{Data: buf, pooled: true}, true
}
