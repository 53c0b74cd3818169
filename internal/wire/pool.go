package wire

import "sync"

// Pooled payload capacities: the small one covers the tunnel's largest
// DATA frame (a 64 KiB segment plus the stream-id prefix) and most control
// payloads, the large one a control frame carrying a 1 MiB blob chunk.
// Larger frames (rare on the hot path) fall back to the heap.
const (
	pooledPayloadCap = 64<<10 + 128
	largePayloadCap  = 1<<20 + 1<<10
)

// The pools hold pointers to arrays rather than []byte: putting a
// pointer-shaped value into a sync.Pool stores it in the interface header
// directly, so neither Get nor Put allocates.
var (
	payloadPool = sync.Pool{New: func() any { return new([pooledPayloadCap]byte) }}
	largePool   = sync.Pool{New: func() any { return new([largePayloadCap]byte) }}
)

// GetPayload leases a length-n payload buffer from a pool, falling back
// to a fresh allocation when n exceeds the large capacity. The buffer is
// not zeroed. The caller owns it until it is handed to PutPayload.
func GetPayload(n int) []byte {
	switch {
	case n <= pooledPayloadCap:
		return payloadPool.Get().(*[pooledPayloadCap]byte)[:n]
	case n <= largePayloadCap:
		return largePool.Get().(*[largePayloadCap]byte)[:n]
	}
	return make([]byte, n)
}

// PutPayload returns a buffer leased by GetPayload to its pool. Buffers
// that did not come from a pool (oversized fallbacks, or payloads from
// plain ReadFrame) are recognized by capacity and silently dropped, so
// callers may release unconditionally. Releasing the same buffer twice
// corrupts the pool; each lease must be released exactly once.
func PutPayload(p []byte) {
	switch cap(p) {
	case pooledPayloadCap:
		payloadPool.Put((*[pooledPayloadCap]byte)(p[:pooledPayloadCap]))
	case largePayloadCap:
		largePool.Put((*[largePayloadCap]byte)(p[:largePayloadCap]))
	}
}
