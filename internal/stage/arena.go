package stage

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"

	"gridproxy/internal/metrics"
	"gridproxy/internal/proto"
)

// Blob buffers of arenaMin bytes and up are anonymous mappings: on the Go
// heap, whose goal is twice the live heap, a cache costs twice its cap.
// Smaller buffers stay on the heap, and freeing one is a no-op.
const arenaMin = proto.MaxInlineOutputs

// maxSpare bounds the freed mappings an arena keeps for reuse. Blob sizes
// recur: on gridmark's bulk workloads nine allocations in ten reuse one,
// and unmapping every free instead cost bulk_lan a tenth of its jobs/s.
const maxSpare = 32 << 20

var poisonFreed bool // set in race builds

// arena owns a store's mappings. A reused mapping is not zeroed: a Writer
// exposes only what was written, a pull only a blob that passed its
// SHA-256. Race builds revoke a freed mapping instead of reusing it, so a
// use after release faults.
type arena struct {
	reg *metrics.Registry

	mu         sync.Mutex
	live       map[*byte][]byte // mappings handed out, by first byte
	spare      map[int][][]byte // freed mappings kept for reuse, by length
	liveBytes  int64
	spareBytes int64
}

func newArena(reg *metrics.Registry) *arena {
	a := &arena{reg: reg, live: make(map[*byte][]byte), spare: make(map[int][][]byte)}
	// Every holder of a buffer reaches the arena: once it is gone, so are they.
	runtime.SetFinalizer(a, (*arena).unmapAll)
	return a
}

// alloc returns a buffer of length n, or an error when the system cannot
// map n bytes.
func (a *arena) alloc(n int) ([]byte, error) {
	if n < arenaMin {
		return make([]byte, n), nil
	}
	size := (n + os.Getpagesize() - 1) &^ (os.Getpagesize() - 1)
	a.mu.Lock()
	defer a.mu.Unlock()
	var b []byte
	if list := a.spare[size]; len(list) > 0 {
		b, a.spare[size] = list[len(list)-1], list[:len(list)-1]
		a.spareBytes -= int64(size)
	} else {
		var err error
		b, err = syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("stage: cannot hold %d bytes: %w", n, err)
		}
	}
	a.live[&b[0]] = b
	a.liveBytes += int64(size)
	a.reg.Gauge(metrics.StageArenaBytes).Set(a.liveBytes + a.spareBytes)
	return b[:n], nil
}

// free gives back a buffer alloc returned (or a reslice from its first
// byte); a heap buffer, or one already freed, is ignored.
func (a *arena) free(b []byte) {
	if cap(b) < arenaMin {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.live[&b[:1][0]]
	if !ok {
		return
	}
	delete(a.live, &b[0])
	a.liveBytes -= int64(len(b))
	switch {
	case poisonFreed: // best effort: a failure only weakens the check
		_ = syscall.Mprotect(b, syscall.PROT_NONE)
		_ = syscall.Madvise(b, syscall.MADV_DONTNEED)
	case a.spareBytes+int64(len(b)) <= maxSpare:
		a.spare[len(b)] = append(a.spare[len(b)], b)
		a.spareBytes += int64(len(b))
	default:
		_ = syscall.Munmap(b) // fails only for what is not a mapping
	}
	a.reg.Gauge(metrics.StageArenaBytes).Set(a.liveBytes + a.spareBytes)
}

func (a *arena) unmapAll() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, b := range a.live {
		_ = syscall.Munmap(b)
	}
	for _, list := range a.spare {
		for _, b := range list {
			_ = syscall.Munmap(b)
		}
	}
}
