// Package bufpool is the shared buffer pool of the data plane: every
// layer that moves a READ/WRITE payload — the RPC record reader, the
// reply encoder, the secure-channel record layer — borrows its backing
// array here instead of allocating per message, so a large transfer
// costs one allocation end to end instead of one per layer boundary.
//
// Buffers are size-classed in powers of two; Get returns a slice whose
// capacity is exactly a class size, and Put only recycles slices whose
// capacity matches a class (anything else is left for the GC, so
// re-sliced or caller-grown buffers are always safe to Put).
//
// Ownership rule: a buffer has exactly one owner at a time. Whoever
// calls Get (or receives the buffer in a documented hand-off) must Put
// it once or pass ownership on; after Put the slice must not be touched.
// Double-Put corrupts the pool — the counters exist so tests can catch
// imbalance (see Stats and Outstanding), and in test binaries Put
// overwrites what it recycles, so a reader still aliasing the buffer
// sees garbage instead of plausible stale bytes.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
)

const (
	// minClassBits is the smallest class (4 KiB): below it pooling buys
	// nothing over the allocator's own size classes.
	minClassBits = 12
	// maxClassBits is the largest class (16 MiB). One maximal RPC record
	// (a 1 MiB transfer plus framing and AEAD overhead) fits the 2 MiB
	// class; the classes above it hold the dedup layer's open-chunk
	// tails, which a file's out-of-order WRITEs grow to at most 8 MiB
	// plus one transfer.
	maxClassBits = 24
	numClasses   = maxClassBits - minClassBits + 1
)

// MaxPooled is the largest buffer size the pool recycles; larger Gets
// fall through to the allocator.
const MaxPooled = 1 << maxClassBits

var classes [numClasses]sync.Pool

// boxes recycles the *[]byte the class pools keep buffers in: Get
// empties one and leaves it here, Put fills one from here, so a
// steady Get/Put cycle allocates nothing.
var boxes sync.Pool

// counts holds each class's counters; Stats sums them.
var counts [numClasses]struct {
	gets   atomic.Int64 // pooled Gets (within MaxPooled)
	puts   atomic.Int64 // pooled Puts (class-sized capacity)
	misses atomic.Int64 // pooled Gets that found an empty pool
}

// poison is set in test binaries: Put then overwrites each buffer it
// recycles, so a use after release reads garbage.
var poison = testing.Testing()

// classFor returns the index of the smallest class holding n bytes, or
// -1 when n exceeds MaxPooled.
func classFor(n int) int {
	if n > MaxPooled {
		return -1
	}
	if n <= 1<<minClassBits {
		return 0
	}
	return bits.Len(uint(n-1)) - minClassBits
}

// classSized reports whether c is exactly a class capacity — the mark
// of a buffer Get counted.
func classSized(c int) bool {
	return c >= 1<<minClassBits && c <= MaxPooled && c&(c-1) == 0
}

// Get returns a buffer of length n. For n ≤ MaxPooled its capacity is
// the exact size class (so Put can recycle it); beyond that it is a
// plain allocation. The contents are NOT zeroed: the caller must
// overwrite every byte it reads back.
func Get(n int) []byte {
	ci := classFor(n)
	if ci < 0 {
		return make([]byte, n)
	}
	counts[ci].gets.Add(1)
	if v := classes[ci].Get(); v != nil {
		box := v.(*[]byte)
		b := (*box)[:n]
		*box = nil
		boxes.Put(box)
		return b
	}
	counts[ci].misses.Add(1)
	return make([]byte, n, 1<<(minClassBits+ci))
}

// Put returns a buffer obtained from Get (or grown to an exact class
// capacity) to the pool. Slices with off-class capacity are dropped
// silently, so Put is always safe on any buffer whose ownership the
// caller holds. nil is a no-op.
func Put(b []byte) {
	c := cap(b)
	if !classSized(c) {
		return
	}
	ci := bits.Len(uint(c-1)) - minClassBits
	counts[ci].puts.Add(1)
	if poison {
		b = b[:c]
		b[0] = 0xdb
		for n := 1; n < c; n *= 2 {
			copy(b[n:], b[:n])
		}
	}
	box, _ := boxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:0]
	classes[ci].Put(box)
}

// Grow returns a buffer of length n holding b's contents, recycling b
// when a larger class is needed. Capacity at least doubles, so repeated
// Grows are geometric, not quadratic.
func Grow(b []byte, n int) []byte {
	if n <= cap(b) {
		return b[:n]
	}
	want := n
	if d := 2 * cap(b); d > want {
		want = d
	}
	nb := Get(want)[:n]
	copy(nb, b)
	Put(b)
	return nb
}

// PoolStats is a snapshot of the pool's counters.
type PoolStats struct {
	Gets   int64 // pooled Get calls
	Puts   int64 // pooled Put calls that recycled a buffer
	Misses int64 // pooled Gets served by a fresh allocation
}

// Stats returns the global counters. Tests use the Gets−Puts balance as
// a leak check around code paths with strict one-owner hand-offs.
func Stats() PoolStats {
	var s PoolStats
	for ci := range counts {
		c := classStats(ci)
		s.Gets += c.Gets
		s.Puts += c.Puts
		s.Misses += c.Misses
	}
	return s
}

// ClassStats returns the counters of the class that holds n-byte
// buffers, and zero counters when n exceeds MaxPooled. Tests use it to
// see which sizes a code path took, not only how many buffers.
func ClassStats(n int) PoolStats {
	ci := classFor(n)
	if ci < 0 {
		return PoolStats{}
	}
	return classStats(ci)
}

func classStats(ci int) PoolStats {
	c := &counts[ci]
	return PoolStats{Gets: c.gets.Load(), Puts: c.puts.Load(), Misses: c.misses.Load()}
}

// Outstanding returns the number of pooled buffers currently owned by
// callers: Gets minus Puts. Outside the client data cache, which holds
// its pages until they leave the cache, and the dedup layer, which holds
// a file's open-chunk tail until Sync, nothing holds a pooled buffer
// across operations, so on a quiescent process whose clients and stores
// are closed a non-zero value is a leak.
func Outstanding() int64 {
	s := Stats()
	return s.Gets - s.Puts
}
