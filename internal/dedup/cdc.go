// Package dedup implements a content-addressed deduplicating store as a
// stacking vfs.FS layer: file data is split into content-defined chunks
// (a FastCDC-style gear rolling hash), chunks are indexed by SHA-256 in
// a refcounted chunk store persisted through the backing FS, and each
// unique chunk is written exactly once — once swept, a file whose
// chunks already exist costs only its manifest records.
//
// Layering: the layer sits directly below the server's policy view,
// which hands it each WRITE as the client sent it, up to the negotiated
// transfer; the average chunk size is derived from that transfer. A
// WRITE past a file's chunked prefix is one write into the file's raw
// suffix (see fileState.sib), in whatever order WRITEs arrive; the
// sweeper chunks a raw suffix once it is committed and idle, in one
// pass of the gear scan and SHA-256 (see FS.sealLocked). Reads take a
// ranged read of each chunk file, and of the raw suffix, straight into
// the caller's buffer through the backing store's ReadInto, so the
// zero-copy READ path survives the stacking.
package dedup

import "math/bits"

// Chunk size defaults; the server derives Avg from the negotiated
// transfer size (transfer/8) so one full WRITE spans several chunks,
// and Min/Avg/Max keep the FastCDC 1:4:16 shape.
const (
	DefaultAvgChunk = 64 << 10
	minChunkFloor   = 256     // smallest permitted Min
	maxChunkCeil    = 4 << 20 // largest permitted Max
)

// Params bounds the content-defined chunker. Boundaries depend only on
// Params and the bytes themselves, never on write segmentation, and the
// gear table is a fixed constant — chunk boundaries persist on disk, so
// they must be reproducible across processes and versions.
type Params struct {
	Min int // no cut before Min bytes (except at end of data)
	Avg int // target average chunk size (mask selection)
	Max int // forced cut at Max bytes
}

// DefaultParams returns the 16K/64K/256K default geometry.
func DefaultParams() Params { return ParamsForAvg(DefaultAvgChunk) }

// ParamsForAvg derives the 1:4:16 geometry from a target average chunk
// size, clamping to sane bounds. The server passes maxTransfer/8 here.
func ParamsForAvg(avg int) Params {
	avg = min(max(avg, 4*minChunkFloor), maxChunkCeil/4)
	return Params{Min: avg / 4, Avg: avg, Max: avg * 4}
}

// valid reports whether the geometry is usable.
func (p Params) valid() bool {
	return p.Min >= minChunkFloor && p.Min <= p.Avg && p.Avg <= p.Max &&
		p.Max <= maxChunkCeil && p.Max >= 2*p.Min
}

// masks returns the FastCDC normalized masks: a harder mask (more bits)
// before the average point pushes cuts later, an easier one after pulls
// them in, tightening the size distribution around Avg.
func (p Params) masks() (maskS, maskL uint64) {
	b := uint(bits.Len(uint(p.Avg - 1))) // ~log2(Avg)
	return (1 << (b + 2)) - 1, (1 << (b - 2)) - 1
}

// Next returns the length of the first chunk of data: the first
// content-defined cut point, the forced cut at Max, or len(data) when
// the data runs out first (a provisional tail — callers re-chunk it
// when the file grows past it).
func (p Params) Next(data []byte) int {
	n := len(data)
	if n <= p.Min {
		return n
	}
	n = min(n, p.Max)
	norm := min(p.Avg, n)
	maskS, maskL := p.masks()
	// Ranging over the two subslices (and indexing the 256-entry table
	// with a byte) leaves the loops without bounds checks.
	var h uint64
	for i, b := range data[p.Min:norm] {
		h = (h << 1) + gear[b]
		if h&maskS == 0 {
			return p.Min + i + 1
		}
	}
	for i, b := range data[norm:n] {
		h = (h << 1) + gear[b]
		if h&maskL == 0 {
			return norm + i + 1
		}
	}
	return n
}

// Split chunks data greedily from offset 0 and returns the chunk
// lengths. It is the reference the incremental re-chunker must agree
// with: FuzzCDC asserts any write segmentation converges to exactly
// this sequence.
func (p Params) Split(data []byte) []int {
	var out []int
	for len(data) > 0 {
		n := p.Next(data)
		out = append(out, n)
		data = data[n:]
	}
	return out
}

// gear is the FastCDC byte→hash table, generated by splitmix64 from a
// fixed seed at init. splitmix64 is a pinned algorithm, so the table —
// and therefore every on-disk chunk boundary — is identical across
// builds and platforms.
var gear = func() (t [256]uint64) {
	s := uint64(0x3779fb7a11e9d2f1)
	for i := range t {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return
}()
