package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"discfs/internal/bufpool"
	"discfs/internal/ffs"
	"discfs/internal/vfs"
)

// newBacking returns a fresh in-memory ffs big enough for the tests.
func newBacking(t *testing.T) *ffs.FFS {
	t.Helper()
	fs, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 16384, MaxInodes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// newTestFS wraps a fresh backing with small chunks so tests exercise
// multi-chunk files without megabytes of data.
func newTestFS(t *testing.T, opts ...Option) (*FS, *ffs.FFS) {
	t.Helper()
	backing := newBacking(t)
	opts = append([]Option{WithAvgChunkSize(4096), WithSweepInterval(0)}, opts...)
	d, err := Wrap(backing, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, backing
}

func mkfile(t *testing.T, d *FS, name string) vfs.Handle {
	t.Helper()
	a, err := d.Create(d.Root(), name, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return a.Handle
}

func writeAt(t *testing.T, d *FS, h vfs.Handle, off uint64, data []byte) {
	t.Helper()
	if _, err := d.Write(h, off, data); err != nil {
		t.Fatalf("write %d bytes at %d: %v", len(data), off, err)
	}
}

// effectiveCuts is the file's chunk-length sequence with the open tail
// split the way it will be stored: behind a hole the tail can hold
// several chunks, so this is what the reference greedy split must equal.
func effectiveCuts(t *testing.T, d *FS, h vfs.Handle) []int {
	t.Helper()
	fst, err := d.state(h)
	if err != nil {
		t.Fatal(err)
	}
	fst.mu.RLock()
	defer fst.mu.RUnlock()
	out := make([]int, 0, len(fst.man.ents)+1)
	for _, e := range fst.man.ents {
		out = append(out, int(e.n))
	}
	return append(out, d.p.Split(fst.tail)...)
}

// tailShape reports how many chunks the open tail splits into and how
// many holes it holds.
func tailShape(t *testing.T, d *FS, h vfs.Handle) (chunks, holes int) {
	t.Helper()
	fst, err := d.state(h)
	if err != nil {
		t.Fatal(err)
	}
	fst.mu.RLock()
	defer fst.mu.RUnlock()
	return len(d.p.Split(fst.tail)), len(fst.holes)
}

func checkCuts(t *testing.T, d *FS, h vfs.Handle, data []byte, label string) {
	t.Helper()
	got := effectiveCuts(t, d, h)
	want := d.p.Split(data)
	if len(got) != len(want) {
		t.Fatalf("%s: %d chunks, reference split has %d", label, len(got), len(want))
	}
	for i, n := range want {
		if got[i] != n {
			t.Fatalf("%s: chunk %d is %d bytes, reference %d", label, i, got[i], n)
		}
	}
}

func readAll(t *testing.T, d *FS, h vfs.Handle) []byte {
	t.Helper()
	a, err := d.GetAttr(h)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, a.Size)
	if a.Size == 0 {
		return out
	}
	n, eof, err := d.ReadInto(h, 0, out)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(n) != a.Size || !eof {
		t.Fatalf("ReadInto = %d, eof=%v, size %d", n, eof, a.Size)
	}
	return out
}

func TestRoundtrip(t *testing.T) {
	d, _ := newTestFS(t)
	h := mkfile(t, d, "f")
	data := randBytes(1, 100_000)
	writeAt(t, d, h, 0, data)
	if got := readAll(t, d, h); !bytes.Equal(got, data) {
		t.Fatal("roundtrip mismatch")
	}
	// Manifest chunking must equal the reference greedy split.
	checkCuts(t, d, h, data, "roundtrip")
}

// TestWriteSegmentationConverges writes the same bytes in many
// different segmentations and offsets; the manifest must always equal
// the reference split of the final content.
func TestWriteSegmentationConverges(t *testing.T) {
	d, _ := newTestFS(t)
	data := randBytes(2, 200_000)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		h := mkfile(t, d, fmt.Sprintf("f%d", trial))
		switch trial {
		case 0: // one shot
			writeAt(t, d, h, 0, data)
		case 1: // sequential small writes
			for off := 0; off < len(data); off += 1000 {
				end := off + 1000
				if end > len(data) {
					end = len(data)
				}
				writeAt(t, d, h, uint64(off), data[off:end])
			}
		default: // random-order cover of the whole range
			var segs [][2]int
			for off := 0; off < len(data); {
				n := 1 + rng.Intn(30_000)
				if off+n > len(data) {
					n = len(data) - off
				}
				segs = append(segs, [2]int{off, off + n})
				off += n
			}
			rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
			for _, s := range segs {
				writeAt(t, d, h, uint64(s[0]), data[s[0]:s[1]])
			}
		}
		if got := readAll(t, d, h); !bytes.Equal(got, data) {
			t.Fatalf("trial %d: content mismatch", trial)
		}
		checkCuts(t, d, h, data, fmt.Sprintf("trial %d", trial))
	}
}

// TestOutOfOrderWritesMatchInOrder: a file delivered as transfer-sized
// WRITEs in shuffled order, the way a client flushing one file on
// several connections delivers them, stores exactly what the in-order
// write stores: the same chunks, bytes and hits, and the same cut
// sequence. The gaps wait in the tail as holes; none is chunked as
// zeros for a later WRITE to rewrite.
func TestOutOfOrderWritesMatchInOrder(t *testing.T) {
	const xfer, windows = 504 << 10, 12
	data := randBytes(21, windows*xfer)
	store := func(order []int) (Stats, []int) {
		d, _ := newTestFS(t, WithAvgChunkSize(64<<10))
		h := mkfile(t, d, "f")
		for _, i := range order {
			writeAt(t, d, h, uint64(i*xfer), data[i*xfer:(i+1)*xfer])
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, d, h); !bytes.Equal(got, data) {
			t.Fatal("content differs")
		}
		return d.Stats(), effectiveCuts(t, d, h)
	}
	inOrder := make([]int, windows)
	for i := range inOrder {
		inOrder[i] = i
	}
	shuffled := rand.New(rand.NewSource(7)).Perm(windows)
	if shuffled[0] == 0 {
		shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
	}
	want, wantCuts := store(inOrder)
	got, gotCuts := store(shuffled)
	t.Logf("order %v: %d chunks, %d bytes stored, %d hits (in order: %d, %d, %d)",
		shuffled, got.Chunks, got.BytesStored, got.Hits, want.Chunks, want.BytesStored, want.Hits)
	if got.Chunks != want.Chunks || got.BytesStored != want.BytesStored || got.Hits != want.Hits {
		t.Errorf("shuffled WRITEs stored %+v, in-order WRITEs %+v", got, want)
	}
	if !slices.Equal(gotCuts, wantCuts) {
		t.Errorf("shuffled WRITEs cut %d chunks %v, in-order WRITEs %d", len(gotCuts), gotCuts, len(wantCuts))
	}
}

// TestHeldHolesAreBounded: a write past EOF is held as a hole only while
// the file's tail stays within maxHeldTail and the tails with holes
// across the store within maxHeldBytes. Past either bound the holes are
// settled and the gap is zero-filled, with the same content either way.
// A tail array that grew past maxKeptTail behind a hole is given back
// once the hole fills, and once Sync has settled the rest nothing counts
// as held.
func TestHeldHolesAreBounded(t *testing.T) {
	d, _ := newTestFS(t)
	holes := func(h vfs.Handle) int {
		_, n := tailShape(t, d, h)
		return n
	}
	h := mkfile(t, d, "f")
	writeAt(t, d, h, 1<<20, []byte("a"))
	if n := holes(h); n != 1 {
		t.Fatalf("a write 1 MiB past EOF left %d holes, want 1", n)
	}
	writeAt(t, d, h, maxHeldTail+1<<20, []byte("b"))
	if n := holes(h); n != 0 {
		t.Fatalf("a write past the per-file bound left %d holes", n)
	}
	want := make([]byte, maxHeldTail+1<<20+1)
	want[1<<20], want[len(want)-1] = 'a', 'b'
	if !bytes.Equal(readAll(t, d, h), want) {
		t.Fatal("content differs after the holes were settled")
	}

	// With the store-wide bound all but taken, even a small gap is not
	// held.
	g := mkfile(t, d, "g")
	d.held.Add(maxHeldBytes - 4096)
	writeAt(t, d, g, 8192, []byte("c"))
	d.held.Add(-(maxHeldBytes - 4096))
	if n := holes(g); n != 0 {
		t.Fatalf("a write past the store-wide bound left %d holes", n)
	}

	writeAt(t, d, h, uint64(len(want))+4096, []byte("d"))
	if n := holes(h); n != 1 {
		t.Fatalf("a small gap left %d holes, want 1", n)
	}

	// A tail that grew past maxKeptTail behind a hole gives its array
	// back once the hole fills.
	k := mkfile(t, d, "k")
	data := randBytes(31, maxKeptTail+1<<20)
	writeAt(t, d, k, 64<<10, data[64<<10:])
	if c := tailArrayCap(t, d, k); c <= maxKeptTail {
		t.Fatalf("a tail of %d bytes behind a hole has a %d-byte array", len(data), c)
	}
	writeAt(t, d, k, 0, data[:64<<10])
	if c := tailArrayCap(t, d, k); c > maxKeptTail {
		t.Errorf("the filled tail kept a %d-byte array, want at most %d", c, maxKeptTail)
	}
	if !bytes.Equal(readAll(t, d, k), data) {
		t.Fatal("content differs after the hole filled")
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := d.held.Load(); n != 0 {
		t.Errorf("%d bytes still count as held after Sync", n)
	}
}

// tailArrayCap returns the capacity of the array behind h's tail.
func tailArrayCap(t *testing.T, d *FS, h vfs.Handle) int {
	t.Helper()
	fst, err := d.state(h)
	if err != nil {
		t.Fatal(err)
	}
	fst.mu.RLock()
	defer fst.mu.RUnlock()
	return cap(fst.buf)
}

// TestSyncCountsSettledHoles: a Sync (here the sweeper's) stores a held
// hole as the zeros it reads as and counts it; the WRITE that arrives
// for the hole afterwards finds it committed and rewrites it through the
// overwrite path, converging to the cuts of an in-order write.
func TestSyncCountsSettledHoles(t *testing.T) {
	d, _ := newTestFS(t)
	h := mkfile(t, d, "f")
	const w = 24 << 10
	data := randBytes(51, 2*w)
	writeAt(t, d, h, w, data[w:])
	if _, holes := tailShape(t, d, h); holes != 1 {
		t.Fatalf("a write past EOF left %d holes, want 1", holes)
	}
	d.SweepNow()
	if n := d.Stats().HolesSettled; n != 1 {
		t.Fatalf("HolesSettled = %d after the sweeper's Sync, want 1", n)
	}
	fst, err := d.state(h)
	if err != nil {
		t.Fatal(err)
	}
	fst.mu.RLock()
	committed := fst.man.offs[len(fst.man.ents)]
	fst.mu.RUnlock()
	if committed == 0 {
		t.Fatal("the settled hole is not committed: the late WRITE would not take the overwrite path")
	}
	writeAt(t, d, h, 0, data[:w])
	if !bytes.Equal(readAll(t, d, h), data) {
		t.Fatal("content differs after the late WRITE")
	}
	checkCuts(t, d, h, data, "late WRITE")
	if n := d.Stats().HolesSettled; n != 1 {
		t.Errorf("HolesSettled = %d after the late WRITE, want 1", n)
	}
}

// failingWritesFS fails every backing Write once ok more have
// succeeded (while armed). Between Syncs the dedup layer writes only
// chunk files, so arming it before a WRITE fails a spill part-way.
type failingWritesFS struct {
	vfs.FS
	armed bool
	ok    int
}

var errInjectedWrite = errors.New("injected chunk write failure")

func (f *failingWritesFS) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	if f.armed {
		if f.ok == 0 {
			return vfs.Attr{}, errInjectedWrite
		}
		f.ok--
	}
	return f.FS.Write(h, off, data)
}

// TestFailedChunkWriteRollsBack: a chunk write that fails after others
// of the same spill succeeded fails the WRITE and gives back every
// reference the spill took, so the refcounts still match the manifests
// after Sync, and retrying the WRITE stores the cuts of a clean write.
func TestFailedChunkWriteRollsBack(t *testing.T) {
	const xfer = 504 << 10
	fw := &failingWritesFS{FS: newBacking(t)}
	d, err := Wrap(fw, WithAvgChunkSize(64<<10), WithSweepInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	h := mkfile(t, d, "f")
	data := randBytes(71, xfer)
	if n := len(d.p.Split(data)); n < 4 {
		t.Fatalf("the WRITE finalizes only %d chunks", n-1)
	}
	fw.armed, fw.ok = true, 2
	if _, err := d.Write(h, 0, data); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("WRITE with a failing third chunk write: %v", err)
	}
	fw.armed = false
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	res, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.RefMismatch != 0 || res.MissingChunk != 0 {
		t.Fatalf("verify after the failed spill: %+v", res)
	}
	writeAt(t, d, h, 0, data)
	if !bytes.Equal(readAll(t, d, h), data) {
		t.Fatal("content differs after the retry")
	}
	checkCuts(t, d, h, data, "retried WRITE")
	if res, err := d.Verify(); err != nil || res.RefMismatch != 0 || res.MissingChunk != 0 {
		t.Fatalf("verify after the retry: %+v, %v", res, err)
	}
}

// TestPooledTailsComeBack: the tail arrays a shuffled hole episode takes
// from bufpool all go back by Close, and steady in-order appends reuse
// one array once it has grown to fit a WRITE and the open chunk.
func TestPooledTailsComeBack(t *testing.T) {
	const xfer, windows = 504 << 10, 12
	data := randBytes(81, windows*xfer)
	start := bufpool.Outstanding()
	d, _ := newTestFS(t, WithAvgChunkSize(64<<10))
	h := mkfile(t, d, "shuffled")
	for _, i := range rand.New(rand.NewSource(82)).Perm(windows) {
		writeAt(t, d, h, uint64(i*xfer), data[i*xfer:(i+1)*xfer])
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readAll(t, d, h), data) {
		t.Fatal("content differs")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if n := bufpool.Outstanding() - start; n != 0 {
		t.Errorf("%d pooled buffers still out after Sync and Close", n)
	}

	d, _ = newTestFS(t, WithAvgChunkSize(64<<10))
	h = mkfile(t, d, "steady")
	array := func() *byte {
		fst, err := d.state(h)
		if err != nil {
			t.Fatal(err)
		}
		fst.mu.RLock()
		defer fst.mu.RUnlock()
		return unsafe.SliceData(fst.buf)
	}
	var warm *byte
	for i := 0; i < windows; i++ {
		writeAt(t, d, h, uint64(i*xfer), data[i*xfer:(i+1)*xfer])
		switch {
		case i == 2:
			if warm = array(); warm == nil {
				t.Fatal("appends left the tail without an array")
			}
		case i > 2 && array() != warm:
			t.Fatalf("in-order append %d took a new tail array", i)
		}
	}
}

// TestModelStress runs random writes/truncates/reads against a plain
// byte-slice model.
func TestModelStress(t *testing.T) {
	d, _ := newTestFS(t)
	h := mkfile(t, d, "f")
	rng := rand.New(rand.NewSource(11))
	var model []byte
	const maxSize = 300_000
	for op := 0; op < 300; op++ {
		switch rng.Intn(10) {
		case 0, 1: // truncate
			n := rng.Intn(maxSize)
			if _, err := d.SetAttr(h, func() vfs.SetAttr {
				sz := uint64(n)
				return vfs.SetAttr{Size: &sz}
			}()); err != nil {
				t.Fatalf("op %d truncate(%d): %v", op, n, err)
			}
			if n <= len(model) {
				model = model[:n]
			} else {
				model = append(model, make([]byte, n-len(model))...)
			}
		case 2: // sparse write past EOF
			off := len(model) + rng.Intn(20_000)
			data := randBytes(rng.Int63(), 1+rng.Intn(10_000))
			writeAt(t, d, h, uint64(off), data)
			model = append(model, make([]byte, off-len(model))...)
			model = append(model, data...)
		default: // overwrite / extend
			off := 0
			if len(model) > 0 {
				off = rng.Intn(len(model))
			}
			data := randBytes(rng.Int63(), 1+rng.Intn(30_000))
			writeAt(t, d, h, uint64(off), data)
			if off+len(data) > len(model) {
				model = append(model, make([]byte, off+len(data)-len(model))...)
			}
			copy(model[off:], data)
		}
		if len(model) > maxSize {
			model = model[:maxSize]
			sz := uint64(maxSize)
			if _, err := d.SetAttr(h, vfs.SetAttr{Size: &sz}); err != nil {
				t.Fatal(err)
			}
		}
		// Only a hole keeps finalized chunks in the tail: without one,
		// every chunk but the provisional last has spilled.
		if chunks, holes := tailShape(t, d, h); holes == 0 && chunks > 1 {
			t.Fatalf("op %d: the tail holds %d chunks and no hole", op, chunks)
		}
		if op%25 == 0 {
			if got := readAll(t, d, h); !bytes.Equal(got, model) {
				t.Fatalf("op %d: content diverged (len %d vs %d)", op, len(got), len(model))
			}
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := readAll(t, d, h); !bytes.Equal(got, model) {
		t.Fatal("final content diverged")
	}
	// The manifest must still match the reference split after all the
	// incremental re-chunking.
	checkCuts(t, d, h, model, "final")
	res, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.RefMismatch != 0 || res.MissingChunk != 0 {
		t.Fatalf("verify: %+v", res)
	}
}

func TestRemountPersistence(t *testing.T) {
	backing := newBacking(t)
	d, err := Wrap(backing, WithAvgChunkSize(4096), WithSweepInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(5, 150_000)
	a, err := d.Create(d.Root(), "f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(a.Handle, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Wrap(backing, WithAvgChunkSize(4096), WithSweepInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	a2, err := d2.Lookup(d2.Root(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if a2.Size != uint64(len(data)) {
		t.Fatalf("remounted size %d, want %d", a2.Size, len(data))
	}
	got := make([]byte, len(data))
	if _, _, err := d2.ReadInto(a2.Handle, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("remounted content mismatch")
	}
	res, err := d2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.RefMismatch != 0 || res.Orphans != 0 || res.MissingChunk != 0 {
		t.Fatalf("verify after remount: %+v", res)
	}
}

func TestDedupEffectiveness(t *testing.T) {
	d, _ := newTestFS(t)
	data := randBytes(6, 200_000)
	h1 := mkfile(t, d, "a")
	writeAt(t, d, h1, 0, data)
	before := d.Stats()
	h2 := mkfile(t, d, "b")
	writeAt(t, d, h2, 0, data)
	after := d.Stats()
	if after.Chunks != before.Chunks {
		t.Fatalf("duplicate file grew the store: %d -> %d chunks", before.Chunks, after.Chunks)
	}
	if after.BytesStored != before.BytesStored {
		t.Fatalf("duplicate file stored bytes: %d -> %d", before.BytesStored, after.BytesStored)
	}
	if after.Hits == before.Hits {
		t.Fatal("no dedup hits recorded")
	}
	if after.BytesLogical != 2*before.BytesLogical {
		t.Fatalf("logical bytes %d, want %d", after.BytesLogical, 2*before.BytesLogical)
	}
}

func TestRemoveReleasesChunks(t *testing.T) {
	d, _ := newTestFS(t)
	data := randBytes(7, 120_000)
	for _, name := range []string{"a", "b"} {
		h := mkfile(t, d, name)
		writeAt(t, d, h, 0, data)
	}
	if err := d.Remove(d.Root(), "a"); err != nil {
		t.Fatal(err)
	}
	d.SweepNow()
	if s := d.Stats(); s.Chunks == 0 {
		t.Fatal("shared chunks reclaimed while still referenced")
	}
	if err := d.Remove(d.Root(), "b"); err != nil {
		t.Fatal(err)
	}
	if n := d.SweepNow(); n == 0 {
		t.Fatal("sweep reclaimed nothing after last unlink")
	}
	s := d.Stats()
	if s.Chunks != 0 || s.BytesStored != 0 || s.BytesLogical != 0 {
		t.Fatalf("store not empty after removal: %+v", s)
	}
	res, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 0 {
		t.Fatalf("verify found %d chunks", res.Chunks)
	}
}

func TestHiddenChunkStore(t *testing.T) {
	d, _ := newTestFS(t)
	if _, err := d.Lookup(d.Root(), chunksName); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("Lookup(.chunks) = %v, want ErrNotExist", err)
	}
	ents, err := d.ReadDir(d.Root())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name == chunksName {
			t.Fatal(".chunks visible in ReadDir")
		}
	}
	if _, err := d.Create(d.Root(), chunksName, 0o644); !errors.Is(err, vfs.ErrPerm) {
		t.Fatalf("Create(.chunks) = %v, want ErrPerm", err)
	}
	if _, err := d.Mkdir(d.Root(), chunksName, 0o755); !errors.Is(err, vfs.ErrPerm) {
		t.Fatalf("Mkdir(.chunks) = %v, want ErrPerm", err)
	}
	if err := d.Remove(d.Root(), chunksName); !errors.Is(err, vfs.ErrPerm) {
		t.Fatalf("Remove(.chunks) = %v, want ErrPerm", err)
	}
	h := mkfile(t, d, "f")
	_ = h
	if err := d.Rename(d.Root(), "f", d.Root(), chunksName); !errors.Is(err, vfs.ErrPerm) {
		t.Fatalf("Rename(-> .chunks) = %v, want ErrPerm", err)
	}
	// Deeper directories may use the name freely.
	sub, err := d.Mkdir(d.Root(), "dir", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create(sub.Handle, chunksName, 0o644); err != nil {
		t.Fatalf("Create(dir/.chunks) = %v", err)
	}
}

func TestHardLinkSharesManifest(t *testing.T) {
	d, _ := newTestFS(t)
	data := randBytes(8, 50_000)
	h := mkfile(t, d, "a")
	writeAt(t, d, h, 0, data)
	if _, err := d.Link(d.Root(), "b", h); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove(d.Root(), "a"); err != nil {
		t.Fatal(err)
	}
	d.SweepNow()
	a, err := d.Lookup(d.Root(), "b")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, _, err := d.ReadInto(a.Handle, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content lost after removing one hard link")
	}
	if err := d.Remove(d.Root(), "b"); err != nil {
		t.Fatal(err)
	}
	d.SweepNow()
	if s := d.Stats(); s.Chunks != 0 {
		t.Fatalf("%d chunks leaked after last link removed", s.Chunks)
	}
}

func TestRenameReplaceReleasesTarget(t *testing.T) {
	d, _ := newTestFS(t)
	src := mkfile(t, d, "src")
	writeAt(t, d, src, 0, randBytes(9, 40_000))
	dst := mkfile(t, d, "dst")
	writeAt(t, d, dst, 0, randBytes(10, 40_000))
	before := d.Stats()
	if err := d.Rename(d.Root(), "src", d.Root(), "dst"); err != nil {
		t.Fatal(err)
	}
	d.SweepNow()
	after := d.Stats()
	if after.Chunks >= before.Chunks {
		t.Fatalf("replaced target's chunks not reclaimed: %d -> %d", before.Chunks, after.Chunks)
	}
	res, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.RefMismatch != 0 || res.Orphans != 0 {
		t.Fatalf("verify after rename: %+v", res)
	}
}

func TestTruncate(t *testing.T) {
	d, _ := newTestFS(t)
	h := mkfile(t, d, "f")
	data := randBytes(12, 100_000)
	writeAt(t, d, h, 0, data)
	for _, n := range []int{100_000, 33_333, 0, 50_000, 1} {
		sz := uint64(n)
		a, err := d.SetAttr(h, vfs.SetAttr{Size: &sz})
		if err != nil {
			t.Fatalf("truncate to %d: %v", n, err)
		}
		if a.Size != sz {
			t.Fatalf("truncate to %d reported size %d", n, a.Size)
		}
		want := make([]byte, n)
		copy(want, data[:min(n, len(data))])
		// Bytes beyond earlier shrinks are zero.
		if n > 33_333 && n <= 50_000 {
			for i := 33_333; i < n; i++ {
				want[i] = 0
			}
		}
		if n == 50_000 {
			want = make([]byte, n) // everything past the 0-truncate is zero
		}
		if n == 1 {
			want = []byte{0}
		}
		if got := readAll(t, d, h); !bytes.Equal(got, want) {
			t.Fatalf("content mismatch after truncate to %d", n)
		}
	}
}

func TestReadIntoMatchesRead(t *testing.T) {
	d, _ := newTestFS(t)
	h := mkfile(t, d, "f")
	data := randBytes(13, 70_000)
	writeAt(t, d, h, 0, data)
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 50; i++ {
		off := uint64(rng.Intn(len(data) + 100))
		count := uint32(rng.Intn(20_000))
		b1, eof1, err1 := d.Read(h, off, count)
		dst := make([]byte, count)
		n, eof2, err2 := d.ReadInto(h, off, dst)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Read err=%v, ReadInto err=%v", err1, err2)
		}
		if err1 != nil {
			continue
		}
		if eof1 != eof2 || len(b1) != n || !bytes.Equal(b1, dst[:n]) {
			t.Fatalf("Read/ReadInto disagree at off=%d count=%d", off, count)
		}
	}
}

// TestDataOpsOnNonRegularFiles: a directory's data is ErrIsDir and a
// symlink's ErrInval, as in the backing store; the symlink keeps its
// target and size.
func TestDataOpsOnNonRegularFiles(t *testing.T) {
	d, _ := newTestFS(t)
	dir, err := d.Mkdir(d.Root(), "d", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	l, err := d.Symlink(d.Root(), "l", "x", 0o777)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, _, err := d.ReadInto(dir.Handle, 0, buf); !errors.Is(err, vfs.ErrIsDir) {
		t.Errorf("ReadInto(dir) = %v, want ErrIsDir", err)
	}
	if _, _, err := d.ReadInto(l.Handle, 0, buf); !errors.Is(err, vfs.ErrInval) {
		t.Errorf("ReadInto(symlink) = %v, want ErrInval", err)
	}
	if _, err := d.Write(l.Handle, 0, []byte("abc")); !errors.Is(err, vfs.ErrInval) {
		t.Errorf("Write(symlink) = %v, want ErrInval", err)
	}
	size := uint64(100)
	if _, err := d.SetAttr(l.Handle, vfs.SetAttr{Size: &size}); !errors.Is(err, vfs.ErrInval) {
		t.Errorf("SetAttr(symlink, size) = %v, want ErrInval", err)
	}
	if a, err := d.GetAttr(l.Handle); err != nil || a.Size != 1 {
		t.Errorf("GetAttr(symlink) size = %d, %v; want 1", a.Size, err)
	}
	if target, err := d.Readlink(l.Handle); err != nil || target != "x" {
		t.Errorf("Readlink = %q, %v", target, err)
	}
}

// TestFailedLoadsLeaveNoState: a read whose file state cannot load — a
// directory, or a handle the store never issued — leaves no entry in the
// per-file state map behind.
func TestFailedLoadsLeaveNoState(t *testing.T) {
	d, _ := newTestFS(t)
	dir, err := d.Mkdir(d.Root(), "d", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, _, err := d.ReadInto(dir.Handle, 0, buf); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("ReadInto(dir) = %v, want ErrIsDir", err)
	}
	for i := range 100 {
		h := vfs.Handle{Ino: uint64(10000 + i), Gen: 1}
		if _, _, err := d.ReadInto(h, 0, buf); err == nil {
			t.Fatalf("ReadInto(unknown handle %d) succeeded", h.Ino)
		}
	}
	d.fmu.Lock()
	n := len(d.files)
	d.fmu.Unlock()
	if n != 0 {
		t.Fatalf("%d file states left after failed loads, want 0", n)
	}
}

// TestPartialReadsAllocateNoChunks: a read that covers part of a chunk
// is a ranged read of the chunk file straight into the caller's
// buffer, so one pass of reads across a synced file costs no chunk-sized
// allocations.
func TestPartialReadsAllocateNoChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts on pooled paths vary under the race detector")
	}
	d, _ := newTestFS(t, WithAvgChunkSize(DefaultAvgChunk))
	h := mkfile(t, d, "f")
	data := randBytes(21, 4<<20)
	writeAt(t, d, h, 0, data)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	const count = 100_000
	dst := make([]byte, count)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for off := 1; off < len(data); off += count {
		n, _, err := d.ReadInto(h, uint64(off), dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst[:n], data[off:off+n]) {
			t.Fatalf("read at %d: content mismatch", off)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(len(data)/16) {
		t.Errorf("one pass of %d-byte reads over a %d-byte file allocated %d bytes, want under %d",
			count, len(data), got, len(data)/16)
	}
}

// TestSyncedAppendsReabsorb: a Sync forces the open tail out as a short
// chunk, and the next append at EOF reads it back from the store and
// re-chunks across it, so appends with a Sync after each converge to
// the cut sequence and bytes of a one-shot write.
func TestSyncedAppendsReabsorb(t *testing.T) {
	d, _ := newTestFS(t)
	data := randBytes(22, 200_000)
	once := mkfile(t, d, "once")
	writeAt(t, d, once, 0, data)
	h := mkfile(t, d, "appended")
	rng := rand.New(rand.NewSource(23))
	for off := 0; off < len(data); {
		n := min(1+rng.Intn(9_000), len(data)-off)
		writeAt(t, d, h, uint64(off), data[off:off+n])
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	for _, f := range []vfs.Handle{once, h} {
		if got := readAll(t, d, f); !bytes.Equal(got, data) {
			t.Fatal("content mismatch")
		}
		checkCuts(t, d, f, data, "synced appends")
	}
	res, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.RefMismatch != 0 || res.MissingChunk != 0 {
		t.Fatalf("verify: %+v", res)
	}
}

func TestConcurrentFiles(t *testing.T) {
	d, _ := newTestFS(t)
	const writers = 6
	shared := randBytes(15, 64_000) // common content so chunks contend
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h, err := d.Create(d.Root(), fmt.Sprintf("w%d", w), 0o644)
			if err != nil {
				errs <- err
				return
			}
			rng := rand.New(rand.NewSource(int64(100 + w)))
			model := append([]byte(nil), shared...)
			if _, err := d.Write(h.Handle, 0, shared); err != nil {
				errs <- err
				return
			}
			for i := 0; i < 30; i++ {
				off := rng.Intn(len(model))
				data := shared[:1+rng.Intn(len(shared)-1)]
				if _, err := d.Write(h.Handle, uint64(off), data); err != nil {
					errs <- err
					return
				}
				if off+len(data) > len(model) {
					model = append(model, make([]byte, off+len(data)-len(model))...)
				}
				copy(model[off:], data)
				got := make([]byte, len(model))
				if _, _, err := d.ReadInto(h.Handle, 0, got); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, model) {
					errs <- fmt.Errorf("writer %d diverged at op %d", w, i)
					return
				}
			}
		}(w)
	}
	// A concurrent syncer and sweeper stress the flush protocol.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				d.Sync()
				d.SweepNow()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(done)
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	res, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.RefMismatch != 0 || res.MissingChunk != 0 {
		t.Fatalf("verify: %+v", res)
	}
}

func TestAttrOverlay(t *testing.T) {
	d, _ := newTestFS(t)
	h := mkfile(t, d, "f")
	data := randBytes(16, 123_456)
	writeAt(t, d, h, 0, data)
	a, err := d.GetAttr(h)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size != uint64(len(data)) {
		t.Fatalf("size %d, want %d", a.Size, len(data))
	}
	if a.Blocks == 0 {
		t.Fatal("zero block count for non-empty file")
	}
	// Lookup sees the same overlay.
	la, err := d.Lookup(d.Root(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if la.Size != a.Size {
		t.Fatalf("Lookup size %d != GetAttr size %d", la.Size, a.Size)
	}
}

// TestTruncateToZeroCommitRemount commits a file whose manifest went
// empty before its first record flush (create → write → truncate to 0 →
// COMMIT). The committed header must decode on remount — a regression
// here used to write a cap-0 header that the mount scan rejected as
// corrupt, failing the remount of the entire filesystem.
func TestTruncateToZeroCommitRemount(t *testing.T) {
	d, backing := newTestFS(t)
	h := mkfile(t, d, "f")
	writeAt(t, d, h, 0, randBytes(41, 20_000))
	var zero uint64
	if _, err := d.SetAttr(h, vfs.SetAttr{Size: &zero}); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Wrap(backing, WithAvgChunkSize(4096), WithSweepInterval(0))
	if err != nil {
		t.Fatalf("remount after committing an empty manifest: %v", err)
	}
	defer d2.Close()
	a, err := d2.Lookup(d2.Root(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if a.Size != 0 {
		t.Fatalf("size %d after truncate-to-zero commit, want 0", a.Size)
	}
	// The file is still fully usable: write, commit, remount again.
	data := randBytes(42, 30_000)
	if _, err := d2.Write(a.Handle, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := Wrap(backing, WithAvgChunkSize(4096), WithSweepInterval(0))
	if err != nil {
		t.Fatalf("second remount: %v", err)
	}
	defer d3.Close()
	a, err = d3.Lookup(d3.Root(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, d3, a.Handle); !bytes.Equal(got, data) {
		t.Fatal("content lost across rewrite of a truncated-to-zero file")
	}
}

// TestRemountAcceptsLegacyEmptyManifest plants the header an older
// build committed for a truncated-to-empty file — valid magic, count 0,
// cap 0 — and checks the mount scan decodes it as an empty manifest
// instead of refusing the mount.
func TestRemountAcceptsLegacyEmptyManifest(t *testing.T) {
	backing := newBacking(t)
	a, err := backing.Create(backing.Root(), "legacy", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [hdrSize]byte
	encodeHeader(hdr[:], 0, emptyLayout())
	if _, err := backing.Write(a.Handle, 0, hdr[:]); err != nil {
		t.Fatal(err)
	}
	d, err := Wrap(backing, WithAvgChunkSize(4096), WithSweepInterval(0))
	if err != nil {
		t.Fatalf("remount with legacy cap-0 empty header: %v", err)
	}
	defer d.Close()
	la, err := d.Lookup(d.Root(), "legacy")
	if err != nil {
		t.Fatal(err)
	}
	if la.Size != 0 {
		t.Fatalf("legacy empty manifest decodes to size %d, want 0", la.Size)
	}
}

// TestSetAttrMtimeOnly restores a timestamp without touching the size
// (the tar/rsync SETATTR shape): both the SETATTR reply and subsequent
// GETATTRs must report the new mtime, not the cached overlay value.
func TestSetAttrMtimeOnly(t *testing.T) {
	d, _ := newTestFS(t)
	h := mkfile(t, d, "f")
	writeAt(t, d, h, 0, randBytes(43, 10_000))
	want := time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC)
	na, err := d.SetAttr(h, vfs.SetAttr{Mtime: &want})
	if err != nil {
		t.Fatal(err)
	}
	if !na.Mtime.Equal(want) {
		t.Fatalf("SETATTR reply mtime %v, want %v", na.Mtime, want)
	}
	ga, err := d.GetAttr(h)
	if err != nil {
		t.Fatal(err)
	}
	if !ga.Mtime.Equal(want) {
		t.Fatalf("GETATTR mtime %v after SETATTR, want %v", ga.Mtime, want)
	}
	// The restored timestamp survives the attribute overlay even with
	// dirty write state on the file.
	writeAt(t, d, h, 0, randBytes(44, 100))
	if _, err := d.SetAttr(h, vfs.SetAttr{Mtime: &want}); err != nil {
		t.Fatal(err)
	}
	if ga, err = d.GetAttr(h); err != nil || !ga.Mtime.Equal(want) {
		t.Fatalf("GETATTR mtime %v (err %v) with dirty state, want %v", ga.Mtime, err, want)
	}
}

// TestWriteRacingRemoveFailsStale replays the Write/Remove race: a
// writer that fetched the fileState before Remove dropped it must fail
// with ErrStale once it gets the lock, instead of pinning chunk refs in
// an orphaned state no Sync or sweep will ever visit.
func TestWriteRacingRemoveFailsStale(t *testing.T) {
	d, _ := newTestFS(t)
	h := mkfile(t, d, "f")
	writeAt(t, d, h, 0, randBytes(45, 20_000))
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	fst, err := d.state(h) // the racing writer's state fetch…
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Remove(d.Root(), "f"); err != nil { // …loses to Remove
		t.Fatal(err)
	}
	fst.mu.Lock()
	werr := d.writeLocked(h, fst, 0, randBytes(46, 8192))
	fst.mu.Unlock()
	if !errors.Is(werr, vfs.ErrStale) {
		t.Fatalf("write into a dropped state: err %v, want ErrStale", werr)
	}
	// Nothing leaked: after a sweep the chunk index agrees exactly with
	// the manifests.
	d.SweepNow()
	res, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.RefMismatch != 0 || res.Orphans != 0 || res.MissingChunk != 0 {
		t.Fatalf("orphaned-state write leaked chunk refs: %+v", res)
	}
}
