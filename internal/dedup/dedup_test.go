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

// effectiveCuts is the file's chunk-length sequence once a sweep has
// chunked its raw suffix: what the reference greedy split must equal.
func effectiveCuts(t *testing.T, d *FS, h vfs.Handle) []int {
	t.Helper()
	d.SweepNow()
	fst, err := d.state(h)
	if err != nil {
		t.Fatal(err)
	}
	fst.mu.RLock()
	defer fst.mu.RUnlock()
	out := make([]int, 0, len(fst.man.ents))
	for _, e := range fst.man.ents {
		out = append(out, int(e.n))
	}
	return out
}

// tailShape reports how many bytes of the file are raw suffix and how
// many chunk records cover the rest.
func tailShape(t *testing.T, d *FS, h vfs.Handle) (raw uint64, chunks int) {
	t.Helper()
	fst, err := d.state(h)
	if err != nil {
		t.Fatal(err)
	}
	fst.mu.RLock()
	defer fst.mu.RUnlock()
	return fst.man.size - fst.man.prefix(), len(fst.man.ents)
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
// write stores once swept: the same chunks, bytes and hits, and the same
// cut sequence. The gaps wait in the raw suffix file as holes; none is
// chunked as zeros for a later WRITE to rewrite. With a Sync after every
// third WRITE, a COMMIT overtakes the WRITE for a gap, which then lands
// on committed bytes: the layer chunks the suffix before rewriting it,
// and once swept the file still stores the in-order chunks and cuts.
func TestOutOfOrderWritesMatchInOrder(t *testing.T) {
	const xfer, windows = 504 << 10, 12
	data := randBytes(21, windows*xfer)
	store := func(order []int, syncEvery int) (Stats, []int) {
		d, _ := newTestFS(t, WithAvgChunkSize(64<<10))
		h := mkfile(t, d, "f")
		for k, i := range order {
			writeAt(t, d, h, uint64(i*xfer), data[i*xfer:(i+1)*xfer])
			if syncEvery > 0 && k%syncEvery == syncEvery-1 {
				if err := d.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, d, h); !bytes.Equal(got, data) {
			t.Fatal("content differs")
		}
		cuts := effectiveCuts(t, d, h)
		return d.Stats(), cuts
	}
	inOrder := make([]int, windows)
	for i := range inOrder {
		inOrder[i] = i
	}
	shuffled := rand.New(rand.NewSource(7)).Perm(windows)
	if shuffled[0] == 0 {
		shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
	}
	want, wantCuts := store(inOrder, 0)
	got, gotCuts := store(shuffled, 0)
	t.Logf("order %v: %d chunks, %d bytes stored, %d hits (in order: %d, %d, %d)",
		shuffled, got.Chunks, got.BytesStored, got.Hits, want.Chunks, want.BytesStored, want.Hits)
	if got.Chunks != want.Chunks || got.BytesStored != want.BytesStored || got.Hits != want.Hits {
		t.Errorf("shuffled WRITEs stored %+v, in-order WRITEs %+v", got, want)
	}
	if !slices.Equal(gotCuts, wantCuts) {
		t.Errorf("shuffled WRITEs cut %d chunks %v, in-order WRITEs %d", len(gotCuts), gotCuts, len(wantCuts))
	}
	got, gotCuts = store(shuffled, 3)
	if got.Chunks != want.Chunks || got.BytesStored != want.BytesStored {
		t.Errorf("shuffled WRITEs with Syncs stored %+v, in-order WRITEs %+v", got, want)
	}
	if !slices.Equal(gotCuts, wantCuts) {
		t.Errorf("shuffled WRITEs with Syncs cut %d chunks %v, in-order WRITEs %d", len(gotCuts), gotCuts, len(wantCuts))
	}
}

// TestHeldHolesAreBounded: a write past EOF holds its gap as a hole in
// the raw suffix file, however far past the chunked prefix it lands: the
// WRITE stores no chunk, holds no pooled buffer and allocates device
// blocks only for its own bytes, the gap reads as zeros, and a sweep
// chunks it as the zeros it reads as.
func TestHeldHolesAreBounded(t *testing.T) {
	d, backing := newTestFS(t)
	used := func() uint64 {
		st, err := backing.StatFS()
		if err != nil {
			t.Fatal(err)
		}
		return st.TotalBlocks - st.FreeBlocks
	}
	h := mkfile(t, d, "f")
	const far = 9 << 20
	blocks, bufs := used(), bufpool.Outstanding()
	writeAt(t, d, h, 1<<20, []byte("a"))
	writeAt(t, d, h, far, []byte("b"))
	if raw, chunks := tailShape(t, d, h); raw != far+1 || chunks != 0 {
		t.Fatalf("two writes past EOF left %d raw bytes and %d chunks, want %d and 0", raw, chunks, far+1)
	}
	if n := used() - blocks; n > 16 {
		t.Errorf("two 1-byte writes past EOF took %d device blocks", n)
	}
	if n := bufpool.Outstanding() - bufs; n != 0 {
		t.Errorf("%d pooled buffers held after the writes returned", n)
	}
	want := make([]byte, far+1)
	want[1<<20], want[far] = 'a', 'b'
	if !bytes.Equal(readAll(t, d, h), want) {
		t.Fatal("content differs before the sweep")
	}
	d.SweepNow()
	if raw, chunks := tailShape(t, d, h); raw != 0 || chunks == 0 {
		t.Fatalf("the sweep left %d raw bytes and %d chunks", raw, chunks)
	}
	if !bytes.Equal(readAll(t, d, h), want) {
		t.Fatal("content differs after the sweep")
	}
}

// TestSyncCountsSettledHoles: a sweep commits a gap as the zeros it
// reads as; the WRITE that arrives for the gap afterwards finds it
// chunked and rewrites it through the overwrite path, converging to the
// cuts of an in-order write, and the next sweep reclaims the zero
// chunks it displaced.
func TestSyncCountsSettledHoles(t *testing.T) {
	d, _ := newTestFS(t)
	h := mkfile(t, d, "f")
	const w = 24 << 10
	data := randBytes(51, 2*w)
	writeAt(t, d, h, w, data[w:])
	d.SweepNow()
	if raw, chunks := tailShape(t, d, h); raw != 0 || chunks == 0 {
		t.Fatalf("the sweep left %d raw bytes and %d chunks: the late WRITE would not take the overwrite path", raw, chunks)
	}
	writeAt(t, d, h, 0, data[:w])
	if raw, _ := tailShape(t, d, h); raw != 0 {
		t.Fatalf("the late WRITE left %d raw bytes", raw)
	}
	if !bytes.Equal(readAll(t, d, h), data) {
		t.Fatal("content differs after the late WRITE")
	}
	checkCuts(t, d, h, data, "late WRITE")
	if res, err := d.Verify(); err != nil || res.Orphans != 0 || res.RefMismatch != 0 {
		t.Errorf("after the sweep: %+v, %v; want the zero chunks reclaimed", res, err)
	}
}

// failingWritesFS fails every backing Write once ok more have
// succeeded (while armed). After a Sync, a sweep's seal writes only
// chunk files, so arming it before SweepNow fails a seal part-way.
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
// of the same seal succeeded fails the sweep and gives back every
// reference the seal took, so the refcounts still match the manifests
// after Sync and the file still reads from its raw suffix; the next
// sweep stores the cuts of a clean write.
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
		t.Fatalf("the seal cuts only %d chunks", n)
	}
	writeAt(t, d, h, 0, data)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	fw.armed, fw.ok = true, 2
	d.SweepNow()
	fw.armed = false
	if raw, chunks := tailShape(t, d, h); raw != xfer || chunks != 0 {
		t.Fatalf("a seal whose third chunk write failed left %d raw bytes and %d chunks", raw, chunks)
	}
	res, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.RefMismatch != 0 || res.MissingChunk != 0 {
		t.Fatalf("verify after the failed seal: %+v", res)
	}
	if !bytes.Equal(readAll(t, d, h), data) {
		t.Fatal("content differs after the failed seal")
	}
	checkCuts(t, d, h, data, "retried seal")
	if res, err := d.Verify(); err != nil || res.RefMismatch != 0 || res.MissingChunk != 0 {
		t.Fatalf("verify after the retry: %+v, %v", res, err)
	}
}

// TestPooledTailsComeBack: a WRITE holds no pooled buffer once it
// returns, in order or shuffled, and the buffers a sweep takes all go
// back by Close.
func TestPooledTailsComeBack(t *testing.T) {
	const xfer, windows = 504 << 10, 12
	data := randBytes(81, windows*xfer)
	start := bufpool.Outstanding()
	d, _ := newTestFS(t, WithAvgChunkSize(64<<10))
	for _, order := range [][]int{rand.New(rand.NewSource(82)).Perm(windows), nil} {
		h := mkfile(t, d, fmt.Sprintf("f%d", len(order)))
		for k := range windows {
			i := k
			if order != nil {
				i = order[k]
			}
			writeAt(t, d, h, uint64(i*xfer), data[i*xfer:(i+1)*xfer])
			if n := bufpool.Outstanding() - start; n != 0 {
				t.Fatalf("WRITE %d holds %d pooled buffers once it returns", k, n)
			}
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		d.SweepNow()
		if !bytes.Equal(readAll(t, d, h), data) {
			t.Fatal("content differs")
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if n := bufpool.Outstanding() - start; n != 0 {
		t.Errorf("%d pooled buffers still out after the sweep and Close", n)
	}
}

// TestWritesStoreNoChunks: a WRITE past the chunked prefix — an append,
// a sparse write past EOF, a rewrite of bytes not yet chunked — stores
// no chunk and holds no pooled buffer once it returns, and a COMMIT
// stores none either; the sweep does.
func TestWritesStoreNoChunks(t *testing.T) {
	d, _ := newTestFS(t)
	h := mkfile(t, d, "f")
	data := randBytes(91, 200_000)
	bufs := bufpool.Outstanding()
	for _, w := range [][2]int{{0, 100_000}, {150_000, 200_000}, {100_000, 150_000}, {20_000, 50_000}} {
		writeAt(t, d, h, uint64(w[0]), data[w[0]:w[1]])
		if s := d.Stats(); s.Chunks != 0 || s.BytesStored != 0 || s.Hits != 0 {
			t.Fatalf("the WRITE of [%d, %d) stored chunks: %+v", w[0], w[1], s)
		}
		if n := bufpool.Outstanding() - bufs; n != 0 {
			t.Fatalf("the WRITE of [%d, %d) holds %d pooled buffers once it returns", w[0], w[1], n)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.Chunks != 0 {
		t.Fatalf("Sync stored %d chunks", s.Chunks)
	}
	checkCuts(t, d, h, data, "swept")
	if s := d.Stats(); s.Chunks == 0 {
		t.Fatal("the sweep stored no chunk")
	}
}

// TestSweepTickLeavesStreamsRaw fires the sweeper's timer tick in the
// middle of a stream whose WRITEs overtake each other, each time while
// a later WRITE has opened a gap an earlier one has yet to fill. The
// tick commits no header of a file written since the previous tick,
// also not while it commits an idle file it swept, so the late WRITE
// does not land on committed raw bytes: nothing is chunked on the WRITE
// path, and the sibling holds the file once. Once the file has been
// idle for a whole tick, a tick sweeps it into the reference split and
// cuts the sibling to nothing.
func TestSweepTickLeavesStreamsRaw(t *testing.T) {
	d, backing := newTestFS(t)
	idle := mkfile(t, d, "idle")
	writeAt(t, d, idle, 0, randBytes(94, 50_000)) // swept by the second tick
	h := mkfile(t, d, "f")
	const w, n = 16 << 10, 16
	data := randBytes(95, n*w)
	for i := 0; i < n; i += 2 {
		writeAt(t, d, h, uint64(i+1)*w, data[(i+1)*w:(i+2)*w]) // WRITE i+1 overtakes WRITE i
		if i%4 == 2 {
			d.sweepOnce(false, false) // the timer tick, with the gap open
		}
		writeAt(t, d, h, uint64(i)*w, data[i*w:(i+1)*w])
		if raw, _ := tailShape(t, d, h); raw != uint64(i+2)*w {
			t.Fatalf("windows %d and %d: %d bytes left raw, want %d: the late WRITE was chunked", i+1, i, raw, (i+2)*w)
		}
	}
	if raw, chunks := tailShape(t, d, idle); raw != 0 || chunks == 0 {
		t.Fatalf("the idle file is still raw (%d bytes, %d records) after two ticks", raw, chunks)
	}
	if err := d.Sync(); err != nil { // the client's COMMIT at close
		t.Fatal(err)
	}
	sib := func() uint64 {
		t.Helper()
		dir, err := d.raw.dir(byte(h.Ino))
		if err != nil {
			t.Fatal(err)
		}
		a, err := backing.Lookup(dir, rawFileName(h))
		if err != nil {
			t.Fatal(err)
		}
		return a.Size
	}
	if raw, chunks := tailShape(t, d, h); raw != n*w || chunks != 0 || sib() != n*w {
		t.Fatalf("after the stream: %d raw bytes, %d records, a %d-byte sibling; want all %d bytes raw, once", raw, chunks, sib(), n*w)
	}
	d.sweepOnce(false, false)
	if raw, _ := tailShape(t, d, h); raw != n*w {
		t.Fatalf("a tick swept a file written since the previous one (%d raw bytes left)", raw)
	}
	d.sweepOnce(false, false)
	if raw, chunks := tailShape(t, d, h); raw != 0 || chunks == 0 || sib() != 0 {
		t.Fatalf("the idle file's tick left %d raw bytes, %d records, a %d-byte sibling", raw, chunks, sib())
	}
	if !bytes.Equal(readAll(t, d, h), data) {
		t.Fatal("content differs after the sweep")
	}
	checkCuts(t, d, h, data, "ticked")
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
		case 2: // sparse write past EOF: it never chunks
			off := len(model) + rng.Intn(20_000)
			data := randBytes(rng.Int63(), 1+rng.Intn(10_000))
			_, before := tailShape(t, d, h)
			writeAt(t, d, h, uint64(off), data)
			if _, after := tailShape(t, d, h); after != before {
				t.Fatalf("op %d: a write past EOF changed the chunk records %d -> %d", op, before, after)
			}
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
		if op%50 == 0 {
			d.SweepNow()
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
	d.SweepNow()
	before := d.Stats()
	h2 := mkfile(t, d, "b")
	writeAt(t, d, h2, 0, data)
	d.SweepNow()
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
	h := mkfile(t, d, "f")
	writeAt(t, d, h, 0, []byte("raw suffix")) // makes .raw hold a file
	for _, name := range []string{chunksName, rawName} {
		if _, err := d.Lookup(d.Root(), name); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("Lookup(%s) = %v, want ErrNotExist", name, err)
		}
		ents, err := d.ReadDir(d.Root())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.Name == name {
				t.Fatalf("%s visible in ReadDir", name)
			}
		}
		if _, err := d.Create(d.Root(), name, 0o644); !errors.Is(err, vfs.ErrPerm) {
			t.Fatalf("Create(%s) = %v, want ErrPerm", name, err)
		}
		if _, err := d.Mkdir(d.Root(), name, 0o755); !errors.Is(err, vfs.ErrPerm) {
			t.Fatalf("Mkdir(%s) = %v, want ErrPerm", name, err)
		}
		if err := d.Remove(d.Root(), name); !errors.Is(err, vfs.ErrPerm) {
			t.Fatalf("Remove(%s) = %v, want ErrPerm", name, err)
		}
		if err := d.Rename(d.Root(), "f", d.Root(), name); !errors.Is(err, vfs.ErrPerm) {
			t.Fatalf("Rename(-> %s) = %v, want ErrPerm", name, err)
		}
	}
	// Deeper directories may use the names freely.
	sub, err := d.Mkdir(d.Root(), "dir", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{chunksName, rawName} {
		if _, err := d.Create(sub.Handle, name, 0o644); err != nil {
			t.Fatalf("Create(dir/%s) = %v", name, err)
		}
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
	d.SweepNow()
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
// buffer, so one pass of reads across a swept file costs no chunk-sized
// allocations.
func TestPartialReadsAllocateNoChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts on pooled paths vary under the race detector")
	}
	d, _ := newTestFS(t, WithAvgChunkSize(DefaultAvgChunk))
	h := mkfile(t, d, "f")
	data := randBytes(21, 4<<20)
	writeAt(t, d, h, 0, data)
	d.SweepNow()
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

// TestSyncedAppendsReabsorb: a sweep chunks the raw suffix with a short
// last chunk cut by force, and the next sweep reads that chunk back from
// the store and rescans it with the bytes appended since, so appends
// with a sweep after each converge to the cut sequence and bytes of a
// one-shot write.
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
		d.SweepNow()
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

// TestOverwriteEndingOnMaxCutKeepsTheRest: an overwrite whose region
// ends exactly on a maximum-size cut that is no old chunk boundary —
// here a run of zeros, which has no content cut — must still re-chunk
// on into the following chunks instead of dropping them.
func TestOverwriteEndingOnMaxCutKeepsTheRest(t *testing.T) {
	d, _ := newTestFS(t)
	h := mkfile(t, d, "f")
	data := randBytes(5, 100_000)
	writeAt(t, d, h, 0, data)
	d.SweepNow()
	fst, err := d.state(h)
	if err != nil {
		t.Fatal(err)
	}
	fst.mu.RLock()
	start := fst.man.offs[2]
	fst.mu.RUnlock()
	zeros := make([]byte, d.p.Max)
	writeAt(t, d, h, start, zeros)
	copy(data[start:], zeros)
	if !bytes.Equal(readAll(t, d, h), data) {
		t.Fatal("content differs after the overwrite")
	}
	checkCuts(t, d, h, data, "overwrite")
}

// TestSweepRacesWriters runs a looping sweep (with Syncs between)
// against an appender, an overwriter that also truncates, a reader of a
// file nobody writes and a writer that removes each file it makes. Each
// checks what it reads against its own model of the file; at the end
// the refcounts agree with the manifests and nothing is orphaned.
func TestSweepRacesWriters(t *testing.T) {
	d, _ := newTestFS(t)
	const rounds = 60
	fixed := randBytes(101, 150_000)
	fh := mkfile(t, d, "fixed")
	writeAt(t, d, fh, 0, fixed)
	check := func(h vfs.Handle, model []byte) error {
		got := make([]byte, len(model)+1)
		n, _, err := d.ReadInto(h, 0, got)
		if err != nil {
			return err
		}
		if !bytes.Equal(got[:n], model) {
			return fmt.Errorf("read %d bytes that differ from the model's %d", n, len(model))
		}
		return nil
	}
	create := func(name string) (vfs.Handle, error) {
		a, err := d.Create(d.Root(), name, 0o644)
		return a.Handle, err
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	run := func(name string, seed int64, body func(rng *rand.Rand) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := body(rand.New(rand.NewSource(seed))); err != nil {
				errs <- fmt.Errorf("%s: %w", name, err)
			}
		}()
	}
	run("appender", 1, func(rng *rand.Rand) error {
		h, err := create("append")
		if err != nil {
			return err
		}
		var model []byte
		for range rounds {
			data := randBytes(rng.Int63(), 1+rng.Intn(20_000))
			if _, err := d.Write(h, uint64(len(model)), data); err != nil {
				return err
			}
			model = append(model, data...)
			if err := check(h, model); err != nil {
				return err
			}
		}
		return nil
	})
	run("overwriter", 2, func(rng *rand.Rand) error {
		h, err := create("overwrite")
		if err != nil {
			return err
		}
		model := randBytes(102, 120_000)
		if _, err := d.Write(h, 0, model); err != nil {
			return err
		}
		for i := range rounds {
			if i%7 == 6 {
				n := rng.Intn(len(model) + 20_000)
				sz := uint64(n)
				if _, err := d.SetAttr(h, vfs.SetAttr{Size: &sz}); err != nil {
					return err
				}
				model = append(model[:min(n, len(model))], make([]byte, max(0, n-len(model)))...)
			} else {
				off := rng.Intn(len(model) + 1)
				data := randBytes(rng.Int63(), 1+rng.Intn(15_000))
				if _, err := d.Write(h, uint64(off), data); err != nil {
					return err
				}
				if end := off + len(data); end > len(model) {
					model = append(model, make([]byte, end-len(model))...)
				}
				copy(model[off:], data)
			}
			if err := check(h, model); err != nil {
				return err
			}
		}
		return nil
	})
	run("reader", 3, func(rng *rand.Rand) error {
		buf := make([]byte, 30_000)
		for range 4 * rounds {
			off := rng.Intn(len(fixed))
			n, _, err := d.ReadInto(fh, uint64(off), buf)
			if err != nil {
				return err
			}
			if !bytes.Equal(buf[:n], fixed[off:min(off+len(buf), len(fixed))]) {
				return fmt.Errorf("read at %d differs", off)
			}
		}
		return nil
	})
	run("remover", 4, func(rng *rand.Rand) error {
		for i := range rounds / 4 {
			name := fmt.Sprintf("tmp%d", i)
			h, err := create(name)
			if err != nil {
				return err
			}
			data := randBytes(rng.Int63(), 1+rng.Intn(40_000))
			if _, err := d.Write(h, 0, data); err != nil {
				return err
			}
			if err := check(h, data); err != nil {
				return err
			}
			if err := d.Remove(d.Root(), name); err != nil {
				return err
			}
		}
		return nil
	})
	done := make(chan struct{})
	var sweeper sync.WaitGroup
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		for {
			select {
			case <-done:
				return
			default:
				d.SweepNow()
				d.Sync()
			}
		}
	}()
	wg.Wait()
	close(done)
	sweeper.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	d.SweepNow()
	res, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.RefMismatch != 0 || res.MissingChunk != 0 || res.Orphans != 0 {
		t.Fatalf("verify: %+v", res)
	}
	if err := check(fh, fixed); err != nil {
		t.Fatal(err)
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
	encodeHeader(hdr[:], 0, 0, emptyLayout())
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
