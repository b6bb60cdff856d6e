package core

// Tests of the page cache's I/O shape — which READ and WRITE RPCs a
// given access pattern costs — and of its eviction policy, counted at
// the server's backing store: without server write-behind every READ
// and WRITE RPC is exactly one Read or Write call there.

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"discfs/internal/bufpool"
	"discfs/internal/ffs"
	"discfs/internal/keynote"
	"discfs/internal/vfs"
)

// ioExtent is one READ's requested range or one WRITE's payload range.
type ioExtent struct {
	off uint64
	n   int
}

// ioLog is a vfs.FS that records the data operations reaching it. It
// deliberately does not forward vfs.ReaderInto, so the server's READs
// arrive as Read calls carrying the count the client asked for.
type ioLog struct {
	vfs.FS
	mu     sync.Mutex
	reads  []ioExtent
	writes []ioExtent
}

func (l *ioLog) Read(h vfs.Handle, off uint64, count uint32) ([]byte, bool, error) {
	l.mu.Lock()
	l.reads = append(l.reads, ioExtent{off, int(count)})
	l.mu.Unlock()
	return l.FS.Read(h, off, count)
}

func (l *ioLog) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	l.mu.Lock()
	l.writes = append(l.writes, ioExtent{off, len(data)})
	l.mu.Unlock()
	return l.FS.Write(h, off, data)
}

// take returns and clears what was recorded since the last call.
func (l *ioLog) take() (reads, writes []ioExtent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	reads, writes = l.reads, l.writes
	l.reads, l.writes = nil, nil
	return reads, writes
}

func (l *ioLog) nReads() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.reads)
}

// loggedServer serves an ffs of the given size through an ioLog and
// dials one administrator client.
func loggedServer(t *testing.T, blocks uint32) (*ioLog, *Client) {
	t.Helper()
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	log := &ioLog{FS: backing}
	_, addr := testServer(t, ServerConfig{Backing: log, ServerKey: keynote.DeterministicKey("shape-admin")})
	return log, dialAs(t, addr, "shape-admin")
}

// seedFile stores size patterned bytes at path without going through
// the data cache, and returns them.
func seedFile(t *testing.T, c *Client, path string, size int) []byte {
	t.Helper()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*7 + i>>13)
	}
	if _, _, err := c.WriteFile(context.Background(), path, data); err != nil {
		t.Fatal(err)
	}
	return data
}

func openFile(t *testing.T, c *Client, path string, flag int) *File {
	t.Helper()
	f, err := c.Open(context.Background(), path, flag)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestRandomReadMissFetchesOnePage(t *testing.T) {
	log, c := loggedServer(t, 16384)
	data := seedFile(t, c, "/f", 4<<20)
	f := openFile(t, c, "/f", os.O_RDONLY)
	log.take()

	const off = 37 * pageSize
	buf := make([]byte, pageSize)
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[off:off+pageSize]) {
		t.Fatal("wrong bytes")
	}
	reads, _ := log.take()
	if len(reads) != 1 || reads[0] != (ioExtent{off, pageSize}) {
		t.Fatalf("READs = %v, want one of %d bytes at %d", reads, pageSize, off)
	}
	// The page is resident now.
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	if reads, _ := log.take(); len(reads) != 0 {
		t.Fatalf("re-read cost READs %v", reads)
	}
}

func TestWholePageWriteFetchesNothing(t *testing.T) {
	log, c := loggedServer(t, 16384)
	seedFile(t, c, "/f", 4<<20)
	f := openFile(t, c, "/f", os.O_RDWR)
	log.take()

	const off = 91 * pageSize
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xC3}, pageSize), off); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	reads, writes := log.take()
	if len(reads) != 0 {
		t.Errorf("READs = %v, want none", reads)
	}
	if len(writes) != 1 || writes[0] != (ioExtent{off, pageSize}) {
		t.Errorf("WRITEs = %v, want one of %d bytes at %d", writes, pageSize, off)
	}
}

func TestPartialPageWriteFetchesOnePage(t *testing.T) {
	log, c := loggedServer(t, 16384)
	data := seedFile(t, c, "/f", 4<<20)
	f := openFile(t, c, "/f", os.O_RDWR)
	log.take()

	const off = 55*pageSize + 1000
	patch := bytes.Repeat([]byte{0x5A}, 100)
	if _, err := f.WriteAt(patch, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	reads, _ := log.take()
	if len(reads) != 1 || reads[0] != (ioExtent{55 * pageSize, pageSize}) {
		t.Fatalf("READs = %v, want one page at %d", reads, 55*pageSize)
	}
	copy(data[off:], patch)
	c2 := dialAs(t, c.shards[0].addr, "shape-admin")
	got, err := c2.ReadFile(context.Background(), "/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-modify-write lost bytes around the patch")
	}
}

func TestSmallFileReadToEOFIsOneRead(t *testing.T) {
	log, c := loggedServer(t, 16384)
	data := seedFile(t, c, "/f", 12<<10)
	f := openFile(t, c, "/f", os.O_RDONLY)
	log.take()

	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("wrong bytes")
	}
	if reads, _ := log.take(); len(reads) != 1 {
		t.Fatalf("READs = %v, want exactly one", reads)
	}
}

// wantWindows checks that what reached the store is one transfer per
// cluster window of a size-byte file: xfer-aligned offsets, xfer bytes
// each, the last one ending with the file (the server clips a READ's
// count to it).
func wantWindows(t *testing.T, kind string, got []ioExtent, size, xfer int) {
	t.Helper()
	windows := (size + xfer - 1) / xfer
	if len(got) != windows {
		t.Errorf("%d %ss, want %d: %v", len(got), kind, windows, got)
		return
	}
	seen := make(map[uint64]bool)
	for _, e := range got {
		want := min(xfer, size-int(e.off))
		if e.off%uint64(xfer) != 0 || e.n != want || seen[e.off] {
			t.Errorf("%s of %d bytes at %d: want each window once, whole and aligned (xfer %d)", kind, e.n, e.off, xfer)
		}
		seen[e.off] = true
	}
}

func TestSequentialIOMovesWholeWindows(t *testing.T) {
	log, c := loggedServer(t, 16384)
	xfer := c.MaxTransfer()
	const size = 2 << 20

	// 8 KiB application writes, then the barrier.
	f := openFile(t, c, "/f", os.O_CREATE|os.O_RDWR)
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	log.take()
	start := time.Now()
	for off := 0; off < size; off += pageSize {
		if _, err := f.Write(data[off : off+pageSize]); err != nil {
			t.Fatal(err)
		}
	}
	stalled := time.Since(start) > partialFlushDelay/2
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if stalled {
		// The window a writer is filling is only held for
		// partialFlushDelay; a starved writer legitimately sees it split.
		t.Skip("host too slow: the writer may have outlasted the coalescing hold")
	}
	reads, writes := log.take()
	if len(reads) != 0 {
		t.Errorf("sequential write cost READs %v", reads)
	}
	wantWindows(t, "WRITE", writes, size, xfer)
	f.Close()

	// 1 MiB application reads by a client that has nothing cached.
	c2 := dialAs(t, c.shards[0].addr, "shape-admin")
	f2 := openFile(t, c2, "/f", os.O_RDONLY)
	log.take()
	got := make([]byte, 0, size)
	buf := make([]byte, 1<<20)
	for {
		n, err := f2.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			break
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back wrong bytes")
	}
	reads, _ = log.take()
	wantWindows(t, "READ", reads, size, xfer)
}

// TestHolesReadAsZerosWithoutRPC: a read spanning a resident page, a
// hole the server does not back, and a page written locally returns
// zeros for exactly the hole and fetches nothing.
func TestHolesReadAsZerosWithoutRPC(t *testing.T) {
	log, c := loggedServer(t, 16384)
	f := openFile(t, c, "/f", os.O_CREATE|os.O_RDWR)
	ones := bytes.Repeat([]byte{1}, pageSize)
	if _, err := f.WriteAt(ones, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ones[:100], 3*pageSize+50); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 3*pageSize+150)
	copy(want, ones)
	copy(want[3*pageSize+50:], ones[:100])
	got := bytes.Repeat([]byte{0xEE}, len(want)+500) // stale bytes the read must overwrite
	n, err := f.ReadAt(got, 0)
	if n != len(want) || err != io.EOF {
		t.Fatalf("ReadAt = %d, %v; want %d, EOF", n, err, len(want))
	}
	if !bytes.Equal(got[:n], want) {
		t.Fatal("hole bytes are not zeros")
	}
	if reads, _ := log.take(); len(reads) != 0 {
		t.Fatalf("hole read cost READs %v", reads)
	}
}

// TestScanDoesNotEvictHotSet: a hot set of half the cache cap stays
// resident while uniform reads over four times the cap stream through —
// second chance protects what is re-read; arbitrary victims did not.
func TestScanDoesNotEvictHotSet(t *testing.T) {
	log, c := loggedServer(t, 32768)
	const (
		capPages  = maxCachedBytes / pageSize
		hotPages  = capPages / 2
		filePages = 4 * capPages
	)
	// Sparse: what the pages hold does not matter here.
	f := openFile(t, c, "/f", os.O_CREATE|os.O_RDWR)
	if err := f.Truncate(filePages * pageSize); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	buf := make([]byte, pageSize)
	var hotReads, hotMisses int
	step := func(count bool) {
		hot := rng.Intn(100) < 80
		pg := rng.Intn(filePages)
		if hot {
			pg = rng.Intn(hotPages)
		}
		before := log.nReads()
		if _, err := f.ReadAt(buf, int64(pg)*pageSize); err != nil {
			t.Fatal(err)
		}
		if hot && count {
			hotReads++
			if log.nReads() != before {
				hotMisses++
			}
		}
	}
	for i := 0; i < 20000; i++ {
		step(false)
	}
	for i := 0; i < 20000; i++ {
		step(true)
	}
	ratio := 1 - float64(hotMisses)/float64(hotReads)
	t.Logf("hot set: %d reads, %d misses, hit ratio %.4f", hotReads, hotMisses, ratio)
	if ratio < 0.95 {
		t.Errorf("hot-set hit ratio %.3f, want >= 0.95", ratio)
	}
}

// waitBaseline polls until the process is back to the goroutine count
// and pooled-buffer balance it started from (teardown is asynchronous:
// flush workers and connection readers exit on their own).
func waitBaseline(t *testing.T, goroutines int, outstanding int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g, o := runtime.NumGoroutine(), bufpool.Outstanding()
		if g <= goroutines && o <= outstanding {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after teardown: %d goroutines (baseline %d), %d pooled buffers outstanding (baseline %d)",
				g, goroutines, o, outstanding)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClosedClientHoldsNoPooledBuffers: cached data must not keep reply
// records checked out of the buffer pool — after every kind of fetch and
// flush, closing the client (and server) leaves nothing outstanding.
func TestClosedClientHoldsNoPooledBuffers(t *testing.T) {
	ctx := context.Background()
	goroutines, outstanding := runtime.NumGoroutine(), bufpool.Outstanding()
	srv, addr := testServer(t, ServerConfig{ServerKey: keynote.DeterministicKey("pool-admin"), WriteBehind: true})
	c := dialAs(t, addr, "pool-admin")
	data := seedFile(t, c, "/f", 3<<20)
	f, err := c.Open(ctx, "/f", os.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	// Page-sized fetches, a read-modify-write, then window-sized fetches
	// with readahead, and the flush.
	buf := make([]byte, pageSize)
	for _, pg := range []int64{300, 17, 211} {
		if _, err := f.ReadAt(buf, pg*pageSize); err != nil {
			t.Fatal(err)
		}
	}
	patch := []byte("patch")
	if _, err := f.WriteAt(patch, 100*pageSize+9); err != nil {
		t.Fatal(err)
	}
	copy(data[100*pageSize+9:], patch)
	if got, err := io.ReadAll(f); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("sequential read: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Close()
	waitBaseline(t, goroutines, outstanding)
}
