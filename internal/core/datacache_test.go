package core

// Tests of the page cache's I/O shape — which READ and WRITE RPCs a
// given access pattern costs — and of its eviction policy, counted at
// the server's backing store, where every READ RPC is exactly one Read
// call and every flushed run (one extent of a WRITEEXTENTS call) one
// Write call.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"discfs/internal/bufpool"
	"discfs/internal/ffs"
	"discfs/internal/keynote"
	"discfs/internal/nfs"
	"discfs/internal/secchan"
	"discfs/internal/vfs"
)

// ioExtent is one READ's requested range or one WRITE's payload range.
type ioExtent struct {
	off uint64
	n   int
}

// ioLog is a vfs.FS that records the data operations reaching it: a
// server READ arrives as one ReadInto whose buffer is the reply's data
// window.
type ioLog struct {
	vfs.FS
	mu     sync.Mutex
	reads  []ioExtent
	writes []ioExtent
}

func (l *ioLog) ReadInto(h vfs.Handle, off uint64, dst []byte) (int, bool, error) {
	l.mu.Lock()
	l.reads = append(l.reads, ioExtent{off, len(dst)})
	l.mu.Unlock()
	return l.FS.ReadInto(h, off, dst)
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

// seedFile stores size patterned bytes at path through another client
// (see writeAside), and returns them.
func seedFile(t *testing.T, c *Client, path string, size int) []byte {
	t.Helper()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*7 + i>>13)
	}
	writeAside(t, c, path, data)
	return data
}

// writeAside writes data at path through a second client of c's
// identity on c's primary server, closed before it returns, so c's own
// caches stay cold: c first sees the file when it opens it.
func writeAside(t *testing.T, c *Client, path string, data []byte) vfs.Attr {
	t.Helper()
	ctx := context.Background()
	w, err := Dial(ctx, c.shards[0].addr, c.identity)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	attr, _, err := w.WriteFile(ctx, path, data)
	if err != nil {
		t.Fatal(err)
	}
	return attr
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

	off := int64(c.MaxTransfer()) + 37*pageSize // past window 0, which the open brought in
	buf := make([]byte, pageSize)
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[off:off+pageSize]) {
		t.Fatal("wrong bytes")
	}
	reads, _ := log.take()
	if len(reads) != 1 || reads[0] != (ioExtent{uint64(off), pageSize}) {
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

	pg := uint64(c.MaxTransfer()/pageSize + 55) // past window 0, which the open brought in
	off := pg*pageSize + 1000
	patch := bytes.Repeat([]byte{0x5A}, 100)
	if _, err := f.WriteAt(patch, int64(off)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	reads, _ := log.take()
	if len(reads) != 1 || reads[0] != (ioExtent{pg * pageSize, pageSize}) {
		t.Fatalf("READs = %v, want one page at %d", reads, pg*pageSize)
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
	log.take()
	f := openFile(t, c, "/f", os.O_RDONLY)

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

	// 1 MiB application reads by a client that has nothing cached; the
	// open brings in window 0.
	c2 := dialAs(t, c.shards[0].addr, "shape-admin")
	log.take()
	f2 := openFile(t, c2, "/f", os.O_RDONLY)
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

// readGate is a vfs.FS whose reads reach the store through ReadInto, the
// server's zero-copy path, and are recorded with the peak of concurrent
// ones. Two ways to hold them:
//   - holdUntil(n) keeps each read waiting, for up to holdWait, until n
//     are in flight at once, so the peak measures how many READs a
//     reader keeps outstanding rather than how fast the store answers;
//   - stallNext makes the next read, once it has read the store, wait to
//     return until released: its reply is then older than whatever the
//     client does meanwhile.
type readGate struct {
	vfs.FS
	arrived  chan struct{} // a read came in since the last take
	mu       sync.Mutex
	reads    []ioExtent
	inflight int
	peak     int
	hold     int
	full     chan struct{} // closed once the peak reaches hold
	stalled  chan struct{}
	release  chan struct{}
}

const holdWait = 200 * time.Millisecond

func (g *readGate) ReadInto(h vfs.Handle, off uint64, dst []byte) (int, bool, error) {
	g.mu.Lock()
	g.reads = append(g.reads, ioExtent{off, len(dst)})
	g.inflight++
	g.peak = max(g.peak, g.inflight)
	if g.full != nil && g.peak >= g.hold {
		close(g.full)
		g.full = nil
	}
	full, stalled, release := g.full, g.stalled, g.release
	g.stalled = nil
	g.mu.Unlock()
	select {
	case g.arrived <- struct{}{}:
	default:
	}
	if full != nil {
		select {
		case <-full:
		case <-time.After(holdWait):
		}
	}
	n, eof, err := g.FS.ReadInto(h, off, dst)
	if stalled != nil {
		close(stalled)
		<-release
	}
	g.mu.Lock()
	g.inflight--
	g.mu.Unlock()
	return n, eof, err
}

func (g *readGate) holdUntil(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hold, g.full = n, make(chan struct{})
}

// stallNext arms the stall: stalled closes once the next read has read
// the store, and it returns when release is closed.
func (g *readGate) stallNext() (stalled, release chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.stalled, g.release = make(chan struct{}), make(chan struct{})
	return g.stalled, g.release
}

// take returns and clears the reads recorded since the last call, with
// their peak concurrency.
func (g *readGate) take() (reads []ioExtent, peak int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-g.arrived:
	default:
	}
	reads, peak = g.reads, g.peak
	g.reads, g.peak = nil, g.inflight
	return reads, peak
}

// awaitRead waits up to d for a read to reach the store since the last
// take.
func (g *readGate) awaitRead(d time.Duration) {
	select {
	case <-g.arrived:
	case <-time.After(d):
	}
}

// gatedServer serves a 64 MiB ffs through a readGate and dials one
// administrator client.
func gatedServer(t *testing.T) (*readGate, *Server, *Client) {
	t.Helper()
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 16384})
	if err != nil {
		t.Fatal(err)
	}
	g := &readGate{FS: backing, arrived: make(chan struct{}, 1)}
	srv, addr := testServer(t, ServerConfig{Backing: g, ServerKey: keynote.DeterministicKey("shape-admin")})
	return g, srv, dialAs(t, addr, "shape-admin")
}

// settleReads waits until none of f's fetches, readahead included, is in
// flight.
func settleReads(t *testing.T, f *File) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		f.dc.mu.Lock()
		n := f.dc.nFetching
		f.dc.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d fetches still in flight", n)
		}
	}
}

// TestSequentialReaderKeepsEveryConnectionBusy: a 1 MiB sequential reader
// of a 16 MiB file at the default grant moves every window exactly once,
// whole, aligned and none past EOF — and keeps the shard's one connection
// busy: maxDataRPCs READs pipeline over it, so the store sees that many
// at once (a fixed two-window readahead never let it see more than three:
// each 1 MiB read ended in a demand READ). Closing everything returns
// every pooled buffer the deep readahead held.
func TestSequentialReaderKeepsEveryConnectionBusy(t *testing.T) {
	goroutines, outstanding := runtime.NumGoroutine(), bufpool.Outstanding()
	gate, srv, c := gatedServer(t)
	xfer := c.MaxTransfer()
	const size = 16 << 20
	data := seedFile(t, c, "/f", size)
	gate.take()
	f, err := c.Open(context.Background(), "/f", os.O_RDONLY) // brings in window 0
	if err != nil {
		t.Fatal(err)
	}
	gate.holdUntil(maxDataRPCs)
	got := make([]byte, 0, size)
	buf := make([]byte, 1<<20)
	for {
		n, err := f.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			break
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back wrong bytes")
	}
	settleReads(t, f)
	reads, peak := gate.take()
	wantWindows(t, "READ", reads, size, xfer)
	for _, e := range reads {
		if e.off >= size {
			t.Errorf("READ at %d, past EOF %d", e.off, size)
		}
	}
	if peak < maxDataRPCs {
		t.Errorf("at most %d READs reached the store at once over the one connection, want %d", peak, maxDataRPCs)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Close()
	waitBaseline(t, goroutines, outstanding)
}

// TestOneHandshakePerShard: a client keeps one secure channel per shard
// and sends every RPC over it, data and metadata alike. Streaming 16 MiB
// out through write-behind and back through sequential readahead — the
// traffic that keeps maxDataRPCs WRITEs and READs in flight — completes
// exactly one server-side handshake per shard, counted from before Dial.
func TestOneHandshakePerShard(t *testing.T) {
	const size = 16 << 20
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*7 + i>>13)
	}
	stream := func(t *testing.T, c *Client, path string) {
		t.Helper()
		ctx := context.Background()
		f, err := c.Open(ctx, path, os.O_CREATE|os.O_RDWR)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < size; off += 1 << 20 {
			if _, err := f.Write(data[off : off+1<<20]); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if f, err = c.Open(ctx, path, os.O_RDONLY); err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		got, err := io.ReadAll(io.LimitReader(f, size+1))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s read back %d bytes (err %v), want the %d written", path, len(got), err, size)
		}
	}
	handshakes := func() uint64 { return secchan.ReadStats().Handshakes }

	t.Run("single", func(t *testing.T) {
		_, addr := testServer(t, ServerConfig{ServerKey: keynote.DeterministicKey("hs-admin")})
		before := handshakes()
		c := dialAs(t, addr, "hs-admin")
		stream(t, c, "/f")
		if n := handshakes() - before; n != 1 {
			t.Errorf("%d handshakes for one shard, want 1", n)
		}
	})
	t.Run("federated", func(t *testing.T) {
		srvs, addrs := fedCluster(t, 3)
		chain := grantAll(t, srvs, keynote.DeterministicKey("bob").Principal)
		before := handshakes()
		c := fedDial(t, addrs, "bob")
		if _, err := c.SubmitCredentialText(context.Background(), chain); err != nil {
			t.Fatal(err)
		}
		streamed := make(map[int]bool)
		for i := 0; len(streamed) < len(srvs); i++ {
			name := fmt.Sprintf("f%d", i)
			if id := c.table.Owner(name); !streamed[id] {
				streamed[id] = true
				stream(t, c, "/data/"+name)
			}
		}
		if n := handshakes() - before; n != uint64(len(srvs)) {
			t.Errorf("%d handshakes for %d shards, want %d", n, len(srvs), len(srvs))
		}
	})
}

// TestReadaheadRamp: how far a sequential stream reads ahead, as the
// furthest window each read makes the client fetch. The first sequential
// read goes two windows ahead, each further one doubles that up to the
// cap, and a read out of sequence drops it back: the next sequential
// read starts again at two. The cap is eight windows both at the default
// grant and at the 8 KiB one, where that is the same 64 KiB as a fixed
// readahead gave.
func TestReadaheadRamp(t *testing.T) {
	for _, tc := range []struct {
		name  string
		grant int
	}{
		{"defaultGrant", 0},
		{"pageGrant", pageSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate, _, c := gatedServer(t)
			if tc.grant != 0 {
				runAtGrant(c, tc.grant)
			}
			xfer := c.MaxTransfer()
			seedFile(t, c, "/f", 40*xfer)
			f := openFile(t, c, "/f", os.O_RDONLY)
			gate.take()
			// furthest reads n bytes at off and returns the last window
			// the client fetched for it, readahead included.
			furthest := func(off, n int) int {
				t.Helper()
				if _, err := f.ReadAt(make([]byte, n), int64(off)); err != nil {
					t.Fatal(err)
				}
				settleReads(t, f)
				reads, _ := gate.take()
				last := -1
				for _, e := range reads {
					last = max(last, int(e.off)/xfer)
				}
				return last
			}
			for i, want := range []int{0 + 2, 1 + 4, 2 + 8, 3 + 8} {
				if got := furthest(i*xfer, xfer); got != want {
					t.Errorf("sequential read %d of window %d fetched through window %d, want %d", i+1, i, got, want)
				}
			}
			// Out of sequence: the last page of window 20, and no readahead.
			off := 21*xfer - pageSize
			if got := furthest(off, pageSize); got != 20 {
				t.Errorf("out-of-sequence read fetched through window %d, want 20", got)
			}
			if got := furthest(off+pageSize, xfer); got != 21+2 {
				t.Errorf("sequential read after it fetched through window %d, want %d", got, 21+2)
			}
		})
	}
}

// TestReadDoesNotUndoOwnWrite: a window fetch reads the server, then its
// reply is held up. Meanwhile the client overwrites a page of that
// window, flushes and commits it, and evicts it. A read of that page must
// return the write — neither the held-up reply installed when it lands
// nor a read that joins it while it is in flight may serve the bytes the
// write replaced.
func TestReadDoesNotUndoOwnWrite(t *testing.T) {
	for _, joined := range []bool{false, true} {
		name := "installed"
		if joined {
			name = "joined"
		}
		t.Run(name, func(t *testing.T) {
			gate, _, c := gatedServer(t)
			seedFile(t, c, "/f", 2<<20)
			f := openFile(t, c, "/f", os.O_RDWR) // brings in window 0
			stalled, release := gate.stallNext()
			first := make(chan error, 1)
			go func() {
				_, err := f.ReadAt(make([]byte, c.MaxTransfer()), int64(c.MaxTransfer())) // all of window 1
				first <- err
			}()
			<-stalled
			pg := f.dc.perWin + 5
			mine := bytes.Repeat([]byte{0xA7}, pageSize)
			if _, err := f.WriteAt(mine, pg*pageSize); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			// Evict the now clean page: a one-page cache, and a miss far off.
			f.dc.mu.Lock()
			f.dc.maxPages = 1
			f.dc.mu.Unlock()
			if _, err := f.ReadAt(make([]byte, pageSize), 200*pageSize); err != nil {
				t.Fatal(err)
			}
			f.dc.mu.Lock()
			f.dc.maxPages = maxCachedBytes / pageSize
			evicted := f.dc.lookupLocked(pg) == nil
			f.dc.mu.Unlock()
			if !evicted {
				t.Fatal("the written page is still resident")
			}
			got := make([]byte, pageSize)
			var err error
			if joined {
				gate.take()
				done := make(chan error, 1)
				go func() {
					_, err := f.ReadAt(got, pg*pageSize)
					done <- err
				}()
				// The read fetches the page itself; one that waits for the
				// held-up reply instead is released after a grace period.
				gate.awaitRead(2 * time.Second)
				close(release)
				err = <-done
			} else {
				close(release)
				if err := <-first; err != nil {
					t.Fatal(err)
				}
				_, err = f.ReadAt(got, pg*pageSize)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, mine) {
				t.Fatalf("read of page %d returned bytes %#x..., want the client's own write %#x...", pg, got[:4], mine[:4])
			}
		})
	}
}

// TestReopenDoesNotJoinOlderFetch: close-to-open across a held-up fetch.
// Client A's window fetch reads the server and its reply is held up;
// client B overwrites a page of that window and closes; A opens the file
// again, which revalidates and drops what it cached. A's read of the page
// through the new open must see B's bytes, so it may not wait for the
// reply issued before the open.
func TestReopenDoesNotJoinOlderFetch(t *testing.T) {
	gate, _, a := gatedServer(t)
	seedFile(t, a, "/f", 2<<20)
	f := openFile(t, a, "/f", os.O_RDONLY) // brings in window 0
	stalled, release := gate.stallNext()
	go f.ReadAt(make([]byte, a.MaxTransfer()), int64(a.MaxTransfer())) // all of window 1
	<-stalled

	pg := f.dc.perWin + 5
	theirs := bytes.Repeat([]byte{0x3C}, pageSize)
	b := dialAs(t, a.shards[0].addr, "shape-admin")
	g := openFile(t, b, "/f", os.O_RDWR)
	if _, err := g.WriteAt(theirs, pg*pageSize); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	f2 := openFile(t, a, "/f", os.O_RDONLY)
	gate.take()
	got := make([]byte, pageSize)
	done := make(chan error, 1)
	go func() {
		_, err := f2.ReadAt(got, pg*pageSize)
		done <- err
	}()
	gate.awaitRead(2 * time.Second)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, theirs) {
		t.Fatalf("read after reopen returned %#x..., want the other client's closed write %#x...", got[:4], theirs[:4])
	}
}

// waitParked waits until a goroutine with fn on its stack is blocked in
// a select: a read or write waiting for someone else's fetch.
func waitParked(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(stacks, "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, fn) {
				return
			}
		}
	}
	t.Fatalf("no goroutine parked in %s", fn)
}

// TestWaitingWriteBuildsOnNewerWrite: a partial write of an absent page
// waits for another read's fetch of it. That fetch is overtaken by an
// open's invalidation, so it installs nothing; before it lands, a later
// write of the same client replaces the whole page, is committed and is
// evicted. The waiting write must then apply to what the server holds —
// landing on top of the later write, or under it — and never rebuild the
// page from the fetch's snapshot, which would undo the later write.
func TestWaitingWriteBuildsOnNewerWrite(t *testing.T) {
	gate, _, a := gatedServer(t)
	seedFile(t, a, "/f", 2<<20)
	f := openFile(t, a, "/f", os.O_RDWR) // brings in window 0
	stalled, release := gate.stallNext()
	go f.ReadAt(make([]byte, a.MaxTransfer()), int64(a.MaxTransfer())) // all of window 1
	<-stalled

	pg := f.dc.perWin + 5
	patch := bytes.Repeat([]byte{0xE1}, 100)
	wrote := make(chan error, 1)
	go func() {
		_, err := f.WriteAt(patch, pg*pageSize+1000)
		wrote <- err
	}()
	waitParked(t, "writePageLocked")

	// Another client changes the file, so the next open invalidates.
	b := dialAs(t, a.shards[0].addr, "shape-admin")
	g := openFile(t, b, "/f", os.O_RDWR)
	if _, err := g.WriteAt([]byte("elsewhere"), 300*pageSize); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	f2 := openFile(t, a, "/f", os.O_RDWR)
	whole := bytes.Repeat([]byte{0x5D}, pageSize)
	if _, err := f2.WriteAt(whole, pg*pageSize); err != nil {
		t.Fatal(err)
	}
	if err := f2.Sync(); err != nil {
		t.Fatal(err)
	}
	f.dc.mu.Lock()
	f.dc.maxPages = 1
	f.dc.mu.Unlock()
	if _, err := f2.ReadAt(make([]byte, pageSize), 200*pageSize); err != nil {
		t.Fatal(err)
	}
	f.dc.mu.Lock()
	f.dc.maxPages = maxCachedBytes / pageSize
	f.dc.mu.Unlock()

	close(release)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	all, err := dialAs(t, a.shards[0].addr, "shape-admin").ReadFile(context.Background(), "/f")
	if err != nil {
		t.Fatal(err)
	}
	got := all[pg*pageSize : (pg+1)*pageSize]
	after := bytes.Clone(whole)
	copy(after[1000:], patch)
	if !bytes.Equal(got, after) && !bytes.Equal(got, whole) {
		t.Fatalf("page %d on the server starts %#x and holds %#x at 1000: the later whole-page write was undone",
			pg, got[:4], got[1000:1004])
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

// TestClosedClientHoldsNoPooledBuffers: cached pages hold pool memory
// only while they are cached — after every kind of fetch, a multi-window
// cached write and its flush, a revalidation that drops the pages, a
// truncate and the close, closing the client (and server) leaves the
// pool exactly where it was: nothing leaked, nothing released twice.
func TestClosedClientHoldsNoPooledBuffers(t *testing.T) {
	ctx := context.Background()
	goroutines, outstanding := runtime.NumGoroutine(), settledOutstanding(t)
	srv, addr := testServer(t, ServerConfig{ServerKey: keynote.DeterministicKey("pool-admin")})
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
	// A write across several windows, flushed and committed.
	span := bytes.Repeat([]byte("multi-window"), (3*c.MaxTransfer())/12)
	if _, err := f.WriteAt(span, 1<<20+77); err != nil {
		t.Fatal(err)
	}
	copy(data[1<<20+77:], span)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Another client's write makes the next open drop every cached page
	// and read them afresh.
	other := dialAs(t, addr, "pool-admin")
	if _, _, err := other.WriteFile(ctx, "/f", data[:2<<20]); err != nil {
		t.Fatal(err)
	}
	data = data[:2<<20]
	g, err := c.Open(ctx, "/f", os.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(g); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after revalidation: %v", err)
	}
	if err := g.Truncate(1<<20 + 5); err != nil {
		t.Fatal(err)
	}
	for _, h := range []*File{f, g} {
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	other.Close()
	c.Close()
	srv.Close()
	waitBaseline(t, goroutines, outstanding)
	waitOutstanding(t, outstanding)
}

// TestClosedClientDropsUnstablePages: pages whose flush landed but whose
// COMMIT failed stay pinned for a barrier that, once the client is
// closed, will never run; Client.Close must give their pool memory back.
func TestClosedClientDropsUnstablePages(t *testing.T) {
	ctx := context.Background()
	goroutines, outstanding := runtime.NumGoroutine(), settledOutstanding(t)
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakySyncFS{FS: backing, fails: 1}
	srv, addr := testServer(t, ServerConfig{Backing: flaky})
	c := dialAs(t, addr, "test-admin")
	f, err := c.Open(ctx, "/f", os.O_CREATE|os.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte("unstable"), 3*pageSize/8)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err == nil {
		t.Fatal("Close over a failing COMMIT returned nil")
	}
	f.dc.mu.Lock()
	pinned := f.dc.nUnstable
	f.dc.mu.Unlock()
	if pinned == 0 {
		t.Fatal("no page was left awaiting COMMIT")
	}
	c.Close()
	srv.Close()
	waitBaseline(t, goroutines, outstanding)
	waitOutstanding(t, outstanding)
}

// TestParallelWriteDisCFSWriteBehind: four clients each write their own
// file through the data cache at once and end with the Sync barrier,
// with the client's write-behind window at its default and, with
// writeBehind off, cut to one page so every write waits for its flush.
// Either way every writer's bytes land, and the barriers reach the
// server as COMMITs.
func TestParallelWriteDisCFSWriteBehind(t *testing.T) {
	const writers, size = 4, 128 << 10
	for _, wb := range []bool{false, true} {
		t.Run(fmt.Sprintf("writeBehind=%v", wb), func(t *testing.T) {
			srv, addr := testServer(t, ServerConfig{})
			ctx := context.Background()
			want := make([][]byte, writers)
			errs := make([]error, writers)
			var wg sync.WaitGroup
			for i := range want {
				want[i] = bytes.Repeat([]byte{byte(i + 1)}, size)
				c := dialAs(t, addr, "test-admin")
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					f, err := c.Open(ctx, fmt.Sprintf("/pw%d.dat", i), os.O_CREATE|os.O_RDWR)
					if err != nil {
						errs[i] = err
						return
					}
					if !wb {
						f.dc.mu.Lock()
						f.dc.wbPages = 1
						f.dc.mu.Unlock()
					}
					for off := 0; off < size && err == nil; off += pageSize {
						_, err = f.WriteAt(want[i][off:off+pageSize], int64(off))
					}
					if err == nil {
						err = f.Sync()
					}
					errs[i] = errors.Join(err, f.Close())
				}(i)
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			if st := srv.Stats(); st.Commits == 0 {
				t.Errorf("sync barrier issued no COMMITs: %+v", st)
			}
			check := dialAs(t, addr, "test-admin")
			for i := range want {
				got, err := check.ReadFile(ctx, fmt.Sprintf("/pw%d.dat", i))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("writer %d: read back %d bytes, not the %d it wrote", i, len(got), size)
				}
			}
		})
	}
}

// writeGateFS parks the first WRITE at parkAt in the store for a while,
// and counts the Syncs — the COMMIT barrier — that find a WRITE still
// running.
type writeGateFS struct {
	vfs.FS
	parkAt   uint64
	parked   atomic.Bool
	running  atomic.Int64
	syncs    atomic.Int64
	overtook atomic.Int64
}

func (g *writeGateFS) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	g.running.Add(1)
	defer g.running.Add(-1)
	if off == g.parkAt && g.parked.CompareAndSwap(false, true) {
		time.Sleep(200 * time.Millisecond)
	}
	return g.FS.Write(h, off, data)
}

func (g *writeGateFS) Sync() error {
	g.syncs.Add(1)
	if g.running.Load() > 0 {
		g.overtook.Add(1)
	}
	return g.FS.Sync()
}

// TestIntermediateCommitWaitsForWrites: once the unstable bound fills,
// the writer's intermediate COMMIT goes out only after the file's
// WRITEs in flight have landed. One WRITE parks in the store while the
// windows after it land and fill the bound; no COMMIT the server serves
// may find it still running.
func TestIntermediateCommitWaitsForWrites(t *testing.T) {
	const xfer, windows = 4 * pageSize, 16
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	gate := &writeGateFS{FS: backing, parkAt: xfer}
	srv, addr := testServer(t, ServerConfig{Backing: gate})
	c := dialAs(t, addr, "test-admin")
	runAtGrant(c, xfer)
	ctx := context.Background()
	f, err := c.Open(ctx, "/gate.dat", os.O_CREATE|os.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	f.dc.mu.Lock()
	f.dc.maxUnstable = 2 * int(f.dc.perWin)
	f.dc.wbPages = 4 * int(f.dc.perWin)
	f.dc.mu.Unlock()
	data := make([]byte, windows*xfer)
	rand.New(rand.NewSource(9)).Read(data)
	for off := 0; off < len(data); off += xfer {
		if _, err := f.WriteAt(data[off:off+xfer], int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(f.Sync(), f.Close()); err != nil {
		t.Fatal(err)
	}
	if !gate.parked.Load() {
		t.Fatal("no WRITE reached the store at the parking offset")
	}
	commits := srv.Stats().Commits
	t.Logf("%d COMMITs, %d store syncs", commits, gate.syncs.Load())
	if commits < 3 {
		t.Errorf("%d COMMITs: fewer than two intermediate ones besides the Sync", commits)
	}
	if n := gate.overtook.Load(); n != 0 {
		t.Errorf("%d of %d COMMITs found a WRITE still running", n, gate.syncs.Load())
	}
	got, err := dialAs(t, addr, "test-admin").ReadFile(ctx, "/gate.dat")
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("read back %d bytes, want the %d written (err %v)", len(got), len(data), err)
	}
}

// TestStreamCachedCorrectness: a 2 MiB file streamed through the data
// cache in 1 MiB application writes reads back byte for byte through a freshly attached client, at the
// v2 8 KiB grant and at the largest one a server gives.
func TestStreamCachedCorrectness(t *testing.T) {
	ctx := context.Background()
	_, addr := testServer(t, ServerConfig{})
	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(5)).Read(data)
	for _, transfer := range []int{8192, nfs.DefaultMaxTransfer} {
		name := fmt.Sprintf("/stream-%d.dat", transfer)
		w := dialAs(t, addr, "test-admin")
		runAtGrant(w, transfer)
		f, err := w.Open(ctx, name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); off += 1 << 20 {
			if _, err := f.Write(data[off : off+1<<20]); err != nil {
				t.Fatal(err)
			}
		}
		if err := errors.Join(f.Sync(), f.Close()); err != nil {
			t.Fatal(err)
		}

		r := dialAs(t, addr, "test-admin")
		runAtGrant(r, transfer)
		rf := openFile(t, r, name, os.O_RDONLY)
		got, err := io.ReadAll(rf)
		if err != nil {
			t.Fatalf("grant %d: %v", r.MaxTransfer(), err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("grant %d: read back %d bytes that differ from the %d written", r.MaxTransfer(), len(got), len(data))
		}
	}
}

// TestFullCacheFlushAndEvictAreBounded guards the write cliff the 8 KiB
// grant used to fall off. At that grant every page is its own cluster
// window, so a full cache holds thousands of windows, and a flush claim
// or an eviction that walked them made a long cached write five times
// slower than an uncached one. On a full cache at that grant, each
// eviction drops the clean list's head (one step more per page re-read
// since the hand passed), and each flush claim takes the run at the
// dirty queue's head — the window dirtied first, whatever its offset —
// retiring at most the one spent entry before it.
func TestFullCacheFlushAndEvictAreBounded(t *testing.T) {
	hc := &handleCache{
		perWin:   1,
		maxPages: maxCachedBytes / pageSize,
		wbPages:  writeBehindBytes / pageSize,
		wins:     make(map[int64]*window),
	}
	hc.mu.Lock()
	defer hc.mu.Unlock()
	rng := rand.New(rand.NewSource(1))
	n := hc.maxPages
	for _, idx := range rng.Perm(n) {
		hc.installLocked(&page{idx: int64(idx)})
	}
	for _, idx := range rng.Perm(n) {
		head := hc.clean.head
		next := head.next
		hc.installLocked(&page{idx: int64(n + idx)})
		if hc.lookupLocked(head.idx) != nil || hc.clean.head != next || hc.nPages != n {
			t.Fatalf("installing page %d into a full cache did not evict exactly the clean head (page %d)", n+idx, head.idx)
		}
	}
	hot := hc.clean.head
	hot.ref = true
	victim := hot.next
	hc.installLocked(&page{idx: int64(2 * n)})
	if hc.lookupLocked(victim.idx) != nil || hc.lookupLocked(hot.idx) != hot || hot.ref || hc.clean.tail.prev != hot {
		t.Fatal("a re-read head did not get exactly one second chance")
	}

	var resident []*page
	for p := hc.clean.head; p != nil; p = p.next {
		resident = append(resident, p)
	}
	rng.Shuffle(len(resident), func(i, j int) { resident[i], resident[j] = resident[j], resident[i] })
	for _, p := range resident {
		hc.dirtyLocked(p)
	}
	var b flushBatch
	for i, p := range resident {
		queued := len(hc.dirtyq)
		hc.claimLocked(&b)
		if len(b.pages) != 1 || b.pages[0] != p {
			t.Fatalf("claim %d did not take the window dirtied %d-th (page %d)", i, i, p.idx)
		}
		if retired := queued - len(hc.dirtyq); retired != min(i, 1) {
			t.Fatalf("claim %d retired %d queue entries, want %d", i, retired, min(i, 1))
		}
	}
	if hc.claimLocked(&b); len(b.pages) != 0 {
		t.Fatalf("claim after every run was claimed took page %d", b.pages[0].idx)
	}
}

// TestOnePageWriteCloseSendsOneWriteOneCommit: a new cache takes its
// COMMIT baseline from the shard's boot verifier, which the attach
// set, so a one-page write and Close cost exactly one write call (a
// one-extent WRITEEXTENTS, the cache's only flush) and one COMMIT, with
// no baseline COMMIT ahead of the first flush.
func TestOnePageWriteCloseSendsOneWriteOneCommit(t *testing.T) {
	srv, addr := testServer(t, ServerConfig{})
	c := dialAs(t, addr, "test-admin")
	f, err := c.Open(context.Background(), "/one.dat", os.O_CREATE|os.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	calls := func(proc string) uint64 { return srv.met.procLatency.With(proc).Count() }
	writes := func() uint64 { return calls("write") + calls("writeextents") }
	w0, commits := writes(), calls("commit")
	if _, err := f.WriteAt(bytes.Repeat([]byte{5}, pageSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if w, cm := writes()-w0, calls("commit")-commits; w != 1 || cm != 1 {
		t.Errorf("write + Close sent %d write calls and %d COMMITs, want 1 and 1", w, cm)
	}
}

// flushGate is a vfs.FS that holds the first Write to reach it until
// open is called, and fails the failAt-th Write (counting from 1; 0 for
// none) with ENOSPC.
type flushGate struct {
	vfs.FS
	held    chan struct{} // closed once the first Write is held
	release chan struct{}
	once    sync.Once
	writes  atomic.Int64
	failAt  int64
}

func (g *flushGate) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	switch n := g.writes.Add(1); n {
	case 1:
		close(g.held)
		<-g.release
	case g.failAt:
		return vfs.Attr{}, vfs.ErrNoSpace
	}
	return g.FS.Write(h, off, data)
}

func (g *flushGate) open() { g.once.Do(func() { close(g.release) }) }

// scatterRun is what scatteredFlush leaves behind.
type scatterRun struct {
	backing *ffs.FFS
	addr    string
	f       *File
	shadow  []byte // the bytes written: the pages, zeros between them
	calls   uint64 // WRITEEXTENTS calls the writes and the Sync cost
	err     error  // the Sync's
}

// scatteredFlush writes page 0 of a new file, and once its flush, sent
// alone when partialFlushDelay lapses, is held at the store, 31 pages scattered over the next 255; then it Syncs and,
// once the Sync is draining, lets the held call go. The file has one
// flush worker (the other seven count as busy), so what the 31 writes
// dirtied is all ready when that worker comes back for more.
func scatteredFlush(t *testing.T, failAt int64) scatterRun {
	t.Helper()
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	gate := &flushGate{FS: backing, held: make(chan struct{}), release: make(chan struct{}), failAt: failAt}
	srv, addr := testServer(t, ServerConfig{Backing: gate})
	r := scatterRun{backing: backing, addr: addr}
	r.f = openFile(t, dialAs(t, addr, "test-admin"), "/scatter.dat", os.O_CREATE|os.O_RDWR)
	t.Cleanup(gate.open) // before the file's Close, which waits for the held flush
	r.f.dc.mu.Lock()
	r.f.dc.workers = maxDataRPCs - 1
	r.f.dc.mu.Unlock()
	calls := func() uint64 { return srv.met.procLatency.With("writeextents").Count() }
	before := calls()
	rng := rand.New(rand.NewSource(3))
	order := []int{0}
	for _, pg := range rng.Perm(255)[:31] {
		order = append(order, pg+1)
	}
	r.shadow = make([]byte, (slices.Max(order)+1)*pageSize)
	for i, pg := range order {
		p := r.shadow[pg*pageSize : (pg+1)*pageSize]
		rng.Read(p)
		if _, err := r.f.WriteAt(p, int64(pg*pageSize)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// Page 0 goes out on its own once partialFlushDelay lapses.
			select {
			case <-gate.held:
			case <-time.After(10 * time.Second):
				t.Fatal("page 0's flush never reached the store")
			}
		}
	}
	done := make(chan error, 1)
	go func() { done <- r.f.Sync() }()
	for draining := 0; draining == 0; time.Sleep(time.Millisecond) {
		r.f.dc.mu.Lock()
		draining = r.f.dc.draining
		r.f.dc.mu.Unlock()
	}
	gate.open()
	r.err = <-done
	r.calls = calls() - before
	return r
}

// TestScatteredWritesFlushTogether: while one flush is held at the
// server, 31 scattered 8 KiB writes wait for the file's flush worker,
// which then sends them as one WRITEEXTENTS call: 1 + ⌈31/63⌉ calls at
// the default 504 KiB grant where each run used to cost a WRITE. The
// file reads back as written.
func TestScatteredWritesFlushTogether(t *testing.T) {
	r := scatteredFlush(t, 0)
	if r.err != nil {
		t.Fatal(r.err)
	}
	perWin := uint64(r.f.dc.perWin)
	if want := 1 + (31+perWin-1)/perWin; r.calls > want {
		t.Errorf("32 scattered pages and a Sync cost %d WRITEEXTENTS calls, want at most %d", r.calls, want)
	}
	got, err := dialAs(t, r.addr, "test-admin").ReadFile(context.Background(), "/scatter.dat")
	if err != nil || !bytes.Equal(got, r.shadow) {
		t.Errorf("read back %d bytes that differ from the %d written (err %v)", len(got), len(r.shadow), err)
	}
}

// waitFlushed waits, running no barrier, until every dirty page of hc
// has reached the server.
func waitFlushed(t *testing.T, hc *handleCache) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		hc.mu.Lock()
		n := hc.nDirty
		hc.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d dirty pages never reached the server without a barrier", n)
		}
	}
}

// TestScatteredPagesWaitForATransfer: a transfer's worth of one-page
// writes, no two adjacent, wait with no barrier until the last of them
// is ready, then reach the server as one WRITEEXTENTS call of one
// extent each.
func TestScatteredPagesWaitForATransfer(t *testing.T) {
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	log := &ioLog{FS: backing}
	srv, addr := testServer(t, ServerConfig{Backing: log})
	f := openFile(t, dialAs(t, addr, "test-admin"), "/scatter.dat", os.O_CREATE|os.O_RDWR)
	perWin := int(f.dc.perWin)
	calls := func() uint64 { return srv.met.procLatency.With("writeextents").Count() }
	before := calls()
	log.take()
	page := bytes.Repeat([]byte{9}, pageSize)
	start := time.Now()
	for _, k := range rand.New(rand.NewSource(4)).Perm(perWin) {
		if _, err := f.WriteAt(page, int64(2*k*pageSize)); err != nil {
			t.Fatal(err)
		}
	}
	stalled := time.Since(start) > partialFlushDelay/2
	waitFlushed(t, f.dc)
	if stalled {
		// Pages short of a transfer wait only partialFlushDelay; a
		// starved writer legitimately sees them leave early.
		t.Skip("host too slow: the writer may have outlasted the flush delay")
	}
	_, writes := log.take()
	if n := calls() - before; n != 1 || len(writes) != perWin {
		t.Errorf("%d scattered pages reached the store in %d WRITEEXTENTS calls as %d extents, want 1 call of %d", perWin, n, len(writes), perWin)
	}
}

// TestLoneWriteFlushesAfterDelay: a small write that no other joins
// still reaches the server with no barrier once partialFlushDelay
// lapses, as one extent that stops at the end of the file.
func TestLoneWriteFlushesAfterDelay(t *testing.T) {
	log, c := loggedServer(t, 4096)
	f := openFile(t, c, "/lone.dat", os.O_CREATE|os.O_RDWR)
	log.take()
	if _, err := f.WriteAt([]byte("lone"), 100); err != nil {
		t.Fatal(err)
	}
	waitFlushed(t, f.dc)
	if _, writes := log.take(); len(writes) != 1 || writes[0] != (ioExtent{0, 104}) {
		t.Errorf("the store saw writes %v, want one of the file's 104 bytes", writes)
	}
}

// TestFailedExtentFailsSync: a store that fails the second extent of a
// batched call with ENOSPC makes Sync return the error, and a re-read
// through the same file shows what the server holds — the extent before
// the failure included — not the lost writes.
func TestFailedExtentFailsSync(t *testing.T) {
	r := scatteredFlush(t, 3) // the held call is the first Write
	if nfs.StatOf(r.err) != nfs.ErrNoSpc {
		t.Fatalf("Sync = %v, want ENOSPC", r.err)
	}
	a, err := r.backing.GetAttr(r.f.Handle())
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]byte, a.Size)
	if _, _, err := r.backing.ReadInto(r.f.Handle(), 0, truth); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(truth[pageSize:], make([]byte, len(truth)-pageSize)) {
		t.Fatal("the store holds nothing past page 0: no extent landed before the failure")
	}
	got := make([]byte, len(truth))
	if _, err := r.f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, truth) {
		t.Error("a re-read after the failed flush differs from what the server holds")
	}
}

// TestFlushCallsCarryAtMostOneTransfer: a flush claims ready runs, head
// first, until they fill one transfer and no further, at the default
// grant, at the largest transfer the protocol allows, and at the 8 KiB
// grant, where each call carries one page. A run that would overfill a
// call is cut, its tail going out in the next, and every page goes out
// once, in extents that each cover one contiguous run.
func TestFlushCallsCarryAtMostOneTransfer(t *testing.T) {
	for _, xfer := range []int{nfs.DefaultMaxTransfer, nfs.MaxTransferLimit, nfs.MaxData} {
		perWin := xfer / pageSize
		hc := &handleCache{
			perWin:   int64(perWin),
			maxPages: 1 << 20,
			wbPages:  1 << 20,
			wins:     make(map[int64]*window),
			size:     math.MaxInt64,
			draining: 1, // every ready page may leave, as under a Sync
		}
		hc.mu.Lock()
		rng := rand.New(rand.NewSource(int64(xfer)))
		// Scattered pages in windows 0-9, then all of window 10: the
		// full window's run overfills the first call.
		dirty := map[int64]bool{}
		for _, idx := range rng.Perm(10 * perWin)[:perWin/2+1] {
			dirty[int64(idx)] = true
		}
		for idx := 10 * perWin; idx < 11*perWin; idx++ {
			dirty[int64(idx)] = true
		}
		for _, idx := range slices.Sorted(maps.Keys(dirty)) {
			p := &page{idx: idx, pageMem: pageMem{data: make([]byte, pageSize)}}
			hc.installLocked(p)
			hc.dirtyLocked(p)
		}
		var b flushBatch
		for calls := 0; ; calls++ {
			hc.claimLocked(&b)
			if len(b.pages) == 0 {
				break
			}
			if left := len(dirty); len(b.pages) != min(left, perWin) {
				t.Fatalf("grant %d: call %d carries %d pages with %d ready, want %d", xfer, calls, len(b.pages), left, min(left, perWin))
			}
			i := 0
			for _, x := range b.exts {
				for j, seg := range x.Data {
					p := b.pages[i]
					if !dirty[p.idx] || len(seg) != pageSize || int64(x.Offset) != (p.idx-int64(j))*pageSize {
						t.Fatalf("grant %d: call %d's extent at %d does not cover page %d as its %d-th", xfer, calls, x.Offset, p.idx, j)
					}
					delete(dirty, p.idx)
					i++
				}
			}
			if i != len(b.pages) || len(b.exts) > nfs.MaxExtents {
				t.Fatalf("grant %d: call %d has %d extents over %d of its %d pages", xfer, calls, len(b.exts), i, len(b.pages))
			}
		}
		if len(dirty) != 0 {
			t.Errorf("grant %d: %d dirty pages never claimed", xfer, len(dirty))
		}
		hc.mu.Unlock()
	}
}

// TestFlushWithoutWriteRightIsDenied: a principal that may read a file
// but not write it gets ErrAccessDenied from the Sync that flushes a
// scattered batch; the store keeps every byte it had, and the audit
// trail holds the denied write.
func TestFlushWithoutWriteRightIsDenied(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})
	admin := dialAs(t, addr, "test-admin")
	orig := seedFile(t, admin, "/ro.dat", 16*pageSize)
	bobKey := keynote.DeterministicKey("bob")
	cred, err := srv.IssueCredential(bobKey.Principal, srv.backing.Root().Ino, "RX", "")
	if err != nil {
		t.Fatal(err)
	}
	bob := dialAs(t, addr, "bob")
	if _, err := bob.SubmitCredentials(ctx, cred); err != nil {
		t.Fatal(err)
	}
	f := openFile(t, bob, "/ro.dat", os.O_RDWR)
	calls := func() uint64 { return srv.met.procLatency.With("writeextents").Count() }
	before := calls()
	for _, pg := range []int64{1, 5, 9} {
		if _, err := f.WriteAt(bytes.Repeat([]byte{0xee}, pageSize), pg*pageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("Sync without the write right = %v, want ErrAccessDenied", err)
	}
	if calls() == before {
		t.Error("no WRITEEXTENTS call reached the server")
	}
	if got, err := admin.ReadFile(ctx, "/ro.dat"); err != nil || !bytes.Equal(got, orig) {
		t.Errorf("the store's copy changed under a denied flush (err %v)", err)
	}
	denied := false
	for _, r := range srv.Audit().Recent(16) {
		denied = denied || r.Op == "write" && r.Peer == string(bobKey.Principal) && r.Ino == f.Handle().Ino && !r.Allowed
	}
	if !denied {
		t.Error("the audit trail holds no denied write for the principal")
	}
}
