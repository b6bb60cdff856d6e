package core

// Tests of where cached pages keep their bytes: pool memory that goes
// back to the buffer pool when the last page using it leaves the cache,
// memory lent to an in-flight flush, and the budget the caches of closed
// files share.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"discfs/internal/bufpool"
	"discfs/internal/ffs"
	"discfs/internal/keynote"
	"discfs/internal/vfs"
)

// settledOutstanding returns the pool balance once earlier tests'
// asynchronous teardown has stopped moving it.
func settledOutstanding(t *testing.T) int64 {
	t.Helper()
	last := bufpool.Outstanding()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		o := bufpool.Outstanding()
		if o == last {
			return o
		}
		last = o
	}
	t.Fatal("the buffer pool balance did not settle")
	return 0
}

// waitOutstanding polls until the pool balance is exactly want: above
// it a buffer leaked, below it one was released twice.
func waitOutstanding(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		o := bufpool.Outstanding()
		if o == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d pooled buffers outstanding after teardown, want %d", o, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// writeGate is a vfs.FS that records every Write payload and can hold
// one Write until released.
type writeGate struct {
	vfs.FS
	mu      sync.Mutex
	writes  [][]byte
	hold    chan struct{} // non-nil: the next Write closes entered, then waits for hold
	entered chan struct{}
}

func (g *writeGate) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	g.mu.Lock()
	g.writes = append(g.writes, bytes.Clone(data))
	hold, entered := g.hold, g.entered
	g.hold = nil
	g.mu.Unlock()
	if hold != nil {
		close(entered)
		<-hold
	}
	return g.FS.Write(h, off, data)
}

// holdNext arms the gate for the next Write.
func (g *writeGate) holdNext() (entered, hold chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.writes = nil
	g.hold, g.entered = make(chan struct{}), make(chan struct{})
	return g.entered, g.hold
}

// TestFlushLentPageDetachedByWriter: a writer that rewrites a page whose
// flush is on the wire moves the page onto fresh memory. The flush
// sends the bytes from before the rewrite, the lent memory is released
// once that flush lands, and the rewrite flushes after it.
func TestFlushLentPageDetachedByWriter(t *testing.T) {
	ctx := context.Background()
	base := settledOutstanding(t)
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	g := &writeGate{FS: backing}
	srv, addr := testServer(t, ServerConfig{Backing: g, ServerKey: keynote.DeterministicKey("lend-admin")})
	c := dialAs(t, addr, "lend-admin")
	f, err := c.Open(ctx, "/f", os.O_RDWR|os.O_CREATE)
	if err != nil {
		t.Fatal(err)
	}
	before := bytes.Repeat([]byte{'a'}, pageSize)
	after := bytes.Repeat([]byte{'b'}, pageSize)

	entered, hold := g.holdNext()
	if _, err := f.WriteAt(before, 0); err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	go func() { synced <- f.Sync() }()
	<-entered // the flush of before is on the wire
	if _, err := f.WriteAt(after, 0); err != nil {
		t.Fatal(err)
	}
	hc := f.dc
	hc.mu.Lock()
	p := hc.lookupLocked(0)
	lent := p.lent.data != nil
	hc.mu.Unlock()
	if !lent {
		t.Fatal("a write to a page on the wire did not detach it")
	}
	close(hold)
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	hc.mu.Lock()
	lent = p.lent.data != nil
	hc.mu.Unlock()
	if lent {
		t.Error("the lent memory outlived the flush that borrowed it")
	}
	g.mu.Lock()
	writes := g.writes
	g.mu.Unlock()
	if len(writes) != 2 || !bytes.Equal(writes[0], before) || !bytes.Equal(writes[1], after) {
		t.Errorf("the store saw %d writes, want the page before and then after the rewrite", len(writes))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile(ctx, "/f")
	if err != nil || !bytes.Equal(got, after) {
		t.Fatalf("content after the rewrite: %v", err)
	}
	c.Close()
	srv.Close()
	waitOutstanding(t, base)
}

// TestReadBufferRecycledWithLastPage: the pages of a window READ alias
// its reply record, which holds one reference per resident page and
// goes back to the pool when the last of them is evicted.
func TestReadBufferRecycledWithLastPage(t *testing.T) {
	_, c := loggedServer(t, 16384)
	data := seedFile(t, c, "/f", 4*int(c.shards[0].xfer))
	f := openFile(t, c, "/f", os.O_RDONLY)
	hc := f.dc
	// Room for the first window and the two its reader reads ahead:
	// the fourth evicts the first.
	hc.mu.Lock()
	hc.maxPages = int(3 * hc.perWin)
	hc.mu.Unlock()

	buf := make([]byte, pageSize)
	if _, err := f.Read(buf); err != nil {
		t.Fatal(err)
	}
	settleReads(t, f)
	hc.mu.Lock()
	p := hc.lookupLocked(0)
	if p == nil || p.rb == nil {
		hc.mu.Unlock()
		t.Fatal("the first page of a window READ does not alias its record")
	}
	rb := p.rb
	refs := rb.refs
	hc.mu.Unlock()
	if refs != int(hc.perWin) {
		t.Fatalf("record references after the window landed = %d, want one per page (%d)", refs, hc.perWin)
	}

	rest, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(append(buf, rest...), data) {
		t.Fatalf("sequential read: %v", err)
	}
	settleReads(t, f)
	hc.mu.Lock()
	refs = rb.refs
	resident := hc.lookupLocked(0) != nil
	hc.mu.Unlock()
	if resident || refs != 0 {
		t.Errorf("after the window was evicted: resident=%v, record references = %d, want 0", resident, refs)
	}
}

// TestClosedFilesShareOneCacheBudget: the caches kept for closed files
// hold at most idleCacheBytes between them, however many large files
// were written and closed.
func TestClosedFilesShareOneCacheBudget(t *testing.T) {
	ctx := context.Background()
	_, addr := testServer(t, ServerConfig{})
	c := dialAs(t, addr, "test-admin")
	chunk := bytes.Repeat([]byte("budget!!"), (1<<20)/8)
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("f%d", i)
		f, err := c.Open(ctx, "/"+name, os.O_RDWR|os.O_CREATE)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < 20<<20; off += len(chunk) {
			if _, err := f.Write(chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		// Removing the file frees the store; the cache is what is measured.
		if err := c.NFS().Remove(ctx, c.Root(), name); err != nil {
			t.Fatal(err)
		}
	}
	c.dcMu.Lock()
	defer c.dcMu.Unlock()
	resident := 0
	for _, hc := range c.dcaches {
		hc.mu.Lock()
		resident += hc.nPages
		hc.mu.Unlock()
	}
	if resident*pageSize > idleCacheBytes {
		t.Errorf("closed files' caches hold %d MiB, want at most %d MiB", resident*pageSize>>20, idleCacheBytes>>20)
	}
	if idle := c.dcIdlePages.Load(); idle != int64(resident) {
		t.Errorf("idle page count %d, want the %d resident", idle, resident)
	}
}
