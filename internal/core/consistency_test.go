package core

// Close-to-open consistency tests for the client-side data cache: a
// reader that opens after a writer's close sees the writer's data, even
// when the reader holds stale cached blocks from an earlier open; and
// Close/Sync are the error barrier for deferred write-behind errors.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"discfs/internal/ffs"
	"discfs/internal/vfs"
)

// writeAndClose writes data to path through a cached File and closes it
// (the close-to-open "close" edge).
func writeAndClose(t *testing.T, c *Client, path string, data []byte) {
	t.Helper()
	ctx := context.Background()
	f, err := c.Open(ctx, path, os.O_CREATE|os.O_WRONLY)
	if err != nil {
		t.Fatalf("open for write: %v", err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// readAll opens path and reads it whole through the cache (readahead
// enabled), closing the File.
func readAll(t *testing.T, c *Client, path string) []byte {
	t.Helper()
	ctx := context.Background()
	f, err := c.Open(ctx, path, os.O_RDONLY)
	if err != nil {
		t.Fatalf("open for read: %v", err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return data
}

// TestCloseToOpenAcrossClients is the paper's multi-device scenario:
// client A writes and closes; client B opens (readahead enabled) and
// must see A's data — including after B already cached an older version
// of the file, the case the open-time mtime/size revalidation exists
// for.
func TestCloseToOpenAcrossClients(t *testing.T) {
	_, addr := testServer(t, ServerConfig{})
	a := dialAs(t, addr, "test-admin")
	b := dialAs(t, addr, "test-admin")

	// v1 spans several blocks so readahead engages.
	v1 := bytes.Repeat([]byte("version-one."), 4096) // 48 KiB
	writeAndClose(t, a, "/c2o.txt", v1)

	// B reads v1 — and now holds cached blocks for the whole file.
	if got := readAll(t, b, "/c2o.txt"); !bytes.Equal(got, v1) {
		t.Fatalf("B's first read: got %d bytes, want v1 (%d)", len(got), len(v1))
	}

	// A rewrites the file (same length, different bytes — only mtime
	// distinguishes it) and closes. FFS mtimes have coarse granularity;
	// ensure the clock ticks past it.
	time.Sleep(10 * time.Millisecond)
	v2 := bytes.Repeat([]byte("VERSION-TWO!"), 4096)
	f, err := a.Open(context.Background(), "/c2o.txt", os.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(v2); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// B re-opens: revalidation must invalidate its stale blocks.
	if got := readAll(t, b, "/c2o.txt"); !bytes.Equal(got, v2) {
		t.Fatalf("B's re-open read stale data: got %q...", got[:24])
	}

	// A shorter rewrite must also be seen (size validator).
	v3 := []byte("v3-short")
	writeAndCloseTrunc(t, a, "/c2o.txt", v3)
	if got := readAll(t, b, "/c2o.txt"); !bytes.Equal(got, v3) {
		t.Fatalf("B's read after truncating rewrite = %q, want %q", got, v3)
	}
}

// TestRewriteAfterOtherClientClose: a write is sent even when its bytes
// equal what this client last flushed to the page. Client A writes X to
// page 1 and syncs; B writes Y there and closes; A writes X again and
// closes. The server's last write is A's, so a fresh client reads X. A
// client that skipped the rewrite as a repeat of its own flush left Y.
func TestRewriteAfterOtherClientClose(t *testing.T) {
	ctx := context.Background()
	_, addr := testServer(t, ServerConfig{})
	a := dialAs(t, addr, "test-admin")
	b := dialAs(t, addr, "test-admin")
	x := bytes.Repeat([]byte("x"), pageSize)
	y := bytes.Repeat([]byte("y"), pageSize)

	fa, err := a.Open(ctx, "/rewrite.txt", os.O_CREATE|os.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.WriteAt(x, pageSize); err != nil {
		t.Fatal(err)
	}
	if err := fa.Sync(); err != nil {
		t.Fatal(err)
	}
	fb, err := b.Open(ctx, "/rewrite.txt", os.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fb.WriteAt(y, pageSize); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fa.WriteAt(x, pageSize); err != nil {
		t.Fatal(err)
	}
	if err := fa.Close(); err != nil {
		t.Fatal(err)
	}

	got := readAll(t, dialAs(t, addr, "test-admin"), "/rewrite.txt")
	if len(got) != 2*pageSize {
		t.Fatalf("fresh client read %d bytes, want %d", len(got), 2*pageSize)
	}
	if !bytes.Equal(got[pageSize:], x) {
		t.Fatalf("fresh client read page 1 starting %q, want A's rewrite %q", got[pageSize:pageSize+8], x[:8])
	}
}

func writeAndCloseTrunc(t *testing.T, c *Client, path string, data []byte) {
	t.Helper()
	ctx := context.Background()
	f, err := c.Open(ctx, path, os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		t.Fatalf("open trunc: %v", err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestCloseReturnsDeferredWriteError is the error-barrier regression
// test: a buffered write whose background flush fails must surface that
// failure from Close, not lose it.
func TestCloseReturnsDeferredWriteError(t *testing.T) {
	_, addr := testServer(t, ServerConfig{})
	c := dialAs(t, addr, "test-admin")

	ctx, cancel := context.WithCancel(context.Background())
	f, err := c.Open(ctx, "/deferred.txt", os.O_CREATE|os.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	// A small write sits in the coalescing hold as a partial dirty
	// block; canceling the File's context then fails its flush.
	if _, err := f.Write([]byte("doomed bytes")); err != nil {
		t.Fatalf("buffered write reported error: %v", err)
	}
	cancel()
	err = f.Close()
	if err == nil {
		t.Fatal("Close returned nil after its deferred flush was canceled")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Close error = %v, want context.Canceled in chain", err)
	}
	// The barrier consumed the error: a second barrier-less operation
	// on a fresh File reports clean state.
	f2, err := c.Open(context.Background(), "/clean.txt", os.O_CREATE|os.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Write([]byte("fine")); err != nil {
		t.Fatal(err)
	}
	if err := f2.Close(); err != nil {
		t.Fatalf("clean file Close = %v", err)
	}
}

// TestSyncClearsDeferredError verifies Sync is a consuming barrier: the
// first Sync after a failed flush reports it, the next reports clean.
func TestSyncClearsDeferredError(t *testing.T) {
	_, addr := testServer(t, ServerConfig{})
	c := dialAs(t, addr, "test-admin")
	ctx, cancel := context.WithCancel(context.Background())
	f, err := c.Open(ctx, "/barrier.txt", os.O_CREATE|os.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("unflushable")); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := f.Sync(); err == nil {
		t.Fatal("Sync after canceled flush returned nil")
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("second Sync = %v, want nil (barrier consumed)", err)
	}
	// Close still fails the closed-context flush? No dirty data remains,
	// so Close is clean.
	if err := f.Close(); err != nil {
		t.Fatalf("Close after consumed barrier = %v", err)
	}
}

// flakySyncFS wraps a backing store whose Sync fails a set number of
// times — a device whose volatile-cache flush transiently errors.
type flakySyncFS struct {
	vfs.FS
	mu    sync.Mutex
	fails int
	syncs int
}

func (f *flakySyncFS) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	if f.fails > 0 {
		f.fails--
		return errors.New("injected device sync failure")
	}
	return f.FS.Sync()
}

func (f *flakySyncFS) syncCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs
}

// TestUncachedSyncRetriesCommitAfterFailure: on the uncached path a
// failed COMMIT must leave the File re-armed, so a retried Sync issues
// the barrier again instead of reporting durability it never got.
func TestUncachedSyncRetriesCommitAfterFailure(t *testing.T) {
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakySyncFS{FS: backing, fails: 1}
	_, addr := testServer(t, ServerConfig{Backing: flaky})
	c := dialAsWith(t, addr, "test-admin", WithNoDataCache())

	f, err := c.Open(context.Background(), "/durable.txt", os.O_CREATE|os.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("must-survive")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err == nil {
		t.Fatal("Sync over failing device sync returned nil")
	}
	before := flaky.syncCount()
	if err := f.Sync(); err != nil {
		t.Fatalf("retried Sync = %v, want nil", err)
	}
	if after := flaky.syncCount(); after <= before {
		t.Fatalf("retried Sync issued no COMMIT barrier (device syncs %d -> %d)", before, after)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	a, err := backing.Lookup(backing.Root(), "durable.txt")
	if err != nil {
		t.Fatalf("backing lookup: %v", err)
	}
	got, _, err := backing.Read(a.Handle, 0, 64)
	if err != nil || string(got) != "must-survive" {
		t.Fatalf("backing content = %q, %v; want must-survive", got, err)
	}
}
