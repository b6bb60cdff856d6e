package discfs_test

// Streaming-I/O and context-cancellation tests for the v2 client API.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"testing"
	"time"

	"discfs"
)

func streamServer(t *testing.T) (string, *discfs.KeyPair) {
	t.Helper()
	adminKey := discfs.DeterministicKey("stream-admin-" + t.Name())
	store, err := discfs.NewMemStore()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := discfs.NewServer(adminKey, discfs.WithBacking(store))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, adminKey
}

func TestFileStreamingRoundTrip(t *testing.T) {
	ctx := context.Background()
	addr, key := streamServer(t)
	c, err := discfs.Dial(ctx, addr, key)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// 100 KiB spans many NFS MaxData (8 KiB) chunks.
	payload := bytes.Repeat([]byte("0123456789abcdef"), 100*1024/16)

	w, err := c.Open(ctx, "/big.bin", os.O_CREATE|os.O_WRONLY)
	if err != nil {
		t.Fatalf("Open for write: %v", err)
	}
	if w.Credential() == "" {
		t.Error("creating Open returned no creator credential")
	}
	n, err := io.Copy(w, bytes.NewReader(payload))
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("Copy in = %d, %v", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := c.Open(ctx, "/big.bin", os.O_RDONLY)
	if err != nil {
		t.Fatalf("Open for read: %v", err)
	}
	defer r.Close()
	if r.Credential() != "" {
		t.Error("non-creating Open returned a credential")
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("streamed read mismatch: %d bytes vs %d", len(got), len(payload))
	}
}

func TestFileSeekReadAtWriteAt(t *testing.T) {
	ctx := context.Background()
	addr, key := streamServer(t)
	c, err := discfs.Dial(ctx, addr, key)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	f, err := c.Open(ctx, "/seek.txt", os.O_CREATE|os.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("hello, world")); err != nil {
		t.Fatal(err)
	}

	// Seek back and read a slice.
	if pos, err := f.Seek(7, io.SeekStart); err != nil || pos != 7 {
		t.Fatalf("Seek = %d, %v", pos, err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(f, buf); err != nil || string(buf) != "world" {
		t.Fatalf("read after seek = %q, %v", buf, err)
	}

	// ReadAt ignores the cursor.
	if _, err := f.ReadAt(buf[:5], 0); err != nil || string(buf[:5]) != "hello" {
		t.Fatalf("ReadAt = %q, %v", buf[:5], err)
	}

	// WriteAt patches in place; Sync is the barrier before reading the
	// file back through a different path than the cached File.
	if _, err := f.WriteAt([]byte("WORLD"), 7); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	data, err := c.ReadFile(ctx, "/seek.txt")
	if err != nil || string(data) != "hello, WORLD" {
		t.Fatalf("after WriteAt = %q, %v", data, err)
	}

	// SeekEnd sees the server-side size.
	if pos, err := f.Seek(0, io.SeekEnd); err != nil || pos != 12 {
		t.Fatalf("SeekEnd = %d, %v", pos, err)
	}

	// Truncate shrinks.
	if err := f.Truncate(5); err != nil {
		t.Fatal(err)
	}
	data, _ = c.ReadFile(ctx, "/seek.txt")
	if string(data) != "hello" {
		t.Fatalf("after Truncate = %q", data)
	}
}

func TestFileOpenModes(t *testing.T) {
	ctx := context.Background()
	addr, key := streamServer(t)
	c, err := discfs.Dial(ctx, addr, key)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.WriteFile(ctx, "/modes.txt", []byte("original")); err != nil {
		t.Fatal(err)
	}

	// O_RDONLY rejects writes.
	r, err := c.Open(ctx, "/modes.txt", os.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Write([]byte("x")); err == nil {
		t.Error("write on O_RDONLY file succeeded")
	}
	r.Close()

	// O_WRONLY rejects reads.
	w, err := c.Open(ctx, "/modes.txt", os.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Read(make([]byte, 1)); err == nil {
		t.Error("read on O_WRONLY file succeeded")
	}
	w.Close()

	// O_APPEND starts at end-of-file.
	a, err := c.Open(ctx, "/modes.txt", os.O_WRONLY|os.O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("+more")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	data, _ := c.ReadFile(ctx, "/modes.txt")
	if string(data) != "original+more" {
		t.Fatalf("after append = %q", data)
	}

	// O_TRUNC empties the file.
	tr, err := c.Open(ctx, "/modes.txt", os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	data, _ = c.ReadFile(ctx, "/modes.txt")
	if len(data) != 0 {
		t.Fatalf("after O_TRUNC = %q", data)
	}

	// Operations on a closed File fail.
	if _, err := tr.Write([]byte("x")); err == nil {
		t.Error("write on closed file succeeded")
	}
	if err := tr.Truncate(0); err == nil {
		t.Error("truncate on closed file succeeded")
	}
	if _, err := tr.Stat(); err == nil {
		t.Error("stat on closed file succeeded")
	}

	// O_CREATE|O_EXCL refuses an existing file but creates a missing one.
	if _, err := c.Open(ctx, "/modes.txt", os.O_CREATE|os.O_EXCL|os.O_WRONLY); err == nil {
		t.Error("O_EXCL open of existing file succeeded")
	}
	excl, err := c.Open(ctx, "/fresh.txt", os.O_CREATE|os.O_EXCL|os.O_WRONLY)
	if err != nil {
		t.Fatalf("O_EXCL open of missing file: %v", err)
	}
	excl.Close()

	// Opening a directory fails.
	if _, err := c.Open(ctx, "/", os.O_RDONLY); err == nil {
		t.Error("opened a directory as a file")
	}
}

// blockingFS wraps a store and parks every ReadInto until release is
// closed, simulating a slow or wedged backend so cancellation can be
// observed mid-RPC.
type blockingFS struct {
	discfs.FS
	release chan struct{}
}

func (b *blockingFS) ReadInto(h discfs.Handle, off uint64, dst []byte) (int, bool, error) {
	<-b.release
	return b.FS.ReadInto(h, off, dst)
}

func TestCanceledContextAbortsInFlightRPC(t *testing.T) {
	adminKey := discfs.DeterministicKey("cancel-admin")
	store, err := discfs.NewMemStore()
	if err != nil {
		t.Fatal(err)
	}
	blocking := &blockingFS{FS: store, release: make(chan struct{})}
	srv, err := discfs.NewServer(adminKey, discfs.WithBacking(blocking))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer close(blocking.release) // let the parked server goroutine finish

	bg := context.Background()
	c, err := discfs.Dial(bg, addr, adminKey)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.WriteFile(bg, "/slow.txt", []byte("contents")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, err := c.ReadFile(ctx, "/slow.txt")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the READ reach the blocked backend
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled in-flight read = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled RPC did not abort: ReadFile still blocked after 5s")
	}

	// The connection survives an abandoned call: after releasing the
	// backend, fresh operations work.
}

func TestExpiredContextFailsFast(t *testing.T) {
	addr, key := streamServer(t)
	bg := context.Background()
	c, err := discfs.Dial(bg, addr, key)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	expired, cancel := context.WithCancel(bg)
	cancel()
	if _, err := c.ReadFile(expired, "/x"); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled read = %v, want context.Canceled", err)
	}
	if _, err := c.Delegate(expired, key.Principal, 1, "R", ""); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled delegate = %v, want context.Canceled", err)
	}
	if _, err := discfs.Dial(expired, addr, key); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled dial = %v, want context.Canceled", err)
	}

	// A deadline in the past behaves the same.
	past, cancel2 := context.WithDeadline(bg, time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := c.ReadFile(past, "/x"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("past-deadline read = %v, want context.DeadlineExceeded", err)
	}
}
