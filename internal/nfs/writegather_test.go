package nfs

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"discfs/internal/ffs"
	"discfs/internal/vfs"
)

func gatherOver(t *testing.T, cfg GatherConfig) (*GatherFS, *ffs.FFS) {
	t.Helper()
	backing, err := ffs.New(ffs.Config{BlockSize: 1024, NumBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGatherFS(backing, cfg)
	t.Cleanup(func() { g.Close() })
	return g, backing
}

func mustCreate(t *testing.T, fs vfs.FS, name string) vfs.Handle {
	t.Helper()
	a, err := fs.Create(fs.Root(), name, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return a.Handle
}

func TestGatherWriteCommitReachesBacking(t *testing.T) {
	g, backing := gatherOver(t, GatherConfig{})
	h := mustCreate(t, g, "f")
	want := bytes.Repeat([]byte("abcdefgh"), 3000) // 24000 bytes, multi-extent
	for off := 0; off < len(want); off += MaxData {
		end := off + MaxData
		if end > len(want) {
			end = len(want)
		}
		if _, err := g.Write(h, uint64(off), want[off:end]); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	ver, attr, err := g.Commit(h)
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if ver != g.Verifier() || ver == 0 {
		t.Errorf("verifier = %d, want %d (non-zero)", ver, g.Verifier())
	}
	if attr.Size != uint64(len(want)) {
		t.Errorf("committed size = %d, want %d", attr.Size, len(want))
	}
	got, _, err := backing.Read(h, 0, uint32(len(want)))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("backing content mismatch after commit (err=%v)", err)
	}
	st := g.Stats()
	if st.WritesGathered == 0 || st.BackendWrites == 0 || st.Commits != 1 {
		t.Errorf("stats = %+v, want gathered>0, backendWrites>0, commits=1", st)
	}
	if st.BackendWrites >= st.WritesGathered {
		t.Errorf("no coalescing: %d backend writes for %d gathered", st.BackendWrites, st.WritesGathered)
	}
}

// TestGatherAppendDoesNotRecopyBacklog: a sequential writer the
// committers cannot keep up with (here: none run, the queue is below
// pressure) must not grow one extent without bound, re-copying it on
// every WRITE; adjacent extents stay as written until a flush gathers
// them, and the content still reads back and commits whole.
func TestGatherAppendDoesNotRecopyBacklog(t *testing.T) {
	g, backing := gatherOver(t, GatherConfig{QueueBlocks: 1024, maxRunBlocks: 4})
	h := mustCreate(t, g, "f")
	want := make([]byte, 40*MaxData)
	for i := range want {
		want[i] = byte(i * 31)
	}
	g.mu.Lock()
	g.workers = g.cfg.Committers // park the committers: the backlog only grows
	g.mu.Unlock()
	for off := 0; off < len(want); off += MaxData {
		if _, err := g.Write(h, uint64(off), want[off:off+MaxData]); err != nil {
			t.Fatal(err)
		}
	}
	g.mu.Lock()
	for _, e := range g.files[h].exts {
		if len(e.data) != MaxData {
			t.Errorf("extent at %d holds %d bytes: queued extents must stay the %d-byte writes they were", e.off, len(e.data), MaxData)
		}
	}
	g.workers = 0
	g.mu.Unlock()
	got, _, err := g.Read(h, 0, uint32(len(want)))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("buffered content mismatch (err=%v)", err)
	}
	if _, _, err := g.Commit(h); err != nil {
		t.Fatal(err)
	}
	got, _, err = backing.Read(h, 0, uint32(len(want)))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("backing content mismatch after commit (err=%v)", err)
	}
}

func TestGatherNewestWinsOnOverlap(t *testing.T) {
	g, _ := gatherOver(t, GatherConfig{})
	h := mustCreate(t, g, "f")
	if _, err := g.Write(h, 0, bytes.Repeat([]byte{'A'}, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write(h, 50, bytes.Repeat([]byte{'B'}, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write(h, 25, bytes.Repeat([]byte{'C'}, 10)); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{'A'}, 25), bytes.Repeat([]byte{'C'}, 10)...)
	want = append(want, bytes.Repeat([]byte{'A'}, 15)...)
	want = append(want, bytes.Repeat([]byte{'B'}, 100)...)
	// Read through the gather layer (pre-commit) and after commit.
	got, eof, err := g.Read(h, 0, 4096)
	if err != nil || !eof {
		t.Fatalf("gather read: err=%v eof=%v", err, eof)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("gather read = %q..., want %q...", got[:40], want[:40])
	}
	if _, _, err := g.Commit(h); err != nil {
		t.Fatal(err)
	}
	got2, _, err := g.Read(h, 0, 4096)
	if err != nil || !bytes.Equal(got2, want) {
		t.Fatalf("post-commit read mismatch (err=%v)", err)
	}
}

func TestGatherReadOverlayAndAttrBeforeFlush(t *testing.T) {
	// A huge queue and no pressure: data sits buffered, so reads and
	// attrs must be served from the overlay.
	g, backing := gatherOver(t, GatherConfig{QueueBlocks: 1 << 16})
	h := mustCreate(t, g, "f")
	if _, err := backing.Write(h, 0, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write(h, 4, []byte("WXYZ")); err != nil {
		t.Fatal(err)
	}
	got, _, err := g.Read(h, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "0123WXYZ89" {
		t.Errorf("overlay read = %q, want 0123WXYZ89", got)
	}
	// Buffered extension past backing EOF: size overlays, hole zero-fills.
	if _, err := g.Write(h, 20, []byte("TAIL")); err != nil {
		t.Fatal(err)
	}
	a, err := g.GetAttr(h)
	if err != nil || a.Size != 24 {
		t.Errorf("GetAttr size = %d (err=%v), want 24", a.Size, err)
	}
	got, eof, err := g.Read(h, 0, 64)
	if err != nil || !eof {
		t.Fatalf("read: err=%v eof=%v", err, eof)
	}
	want := append([]byte("0123WXYZ89"), make([]byte, 10)...)
	want = append(want, []byte("TAIL")...)
	if !bytes.Equal(got, want) {
		t.Errorf("extended read = %q, want %q", got, want)
	}
}

func TestGatherWriteToDirFailsSynchronously(t *testing.T) {
	g, _ := gatherOver(t, GatherConfig{})
	if _, err := g.Write(g.Root(), 0, []byte("x")); !errors.Is(err, vfs.ErrIsDir) {
		t.Errorf("Write to dir = %v, want ErrIsDir", err)
	}
	var bogus vfs.Handle
	bogus.Ino = 999
	if _, err := g.Write(bogus, 0, []byte("x")); !errors.Is(err, vfs.ErrStale) {
		t.Errorf("Write to bogus handle = %v, want ErrStale", err)
	}
}

func TestGatherStaleAtCommit(t *testing.T) {
	g, _ := gatherOver(t, GatherConfig{QueueBlocks: 1 << 16})
	h := mustCreate(t, g, "victim")
	if _, err := g.Write(h, 0, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := g.Remove(g.Root(), "victim"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Commit(h); !errors.Is(err, vfs.ErrStale) {
		t.Errorf("Commit after remove = %v, want ErrStale", err)
	}
	// The barrier cleared the error; the layer stays usable.
	h2 := mustCreate(t, g, "ok")
	if _, err := g.Write(h2, 0, []byte("fine")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Commit(h2); err != nil {
		t.Fatal(err)
	}
}

func TestGatherThrottleDrains(t *testing.T) {
	// A tiny queue bound forces the throttle path on every write.
	g, backing := gatherOver(t, GatherConfig{QueueBlocks: 1, Committers: 1})
	h := mustCreate(t, g, "f")
	want := bytes.Repeat([]byte("z"), 20*MaxData)
	for off := 0; off < len(want); off += MaxData {
		if _, err := g.Write(h, uint64(off), want[off:off+MaxData]); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := g.Commit(h); err != nil {
		t.Fatal(err)
	}
	got, _, err := backing.Read(h, 0, uint32(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("backing read mismatch: %d of %d bytes", len(got), len(want))
	}
}

func TestGatherSyncDrainsEverything(t *testing.T) {
	g, backing := gatherOver(t, GatherConfig{QueueBlocks: 1 << 16})
	var hs []vfs.Handle
	for _, name := range []string{"a", "b", "c"} {
		h := mustCreate(t, g, name)
		if _, err := g.Write(h, 0, []byte(name+name+name)); err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, h := range hs {
		name := []string{"a", "b", "c"}[i]
		got, _, err := backing.Read(h, 0, 16)
		if err != nil || string(got) != name+name+name {
			t.Fatalf("file %s not drained: %q, %v", name, got, err)
		}
	}
	if st := g.Stats(); st.QueueDepth != 0 {
		t.Errorf("queue depth after Sync = %d", st.QueueDepth)
	}
}

func TestGatherRebootChangesVerifierAndDropsPending(t *testing.T) {
	g, backing := gatherOver(t, GatherConfig{QueueBlocks: 1 << 16})
	h := mustCreate(t, g, "f")
	if _, err := g.Write(h, 0, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	v1, _, err := g.Commit(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write(h, 0, []byte("UNSTABLE!")); err != nil {
		t.Fatal(err)
	}
	g.Reboot(true)
	v2, _, err := g.Commit(h)
	if err != nil {
		t.Fatal(err)
	}
	if v1 == v2 {
		t.Error("verifier unchanged across reboot")
	}
	got, _, err := backing.Read(h, 0, 16)
	if err != nil || string(got) != "committed" {
		t.Errorf("backing after dropped pending = %q, %v; want committed", got, err)
	}
}

// gateFS blocks backing Writes until released, exposing the window
// where an extent has been dequeued but its backing write has not
// landed yet.
type gateFS struct {
	vfs.FS
	entered chan struct{}
	release chan struct{}
}

func (s *gateFS) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	s.entered <- struct{}{}
	<-s.release
	return s.FS.Write(h, off, data)
}

func TestGatherReadSeesInflightWrite(t *testing.T) {
	// A READ racing the committer must still see bytes whose WRITE was
	// already acknowledged, even while their extent is dequeued and the
	// backing write is in flight.
	backing, err := ffs.New(ffs.Config{BlockSize: 1024, NumBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateFS{FS: backing, entered: make(chan struct{}, 8), release: make(chan struct{})}
	g := NewGatherFS(gate, GatherConfig{QueueBlocks: 1 << 16})
	h := mustCreate(t, g, "f")
	if _, err := g.Write(h, 0, []byte("HELLO")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := g.Commit(h)
		done <- err
	}()
	<-gate.entered // extent dequeued, backing write blocked: the race window
	got, _, err := g.Read(h, 0, 16)
	if err != nil {
		t.Fatalf("Read during in-flight write: %v", err)
	}
	if string(got) != "HELLO" {
		t.Fatalf("Read during in-flight write = %q, want HELLO (acked bytes vanished)", got)
	}
	// A newer write queued during the window must win over the older
	// in-flight bytes on overlap.
	if _, err := g.Write(h, 3, []byte("YO")); err != nil {
		t.Fatal(err)
	}
	if got, _, err = g.Read(h, 0, 16); err != nil || string(got) != "HELYO" {
		t.Fatalf("overlapped read during in-flight write = %q, %v; want HELYO", got, err)
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _, err := backing.Read(h, 0, 16); err != nil || string(got) != "HELYO" {
		t.Fatalf("backing after drain = %q, %v; want HELYO", got, err)
	}
}

// stallAttrFS, once armed, holds the next GetAttr or Lookup after the
// store has answered it, until released: the attributes it returns are
// then older than whatever lands meanwhile.
type stallAttrFS struct {
	vfs.FS
	armed   atomic.Bool
	read    chan struct{}
	release chan struct{}
}

func (s *stallAttrFS) stall(a vfs.Attr, err error) (vfs.Attr, error) {
	if s.armed.CompareAndSwap(true, false) {
		close(s.read)
		<-s.release
	}
	return a, err
}

func (s *stallAttrFS) GetAttr(h vfs.Handle) (vfs.Attr, error) { return s.stall(s.FS.GetAttr(h)) }

func (s *stallAttrFS) Lookup(dir vfs.Handle, name string) (vfs.Attr, error) {
	return s.stall(s.FS.Lookup(dir, name))
}

// TestGatherAttrsCoverLandedWrite: GetAttr and Lookup read the store's
// size before a COMMIT drains the file's last buffered WRITE, and look at
// the buffered state only after the drain dropped it. They must still
// report the size that acknowledged WRITE made: the READ handler clips
// its reply to that size, and a client adopts it at open, so a short one
// turns acknowledged bytes into zeros.
func TestGatherAttrsCoverLandedWrite(t *testing.T) {
	for _, tc := range []struct {
		name string
		attr func(g *GatherFS, h vfs.Handle) (vfs.Attr, error)
	}{
		{"GetAttr", func(g *GatherFS, h vfs.Handle) (vfs.Attr, error) { return g.GetAttr(h) }},
		{"Lookup", func(g *GatherFS, _ vfs.Handle) (vfs.Attr, error) { return g.Lookup(g.Root(), "f") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := &stallAttrFS{FS: bigFFS(t), read: make(chan struct{}), release: make(chan struct{})}
			g := NewGatherFS(st, GatherConfig{})
			defer g.Close()
			h := mustCreate(t, g, "f")
			mustWrite(t, g, h, 0, testBytes(MaxData, 1)) // held for its barrier
			st.armed.Store(true)
			type result struct {
				a   vfs.Attr
				err error
			}
			got := make(chan result, 1)
			go func() {
				a, err := tc.attr(g, h)
				got <- result{a, err}
			}()
			<-st.read // the store answered: size 0
			if _, _, err := g.Commit(h); err != nil {
				t.Fatal(err)
			}
			close(st.release)
			r := <-got
			if r.err != nil || r.a.Size != MaxData {
				t.Errorf("%s = size %d, %v; want %d, the acknowledged WRITE's end", tc.name, r.a.Size, r.err, MaxData)
			}
		})
	}
}

func TestGatherStaleFlushReclaimsEntry(t *testing.T) {
	// A file unlinked behind the gather layer's back (the Lookup/Remove
	// race with a concurrent rename): the next barrier must reclaim its
	// buffered state rather than pinning the entry with a sticky error.
	g, backing := gatherOver(t, GatherConfig{QueueBlocks: 1 << 16})
	h := mustCreate(t, g, "victim")
	if _, err := g.Write(h, 0, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := backing.Remove(backing.Root(), "victim"); err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatalf("Sync: %v (a stale flush is benign to the whole-server barrier)", err)
	}
	g.mu.Lock()
	tracked, depth := len(g.files), g.pinned
	g.mu.Unlock()
	if tracked != 0 || depth != 0 {
		t.Errorf("after stale flush: %d tracked files, %d dirty bytes; want 0, 0", tracked, depth)
	}
	if _, _, err := g.Commit(h); !errors.Is(err, vfs.ErrStale) {
		t.Errorf("Commit on unlinked handle = %v, want ErrStale", err)
	}
}

func TestGatherWriteAfterCloseWritesThrough(t *testing.T) {
	g, backing := gatherOver(t, GatherConfig{QueueBlocks: 1 << 16})
	h := mustCreate(t, g, "f")
	if _, err := g.Write(h, 0, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	// A write after Close must not buffer into a queue nothing drains:
	// it writes through to the backing store synchronously.
	if _, err := g.Write(h, 6, []byte("after!")); err != nil {
		t.Fatal(err)
	}
	got, _, err := backing.Read(h, 0, 16)
	if err != nil || string(got) != "beforeafter!" {
		t.Fatalf("backing after post-Close write = %q, %v; want beforeafter!", got, err)
	}
	if st := g.Stats(); st.QueueDepth != 0 {
		t.Errorf("post-Close write buffered: queue depth = %d, want 0", st.QueueDepth)
	}
}

func TestCommitFSFallbackStableServer(t *testing.T) {
	backing, err := ffs.New(ffs.Config{BlockSize: 1024, NumBlocks: 1024})
	if err != nil {
		t.Fatal(err)
	}
	h := mustCreate(t, backing, "f")
	if _, err := backing.Write(h, 0, []byte("stable")); err != nil {
		t.Fatal(err)
	}
	ver, attr, err := CommitFS(backing, h)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 0 {
		t.Errorf("stable-server verifier = %d, want 0", ver)
	}
	if attr.Size != 6 {
		t.Errorf("attr.Size = %d, want 6", attr.Size)
	}
}
