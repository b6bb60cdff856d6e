package nfs

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"discfs/internal/dedup"
	"discfs/internal/ffs"
	"discfs/internal/vfs"
)

// Tests of the order in which the committers hand runs to the store: a
// run that would start past the store's EOF waits for the WRITE that
// fills the hole, unless the queue is under pressure or a barrier drains
// it.

// backingWrite is one Write the store received, with its EOF just before.
type backingWrite struct{ off, n, eof uint64 }

// recordFS logs the Writes that reach the store.
type recordFS struct {
	vfs.FS
	mu  sync.Mutex
	log []backingWrite
}

func (r *recordFS) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	a, err := r.FS.GetAttr(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	r.mu.Lock()
	r.log = append(r.log, backingWrite{off, uint64(len(data)), a.Size})
	r.mu.Unlock()
	return r.FS.Write(h, off, data)
}

func (r *recordFS) writes() []backingWrite {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]backingWrite(nil), r.log...)
}

// settle waits until the committers have nothing left to pick: no flush
// is in flight and every queued run is one they hold back. Whatever
// gives them work broadcasts, and so does every flush as it ends.
func settle(g *GatherFS) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		_, f := g.pickLocked()
		busy := f != nil
		for _, f := range g.files {
			busy = busy || f.flushing
		}
		if !busy {
			return
		}
		g.cond.Wait()
	}
}

func mustWrite(t *testing.T, fs vfs.FS, h vfs.Handle, off uint64, data []byte) {
	t.Helper()
	if _, err := fs.Write(h, off, data); err != nil {
		t.Fatalf("Write %d bytes at %d: %v", len(data), off, err)
	}
}

// noWritePastEOF fails for every logged store write that opened a hole.
func noWritePastEOF(t *testing.T, log []backingWrite) {
	t.Helper()
	for _, w := range log {
		if w.off > w.eof {
			t.Errorf("the store got a write at %d past its EOF %d", w.off, w.eof)
		}
	}
}

// TestGatherFlushesInFileOrder: windows n+1 and n+2 of a transfer-sized
// stream arrive before n (the client flushes them on several
// connections). The committers hold them back until n is in, so the
// store sees n first and is never asked to write past its EOF.
func TestGatherFlushesInFileOrder(t *testing.T) {
	rec := &recordFS{FS: bigFFS(t)}
	g := NewGatherFS(rec, GatherConfig{})
	defer g.Close()
	h := mustCreate(t, g, "f")
	want := testBytes(3*xferBytes, 1)
	window := func(i int) { mustWrite(t, g, h, uint64(i*xferBytes), want[i*xferBytes:(i+1)*xferBytes]) }
	window(1)
	window(2) // closes window 1's run: the two do not fit one backing write
	settle(g)
	if log := rec.writes(); len(log) != 0 {
		t.Errorf("the committers flushed %+v before the write that fills the hole", log)
	}
	window(0)
	if _, _, err := g.Commit(h); err != nil {
		t.Fatal(err)
	}
	log := rec.writes()
	for i, w := range log {
		if w.off != uint64(i*xferBytes) {
			t.Errorf("store write %d is at %d, want %d: %+v", i, w.off, i*xferBytes, log)
			break
		}
	}
	noWritePastEOF(t, log)
	if got, _, err := rec.FS.Read(h, 0, uint32(len(want))); err != nil || !bytes.Equal(got, want) {
		t.Errorf("store content differs (err=%v)", err)
	}
}

// TestGatherPressureFlushesPastEOF: a queue filled past half its bound
// with runs that each start past the store's EOF still flushes them —
// the memory bound and the writer throttle do not wait for holes to
// fill (see TestGatherQueueBoundsPinnedMemory).
func TestGatherPressureFlushesPastEOF(t *testing.T) {
	const queueBlocks = 16
	rec := &recordFS{FS: bigFFS(t)}
	g := NewGatherFS(rec, GatherConfig{QueueBlocks: queueBlocks, maxRunBlocks: 1})
	defer g.Close()
	h := mustCreate(t, g, "f")
	const writes = 64 // four times the bound
	want := make([]byte, 2*writes*MaxData)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < writes; i++ {
			off := (2*i + 1) * MaxData // a hole before every one
			data := testBytes(MaxData, byte(i))
			if _, err := g.Write(h, uint64(off), data); err != nil {
				t.Error(err)
				return
			}
			copy(want[off:], data)
			if d := g.Stats().QueueDepth; d > queueBlocks*MaxData {
				t.Errorf("write %d: queue holds %d bytes, bound %d", i, d, queueBlocks*MaxData)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("writers throttled forever: the committers held back past-EOF runs under pressure")
	}
	if n := len(rec.writes()); n == 0 {
		t.Error("no run reached the store before COMMIT")
	}
	if _, _, err := g.Commit(h); err != nil {
		t.Fatal(err)
	}
	if got, _, err := rec.FS.Read(h, 0, uint32(len(want))); err != nil || !bytes.Equal(got, want) {
		t.Errorf("store content differs (err=%v)", err)
	}
}

// TestGatherCommitWritesHeldBackRun: COMMIT drains a run whose hole
// never fills, hole and all: it returns only once the run is on the
// store, and the hole reads as zeros.
func TestGatherCommitWritesHeldBackRun(t *testing.T) {
	rec := &recordFS{FS: bigFFS(t)}
	g := NewGatherFS(rec, GatherConfig{maxRunBlocks: 1})
	defer g.Close()
	h := mustCreate(t, g, "f")
	data := testBytes(MaxData, 3)
	mustWrite(t, g, h, 3*MaxData, data)
	settle(g)
	if log := rec.writes(); len(log) != 0 {
		t.Fatalf("the committers flushed %+v past the store's EOF", log)
	}
	if _, attr, err := g.Commit(h); err != nil || attr.Size != 4*MaxData {
		t.Fatalf("Commit: size %d, err %v; want %d", attr.Size, err, 4*MaxData)
	}
	want := append(make([]byte, 3*MaxData), data...)
	if got, _, err := rec.FS.Read(h, 0, 8*MaxData); err != nil || !bytes.Equal(got, want) {
		t.Errorf("store content after COMMIT differs (err=%v)", err)
	}
	if got, _, err := g.Read(h, 0, 8*MaxData); err != nil || !bytes.Equal(got, want) {
		t.Errorf("content read through the gather layer differs (err=%v)", err)
	}
}

// setAttrGate holds SetAttr calls until released.
type setAttrGate struct {
	vfs.FS
	entered, release chan struct{}
}

func (s *setAttrGate) SetAttr(h vfs.Handle, sa vfs.SetAttr) (vfs.Attr, error) {
	s.entered <- struct{}{}
	<-s.release
	return s.FS.SetAttr(h, sa)
}

// TestGatherSetAttrMovesEOF: a WRITE that races a SETATTR extending the
// file queues with the size from before it, past that EOF. Once the
// SETATTR lands the run starts below the store's EOF, and the
// committers flush it without waiting for a COMMIT.
func TestGatherSetAttrMovesEOF(t *testing.T) {
	gate := &setAttrGate{FS: bigFFS(t), entered: make(chan struct{}), release: make(chan struct{})}
	rec := &recordFS{FS: gate}
	g := NewGatherFS(rec, GatherConfig{maxRunBlocks: 1})
	defer g.Close()
	h := mustCreate(t, g, "f")
	done := make(chan error, 1)
	go func() {
		size := uint64(4 * MaxData)
		_, err := g.SetAttr(h, vfs.SetAttr{Size: &size})
		done <- err
	}()
	<-gate.entered
	mustWrite(t, g, h, 2*MaxData, testBytes(MaxData, 4))
	settle(g)
	if log := rec.writes(); len(log) != 0 {
		t.Fatalf("the committers flushed %+v past the store's EOF", log)
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	settle(g)
	log := rec.writes()
	if len(log) != 1 || log[0].off != 2*MaxData {
		t.Errorf("store writes after the SETATTR: %+v, want the run at %d", log, 2*MaxData)
	}
	noWritePastEOF(t, log)
}

// TestGatherOverDedupStoresNoZeros: a file of unique bytes delivered as
// shuffled transfer-sized WRITEs, n+1 ahead of n, reaches the dedup
// store in file order: it never zero-fills a hole, so no chunk is a
// duplicate and none is garbage after the COMMIT.
func TestGatherOverDedupStoresNoZeros(t *testing.T) {
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 8192, MaxInodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	d, err := dedup.Wrap(backing, dedup.WithSweepInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// A bound no test write reaches: this is about the committers' own
	// choice, not pressure.
	g := NewGatherFS(d, GatherConfig{QueueBlocks: 1 << 12})
	defer g.Close()
	h := mustCreate(t, g, "f")
	const windows = 12
	want := make([]byte, windows*xferBytes)
	rng := rand.New(rand.NewSource(7))
	rng.Read(want)
	order := []int{1, 2, 0} // then the rest shuffled
	for _, i := range rng.Perm(windows - 3) {
		order = append(order, 3+i)
	}
	for _, i := range order {
		mustWrite(t, g, h, uint64(i*xferBytes), want[i*xferBytes:(i+1)*xferBytes])
		settle(g)
	}
	if _, _, err := g.Commit(h); err != nil {
		t.Fatal(err)
	}
	d.SweepNow()
	if got, _, err := d.Read(h, 0, uint32(len(want))); err != nil || !bytes.Equal(got, want) {
		t.Errorf("content differs (err=%v)", err)
	}
	if res, err := d.Verify(); err != nil || res.Orphans != 0 || res.RefMismatch != 0 || res.MissingChunk != 0 {
		t.Errorf("Verify = %+v, %v", res, err)
	}
	if st := d.Stats(); st.Hits != 0 || st.GCChunks != 0 {
		t.Errorf("dedup stats %+v: a zero-filled hole was chunked (hits) and later rewritten (GC)", st)
	}
}
