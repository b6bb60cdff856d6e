package nfs

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"discfs/internal/bufpool"
	"discfs/internal/ffs"
	"discfs/internal/sunrpc"
	"discfs/internal/vfs"
	"discfs/internal/xdr"
)

// Tests that pin the copy budget of the server data path: a payload is
// held in pooled buffers from the RPC record to the block device and
// back, every one of which returns to the pool, and no step allocates a
// payload-sized buffer on the heap.

const xferBytes = DefaultMaxTransfer // 504 KiB

// heapBytesPer runs f n times after a warm-up and returns the heap
// bytes allocated per run. The collector is held off so that pooled
// buffers stay pooled between runs.
func heapBytesPer(t *testing.T, n int, f func()) uint64 {
	t.Helper()
	if raceEnabled {
		t.Skip("byte budget of pooled paths is not measurable under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

func bigFFS(t *testing.T) *ffs.FFS {
	t.Helper()
	fs, err := ffs.New(ffs.Config{BlockSize: 8192, NumBlocks: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func testBytes(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13) ^ salt
	}
	return b
}

// TestGatherWriteFlushCycleBudget: a transfer-sized WRITE is copied once
// into a pooled buffer, flushed from it, and the buffer comes back.
func TestGatherWriteFlushCycleBudget(t *testing.T) {
	g := NewGatherFS(bigFFS(t), GatherConfig{})
	defer g.Close()
	h := mustCreate(t, g, "f")
	data := testBytes(xferBytes, 1)
	base := bufpool.Outstanding()
	cycle := func() {
		if _, err := g.Write(h, 0, data); err != nil {
			t.Fatal(err)
		}
		if _, _, err := g.Commit(h); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if d := bufpool.Outstanding() - base; d != 0 {
		t.Fatalf("a WRITE+COMMIT cycle left %d pooled buffers out", d)
	}
	if per := heapBytesPer(t, 20, cycle); per > xferBytes/8 {
		t.Errorf("a %d-byte WRITE+COMMIT cycle allocates %d heap bytes", xferBytes, per)
	}
}

// TestServerReadCycleBudget: READ fills its reply window straight from
// the store; with a pooled reply record nothing payload-sized is
// allocated.
func TestServerReadCycleBudget(t *testing.T) {
	backing := bigFFS(t)
	g := NewGatherFS(backing, GatherConfig{})
	defer g.Close()
	h := mustCreate(t, g, "f")
	data := testBytes(xferBytes, 2)
	if _, err := backing.Write(h, 0, data); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(StaticExport{FS: g})
	fh := EncodeFH(h)
	args := xdr.NewEncoder()
	args.OpaqueFixed(fh[:])
	args.Uint32(0)
	args.Uint32(xferBytes)
	args.Uint32(xferBytes)
	ctx := &sunrpc.Context{Peer: "budget"}
	base := bufpool.Outstanding()
	cycle := func() {
		res := xdr.NewEncoderWith(bufpool.Get(512))
		if stat, err := srv.dispatch(ctx, ProcRead, xdr.NewDecoder(args.Bytes()), res); err != nil || stat != sunrpc.Success {
			t.Fatalf("READ: stat=%v err=%v", stat, err)
		}
		d := xdr.NewDecoder(res.Bytes())
		if st := Stat(d.Uint32()); st != OK {
			t.Fatalf("READ status %v", st)
		}
		DecodeFAttr(d)
		if got := d.Opaque(xferBytes); d.Err() != nil || !bytes.Equal(got, data) {
			t.Fatalf("READ payload differs (err=%v)", d.Err())
		}
		bufpool.Put(res.Bytes())
	}
	cycle()
	if d := bufpool.Outstanding() - base; d != 0 {
		t.Fatalf("a READ cycle left %d pooled buffers out", d)
	}
	if per := heapBytesPer(t, 20, cycle); per > xferBytes/8 {
		t.Errorf("a %d-byte READ allocates %d heap bytes", xferBytes, per)
	}
}

// TestGatherQueuePathsReturnBuffers drives the gather queue through its
// special cases and checks, for each, that the bytes come out right and
// every pooled buffer goes back.
func TestGatherQueuePathsReturnBuffers(t *testing.T) {
	check := func(t *testing.T, base int64) {
		t.Helper()
		if d := bufpool.Outstanding() - base; d != 0 {
			t.Errorf("%d pooled buffers still out", d)
		}
	}

	t.Run("adjacent small writes coalesce once", func(t *testing.T) {
		backing := bigFFS(t)
		g := NewGatherFS(backing, GatherConfig{})
		defer g.Close()
		h := mustCreate(t, g, "f")
		const n = DefaultMaxTransfer / MaxData // one full run
		data := testBytes(n*MaxData, 3)
		base, gets := bufpool.Outstanding(), bufpool.Stats().Gets
		for i := 0; i < n; i++ {
			if _, err := g.Write(h, uint64(i*MaxData), data[i*MaxData:(i+1)*MaxData]); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := g.Commit(h); err != nil {
			t.Fatal(err)
		}
		// One pooled buffer per WRITE (the first copy) and one for the
		// run they are flushed as (the second): no byte is copied a
		// third time. ffs itself takes none.
		if d := bufpool.Stats().Gets - gets; d != n+1 {
			t.Errorf("%d adjacent 8 KiB writes took %d pooled buffers, want %d", n, d, n+1)
		}
		if st := g.Stats(); st.BackendWrites != 1 {
			t.Errorf("%d backend writes for one full run of adjacent writes", st.BackendWrites)
		}
		if got, _, err := backing.Read(h, 0, uint32(len(data))); err != nil || !bytes.Equal(got, data) {
			t.Errorf("backing content differs (err=%v)", err)
		}
		check(t, base)
	})

	t.Run("overlap keeps the pieces that still show", func(t *testing.T) {
		backing := bigFFS(t)
		g := NewGatherFS(backing, GatherConfig{})
		defer g.Close()
		h := mustCreate(t, g, "f")
		base := bufpool.Outstanding()
		want := testBytes(3*MaxData, 4)
		if _, err := g.Write(h, 0, want); err != nil {
			t.Fatal(err)
		}
		mid := testBytes(MaxData, 5)
		if _, err := g.Write(h, MaxData/2, mid); err != nil { // splits the first extent in two
			t.Fatal(err)
		}
		copy(want[MaxData/2:], mid)
		if got, _, err := g.Read(h, 0, uint32(len(want))); err != nil || !bytes.Equal(got, want) {
			t.Errorf("buffered read differs (err=%v)", err)
		}
		// Both buffers are still held (the first shows on either side of
		// the second), each counted once at its pool class.
		if st := g.Stats(); st.QueueDepth != 4*MaxData+MaxData {
			t.Errorf("queue depth %d after an overlapping write, want %d", st.QueueDepth, 5*MaxData)
		}
		if _, _, err := g.Commit(h); err != nil {
			t.Fatal(err)
		}
		if got, _, err := backing.Read(h, 0, uint32(len(want))); err != nil || !bytes.Equal(got, want) {
			t.Errorf("backing content differs (err=%v)", err)
		}
		check(t, base)
	})

	t.Run("split at the run size", func(t *testing.T) {
		backing := bigFFS(t)
		g := NewGatherFS(backing, GatherConfig{maxRunBlocks: 4})
		defer g.Close()
		h := mustCreate(t, g, "f")
		base := bufpool.Outstanding()
		data := testBytes(10*MaxData+100, 6) // 2 full runs and a tail from one payload
		if _, err := g.Write(h, 0, data); err != nil {
			t.Fatal(err)
		}
		if _, _, err := g.Commit(h); err != nil {
			t.Fatal(err)
		}
		if st := g.Stats(); st.BackendWrites != 3 {
			t.Errorf("%d backend writes for 2.5 runs, want 3", st.BackendWrites)
		}
		if got, _, err := backing.Read(h, 0, uint32(len(data))); err != nil || !bytes.Equal(got, data) {
			t.Errorf("backing content differs (err=%v)", err)
		}
		check(t, base)
	})

	t.Run("overlay read while in flight", func(t *testing.T) {
		backing := bigFFS(t)
		gate := &gateFS{FS: backing, entered: make(chan struct{}, 8), release: make(chan struct{})}
		g := NewGatherFS(gate, GatherConfig{QueueBlocks: 1 << 16})
		h := mustCreate(t, g, "f")
		base := bufpool.Outstanding()
		first, second := testBytes(xferBytes, 7), testBytes(MaxData, 8)
		if _, err := g.Write(h, 0, first); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, _, err := g.Commit(h)
			done <- err
		}()
		<-gate.entered // dequeued, its backing write blocked
		if _, err := g.Write(h, MaxData, second); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), first...)
		copy(want[MaxData:], second)
		dst := make([]byte, xferBytes)
		if n, _, err := g.ReadInto(h, 0, dst); err != nil || n != len(dst) || !bytes.Equal(dst, want) {
			t.Errorf("overlay read: n=%d err=%v equal=%v", n, err, bytes.Equal(dst, want))
		}
		close(gate.release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		if got, _, err := backing.Read(h, 0, xferBytes); err != nil || !bytes.Equal(got, want) {
			t.Errorf("backing content differs (err=%v)", err)
		}
		check(t, base)
	})

	t.Run("stale handle drops the queue", func(t *testing.T) {
		backing := bigFFS(t)
		g := NewGatherFS(backing, GatherConfig{QueueBlocks: 1 << 16})
		defer g.Close()
		h := mustCreate(t, g, "victim")
		base := bufpool.Outstanding()
		for i := 0; i < 4; i++ { // non-adjacent: four separate flushes would be needed
			if _, err := g.Write(h, uint64(2*i*MaxData), testBytes(MaxData, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := backing.Remove(backing.Root(), "victim"); err != nil {
			t.Fatal(err)
		}
		if err := g.Sync(); err != nil {
			t.Fatal(err)
		}
		check(t, base)
	})

	t.Run("reboot drops pending", func(t *testing.T) {
		g := NewGatherFS(bigFFS(t), GatherConfig{QueueBlocks: 1 << 16})
		defer g.Close()
		h := mustCreate(t, g, "f")
		base := bufpool.Outstanding()
		if _, err := g.Write(h, 0, testBytes(xferBytes, 9)); err != nil {
			t.Fatal(err)
		}
		g.Reboot(true)
		check(t, base)
	})
}

// TestGatherQueueBoundsPinnedMemory: the queue bound is on memory held,
// not on bytes buffered. Writers of tiny unstable WRITEs that never
// COMMIT — appending, rewriting one spot, scattered — each pin a whole
// pooled buffer per WRITE; the buffers out at any moment stay within the
// bound for the queue plus as much again for the run in flight.
func TestGatherQueueBoundsPinnedMemory(t *testing.T) {
	const queueBlocks = 16
	const minClass = 4096 // bufpool's smallest buffer
	limit := int64(2*queueBlocks*MaxData/minClass + 4)
	for _, tc := range []struct {
		name string
		size int
		off  func(i int) uint64
	}{
		{"1-byte appends", 1, func(i int) uint64 { return uint64(i) }},
		{"100-byte appends", 100, func(i int) uint64 { return uint64(i * 100) }},
		{"100-byte shifted overlaps", 100, func(i int) uint64 { return uint64(i * 60) }},
		{"1-byte scattered", 1, func(i int) uint64 { return uint64(i%97) * 3 * MaxData }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backing := bigFFS(t)
			g := NewGatherFS(backing, GatherConfig{QueueBlocks: queueBlocks})
			defer g.Close()
			h := mustCreate(t, g, "f")
			base := bufpool.Outstanding()
			const writes = 4000
			want := make([]byte, 97*3*MaxData+writes*100)
			size := 0
			var worst int64
			for i := 0; i < writes; i++ {
				data := testBytes(tc.size, byte(i))
				off := int(tc.off(i))
				if _, err := g.Write(h, uint64(off), data); err != nil {
					t.Fatal(err)
				}
				copy(want[off:], data)
				size = max(size, off+len(data))
				worst = max(worst, bufpool.Outstanding()-base)
				if d := g.Stats().QueueDepth; d > queueBlocks*MaxData+minClass {
					t.Fatalf("write %d: queue holds %d bytes, bound %d", i, d, queueBlocks*MaxData)
				}
			}
			if worst > limit {
				t.Errorf("%d pooled buffers out at once, want at most %d", worst, limit)
			}
			if _, _, err := g.Commit(h); err != nil {
				t.Fatal(err)
			}
			if got, _, err := backing.Read(h, 0, uint32(size)); err != nil || !bytes.Equal(got, want[:size]) {
				t.Errorf("backing content differs (err=%v)", err)
			}
			if d := bufpool.Outstanding() - base; d != 0 {
				t.Errorf("%d pooled buffers still out", d)
			}
		})
	}
}

// shrunkFS reports a file larger than what a read of it then delivers:
// the file shrank between the READ handler's GETATTR and its read.
type shrunkFS struct {
	vfs.FS
	short int
}

func (s shrunkFS) ReadInto(h vfs.Handle, off uint64, dst []byte) (int, bool, error) {
	n, _, err := s.FS.ReadInto(h, off, dst)
	return min(n, s.short), true, err
}

// TestShortReadKeepsZeroPadding: the READ reply window is handed out
// uncleared, in a reply record that held other bytes before. When the
// read comes up short the opaque is cut to what was read, and its XDR
// padding is zeros, not leftovers.
func TestShortReadKeepsZeroPadding(t *testing.T) {
	backing := bigFFS(t)
	h := mustCreate(t, backing, "f")
	data := testBytes(4096, 11)
	if _, err := backing.Write(h, 0, data); err != nil {
		t.Fatal(err)
	}
	const short = 1001 // 3 bytes of padding
	srv := NewServer(StaticExport{FS: shrunkFS{FS: backing, short: short}})
	fh := EncodeFH(h)
	args := xdr.NewEncoder()
	args.OpaqueFixed(fh[:])
	args.Uint32(0)
	args.Uint32(4096)
	args.Uint32(4096)
	dirty := bytes.Repeat([]byte{0xff}, 8192)
	res := xdr.NewEncoderWith(dirty)
	stat, err := srv.dispatch(&sunrpc.Context{Peer: "short"}, ProcRead, xdr.NewDecoder(args.Bytes()), res)
	if err != nil || stat != sunrpc.Success {
		t.Fatalf("READ: stat=%v err=%v", stat, err)
	}
	d := xdr.NewDecoder(res.Bytes())
	if st := Stat(d.Uint32()); st != OK {
		t.Fatalf("READ status %v", st)
	}
	DecodeFAttr(d)
	got := d.Opaque(4096)
	if d.Err() != nil || !bytes.Equal(got, data[:short]) {
		t.Fatalf("short READ payload: %d bytes, err=%v", len(got), d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("%d bytes follow the shortened opaque", d.Remaining())
	}
	raw := res.Bytes()
	if pad := raw[len(raw)-3:]; !bytes.Equal(pad, []byte{0, 0, 0}) {
		t.Errorf("padding after a short READ is % x", pad)
	}
}
