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

func mustCreate(t *testing.T, fs vfs.FS, name string) vfs.Handle {
	t.Helper()
	a, err := fs.Create(fs.Root(), name, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return a.Handle
}

func mustWrite(t *testing.T, fs vfs.FS, h vfs.Handle, off uint64, data []byte) {
	t.Helper()
	if _, err := fs.Write(h, off, data); err != nil {
		t.Fatalf("Write %d bytes at %d: %v", len(data), off, err)
	}
}

func testBytes(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13) ^ salt
	}
	return b
}

// TestServerReadCycleBudget: READ fills its reply window straight from
// the store; with a pooled reply record nothing payload-sized is
// allocated.
func TestServerReadCycleBudget(t *testing.T) {
	backing := bigFFS(t)
	h := mustCreate(t, backing, "f")
	data := testBytes(xferBytes, 2)
	if _, err := backing.Write(h, 0, data); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(StaticExport{FS: backing})
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

// aliasFS counts the Writes whose payload is not a slice of rec, the
// call record the server decoded it from: each is a payload copy.
type aliasFS struct {
	vfs.FS
	rec    []byte
	copies int
}

func (a *aliasFS) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	if i := cap(a.rec) - cap(data); len(data) > 0 && (i < 0 || i >= len(a.rec) || &a.rec[i] != &data[0]) {
		a.copies++
	}
	return a.FS.Write(h, off, data)
}

// TestWriteExtentsPayloadUncopied: every extent of a WRITEEXTENTS call
// reaches the store as a slice of the call record, with no payload copy
// on the way, and the call allocates nothing payload-sized.
func TestWriteExtentsPayloadUncopied(t *testing.T) {
	backing := bigFFS(t)
	h := mustCreate(t, backing, "f")
	data := testBytes(xferBytes, 4)
	// Three extents, written out of offset order.
	exts := []struct{ off, lo, hi int }{
		{2 * xferBytes, 0, 10 * MaxData},
		{0, 10 * MaxData, 40 * MaxData},
		{xferBytes, 40 * MaxData, xferBytes},
	}
	fh := EncodeFH(h)
	args := xdr.NewEncoder()
	args.OpaqueFixed(fh[:])
	args.Uint32(uint32(len(exts)))
	for _, x := range exts {
		args.Uint32(uint32(x.off))
		args.Opaque(data[x.lo:x.hi])
	}
	store := &aliasFS{FS: backing, rec: args.Bytes()}
	srv := NewServer(StaticExport{FS: store})
	ctx := &sunrpc.Context{Peer: "budget"}
	call := func() {
		res := xdr.NewEncoderWith(bufpool.Get(512))
		if stat, err := srv.dispatch(ctx, ProcWriteExtents, xdr.NewDecoder(store.rec), res); err != nil || stat != sunrpc.Success {
			t.Fatalf("WRITEEXTENTS: stat=%v err=%v", stat, err)
		}
		if st := Stat(xdr.NewDecoder(res.Bytes()).Uint32()); st != OK {
			t.Fatalf("WRITEEXTENTS status %v", st)
		}
		bufpool.Put(res.Bytes())
	}
	call()
	if store.copies != 0 {
		t.Errorf("%d of %d extents reached the store copied", store.copies, len(exts))
	}
	for _, x := range exts {
		got := make([]byte, x.hi-x.lo)
		if _, _, err := backing.ReadInto(h, uint64(x.off), got); err != nil || !bytes.Equal(got, data[x.lo:x.hi]) {
			t.Fatalf("extent at %d reads back wrong (err %v)", x.off, err)
		}
	}
	if per := heapBytesPer(t, 20, call); per > xferBytes/8 {
		t.Errorf("a %d-byte WRITEEXTENTS allocates %d heap bytes", xferBytes, per)
	}
}
