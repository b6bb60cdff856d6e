package nfs

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"discfs/internal/bufpool"
	"discfs/internal/ffs"
	"discfs/internal/sunrpc"
	"discfs/internal/vfs"
	"discfs/internal/xdr"
)

func newEnc() *xdr.Encoder         { return xdr.NewEncoder() }
func newDec(b []byte) *xdr.Decoder { return xdr.NewDecoder(b) }

// writeAll writes data through sequential maximal WRITEs at offset 0.
func writeAll(ctx context.Context, c *Client, h vfs.Handle, data []byte) error {
	step := int(c.MaxData())
	for off := 0; off < len(data); off += step {
		end := min(off+step, len(data))
		if _, err := c.Write(ctx, h, uint32(off), data[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// startStack brings up FFS → NFS server → TCP → NFS client.
func startStack(t *testing.T) (*Client, *ffs.FFS) {
	t.Helper()
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 8192})
	if err != nil {
		t.Fatalf("ffs.New: %v", err)
	}
	return serveBacking(t, backing), backing
}

// serveBacking exports backing on a fresh server and returns a
// connected, un-negotiated client.
func serveBacking(t *testing.T, backing *ffs.FFS) *Client {
	t.Helper()
	rpcSrv := sunrpc.NewServer()
	NewServer(StaticExport{FS: backing}).RegisterAll(rpcSrv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go rpcSrv.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c := NewClient(sunrpc.NewClient(conn))
	t.Cleanup(func() {
		c.RPC().Close()
		rpcSrv.Close()
	})
	return c
}

func mountRoot(t *testing.T, c *Client) vfs.Handle {
	ctx := context.Background()
	t.Helper()
	root, err := c.Mount(ctx, "/export")
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return root
}

func TestMountAndNull(t *testing.T) {
	ctx := context.Background()
	c, backing := startStack(t)
	root := mountRoot(t, c)
	if root != backing.Root() {
		t.Errorf("mounted root %+v != backend root %+v", root, backing.Root())
	}
	if err := c.Null(ctx); err != nil {
		t.Errorf("NULL: %v", err)
	}
	if err := c.Unmount(ctx, "/export"); err != nil {
		t.Errorf("UMNT: %v", err)
	}
}

func TestCreateWriteReadOverWire(t *testing.T) {
	ctx := context.Background()
	c, _ := startStack(t)
	root := mountRoot(t, c)
	attr, err := c.Create(ctx, root, "wire.txt", 0o644)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if attr.Type != vfs.TypeRegular {
		t.Errorf("type = %v", attr.Type)
	}
	msg := []byte("over the wire")
	if _, err := c.Write(ctx, attr.Handle, 0, msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	data, a2, err := c.Read(ctx, attr.Handle, 0, 100)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(data, msg) {
		t.Errorf("read = %q", data)
	}
	if a2.Size != uint64(len(msg)) {
		t.Errorf("size = %d", a2.Size)
	}
}

func TestLookupAndGetattr(t *testing.T) {
	ctx := context.Background()
	c, _ := startStack(t)
	root := mountRoot(t, c)
	created, _ := c.Create(ctx, root, "f", 0o600)
	found, err := c.Lookup(ctx, root, "f")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if found.Handle != created.Handle {
		t.Error("lookup handle mismatch")
	}
	ga, err := c.GetAttr(ctx, created.Handle)
	if err != nil {
		t.Fatalf("GetAttr: %v", err)
	}
	if ga.Mode != 0o600 {
		t.Errorf("mode = %o", ga.Mode)
	}
	if _, err := c.Lookup(ctx, root, "missing"); StatOf(err) != ErrNoEnt {
		t.Errorf("Lookup(missing) = %v, want NOENT", err)
	}
}

// TestLookupReadOverWire: LOOKUPREAD answers the lookup and the READ of
// the leaf's first count bytes in one call. A leaf with no bytes to read
// still resolves, with the READ half's status beside it and no record.
func TestLookupReadOverWire(t *testing.T) {
	ctx := context.Background()
	c, _ := startStack(t)
	root := mountRoot(t, c)
	created, _ := c.Create(ctx, root, "f", 0o600)
	content := bytes.Repeat([]byte("lookupread "), 1000)
	if _, err := c.Write(ctx, created.Handle, 0, content); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mkdir(ctx, root, "d", 0o755); err != nil {
		t.Fatal(err)
	}

	r, err := c.LookupRead(ctx, root, "f", 4096)
	if err != nil || r.ReadErr != nil {
		t.Fatalf("LookupRead(f) = %v, read half %v", err, r.ReadErr)
	}
	if r.Attr.Handle != created.Handle || r.ReadAttr.Size != uint64(len(content)) ||
		!r.ReadAttr.Mtime.Equal(r.Attr.Mtime) || !bytes.Equal(r.Data, content[:4096]) {
		t.Errorf("LookupRead(f): handle %v size %d, %d bytes; want %v, %d, the first 4096",
			r.Attr.Handle, r.ReadAttr.Size, len(r.Data), created.Handle, len(content))
	}
	bufpool.Put(r.Rec)

	r, err = c.LookupRead(ctx, root, "d", 4096)
	if err != nil || StatOf(r.ReadErr) != ErrIsDir || r.Rec != nil || r.Attr.Type != vfs.TypeDir {
		t.Errorf("LookupRead(dir) = %v, read half %v, record %v; want the directory with ErrIsDir and no record",
			err, r.ReadErr, r.Rec != nil)
	}
	if _, err := c.LookupRead(ctx, root, "missing", 4096); StatOf(err) != ErrNoEnt {
		t.Errorf("LookupRead(missing) = %v, want NOENT", err)
	}
}

func TestSetattrTruncateOverWire(t *testing.T) {
	ctx := context.Background()
	c, _ := startStack(t)
	root := mountRoot(t, c)
	attr, _ := c.Create(ctx, root, "t", 0o644)
	c.Write(ctx, attr.Handle, 0, bytes.Repeat([]byte("z"), 5000))
	sa := NewSAttr()
	sa.Size = 100
	got, err := c.SetAttr(ctx, attr.Handle, sa)
	if err != nil {
		t.Fatalf("SetAttr: %v", err)
	}
	if got.Size != 100 {
		t.Errorf("size = %d", got.Size)
	}
}

func TestRemoveRenameOverWire(t *testing.T) {
	ctx := context.Background()
	c, _ := startStack(t)
	root := mountRoot(t, c)
	c.Create(ctx, root, "a", 0o644)
	if err := c.Rename(ctx, root, "a", root, "b"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if _, err := c.Lookup(ctx, root, "a"); StatOf(err) != ErrNoEnt {
		t.Error("old name survived rename")
	}
	if err := c.Remove(ctx, root, "b"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := c.Remove(ctx, root, "b"); StatOf(err) != ErrNoEnt {
		t.Errorf("double remove = %v", err)
	}
}

func TestMkdirReaddirRmdir(t *testing.T) {
	ctx := context.Background()
	c, _ := startStack(t)
	root := mountRoot(t, c)
	d, err := c.Mkdir(ctx, root, "dir", 0o755)
	if err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	for _, n := range []string{"x", "y", "z"} {
		if _, err := c.Create(ctx, d.Handle, n, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := c.ReadDirAll(ctx, d.Handle)
	if err != nil {
		t.Fatalf("ReadDirAll: %v", err)
	}
	if len(ents) != 3 {
		t.Errorf("%d entries, want 3", len(ents))
	}
	if err := c.Rmdir(ctx, root, "dir"); StatOf(err) != ErrNotEmpty {
		t.Errorf("rmdir non-empty = %v", err)
	}
	for _, n := range []string{"x", "y", "z"} {
		c.Remove(ctx, d.Handle, n)
	}
	if err := c.Rmdir(ctx, root, "dir"); err != nil {
		t.Fatalf("Rmdir: %v", err)
	}
}

func TestReaddirPaging(t *testing.T) {
	ctx := context.Background()
	c, _ := startStack(t)
	root := mountRoot(t, c)
	want := map[string]bool{}
	for i := 0; i < 200; i++ {
		name := "file-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if _, err := c.Create(ctx, root, name, 0o644); err != nil {
			t.Fatal(err)
		}
		want[name] = true
	}
	// Page with a small count to force multiple READDIR round-trips.
	var got []DirEntry
	cookie := uint32(0)
	pages := 0
	for {
		ents, eof, err := c.ReadDirPage(ctx, root, cookie, 512)
		if err != nil {
			t.Fatalf("ReadDirPage: %v", err)
		}
		pages++
		got = append(got, ents...)
		if eof {
			break
		}
		cookie = ents[len(ents)-1].Cookie
	}
	if pages < 2 {
		t.Errorf("expected multiple pages, got %d", pages)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	for _, e := range got {
		if !want[e.Name] {
			t.Errorf("unexpected entry %q", e.Name)
		}
		delete(want, e.Name)
	}
}

func TestSymlinkReadlinkOverWire(t *testing.T) {
	ctx := context.Background()
	c, _ := startStack(t)
	root := mountRoot(t, c)
	if err := c.Symlink(ctx, root, "l", "/the/target", 0o777); err != nil {
		t.Fatalf("Symlink: %v", err)
	}
	la, err := c.Lookup(ctx, root, "l")
	if err != nil {
		t.Fatal(err)
	}
	if la.Type != vfs.TypeSymlink {
		t.Errorf("type = %v", la.Type)
	}
	target, err := c.Readlink(ctx, la.Handle)
	if err != nil || target != "/the/target" {
		t.Errorf("Readlink = %q, %v", target, err)
	}
}

func TestLinkOverWire(t *testing.T) {
	ctx := context.Background()
	c, _ := startStack(t)
	root := mountRoot(t, c)
	f, _ := c.Create(ctx, root, "orig", 0o644)
	if err := c.Link(ctx, f.Handle, root, "alias"); err != nil {
		t.Fatalf("Link: %v", err)
	}
	a, err := c.GetAttr(ctx, f.Handle)
	if err != nil || a.Nlink != 2 {
		t.Errorf("nlink = %d, %v", a.Nlink, err)
	}
}

func TestStatFSOverWire(t *testing.T) {
	ctx := context.Background()
	c, _ := startStack(t)
	root := mountRoot(t, c)
	st, err := c.StatFS(ctx, root)
	if err != nil {
		t.Fatalf("StatFS: %v", err)
	}
	if st.BSize != 4096 || st.Blocks != 8192 {
		t.Errorf("statfs = %+v", st)
	}
	if st.TSize != DefaultMaxTransfer {
		t.Errorf("tsize = %d", st.TSize)
	}
}

func TestStaleHandleOverWire(t *testing.T) {
	ctx := context.Background()
	c, _ := startStack(t)
	root := mountRoot(t, c)
	f, _ := c.Create(ctx, root, "gone", 0o644)
	c.Remove(ctx, root, "gone")
	if _, err := c.GetAttr(ctx, f.Handle); StatOf(err) != ErrStale {
		t.Errorf("GetAttr(stale) = %v, want STALE", err)
	}
	// Forged/foreign handle is stale, not a crash.
	forged := vfs.Handle{Ino: 999999, Gen: 42}
	if _, err := c.GetAttr(ctx, forged); StatOf(err) != ErrStale {
		t.Errorf("GetAttr(forged) = %v, want STALE", err)
	}
}

func TestLargeSequentialTransfer(t *testing.T) {
	ctx := context.Background()
	c, _ := startStack(t)
	root := mountRoot(t, c)
	attr, _ := c.Create(ctx, root, "big", 0o644)
	data := make([]byte, 100*1024)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := writeAll(ctx, c, attr.Handle, data); err != nil {
		t.Fatalf("writeAll: %v", err)
	}
	got, err := c.ReadAll(ctx, attr.Handle)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("large transfer corrupted")
	}
}

// TestReadAllSizesFromAttributes: a file spanning several transfers
// comes back exact, in a result sized from the first reply's
// attributes (no growth, no transfer-sized scratch buffer), and every
// reply record goes back to the pool.
func TestReadAllSizesFromAttributes(t *testing.T) {
	ctx := context.Background()
	c, _ := startStack(t)
	root := mountRoot(t, c)
	attr, _ := c.Create(ctx, root, "spans", 0o644)
	data := make([]byte, 3*MaxData+123)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := writeAll(ctx, c, attr.Handle, data); err != nil {
		t.Fatalf("writeAll: %v", err)
	}
	base := bufpool.Outstanding()
	got, err := c.ReadAll(ctx, attr.Handle)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadAll: %d bytes, err=%v; want the %d written", len(got), err, len(data))
	}
	if cap(got) != len(data) {
		t.Errorf("ReadAll result has capacity %d for %d bytes", cap(got), len(data))
	}
	deadline := time.Now().Add(5 * time.Second)
	for bufpool.Outstanding() != base {
		if time.Now().After(deadline) {
			t.Fatalf("%d pooled buffers still out after ReadAll", bufpool.Outstanding()-base)
		}
		time.Sleep(time.Millisecond)
	}
}

// inflatedSizeFS reports every regular file as a terabyte larger than
// the data it holds, like a server whose attributes cannot be trusted.
type inflatedSizeFS struct{ vfs.FS }

func (f inflatedSizeFS) GetAttr(h vfs.Handle) (vfs.Attr, error) {
	a, err := f.FS.GetAttr(h)
	if a.Type == vfs.TypeRegular {
		a.Size += 1 << 40
	}
	return a, err
}

// TestReadAllDoesNotTrustAttributeSize: a one-byte file whose attributes
// claim a terabyte reads back as its one byte, in a result that reserves
// what the replies carried, not what the attributes claimed; an empty
// file reads back as nil.
func TestReadAllDoesNotTrustAttributeSize(t *testing.T) {
	ctx := context.Background()
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 8192})
	if err != nil {
		t.Fatalf("ffs.New: %v", err)
	}
	c, _, _ := startStackWith(t, inflatedSizeFS{backing})
	root := mountRoot(t, c)
	one, _ := c.Create(ctx, root, "one", 0o644)
	if _, err := c.Write(ctx, one.Handle, 0, []byte{7}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := c.ReadAll(ctx, one.Handle)
	if err != nil || !bytes.Equal(got, []byte{7}) {
		t.Fatalf("ReadAll = %v, %v; want [7]", got, err)
	}
	if cap(got) > MaxData {
		t.Errorf("ReadAll reserved %d bytes for a one-byte file", cap(got))
	}
	empty, _ := c.Create(ctx, root, "empty", 0o644)
	if got, err := c.ReadAll(ctx, empty.Handle); err != nil || got != nil {
		t.Errorf("ReadAll of an empty file = %v (nil: %v), %v; want nil", got, got == nil, err)
	}
}

func TestWriteBeyondMaxTransferRejected(t *testing.T) {
	ctx := context.Background()
	c, _ := startStack(t)
	root := mountRoot(t, c)
	attr, _ := c.Create(ctx, root, "f", 0o644)
	// A write larger than the server's transfer bound violates the
	// protocol; the server must reject it as garbage rather than accept
	// a jumbo frame. (The client's own clamp is bypassed by pinning a
	// transfer size above the server's bound.)
	c.SetMaxData(MaxTransferLimit)
	_, err := c.Write(ctx, attr.Handle, 0, make([]byte, DefaultMaxTransfer+1))
	var re *sunrpc.RPCError
	if !errors.As(err, &re) || re.Stat != sunrpc.GarbageArgs {
		t.Errorf("oversized write = %v, want GarbageArgs", err)
	}
}

func TestFHRoundTrip(t *testing.T) {
	f := func(ino uint64, gen uint32) bool {
		h := vfs.Handle{Ino: ino, Gen: gen}
		fh := EncodeFH(h)
		got, err := DecodeFH(fh[:])
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Corrupt magic must be rejected.
	fh := EncodeFH(vfs.Handle{Ino: 1, Gen: 1})
	fh[0] = 'X'
	if _, err := DecodeFH(fh[:]); !errors.Is(err, vfs.ErrStale) {
		t.Errorf("bad magic = %v, want ErrStale", err)
	}
	if _, err := DecodeFH(fh[:8]); !errors.Is(err, vfs.ErrStale) {
		t.Errorf("short handle = %v, want ErrStale", err)
	}
}

func TestSAttrRoundTrip(t *testing.T) {
	f := func(mode, uid, gid, size uint32) bool {
		in := SAttr{Mode: mode, UID: uid, GID: gid, Size: size}
		e := newEnc()
		in.Encode(e)
		out := DecodeSAttr(newDec(e.Bytes()))
		return out.Mode == in.Mode && out.UID == in.UID &&
			out.GID == in.GID && out.Size == in.Size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMapErrorTable(t *testing.T) {
	cases := []struct {
		err  error
		want Stat
	}{
		{nil, OK},
		{vfs.ErrNotExist, ErrNoEnt},
		{vfs.ErrExist, ErrExist},
		{vfs.ErrNotDir, ErrNotDir},
		{vfs.ErrIsDir, ErrIsDir},
		{vfs.ErrNotEmpty, ErrNotEmpty},
		{vfs.ErrStale, ErrStale},
		{vfs.ErrPerm, ErrAcces},
		{vfs.ErrNoSpace, ErrNoSpc},
		{vfs.ErrNameTooLong, ErrNameLong},
		{vfs.ErrFBig, ErrFBig},
		{errors.New("anything else"), ErrIO},
	}
	for _, c := range cases {
		if got := MapError(c.err); got != c.want {
			t.Errorf("MapError(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestCommitFSFallbackStableServer: a plain export, with no Committer,
// commits as a sync-plus-getattr barrier with the stable zero verifier.
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

// TestWriteExtentsOverWire: one WRITEEXTENTS call writes its extents in
// order, so a later extent overlapping an earlier one wins, and replies
// with the file's attributes after the last.
func TestWriteExtentsOverWire(t *testing.T) {
	ctx := context.Background()
	c, _ := startStack(t)
	root := mountRoot(t, c)
	attr, err := c.Create(ctx, root, "ext", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	a := bytes.Repeat([]byte{'a'}, 3*MaxData)
	b := bytes.Repeat([]byte{'b'}, MaxData)
	got, err := c.WriteExtents(ctx, attr.Handle, []Extent{
		{Offset: 5 * MaxData, Data: [][]byte{a[:MaxData], a[MaxData:]}},
		{Offset: 0, Data: [][]byte{b}},
		{Offset: 6 * MaxData, Data: [][]byte{b[:100]}},
	})
	if err != nil {
		t.Fatalf("WriteExtents: %v", err)
	}
	if got.Size != 8*MaxData {
		t.Errorf("reply size %d, want %d", got.Size, 8*MaxData)
	}
	want := make([]byte, 8*MaxData)
	copy(want, b)
	copy(want[5*MaxData:], a)
	copy(want[6*MaxData:], b[:100])
	data, err := c.ReadAll(ctx, attr.Handle)
	if err != nil || !bytes.Equal(data, want) {
		t.Errorf("read back %d bytes that differ from the extents written (err %v)", len(data), err)
	}
}

// TestWriteExtentsDecodesNothingUnbacked: the extent count of a
// WRITEEXTENTS argument only bounds the decode loop. A count of 2³²−1
// with no extents behind it is GARBAGE_ARGS and allocates nothing sized
// by it; so is a count above MaxExtents, even with every extent present,
// and a count of zero. None of them writes a byte.
func TestWriteExtentsDecodesNothingUnbacked(t *testing.T) {
	backing := fuzzFS(t)
	f, err := backing.Lookup(backing.Root(), "f")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(StaticExport{FS: backing})
	ctx := &sunrpc.Context{Peer: "hostile"}
	fh := EncodeFH(f.Handle)
	args := func(n uint32, present int) []byte {
		e := xdr.NewEncoder()
		e.OpaqueFixed(fh[:])
		e.Uint32(n)
		for range present {
			e.Uint32(0)
			e.Opaque([]byte("x"))
		}
		return e.Bytes()
	}
	dispatch := func(a []byte) sunrpc.AcceptStat {
		stat, err := srv.dispatch(ctx, ProcWriteExtents, xdr.NewDecoder(a), xdr.NewEncoder())
		if err != nil {
			t.Fatalf("dispatch: %v", err)
		}
		return stat
	}
	for _, tc := range []struct {
		name    string
		n       uint32
		present int
	}{
		{"2^32-1 claimed, none present", 1<<32 - 1, 0},
		{"MaxExtents+1, all present", MaxExtents + 1, MaxExtents + 1},
		{"zero", 0, 0},
	} {
		if stat := dispatch(args(tc.n, tc.present)); stat != sunrpc.GarbageArgs {
			t.Errorf("%s: accept stat %v, want GarbageArgs", tc.name, stat)
		}
	}
	if a, err := backing.GetAttr(f.Handle); err != nil || a.Size != 0 {
		t.Errorf("after refused calls the file is %d bytes (err %v), want 0", a.Size, err)
	}
	hostile := args(1<<32-1, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const calls = 100
	for range calls {
		dispatch(hostile)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 64<<10 {
		t.Errorf("a call claiming 2^32-1 extents allocates %d bytes", per)
	}
}
