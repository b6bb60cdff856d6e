package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"discfs/internal/ffs"
	"discfs/internal/keynote"
	"discfs/internal/nfs"
	"discfs/internal/vfs"
)

// Tests of the path resolver: what an open-by-path costs in RPCs, as
// the server counts them, and what it may never get wrong while
// directory components come from the client's name cache.

// nfsCalls reads how many calls of each procedure the server has
// served (the per-procedure latency histogram counts every call, denied
// ones included). lookupread counts the leaf lookups that also read,
// and no others.
type nfsCalls struct {
	lookups, getattr, read, lookupread   uint64
	setattr, write, writeextents, commit uint64
}

func callsOn(srv *Server) nfsCalls {
	n := func(proc string) uint64 { return srv.met.procLatency.With(proc).Count() }
	return nfsCalls{
		lookups: n("lookup"), getattr: n("getattr"), read: n("read"), lookupread: n("lookupread"),
		setattr: n("setattr"), write: n("write"), writeextents: n("writeextents"), commit: n("commit"),
	}
}

func (a nfsCalls) since(b nfsCalls) nfsCalls {
	return nfsCalls{
		a.lookups - b.lookups, a.getattr - b.getattr, a.read - b.read, a.lookupread - b.lookupread,
		a.setattr - b.setattr, a.write - b.write, a.writeextents - b.writeextents, a.commit - b.commit,
	}
}

// TestReadFileAllocBytes: reading a 4 KiB file by path costs about the
// file, not a transfer — client and in-process server together allocate
// under 16 KiB a call.
func TestReadFileAllocBytes(t *testing.T) {
	ctx := context.Background()
	_, addr := testServer(t, ServerConfig{})
	c := dialAs(t, addr, "test-admin")
	content := bytes.Repeat([]byte{7}, 4096)
	if _, _, err := c.WriteFile(ctx, "/small.bin", content); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if got, err := c.ReadFile(ctx, "/small.bin"); err != nil || !bytes.Equal(got, content) {
			t.Fatalf("ReadFile: %d bytes, %v", len(got), err)
		}
	}
	read() // warm the caches and the pool
	const calls = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range calls {
		read()
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / calls; per >= 16<<10 {
		t.Errorf("ReadFile of a 4 KiB file allocates %d bytes a call, want under 16 KiB", per)
	}
}

// TestReadFileSizesItsResultOnce: a file of a few transfers is read into
// one result sized from the first reply, as ReadAll sizes it, not grown
// by appends as the later transfers arrive.
func TestReadFileSizesItsResultOnce(t *testing.T) {
	ctx := context.Background()
	_, addr := testServer(t, ServerConfig{})
	c := dialAs(t, addr, "test-admin")
	content := bytes.Repeat([]byte{7}, 3*c.MaxTransfer()+100)
	if _, _, err := c.WriteFile(ctx, "/multi.bin", content); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile(ctx, "/multi.bin")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("ReadFile: %d bytes, %v", len(got), err)
	}
	if cap(got) != len(content) {
		t.Errorf("ReadFile of %d bytes returned capacity %d, want the file's size", len(content), cap(got))
	}
}

// readOpen opens path read-only and reads it to EOF.
func readOpen(t *testing.T, c *Client, path string) (vfs.Handle, []byte) {
	t.Helper()
	f, err := c.Open(context.Background(), path, os.O_RDONLY)
	if err != nil {
		t.Fatalf("Open %s: %v", path, err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return f.Handle(), data
}

// deepTree has the administrator create /a/b/f.txt and returns a
// server, its address and the file's content.
func deepTree(t *testing.T) (*Server, string, []byte) {
	t.Helper()
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})
	admin := dialAs(t, addr, "test-admin")
	content := []byte("depth three\n")
	for _, d := range []string{"/a", "/a/b"} {
		if _, _, err := admin.MkdirPath(ctx, d); err != nil {
			t.Fatalf("MkdirPath %s: %v", d, err)
		}
	}
	if _, _, err := admin.WriteFile(ctx, "/a/b/f.txt", content); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return srv, addr, content
}

// TestOpenAfterWalkIsOneLookupOneRead: with the directories cached by a
// walk, opening a file no larger than one window and reading it to EOF
// costs one RPC, the LOOKUPREAD that looks the leaf up and reads it.
func TestOpenAfterWalkIsOneLookupOneRead(t *testing.T) {
	ctx := context.Background()
	srv, addr, content := deepTree(t)
	c := dialAs(t, addr, "test-admin")
	if err := c.Walk(ctx, func(string, vfs.Attr) error { return nil }); err != nil {
		t.Fatalf("Walk: %v", err)
	}
	before := callsOn(srv)
	_, got := readOpen(t, c, "/a/b/f.txt")
	if !bytes.Equal(got, content) {
		t.Fatalf("read %q, want %q", got, content)
	}
	if d := callsOn(srv).since(before); d != (nfsCalls{lookupread: 1}) {
		t.Fatalf("open+read after a walk cost %+v, want exactly 1 lookupread and 0 lookup, getattr, read", d)
	}
}

// TestWarmReopenReadsNothing: re-opening an unchanged 2 MiB file whose
// first window this client still caches costs one LOOKUP, which
// revalidates the pages, and no READ bytes: the lookup does not bring
// back a transfer the cache would drop.
func TestWarmReopenReadsNothing(t *testing.T) {
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	log := &ioLog{FS: backing}
	srv, addr := testServer(t, ServerConfig{Backing: log, ServerKey: keynote.DeterministicKey("shape-admin")})
	c := dialAs(t, addr, "shape-admin")
	content := seedFile(t, c, "/big", 2<<20)
	readOpen(t, c, "/big")
	log.take()
	before := callsOn(srv)
	_, got := readOpen(t, c, "/big")
	if !bytes.Equal(got, content) {
		t.Fatal("the warm re-open read different bytes")
	}
	if d := callsOn(srv).since(before); d != (nfsCalls{lookups: 1}) {
		t.Errorf("warm re-open cost %+v, want exactly 1 lookup", d)
	}
	reads, _ := log.take()
	n := 0
	for _, r := range reads {
		n += r.n
	}
	if n != 0 {
		t.Errorf("warm re-open read %d bytes from the store, want 0", n)
	}
}

func TestColdOpenPaysForTheDirectoriesOnce(t *testing.T) {
	srv, addr, _ := deepTree(t)
	c := dialAs(t, addr, "test-admin")
	before := callsOn(srv)
	readOpen(t, c, "/a/b/f.txt")
	if d := callsOn(srv).since(before); d.lookups != 2 || d.lookupread != 1 || d.getattr != 0 {
		t.Fatalf("cold depth-3 open cost %+v, want 2 directory lookups, 1 lookupread and no getattr", d)
	}
	before = callsOn(srv)
	readOpen(t, c, "/a/b/f.txt")
	if d := callsOn(srv).since(before); d != (nfsCalls{lookups: 1}) {
		t.Fatalf("second open cost %+v, want 1 lookup: the cached pages need no lookupread", d)
	}
}

// TestOpenSeesFileRenamedOverPath: another client replaces the file by
// renaming a new one over its path. The next open must return the new
// file's handle and bytes; the old file's cached pages belong to a
// different handle and are not served.
func TestOpenSeesFileRenamedOverPath(t *testing.T) {
	ctx := context.Background()
	_, addr, old := deepTree(t)
	c := dialAs(t, addr, "test-admin")
	oldH, got := readOpen(t, c, "/a/b/f.txt") // caches the directories and the old file's pages
	if !bytes.Equal(got, old) {
		t.Fatalf("read %q", got)
	}

	other := dialAs(t, addr, "test-admin")
	replacement := []byte("DEPTH THREE\n") // same size: only the handle tells them apart
	if _, _, err := other.WriteFile(ctx, "/a/b/new.txt", replacement); err != nil {
		t.Fatal(err)
	}
	if err := other.Rename(ctx, "/a/b/new.txt", "/a/b/f.txt"); err != nil {
		t.Fatalf("Rename: %v", err)
	}

	newH, got := readOpen(t, c, "/a/b/f.txt")
	if newH == oldH {
		t.Fatal("open after a rename-over returned the replaced file's handle")
	}
	if !bytes.Equal(got, replacement) {
		t.Fatalf("open after a rename-over read %q, want %q", got, replacement)
	}
}

// TestStaleDirectoryResolvesThroughRetry: another client removes and
// recreates an intermediate directory, so this client's cached entry
// for it names a dead handle. Resolution retries uncached: the caller
// sees the new tree, or ErrNotExist once it is gone — never ErrStale.
func TestStaleDirectoryResolvesThroughRetry(t *testing.T) {
	ctx := context.Background()
	_, addr, _ := deepTree(t)
	c := dialAs(t, addr, "test-admin")
	readOpen(t, c, "/a/b/f.txt") // /a and /a/b are now cached

	other := dialAs(t, addr, "test-admin")
	a, err := other.ResolvePath(ctx, "/a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := other.ResolvePath(ctx, "/a/b")
	if err != nil {
		t.Fatal(err)
	}
	raw := other.NFS()
	if err := raw.Remove(ctx, b.Handle, "f.txt"); err != nil {
		t.Fatal(err)
	}
	if err := raw.Rmdir(ctx, a.Handle, "b"); err != nil {
		t.Fatal(err)
	}

	// Gone: every path operation reports a missing file.
	if _, err := c.Open(ctx, "/a/b/f.txt", os.O_RDONLY); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Open under a removed directory = %v, want ErrNotExist", err)
	}
	readdOther := func() {
		t.Helper()
		if _, _, err := other.MkdirPath(ctx, "/a/b"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := other.WriteFile(ctx, "/a/b/f.txt", []byte("recreated")); err != nil {
			t.Fatal(err)
		}
	}
	readdOther()
	if got, err := c.ReadFile(ctx, "/a/b/f.txt"); err != nil || string(got) != "recreated" {
		t.Fatalf("ReadFile under a recreated directory = %q, %v", got, err)
	}

	// Again, this time with the stale entry met by operations that do
	// not look the leaf up themselves.
	nb, err := other.ResolvePath(ctx, "/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.Remove(ctx, nb.Handle, "f.txt"); err != nil {
		t.Fatal(err)
	}
	if err := raw.Rmdir(ctx, a.Handle, "b"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.MkdirPath(ctx, "/a/b/sub"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("MkdirPath under a removed directory = %v, want ErrNotExist", err)
	}
	readdOther()
	if _, _, err := c.MkdirPath(ctx, "/a/b/sub"); err != nil {
		t.Fatalf("MkdirPath under a recreated directory: %v", err)
	}
	if err := c.Rename(ctx, "/a/b/f.txt", "/a/b/sub/f.txt"); err != nil {
		t.Fatalf("Rename under a recreated directory: %v", err)
	}
	if got, err := c.ReadFile(ctx, "/a/b/sub/f.txt"); err != nil || string(got) != "recreated" {
		t.Fatalf("ReadFile after rename = %q, %v", got, err)
	}
}

// TestCreateAfterCachedMissResolves: a directory looked up and found
// missing is cached as missing; creating it through the credential
// procedures must install it, so the next resolution needs no RPC for
// it — and certainly does not answer ErrNotExist for a TTL.
func TestCreateAfterCachedMissResolves(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})
	c := dialAs(t, addr, "test-admin")
	if _, err := c.ResolvePath(ctx, "/newdir/x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("ResolvePath of a missing tree = %v", err)
	}
	if _, _, err := c.MkdirPath(ctx, "/newdir"); err != nil {
		t.Fatalf("MkdirPath: %v", err)
	}
	before := callsOn(srv)
	if _, _, err := c.MkdirPath(ctx, "/newdir/sub"); err != nil {
		t.Fatalf("MkdirPath under the directory just created: %v", err)
	}
	if d := callsOn(srv).since(before); d.lookups != 0 {
		t.Fatalf("resolving a directory this client just created cost %d lookups, want 0", d.lookups)
	}
	f, err := c.Open(ctx, "/newdir/sub/f", os.O_CREATE|os.O_WRONLY)
	if err != nil {
		t.Fatalf("Open O_CREATE: %v", err)
	}
	f.Close()
	if _, err := c.ResolvePath(ctx, "/newdir/sub/f"); err != nil {
		t.Fatalf("ResolvePath of a file just created: %v", err)
	}
}

// TestRenamedDirectoryLeavesOldNameUnresolvable: a renamed directory
// keeps its handle, so a surviving cache entry for the old name would
// resolve — to the wrong place.
func TestRenamedDirectoryLeavesOldNameUnresolvable(t *testing.T) {
	ctx := context.Background()
	_, addr, content := deepTree(t)
	c := dialAs(t, addr, "test-admin")
	readOpen(t, c, "/a/b/f.txt")
	if err := c.Rename(ctx, "/a/b", "/a/c"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if _, err := c.ReadFile(ctx, "/a/b/f.txt"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("ReadFile through the old name = %v, want ErrNotExist", err)
	}
	if got, err := c.ReadFile(ctx, "/a/c/f.txt"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("ReadFile through the new name = %q, %v", got, err)
	}
}

// TestTruncateOnOpenReachesTheAttributeCache: O_TRUNC and WriteFile's
// truncate go through the caching client, so attributes cached by a
// walk do not keep reporting the old size.
func TestTruncateOnOpenReachesTheAttributeCache(t *testing.T) {
	ctx := context.Background()
	_, addr, _ := deepTree(t)
	c := dialAs(t, addr, "test-admin")
	var h vfs.Handle
	if err := c.Walk(ctx, func(p string, a vfs.Attr) error {
		if p == "/a/b/f.txt" {
			h = a.Handle
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open(ctx, "/a/b/f.txt", os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if a, err := c.primary().attrc(ctx).GetAttr(ctx, h); err != nil || a.Size != 0 {
		t.Fatalf("cached size after O_TRUNC = %d, %v; want 0", a.Size, err)
	}
}

// TestExclusiveCreateAsksTheServer: a name this client has cached as
// missing was since created by another client; O_CREATE|O_EXCL must
// find that out from the server, not from the cache.
func TestExclusiveCreateAsksTheServer(t *testing.T) {
	ctx := context.Background()
	_, addr, _ := deepTree(t)
	c := dialAs(t, addr, "test-admin")
	ac := c.primary().attrc(ctx)
	b, err := c.ResolvePath(ctx, "/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ac.Lookup(ctx, b.Handle, "lock"); nfs.StatOf(err) != nfs.ErrNoEnt {
		t.Fatalf("lookup of a missing name = %v", err)
	}
	other := dialAs(t, addr, "test-admin")
	if _, _, err := other.WriteFile(ctx, "/a/b/lock", []byte("held")); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := ac.LookupCached(ctx, b.Handle, "lock"); !hit || nfs.StatOf(err) != nfs.ErrNoEnt {
		t.Fatalf("the miss is not cached (hit %v, %v): the test proves nothing", hit, err)
	}
	if _, err := c.Open(ctx, "/a/b/lock", os.O_CREATE|os.O_EXCL|os.O_WRONLY); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("exclusive create over another client's file = %v, want ErrExist", err)
	}
}

// TestRevokedIdentityFailsWithEverythingCached: the leaf lookup is
// server-checked on every open, so neither a revoked credential nor a
// revoked key gets one more file out of a warm cache.
func TestRevokedIdentityFailsWithEverythingCached(t *testing.T) {
	ctx := context.Background()
	srv, addr, _ := deepTree(t)
	admin := dialAs(t, addr, "test-admin")
	bobKey := keynote.DeterministicKey("bob")
	cred, err := srv.IssueCredential(bobKey.Principal, srv.backing.Root().Ino, "RX", "")
	if err != nil {
		t.Fatal(err)
	}
	bob := dialAs(t, addr, "bob")
	if _, err := bob.SubmitCredentials(ctx, cred); err != nil {
		t.Fatal(err)
	}
	if err := bob.Walk(ctx, func(string, vfs.Attr) error { return nil }); err != nil {
		t.Fatal(err)
	}
	readOpen(t, bob, "/a/b/f.txt")

	if found, err := admin.RevokeCredential(ctx, cred.SignatureValue); err != nil || !found {
		t.Fatalf("RevokeCredential = %v, %v", found, err)
	}
	if _, err := bob.Open(ctx, "/a/b/f.txt", os.O_RDONLY); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("Open after the credential was revoked = %v, want ErrAccessDenied", err)
	}
	if _, err := bob.ReadFile(ctx, "/a/b/f.txt"); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("ReadFile after the credential was revoked = %v, want ErrAccessDenied", err)
	}

	if _, err := admin.RevokeKey(ctx, bobKey.Principal); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Open(ctx, "/a/b/f.txt", os.O_RDONLY); err == nil {
		t.Fatal("Open succeeded for a revoked key")
	}
	if _, err := bob.ReadFile(ctx, "/a/b/f.txt"); !errors.Is(err, ErrRevoked) {
		t.Fatalf("ReadFile for a revoked key = %v, want ErrRevoked", err)
	}
}

// TestDeniedWriteFileSendsNoData: a grantee holding RX on the tree, as
// the share benchmark's grantee does, reads a file by path and then asks
// to overwrite it. The truncating SETATTR is refused: exactly one LOOKUP
// and one SETATTR reach the server, and no WRITE, WRITEEXTENTS or
// COMMIT.
func TestDeniedWriteFileSendsNoData(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})
	owner := dialAs(t, addr, "test-admin")
	content := []byte("shared with read rights only\n")
	if _, _, err := owner.WriteFile(ctx, "/shared.txt", content); err != nil {
		t.Fatal(err)
	}
	bobKey := keynote.DeterministicKey("bob")
	cred, err := srv.IssueCredential(bobKey.Principal, srv.backing.Root().Ino, "RX", "")
	if err != nil {
		t.Fatal(err)
	}
	bob := dialAs(t, addr, "bob")
	if _, err := bob.SubmitCredentials(ctx, cred); err != nil {
		t.Fatal(err)
	}
	if got, err := bob.ReadFile(ctx, "/shared.txt"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	before := callsOn(srv)
	if _, _, err := bob.WriteFile(ctx, "/shared.txt", content[:16]); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("WriteFile with RX = %v, want ErrAccessDenied", err)
	}
	if d := callsOn(srv).since(before); d != (nfsCalls{lookups: 1, setattr: 1}) {
		t.Fatalf("denied WriteFile cost %+v, want exactly 1 lookup and 1 setattr", d)
	}
}

// TestOpenWithoutReadRightFailsAtFirstRead: a principal that may search
// the tree but not read the file opens it, since the LOOKUPREAD's lookup
// half succeeds, and the audit trail holds both of that RPC's decisions.
// Nothing from the denied READ half is cached: the first Read asks the
// server again and gets ErrAccessDenied.
func TestOpenWithoutReadRightFailsAtFirstRead(t *testing.T) {
	ctx := context.Background()
	srv, addr, _ := deepTree(t)
	bobKey := keynote.DeterministicKey("bob")
	cred, err := srv.IssueCredential(bobKey.Principal, srv.backing.Root().Ino, "X", "")
	if err != nil {
		t.Fatal(err)
	}
	bob := dialAs(t, addr, "bob")
	if _, err := bob.SubmitCredentials(ctx, cred); err != nil {
		t.Fatal(err)
	}
	f, err := bob.Open(ctx, "/a/b/f.txt", os.O_RDONLY)
	if err != nil {
		t.Fatalf("Open with search but no read right: %v", err)
	}
	defer f.Close()
	var lookup, read bool
	for _, r := range srv.Audit().Recent(8) {
		lookup = lookup || r.Op == "lookup" && r.Name == "f.txt" && r.Allowed
		read = read || r.Op == "read" && r.Ino == f.Handle().Ino && !r.Allowed
	}
	if !lookup || !read {
		t.Errorf("audit trail after the open: leaf lookup allowed %v, read denied %v; want both recorded", lookup, read)
	}
	before := callsOn(srv)
	if _, err := f.Read(make([]byte, 64)); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("first Read = %v, want ErrAccessDenied", err)
	}
	if d := callsOn(srv).since(before); d != (nfsCalls{read: 1}) {
		t.Errorf("the first Read cost %+v, want one READ", d)
	}
	f.dc.mu.Lock()
	n := f.dc.nPages
	f.dc.mu.Unlock()
	if n != 0 {
		t.Errorf("%d pages cached for a file the principal may not read", n)
	}
}

// TestOpenDropsFirstWindowUnderDirtyPage: another File of the same
// client holds an unflushed write of the file, so the open's READ half
// may predate it. The open caches none of it, and a read through the new
// File returns the local write.
func TestOpenDropsFirstWindowUnderDirtyPage(t *testing.T) {
	ctx := context.Background()
	_, addr := testServer(t, ServerConfig{})
	c := dialAs(t, addr, "test-admin")
	old := bytes.Repeat([]byte{'o'}, 3*pageSize)
	writeAside(t, c, "/f", old)
	w, err := c.Open(ctx, "/f", os.O_WRONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	mine := bytes.Repeat([]byte{'L'}, pageSize)
	if _, err := w.WriteAt(mine, 0); err != nil {
		t.Fatal(err)
	}
	r, err := c.Open(ctx, "/f", os.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.dc.mu.Lock()
	primed := r.dc.lookupLocked(1) != nil
	r.dc.mu.Unlock()
	if primed {
		t.Error("the open cached its READ half over another File's dirty page")
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(bytes.Clone(mine), old[pageSize:]...); !bytes.Equal(got, want) {
		t.Fatalf("read %q... after the local write, want %q...", got[:8], want[:8])
	}
}

// TestOvertakenOpenDoesNotPrimeOldBytes: two opens of one file by one
// client race another client's rewrite. The first open's LOOKUPREAD
// reads the old version and its reply is held; the second open sees the
// new version and caches its first window. The first reply, landing
// last, must not put the old bytes back: the second open, made after
// the rewrite, reads the new version (close-to-open).
func TestOvertakenOpenDoesNotPrimeOldBytes(t *testing.T) {
	ctx := context.Background()
	gate, _, c := gatedServer(t)
	v1 := bytes.Repeat([]byte{'1'}, 3*pageSize)
	a1 := writeAside(t, c, "/f", v1)
	stalled, release := gate.stallNext()
	type opened struct {
		f   *File
		err error
	}
	first := make(chan opened, 1)
	go func() {
		f, err := c.Open(ctx, "/f", os.O_RDONLY)
		first <- opened{f, err}
	}()
	<-stalled // the first open's READ half has read v1

	v2 := bytes.Repeat([]byte{'2'}, len(v1))
	w := dialAs(t, c.shards[0].addr, "shape-admin")
	a2, _, err := w.WriteFile(ctx, "/f", v2)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Mtime.Equal(a1.Mtime) {
		t.Fatal("the rewrite did not move the file's mtime")
	}
	second := openFile(t, c, "/f", os.O_RDONLY)
	defer second.Close()
	close(release)
	o := <-first
	if o.err != nil {
		t.Fatal(o.err)
	}
	defer o.f.Close()

	got, err := io.ReadAll(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatalf("the open made after the rewrite read %q..., want %q...", got[:8], v2[:8])
	}
}

// TestSubmitPurgesCachedAttributes: attributes fetched before a
// credential submit carry modes masked by the old credential set, so
// the submit drops them.
func TestSubmitPurgesCachedAttributes(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})
	bobKey := keynote.DeterministicKey("bob")
	cred, err := keynote.Sign(srv.key, keynote.AssertionSpec{
		Licensees:  keynote.LicenseesOr(bobKey.Principal),
		Conditions: SubtreeConditions(srv.backing.Root().Ino, "RWX", true, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	bob := dialAs(t, addr, "bob")
	ac := bob.primary().attrc(ctx)
	before, err := ac.GetAttr(ctx, bob.Root())
	if err != nil {
		t.Fatal(err)
	}
	calls := callsOn(srv)
	if _, err := ac.GetAttr(ctx, bob.Root()); err != nil {
		t.Fatal(err)
	}
	if d := callsOn(srv).since(calls); d.getattr != 0 {
		t.Fatalf("repeated GetAttr within the TTL cost %d RPCs: the test proves nothing", d.getattr)
	}
	if _, err := bob.SubmitCredentials(ctx, cred); err != nil {
		t.Fatal(err)
	}
	after, err := ac.GetAttr(ctx, bob.Root())
	if err != nil {
		t.Fatal(err)
	}
	if d := callsOn(srv).since(calls); d.getattr != 1 {
		t.Fatalf("GetAttr after a submit cost %d RPCs, want a refetch", d.getattr)
	}
	if before.Mode&0o700 != 0 || after.Mode&0o700 == 0 {
		t.Fatalf("root mode %o before the submit, %o after: want masked, then open", before.Mode, after.Mode)
	}
}

// TestFedPathsResolveOnOwningShardFromCache: shard-subtree and graft
// routing still pick the right server when the directory components
// come from the name cache, and a warm open of an unchanged file costs
// that one server one lookup and the others nothing.
func TestFedPathsResolveOnOwningShardFromCache(t *testing.T) {
	ctx := context.Background()
	srvs, addrs := fedCluster(t, 3)
	chain := grantAll(t, srvs, keynote.DeterministicKey("bob").Principal)
	c := fedDial(t, addrs, "bob", WithGraft("/archive", 2))
	if _, err := c.SubmitCredentialText(ctx, chain); err != nil {
		t.Fatal(err)
	}
	calls := func() []nfsCalls {
		out := make([]nfsCalls, len(srvs))
		for i, s := range srvs {
			out[i] = callsOn(s)
		}
		return out
	}
	checkWarmOpen := func(path string, owner int, content string) {
		t.Helper()
		readOpen(t, c, path) // warm
		before := calls()
		_, got := readOpen(t, c, path)
		if string(got) != content {
			t.Fatalf("%s read %q, want %q", path, got, content)
		}
		for i, a := range calls() {
			d := a.since(before[i])
			want := nfsCalls{}
			if i == owner {
				want = nfsCalls{lookups: 1} // the pages are still cached and the lookup revalidated them
			}
			if d != want {
				t.Errorf("warm open of %s cost shard %d %+v, want %+v", path, i, d, want)
			}
		}
	}

	for _, name := range []string{"alpha", "bravo", "charlie", "delta", "echo"} {
		dir := "/data/" + name
		if _, _, err := c.MkdirPath(ctx, dir); err != nil {
			t.Fatalf("MkdirPath %s: %v", dir, err)
		}
		if _, _, err := c.WriteFile(ctx, dir+"/f", []byte(name)); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		owner := shardHolding(t, srvs, name)
		if owner != c.table.Owner(name) {
			t.Fatalf("%s landed on shard %d, ring says %d", name, owner, c.table.Owner(name))
		}
		checkWarmOpen(dir+"/f", owner, name)
	}

	if _, _, err := c.MkdirPath(ctx, "/archive/2019"); err != nil {
		t.Fatalf("MkdirPath under graft: %v", err)
	}
	if _, _, err := c.WriteFile(ctx, "/archive/2019/f", []byte("kept")); err != nil {
		t.Fatalf("WriteFile under graft: %v", err)
	}
	if _, err := srvs[2].backing.Lookup(srvs[2].backing.Root(), "2019"); err != nil {
		t.Fatalf("grafted directory missing on shard 2: %v", err)
	}
	checkWarmOpen("/archive/2019/f", 2, "kept")
}

// TestResolveUnderConcurrentRenames runs readers on one shared client —
// whose name cache they all read and refill — against another client
// that keeps replacing the directory they resolve through, while a
// third goroutine creates and renames on the shared client itself. A
// reader may lose a race with a removal (ErrNotExist, or ErrStale when
// the uncached retry loses one too, as it could before the cache), but
// whatever it does read must be one whole version of the file.
func TestResolveUnderConcurrentRenames(t *testing.T) {
	ctx := context.Background()
	_, addr, first := deepTree(t)
	shared := dialAs(t, addr, "test-admin")
	other := dialAs(t, addr, "test-admin")
	// "" is WriteFile caught between its create and its write.
	versions := map[string]bool{string(first): true, "version A\n": true, "version B\n": true, "": true}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				f, err := shared.Open(ctx, "/a/b/f.txt", os.O_RDONLY)
				var got []byte
				if err == nil {
					got, err = io.ReadAll(f)
					f.Close()
				}
				switch {
				case err == nil && !versions[string(got)]:
					t.Errorf("read %q, not a version that was ever written", got)
					return
				case err != nil && !errors.Is(err, ErrNotExist) && !errors.Is(err, ErrStale):
					t.Errorf("Open/read: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			dir := "/scratch" + strconv.Itoa(i)
			if _, _, err := shared.MkdirPath(ctx, dir); err != nil {
				t.Errorf("MkdirPath: %v", err)
				return
			}
			if _, _, err := shared.WriteFile(ctx, dir+"/x", []byte("x")); err != nil {
				t.Errorf("WriteFile: %v", err)
				return
			}
			if err := shared.Rename(ctx, dir+"/x", dir+"/y"); err != nil {
				t.Errorf("Rename: %v", err)
				return
			}
		}
	}()

	raw := other.NFS()
	a, err := other.ResolvePath(ctx, "/a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		version := "version A\n"
		if i%2 == 1 {
			version = "version B\n"
		}
		steps := []func() error{
			func() error { return other.Rename(ctx, "/a/b", "/a/old") },
			func() error { _, _, err := other.MkdirPath(ctx, "/a/b"); return err },
			func() error { _, _, err := other.WriteFile(ctx, "/a/b/f.txt", []byte(version)); return err },
			func() error {
				old, err := other.ResolvePath(ctx, "/a/old")
				if err != nil {
					return err
				}
				if err := raw.Remove(ctx, old.Handle, "f.txt"); err != nil {
					return err
				}
				return raw.Rmdir(ctx, a.Handle, "old")
			},
		}
		for n, step := range steps {
			if err := step(); err != nil {
				close(stop)
				wg.Wait()
				t.Fatalf("round %d step %d: %v", i, n, err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestWriteFileReturnsAndCachesWrittenAttrs: WriteFile answers with the
// attributes of the file as written, and leaves the same in the shard's
// caches — a stat of the handle or a cached lookup of the name right
// after shows the new size, without an RPC and without waiting out the
// TTL. (It used to return and keep what the lookup, truncate or create
// before the writes had seen.)
func TestWriteFileReturnsAndCachesWrittenAttrs(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})
	c := dialAs(t, addr, "test-admin")
	ac := c.primary().attrc(ctx)
	for _, content := range [][]byte{
		bytes.Repeat([]byte("new file "), 5000),    // created
		[]byte("truncated and rewritten, shorter"), // existing
	} {
		a, _, err := c.WriteFile(ctx, "/f.dat", content)
		if err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		if a.Size != uint64(len(content)) {
			t.Errorf("WriteFile returned size %d for %d bytes written", a.Size, len(content))
		}
		before := callsOn(srv)
		st, err := ac.GetAttr(ctx, a.Handle)
		if err != nil || st.Size != uint64(len(content)) {
			t.Errorf("cached stat after WriteFile: size %d, err %v; want %d", st.Size, err, len(content))
		}
		la, hit, err := ac.LookupCached(ctx, c.Root(), "f.dat")
		if err != nil || !hit || la.Size != uint64(len(content)) {
			t.Errorf("cached lookup after WriteFile: size %d, hit %v, err %v; want %d from cache", la.Size, hit, err, len(content))
		}
		if d := callsOn(srv).since(before); d != (nfsCalls{}) {
			t.Errorf("the cached stat and lookup cost %+v", d)
		}
	}
}

// TestFileCloseCachesWrittenAttrs: every File operation that moves the
// server's size or mtime — the COMMIT of Close and Sync, the SETATTR of
// Truncate, with and without the data cache — goes through the shard's
// caching client, so afterwards the attribute cache holds what the
// server now has: a cached GetAttr (and, with the data cache, a stat
// through a second open handle) shows it with no RPC and no TTL wait.
// (Those RPCs used to go out on the raw client, and the cache kept what
// the open had seen.)
func TestFileCloseCachesWrittenAttrs(t *testing.T) {
	content := bytes.Repeat([]byte("written through a File "), 4000)
	writeThen := func(barrier func(*File) error) func(*File) error {
		return func(f *File) error {
			if _, err := f.Write(content); err != nil {
				return err
			}
			return barrier(f)
		}
	}
	truncate := func(f *File) error { return f.Truncate(1234) }
	for _, tc := range []struct {
		name     string
		uncached bool
		op       func(*File) error
		size     int
	}{
		{"cached Close", false, writeThen((*File).Close), len(content)},
		{"uncached Close", true, writeThen((*File).Close), len(content)},
		{"uncached Sync", true, writeThen((*File).Sync), len(content)},
		{"cached Truncate", false, truncate, 1234},
		{"uncached Truncate", true, truncate, 1234},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			srv, addr := testServer(t, ServerConfig{})
			var opts []ClientOption
			if tc.uncached {
				opts = append(opts, WithNoDataCache())
			}
			c := dialAsWith(t, addr, "test-admin", opts...)
			if _, _, err := c.WriteFile(ctx, "/f.dat", bytes.Repeat([]byte{'b'}, 50_000)); err != nil {
				t.Fatal(err)
			}
			second, err := c.Open(ctx, "/f.dat", os.O_RDONLY)
			if err != nil {
				t.Fatal(err)
			}
			defer second.Close()
			f, err := c.Open(ctx, "/f.dat", os.O_WRONLY)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := tc.op(f); err != nil {
				t.Fatal(err)
			}
			truth, err := c.NFS().GetAttr(ctx, f.Handle()) // the raw client: what the server says now
			if err != nil || truth.Size != uint64(tc.size) {
				t.Fatalf("server size %d (err %v), want %d", truth.Size, err, tc.size)
			}

			before := callsOn(srv)
			cached, err := c.primary().attrc(ctx).GetAttr(ctx, f.Handle())
			if err != nil || cached.Size != truth.Size || !cached.Mtime.Equal(truth.Mtime) {
				t.Errorf("cached GetAttr: size %d mtime %v, err %v; want %d, %v",
					cached.Size, cached.Mtime, err, truth.Size, truth.Mtime)
			}
			if !tc.uncached { // an uncached Stat asks the server
				st, err := second.Stat()
				if err != nil || st.Size != truth.Size || !st.Mtime.Equal(truth.Mtime) {
					t.Errorf("Stat on the second handle: size %d mtime %v, err %v; want %d, %v",
						st.Size, st.Mtime, err, truth.Size, truth.Mtime)
				}
			}
			if d := callsOn(srv).since(before); d != (nfsCalls{}) {
				t.Errorf("the cached GetAttr and Stat cost %+v", d)
			}
		})
	}
}
