package ffs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"discfs/internal/vfs"
)

// newFS creates a small test filesystem.
func newFS(t *testing.T) *FFS {
	t.Helper()
	fs, err := New(Config{BlockSize: 1024, NumBlocks: 4096})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return fs
}

// mustCheck fails the test if fsck finds inconsistencies.
func mustCheck(t *testing.T, fs *FFS) {
	t.Helper()
	if errs := fs.Check(); len(errs) != 0 {
		for _, e := range errs {
			t.Errorf("fsck: %v", e)
		}
		t.FailNow()
	}
}

func TestFormatAndRoot(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	attr, err := fs.GetAttr(root)
	if err != nil {
		t.Fatalf("GetAttr(root): %v", err)
	}
	if attr.Type != vfs.TypeDir {
		t.Errorf("root type = %v", attr.Type)
	}
	if attr.Nlink != 2 {
		t.Errorf("root nlink = %d, want 2", attr.Nlink)
	}
	mustCheck(t, fs)
}

func TestCreateWriteRead(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	attr, err := fs.Create(root, "hello.txt", 0o644)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	msg := []byte("hello, distributed world")
	if _, err := fs.Write(attr.Handle, 0, msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, eof, err := fs.Read(attr.Handle, 0, 100)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("read = %q, want %q", got, msg)
	}
	if !eof {
		t.Error("eof = false at end of file")
	}
	// Partial read.
	got, eof, err = fs.Read(attr.Handle, 7, 11)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(got) != "distributed" || eof {
		t.Errorf("partial read = %q eof=%v", got, eof)
	}
	// Lookup finds it.
	found, err := fs.Lookup(root, "hello.txt")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if found.Handle != attr.Handle {
		t.Error("lookup returned different handle")
	}
	mustCheck(t, fs)
}

func TestWriteAcrossBlockBoundaries(t *testing.T) {
	fs := newFS(t) // 1 KiB blocks
	root := fs.Root()
	attr, err := fs.Create(root, "f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	// Write in odd-sized chunks at odd offsets.
	for off := 0; off < len(data); off += 777 {
		end := off + 777
		if end > len(data) {
			end = len(data)
		}
		if _, err := fs.Write(attr.Handle, uint64(off), data[off:end]); err != nil {
			t.Fatalf("Write(%d): %v", off, err)
		}
	}
	got, _, err := fs.Read(attr.Handle, 0, 6000)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("cross-block write corrupted data")
	}
	mustCheck(t, fs)
}

func TestLargeFileThroughIndirectBlocks(t *testing.T) {
	fs := newFS(t) // 1 KiB blocks → 12 KiB direct, 256 KiB single-indirect
	root := fs.Root()
	attr, err := fs.Create(root, "big", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// 300 KiB reaches into the double-indirect range
	// (12 + 256 direct+indirect KiB < 300 KiB).
	size := 300 * 1024
	data := make([]byte, size)
	rnd := rand.New(rand.NewSource(1))
	rnd.Read(data)
	if _, err := fs.Write(attr.Handle, 0, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	a, err := fs.GetAttr(attr.Handle)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size != uint64(size) {
		t.Errorf("size = %d, want %d", a.Size, size)
	}
	// Read in 8 KiB chunks.
	var got []byte
	for off := uint64(0); off < uint64(size); {
		chunk, eof, err := fs.Read(attr.Handle, off, 8192)
		if err != nil {
			t.Fatalf("Read(%d): %v", off, err)
		}
		got = append(got, chunk...)
		off += uint64(len(chunk))
		if eof {
			break
		}
	}
	if !bytes.Equal(got, data) {
		t.Error("large file corrupted")
	}
	mustCheck(t, fs)

	// Truncate back to zero must free every block.
	free0, _ := fs.StatFS()
	zero := uint64(0)
	if _, err := fs.SetAttr(attr.Handle, vfs.SetAttr{Size: &zero}); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	free1, _ := fs.StatFS()
	if free1.FreeBlocks <= free0.FreeBlocks {
		t.Errorf("truncate freed no blocks: %d -> %d", free0.FreeBlocks, free1.FreeBlocks)
	}
	mustCheck(t, fs)
}

func TestSparseFileReadsZeros(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	attr, _ := fs.Create(root, "sparse", 0o644)
	// Write one byte far into the file.
	if _, err := fs.Write(attr.Handle, 100*1024, []byte{0xff}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, _, err := fs.Read(attr.Handle, 50*1024, 16)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatalf("hole read nonzero byte %x", b)
		}
	}
	a, _ := fs.GetAttr(attr.Handle)
	if a.Size != 100*1024+1 {
		t.Errorf("size = %d", a.Size)
	}
	// The hole must not consume 100 KiB of blocks.
	if a.Blocks > 5 {
		t.Errorf("sparse file used %d blocks", a.Blocks)
	}
	mustCheck(t, fs)
}

func TestTruncateGrowAndShrink(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	attr, _ := fs.Create(root, "t", 0o644)
	if _, err := fs.Write(attr.Handle, 0, bytes.Repeat([]byte("x"), 3000)); err != nil {
		t.Fatal(err)
	}
	sz := uint64(1000)
	if _, err := fs.SetAttr(attr.Handle, vfs.SetAttr{Size: &sz}); err != nil {
		t.Fatal(err)
	}
	got, eof, err := fs.Read(attr.Handle, 0, 5000)
	if err != nil || !eof {
		t.Fatalf("Read: %v eof=%v", err, eof)
	}
	if len(got) != 1000 {
		t.Errorf("after shrink, len = %d", len(got))
	}
	// Grow: the extended range reads as zeros.
	sz = 2000
	if _, err := fs.SetAttr(attr.Handle, vfs.SetAttr{Size: &sz}); err != nil {
		t.Fatal(err)
	}
	got, _, err = fs.Read(attr.Handle, 1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatalf("grown region nonzero")
		}
	}
	mustCheck(t, fs)
}

func TestRemoveFreesSpace(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	before, _ := fs.StatFS()
	attr, _ := fs.Create(root, "f", 0o644)
	if _, err := fs.Write(attr.Handle, 0, make([]byte, 50*1024)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(root, "f"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	after, _ := fs.StatFS()
	// Root directory may have grown a block for the entry; allow 1 block
	// of slack.
	if after.FreeBlocks+1 < before.FreeBlocks {
		t.Errorf("blocks leaked: %d free before, %d after", before.FreeBlocks, after.FreeBlocks)
	}
	if _, err := fs.Lookup(root, "f"); !errors.Is(err, vfs.ErrNotExist) {
		t.Errorf("lookup after remove = %v", err)
	}
	// The handle is now stale.
	if _, err := fs.GetAttr(attr.Handle); !errors.Is(err, vfs.ErrStale) {
		t.Errorf("GetAttr on removed file = %v, want ErrStale", err)
	}
	mustCheck(t, fs)
}

func TestGenerationPreventsHandleReuse(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	a1, _ := fs.Create(root, "a", 0o644)
	if err := fs.Remove(root, "a"); err != nil {
		t.Fatal(err)
	}
	// Even if a new file gets the same ino, the old handle must not
	// resolve to it.
	for i := 0; i < 10; i++ {
		fs.Create(root, fmt.Sprintf("b%d", i), 0o644)
	}
	if _, err := fs.GetAttr(a1.Handle); !errors.Is(err, vfs.ErrStale) {
		t.Errorf("stale handle resolved: %v", err)
	}
	mustCheck(t, fs)
}

func TestMkdirRmdir(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	d, err := fs.Mkdir(root, "sub", 0o755)
	if err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	rootAttr, _ := fs.GetAttr(root)
	if rootAttr.Nlink != 3 {
		t.Errorf("root nlink = %d, want 3 after mkdir", rootAttr.Nlink)
	}
	if d.Nlink != 2 {
		t.Errorf("new dir nlink = %d, want 2", d.Nlink)
	}
	// Lookup "." and "..".
	dot, err := fs.Lookup(d.Handle, ".")
	if err != nil || dot.Handle != d.Handle {
		t.Errorf("lookup . = %v, %v", dot.Handle, err)
	}
	dotdot, err := fs.Lookup(d.Handle, "..")
	if err != nil || dotdot.Handle != root {
		t.Errorf("lookup .. = %v, %v", dotdot.Handle, err)
	}
	// Rmdir of non-empty must fail.
	if _, err := fs.Create(d.Handle, "x", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir(root, "sub"); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Errorf("rmdir non-empty = %v", err)
	}
	if err := fs.Remove(d.Handle, "x"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir(root, "sub"); err != nil {
		t.Fatalf("Rmdir: %v", err)
	}
	rootAttr, _ = fs.GetAttr(root)
	if rootAttr.Nlink != 2 {
		t.Errorf("root nlink = %d, want 2 after rmdir", rootAttr.Nlink)
	}
	mustCheck(t, fs)
}

func TestRemoveOnDirectoryFails(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	fs.Mkdir(root, "d", 0o755)
	if err := fs.Remove(root, "d"); !errors.Is(err, vfs.ErrIsDir) {
		t.Errorf("Remove(dir) = %v, want ErrIsDir", err)
	}
	fs.Create(root, "f", 0o644)
	if err := fs.Rmdir(root, "f"); !errors.Is(err, vfs.ErrNotDir) {
		t.Errorf("Rmdir(file) = %v, want ErrNotDir", err)
	}
}

func TestRenameBasic(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	attr, _ := fs.Create(root, "old", 0o644)
	fs.Write(attr.Handle, 0, []byte("payload"))
	if err := fs.Rename(root, "old", root, "new"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if _, err := fs.Lookup(root, "old"); !errors.Is(err, vfs.ErrNotExist) {
		t.Error("old name still present")
	}
	got, err := fs.Lookup(root, "new")
	if err != nil {
		t.Fatalf("Lookup(new): %v", err)
	}
	if got.Handle != attr.Handle {
		t.Error("rename changed the handle")
	}
	mustCheck(t, fs)
}

func TestRenameAcrossDirectories(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	d1, _ := fs.Mkdir(root, "d1", 0o755)
	d2, _ := fs.Mkdir(root, "d2", 0o755)
	f, _ := fs.Create(d1.Handle, "f", 0o644)
	if err := fs.Rename(d1.Handle, "f", d2.Handle, "g"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if _, err := fs.Lookup(d2.Handle, "g"); err != nil {
		t.Errorf("moved file missing: %v", err)
	}
	_ = f
	mustCheck(t, fs)

	// Moving a directory updates parent link counts and "..".
	sub, _ := fs.Mkdir(d1.Handle, "sub", 0o755)
	if err := fs.Rename(d1.Handle, "sub", d2.Handle, "sub"); err != nil {
		t.Fatalf("Rename(dir): %v", err)
	}
	dotdot, err := fs.Lookup(sub.Handle, "..")
	if err != nil || dotdot.Handle != d2.Handle {
		t.Errorf(".. after move = %v, want d2", dotdot.Handle)
	}
	a1, _ := fs.GetAttr(d1.Handle)
	a2, _ := fs.GetAttr(d2.Handle)
	if a1.Nlink != 2 || a2.Nlink != 3 {
		t.Errorf("nlink after dir move: d1=%d d2=%d, want 2,3", a1.Nlink, a2.Nlink)
	}
	mustCheck(t, fs)
}

func TestRenameReplacesTarget(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	src, _ := fs.Create(root, "src", 0o644)
	fs.Write(src.Handle, 0, []byte("source"))
	dst, _ := fs.Create(root, "dst", 0o644)
	fs.Write(dst.Handle, 0, []byte("victim"))
	if err := fs.Rename(root, "src", root, "dst"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	got, err := fs.Lookup(root, "dst")
	if err != nil || got.Handle != src.Handle {
		t.Errorf("dst = %v %v, want src handle", got.Handle, err)
	}
	if _, err := fs.GetAttr(dst.Handle); !errors.Is(err, vfs.ErrStale) {
		t.Error("replaced target still alive")
	}
	mustCheck(t, fs)
}

func TestRenameDirIntoOwnSubtreeFails(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	a, _ := fs.Mkdir(root, "a", 0o755)
	b, _ := fs.Mkdir(a.Handle, "b", 0o755)
	if err := fs.Rename(root, "a", b.Handle, "evil"); !errors.Is(err, vfs.ErrInval) {
		t.Errorf("rename into own subtree = %v, want ErrInval", err)
	}
	mustCheck(t, fs)
}

func TestHardLinks(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	f, _ := fs.Create(root, "f", 0o644)
	fs.Write(f.Handle, 0, []byte("shared"))
	l, err := fs.Link(root, "l", f.Handle)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	if l.Nlink != 2 {
		t.Errorf("nlink = %d, want 2", l.Nlink)
	}
	// Content visible through both names.
	la, _ := fs.Lookup(root, "l")
	got, _, _ := fs.Read(la.Handle, 0, 100)
	if string(got) != "shared" {
		t.Errorf("link content = %q", got)
	}
	// Removing one name keeps the file.
	if err := fs.Remove(root, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.GetAttr(f.Handle); err != nil {
		t.Errorf("file died with one link left: %v", err)
	}
	if err := fs.Remove(root, "l"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.GetAttr(f.Handle); !errors.Is(err, vfs.ErrStale) {
		t.Error("file survived last unlink")
	}
	mustCheck(t, fs)

	// Hard links to directories are forbidden.
	d, _ := fs.Mkdir(root, "d", 0o755)
	if _, err := fs.Link(root, "dl", d.Handle); !errors.Is(err, vfs.ErrIsDir) {
		t.Errorf("Link(dir) = %v, want ErrIsDir", err)
	}
}

func TestSymlinks(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	s, err := fs.Symlink(root, "s", "/target/path", 0o777)
	if err != nil {
		t.Fatalf("Symlink: %v", err)
	}
	if s.Type != vfs.TypeSymlink {
		t.Errorf("type = %v", s.Type)
	}
	target, err := fs.Readlink(s.Handle)
	if err != nil || target != "/target/path" {
		t.Errorf("Readlink = %q, %v", target, err)
	}
	f, _ := fs.Create(root, "f", 0o644)
	if _, err := fs.Readlink(f.Handle); !errors.Is(err, vfs.ErrInval) {
		t.Errorf("Readlink(file) = %v, want ErrInval", err)
	}
	// A symlink's content is its target: data operations are refused.
	if _, err := fs.Write(s.Handle, 0, []byte("abc")); !errors.Is(err, vfs.ErrInval) {
		t.Errorf("Write(symlink) = %v, want ErrInval", err)
	}
	size := uint64(100000)
	if _, err := fs.SetAttr(s.Handle, vfs.SetAttr{Size: &size}); !errors.Is(err, vfs.ErrInval) {
		t.Errorf("SetAttr(symlink, size) = %v, want ErrInval", err)
	}
	if _, _, err := fs.ReadInto(s.Handle, 0, make([]byte, 64)); !errors.Is(err, vfs.ErrInval) {
		t.Errorf("ReadInto(symlink) = %v, want ErrInval", err)
	}
	if a, err := fs.GetAttr(s.Handle); err != nil || a.Size != uint64(len("/target/path")) {
		t.Errorf("GetAttr(symlink) size = %d, %v; want %d", a.Size, err, len("/target/path"))
	}
	if target, err := fs.Readlink(s.Handle); err != nil || target != "/target/path" {
		t.Errorf("Readlink after refused writes = %q, %v", target, err)
	}
	mustCheck(t, fs)
}

func TestReadDir(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	names := []string{"a", "bb", "ccc", "dddd"}
	for _, n := range names {
		if _, err := fs.Create(root, n, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := fs.ReadDir(root)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(ents) != len(names) {
		t.Fatalf("got %d entries, want %d", len(ents), len(names))
	}
	seen := map[string]bool{}
	for _, e := range ents {
		seen[e.Name] = true
	}
	for _, n := range names {
		if !seen[n] {
			t.Errorf("missing entry %q", n)
		}
	}
}

func TestNameValidation(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	for _, bad := range []string{"", ".", "..", "a/b", "nul\x00byte"} {
		if _, err := fs.Create(root, bad, 0o644); err == nil {
			t.Errorf("Create(%q) succeeded", bad)
		}
	}
	long := string(bytes.Repeat([]byte("n"), 300))
	if _, err := fs.Create(root, long, 0o644); !errors.Is(err, vfs.ErrNameTooLong) {
		t.Errorf("long name = %v, want ErrNameTooLong", err)
	}
	if _, err := fs.Create(root, "ok name.txt", 0o644); err != nil {
		t.Errorf("valid name rejected: %v", err)
	}
}

func TestDuplicateCreateFails(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	if _, err := fs.Create(root, "f", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(root, "f", 0o644); !errors.Is(err, vfs.ErrExist) {
		t.Errorf("duplicate create = %v, want ErrExist", err)
	}
	if _, err := fs.Mkdir(root, "f", 0o755); !errors.Is(err, vfs.ErrExist) {
		t.Errorf("mkdir over file = %v, want ErrExist", err)
	}
}

func TestOutOfSpace(t *testing.T) {
	fs, err := New(Config{BlockSize: 512, NumBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	root := fs.Root()
	attr, err := fs.Create(root, "f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fs.Write(attr.Handle, 0, make([]byte, 64*1024))
	if !errors.Is(err, vfs.ErrNoSpace) {
		t.Errorf("huge write = %v, want ErrNoSpace", err)
	}
}

func TestSetAttrModeAndTimes(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	attr, _ := fs.Create(root, "f", 0o644)
	mode := uint32(0o600)
	got, err := fs.SetAttr(attr.Handle, vfs.SetAttr{Mode: &mode})
	if err != nil {
		t.Fatalf("SetAttr: %v", err)
	}
	if got.Mode != 0o600 {
		t.Errorf("mode = %o", got.Mode)
	}
	uid, gid := uint32(1000), uint32(100)
	got, err = fs.SetAttr(attr.Handle, vfs.SetAttr{UID: &uid, GID: &gid})
	if err != nil || got.UID != 1000 || got.GID != 100 {
		t.Errorf("uid/gid = %d/%d, %v", got.UID, got.GID, err)
	}
}

func TestStatFS(t *testing.T) {
	fs := newFS(t)
	s, err := fs.StatFS()
	if err != nil {
		t.Fatal(err)
	}
	if s.BlockSize != 1024 || s.TotalBlocks != 4096 {
		t.Errorf("statfs = %+v", s)
	}
	if s.FreeBlocks >= s.TotalBlocks {
		t.Errorf("free %d >= total %d", s.FreeBlocks, s.TotalBlocks)
	}
}

// TestRandomOperationsPreserveInvariants drives the filesystem with a
// random operation mix and runs fsck afterwards — the core property test.
func TestRandomOperationsPreserveInvariants(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	rng := rand.New(rand.NewSource(99))
	dirs := []vfs.Handle{root}
	type file struct {
		dir  vfs.Handle
		name string
	}
	var files []file
	nameCtr := 0
	newName := func() string {
		nameCtr++
		return fmt.Sprintf("n%04d", nameCtr)
	}
	for i := 0; i < 2000; i++ {
		switch op := rng.Intn(10); {
		case op < 3: // create
			d := dirs[rng.Intn(len(dirs))]
			n := newName()
			if _, err := fs.Create(d, n, 0o644); err == nil {
				files = append(files, file{d, n})
			}
		case op < 5 && len(files) > 0: // write
			f := files[rng.Intn(len(files))]
			if a, err := fs.Lookup(f.dir, f.name); err == nil {
				data := make([]byte, rng.Intn(4096))
				rng.Read(data)
				fs.Write(a.Handle, uint64(rng.Intn(8192)), data)
			}
		case op < 6: // mkdir
			d := dirs[rng.Intn(len(dirs))]
			if a, err := fs.Mkdir(d, newName(), 0o755); err == nil {
				dirs = append(dirs, a.Handle)
			}
		case op < 8 && len(files) > 0: // remove
			i := rng.Intn(len(files))
			f := files[i]
			if err := fs.Remove(f.dir, f.name); err == nil {
				files = append(files[:i], files[i+1:]...)
			}
		case op < 9 && len(files) > 0: // rename
			i := rng.Intn(len(files))
			f := files[i]
			to := dirs[rng.Intn(len(dirs))]
			n := newName()
			if err := fs.Rename(f.dir, f.name, to, n); err == nil {
				files[i] = file{to, n}
			}
		default: // truncate
			if len(files) == 0 {
				continue
			}
			f := files[rng.Intn(len(files))]
			if a, err := fs.Lookup(f.dir, f.name); err == nil {
				sz := uint64(rng.Intn(10000))
				fs.SetAttr(a.Handle, vfs.SetAttr{Size: &sz})
			}
		}
		if i%500 == 499 {
			mustCheck(t, fs)
		}
	}
	mustCheck(t, fs)
}

func TestConcurrentAccess(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 40; i++ {
				name := fmt.Sprintf("g%d-f%d", g, i)
				a, err := fs.Create(root, name, 0o644)
				if err != nil {
					done <- err
					return
				}
				if _, err := fs.Write(a.Handle, 0, []byte(name)); err != nil {
					done <- err
					return
				}
				got, _, err := fs.Read(a.Handle, 0, 64)
				if err != nil || string(got) != name {
					done <- fmt.Errorf("read %q, %v", got, err)
					return
				}
				if err := fs.Remove(root, name); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatalf("goroutine: %v", err)
		}
	}
	mustCheck(t, fs)
}

// TestParallelWritersFsck: eight writers each stream 1 MiB in 8 KiB
// blocks into their own file at once, taking turns on the filesystem's
// lock. Every file reads back whole and fsck finds nothing.
func TestParallelWritersFsck(t *testing.T) {
	const writers, size, chunk = 8, 1 << 20, 8192
	fs, err := New(Config{BlockSize: chunk, NumBlocks: 2048})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]vfs.Handle, writers)
	done := make(chan error, writers)
	for w := range handles {
		a, err := fs.Create(fs.Root(), fmt.Sprintf("pw%d.dat", w), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		handles[w] = a.Handle
		go func(w int) {
			block := bytes.Repeat([]byte{byte(w + 1)}, chunk)
			for off := uint64(0); off < size; off += chunk {
				if _, err := fs.Write(handles[w], off, block); err != nil {
					done <- fmt.Errorf("writer %d at %d: %w", w, off, err)
					return
				}
			}
			done <- nil
		}(w)
	}
	for range handles {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	mustCheck(t, fs)
	for w, h := range handles {
		got, _, err := fs.Read(h, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(w + 1)}, size)) {
			t.Errorf("writer %d: file does not read back as written", w)
		}
	}
}

func TestDiskModelCharges(t *testing.T) {
	dev := NewMemDevice(512, 64, DiskModel{BytesPerSecond: 1 << 30})
	buf := make([]byte, 512)
	if err := dev.WriteBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	if err := dev.ReadBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	// Out-of-range accesses fail.
	if err := dev.ReadBlock(64, buf); err == nil {
		t.Error("read beyond device succeeded")
	}
	if err := dev.WriteBlock(64, buf); err == nil {
		t.Error("write beyond device succeeded")
	}
}

// TestStaleAfterRemoveWhileWaiting: an operation on a removed file finds
// the inode gone from the table and answers ErrStale.
func TestStaleAfterRemoveWhileWaiting(t *testing.T) {
	fs, err := New(Config{BlockSize: 1024, NumBlocks: 1024})
	if err != nil {
		t.Fatal(err)
	}
	a, err := fs.Create(fs.Root(), "f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(fs.Root(), "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(a.Handle, 0, []byte("x")); err != vfs.ErrStale {
		t.Fatalf("Write to removed file = %v, want ErrStale", err)
	}
	if _, _, err := fs.Read(a.Handle, 0, 1); err != vfs.ErrStale {
		t.Fatalf("Read of removed file = %v, want ErrStale", err)
	}
}
