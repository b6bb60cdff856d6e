package ffs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"discfs/internal/vfs"
)

// buildPopulated makes a filesystem with directories, files, links, a
// symlink, a sparse file, and a deleted inode.
func buildPopulated(t *testing.T) *FFS {
	t.Helper()
	fs := newFS(t)
	root := fs.Root()
	docs, err := fs.Mkdir(root, "docs", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a, err := fs.Create(docs.Handle, fmt.Sprintf("f%d.txt", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Write(a.Handle, 0, bytes.Repeat([]byte{byte(i)}, 100*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	big, _ := fs.Create(root, "big", 0o644)
	fs.Write(big.Handle, 0, bytes.Repeat([]byte("B"), 40*1024)) // through indirects
	sparse, _ := fs.Create(root, "sparse", 0o644)
	fs.Write(sparse.Handle, 90000, []byte("end"))
	orig, _ := fs.Create(root, "orig", 0o600)
	fs.Write(orig.Handle, 0, []byte("linked"))
	fs.Link(root, "alias", orig.Handle)
	fs.Symlink(root, "sym", "/target/elsewhere", 0o777)
	// Delete a file so a freed inode number lies behind the live ones.
	doomed, _ := fs.Create(root, "doomed", 0o644)
	fs.Remove(root, "doomed")
	_ = doomed
	return fs
}

func TestDumpLoadRoundTrip(t *testing.T) {
	fs := buildPopulated(t)
	mustCheck(t, fs)

	var img bytes.Buffer
	if err := fs.Dump(&img); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	restored, err := Load(&img)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	mustCheck(t, restored)

	// Same namespace and content.
	var walk func(orig, rest vfs.Handle, path string)
	walk = func(oh, rh vfs.Handle, path string) {
		oe, err := fs.ReadDir(oh)
		if err != nil {
			t.Fatalf("%s: orig readdir: %v", path, err)
		}
		re, err := restored.ReadDir(rh)
		if err != nil {
			t.Fatalf("%s: restored readdir: %v", path, err)
		}
		if len(oe) != len(re) {
			t.Fatalf("%s: %d vs %d entries", path, len(oe), len(re))
		}
		for _, e := range oe {
			oa, err := fs.Lookup(oh, e.Name)
			if err != nil {
				t.Fatal(err)
			}
			ra, err := restored.Lookup(rh, e.Name)
			if err != nil {
				t.Fatalf("%s/%s missing after restore: %v", path, e.Name, err)
			}
			if oa.Handle != ra.Handle || oa.Type != ra.Type || oa.Size != ra.Size ||
				oa.Mode != ra.Mode || oa.Nlink != ra.Nlink {
				t.Fatalf("%s/%s attr mismatch: %+v vs %+v", path, e.Name, oa, ra)
			}
			switch oa.Type {
			case vfs.TypeDir:
				walk(oa.Handle, ra.Handle, path+"/"+e.Name)
			case vfs.TypeRegular:
				od, _, err := fs.Read(oa.Handle, 0, uint32(oa.Size))
				if err != nil {
					t.Fatal(err)
				}
				rd, _, err := restored.Read(ra.Handle, 0, uint32(ra.Size))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(od, rd) {
					t.Fatalf("%s/%s content differs", path, e.Name)
				}
			case vfs.TypeSymlink:
				ot, _ := fs.Readlink(oa.Handle)
				rt, err := restored.Readlink(ra.Handle)
				if err != nil || ot != rt {
					t.Fatalf("%s/%s symlink differs: %q vs %q (%v)", path, e.Name, ot, rt, err)
				}
			}
		}
	}
	walk(fs.Root(), restored.Root(), "")

	// StatFS agrees on usage.
	so, _ := fs.StatFS()
	sr, _ := restored.StatFS()
	if so.FreeBlocks != sr.FreeBlocks || so.TotalBlocks != sr.TotalBlocks {
		t.Errorf("statfs differs: %+v vs %+v", so, sr)
	}
}

func TestLoadPreservesStaleHandles(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	a, _ := fs.Create(root, "gone", 0o644)
	if err := fs.Remove(root, "gone"); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := fs.Dump(&img); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&img)
	if err != nil {
		t.Fatal(err)
	}
	// The old handle must still be stale — and a new file must not be
	// handed it again.
	if _, err := restored.GetAttr(a.Handle); !errors.Is(err, vfs.ErrStale) {
		t.Errorf("stale handle resolved after restore: %v", err)
	}
	b, err := restored.Create(restored.Root(), "new", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if b.Handle == a.Handle {
		t.Error("restored filesystem reissued a dead handle")
	}
	mustCheck(t, restored)
}

// TestImageForgetsRemovedInodes: files created and removed leave
// nothing behind in the image, however many there were. Their handles
// stay stale through the inode number, which is never reused.
func TestImageForgetsRemovedInodes(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	imageSize := func() int {
		var img bytes.Buffer
		if err := fs.Dump(&img); err != nil {
			t.Fatal(err)
		}
		return img.Len()
	}
	fresh := imageSize()
	tmp, err := fs.Mkdir(root, "tmp", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	var first vfs.Handle
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("f%d", i)
		a, err := fs.Create(tmp.Handle, name, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = a.Handle
		}
		if err := fs.Remove(tmp.Handle, name); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Rmdir(root, "tmp"); err != nil {
		t.Fatal(err)
	}
	if got := imageSize(); got > fresh+1024 {
		t.Errorf("image grew from %d to %d bytes after 10,000 files came and went, want within 1 KiB", fresh, got)
	}
	if _, err := fs.GetAttr(first); !errors.Is(err, vfs.ErrStale) {
		t.Errorf("removed file's handle resolved: %v", err)
	}
	mustCheck(t, fs)
}

func TestLoadContinuesOperating(t *testing.T) {
	fs := buildPopulated(t)
	var img bytes.Buffer
	if err := fs.Dump(&img); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&img)
	if err != nil {
		t.Fatal(err)
	}
	// The restored filesystem is fully operational.
	root := restored.Root()
	a, err := restored.Create(root, "post-restore", 0o644)
	if err != nil {
		t.Fatalf("create after restore: %v", err)
	}
	if _, err := restored.Write(a.Handle, 0, []byte("works")); err != nil {
		t.Fatalf("write after restore: %v", err)
	}
	got, _, err := restored.Read(a.Handle, 0, 16)
	if err != nil || string(got) != "works" {
		t.Errorf("read after restore: %q, %v", got, err)
	}
	if err := restored.Remove(root, "big"); err != nil {
		t.Fatalf("remove after restore: %v", err)
	}
	mustCheck(t, restored)
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("not an image at all, definitely not"),
	}
	for name, data := range cases {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Load succeeded", name)
		}
	}
	// Truncated image: cut a valid image in half.
	fs := buildPopulated(t)
	var img bytes.Buffer
	if err := fs.Dump(&img); err != nil {
		t.Fatal(err)
	}
	half := img.Bytes()[:img.Len()/2]
	if _, err := Load(bytes.NewReader(half)); err == nil {
		t.Error("truncated image loaded")
	}
	// Trailing garbage.
	full := append(append([]byte{}, img.Bytes()...), 0xde, 0xad)
	if _, err := Load(bytes.NewReader(full)); err == nil {
		t.Error("image with trailing bytes loaded")
	}
}
