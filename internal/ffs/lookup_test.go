package ffs

import (
	"errors"
	"fmt"
	"testing"

	"discfs/internal/bufpool"
	"discfs/internal/vfs"
)

// fillDir creates n files named f0..f{n-1} in the root and returns the
// root handle.
func fillDir(t *testing.T, fs *FFS, n int) vfs.Handle {
	t.Helper()
	root := fs.Root()
	for i := 0; i < n; i++ {
		if _, err := fs.Create(root, fmt.Sprintf("f%d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestLookupAllocations holds the store's per-call allocation budgets,
// all zero: a lookup scans the directory in place instead of decoding
// every entry into a string, and a lookup, an attribute read, a
// whole-block read and a one-page overwrite use pooled block buffers
// whose return allocates nothing.
func TestLookupAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts on pooled paths vary under the race detector")
	}
	fs := newFS(t)
	root := fillDir(t, fs, 64)
	f, err := fs.Lookup(root, "f37")
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 4096)
	if _, err := fs.Write(f.Handle, 0, page); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		max  float64
		op   func() error
	}{
		{"lookup in a 64-entry directory", 0, func() error {
			_, err := fs.Lookup(root, "f37")
			return err
		}},
		{"getattr", 0, func() error {
			_, err := fs.GetAttr(f.Handle)
			return err
		}},
		{"whole-block 4 KiB readinto", 0, func() error {
			_, _, err := fs.ReadInto(f.Handle, 0, page)
			return err
		}},
		{"4 KiB overwrite", 0, func() error {
			_, err := fs.Write(f.Handle, 0, page)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(200, func() {
				if err := c.op(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > c.max {
				t.Errorf("%.0f allocations per call, want at most %.0f", allocs, c.max)
			}
		})
	}
}

// rewriteDir replaces the raw content of directory h with edit(content).
func rewriteDir(t *testing.T, fs *FFS, h vfs.Handle, edit func([]byte) []byte) {
	t.Helper()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, err := fs.getInode(h)
	if err != nil {
		t.Fatal(err)
	}
	buf, old, err := fs.readDirBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	content := edit(append([]byte(nil), old...))
	bufpool.Put(buf)
	if err := fs.truncateTo(dir, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.writeLocked(dir, 0, content); err != nil {
		t.Fatal(err)
	}
}

// TestLookupTruncatedDirentIsIOError: a directory whose content ends in
// or starts with a cut-off entry is corrupt wherever the name sought
// sits, for lookups and for the name check of a create alike.
func TestLookupTruncatedDirentIsIOError(t *testing.T) {
	cases := map[string]func([]byte) []byte{
		// A header cut short after every entry, the sought one included.
		"after": func(b []byte) []byte { return append(b, 0, 0, 0, 0, 0) },
		// A first entry whose name runs past the end of the directory.
		"before": func(b []byte) []byte {
			bad := appendDirent(nil, vfs.Handle{Ino: 99, Gen: 1}, "x")
			bad[12], bad[13] = 0xff, 0xff
			return append(bad[:direntHeader], b...)
		},
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			fs := newFS(t)
			root := fillDir(t, fs, 8)
			rewriteDir(t, fs, root, edit)
			if _, err := fs.Lookup(root, "f3"); !errors.Is(err, vfs.ErrIO) {
				t.Errorf("Lookup = %v, want ErrIO", err)
			}
			if _, err := fs.Create(root, "new", 0o644); !errors.Is(err, vfs.ErrIO) {
				t.Errorf("Create = %v, want ErrIO", err)
			}
		})
	}
}
