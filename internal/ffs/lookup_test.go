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

// TestLookupAllocations: a lookup scans the directory in place instead
// of decoding every entry into a string.
func TestLookupAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts on pooled paths vary under the race detector")
	}
	fs := newFS(t)
	root := fillDir(t, fs, 64)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := fs.Lookup(root, "f37"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Errorf("Lookup in a 64-entry directory: %.0f allocations, want at most 5", allocs)
	}
}

// rewriteDir replaces the raw content of directory h with edit(content).
func rewriteDir(t *testing.T, fs *FFS, h vfs.Handle, edit func([]byte) []byte) {
	t.Helper()
	dir, err := fs.getInode(h)
	if err != nil {
		t.Fatal(err)
	}
	unlock, err := fs.wlockInode(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer unlock()
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
