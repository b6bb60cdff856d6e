package main

import (
	"os"
	"path/filepath"
	"testing"

	"discfs"
)

// TestOpenStoreChecksImageAtStartup: -image with a store SaveStore
// cannot dump must fail while the store is opened — before the daemon
// listens — and leave nothing behind; with a dumpable store the image
// exists from start-up and the next start restores it.
func TestOpenStoreChecksImageAtStartup(t *testing.T) {
	opts := []discfs.StoreOption{discfs.WithBlockSize(4096), discfs.WithNumBlocks(2048)}
	dir := t.TempDir()

	bad := filepath.Join(dir, "bare.img")
	if _, err := openStore("ffs", bad, opts); err == nil {
		t.Error("openStore(ffs, -image) succeeded; SaveStore cannot dump a bare FFS")
	}
	if left, _ := filepath.Glob(bad + "*"); len(left) != 0 {
		t.Errorf("failed start-up check left %v behind", left)
	}
	if _, err := openStore("ffs", "", opts); err != nil {
		t.Errorf("openStore(ffs) without -image: %v", err)
	}

	img := filepath.Join(dir, "mem.img")
	store, err := openStore(discfs.DefaultBackend, img, opts)
	if err != nil {
		t.Fatalf("openStore(mem, -image): %v", err)
	}
	if _, err := os.Stat(img); err != nil {
		t.Fatalf("no image after start-up: %v", err)
	}
	if _, err := store.Create(store.Root(), "kept", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := discfs.SaveStore(img, store); err != nil {
		t.Fatalf("SaveStore at shutdown: %v", err)
	}
	restored, err := openStore(discfs.DefaultBackend, img, opts)
	if err != nil {
		t.Fatalf("openStore restoring the image: %v", err)
	}
	if _, err := restored.Lookup(restored.Root(), "kept"); err != nil {
		t.Errorf("restored image lost the file: %v", err)
	}
}
