package nfs

import (
	"sync/atomic"
	"testing"

	"discfs/internal/cfs"
	"discfs/internal/dedup"
	"discfs/internal/ffs"
	"discfs/internal/vfs"
)

// embedFS and embedDev have the shape of a wrapper that overrides one
// method of what it wraps: the struct embeds the interface, so it has
// exactly the interface's methods and no others.
type embedFS struct{ vfs.FS }

type embedDev struct{ ffs.BlockDevice }

// syncCountDev counts the durability barriers that reach the device.
type syncCountDev struct {
	*ffs.MemDevice
	syncs atomic.Int64
}

func (d *syncCountDev) Sync() error {
	d.syncs.Add(1)
	return d.MemDevice.Sync()
}

// TestBarrierThroughEmbeddingWrapper: a store behind an embedding
// wrapper sees every device sync the bare store sees, so the COMMIT
// barrier and dedup's crash ordering survive any wrapper a WithBacking
// caller stacks.
func TestBarrierThroughEmbeddingWrapper(t *testing.T) {
	data := testBytes(200<<10, 9)
	cases := []struct {
		name    string
		wrapDev bool // wrap the device under ffs rather than ffs itself
		// setup stacks the layer under test over store, writes through
		// it, and returns the barrier to count.
		setup func(t *testing.T, store vfs.FS) func() error
	}{
		{"GatherFS.Commit", false, func(t *testing.T, store vfs.FS) func() error {
			g := NewGatherFS(store, GatherConfig{})
			t.Cleanup(func() { g.Close() })
			h := mustCreate(t, g, "f")
			if _, err := g.Write(h, 0, data[:MaxData]); err != nil {
				t.Fatal(err)
			}
			return func() error { _, _, err := g.Commit(h); return err }
		}},
		{"dedup.Sync", false, func(t *testing.T, store vfs.FS) func() error {
			d, err := dedup.Wrap(store, dedup.WithSweepInterval(0))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			h := mustCreate(t, d, "f")
			if _, err := d.Write(h, 0, data); err != nil {
				t.Fatal(err)
			}
			return d.Sync
		}},
		{"cfs.Sync", false, func(t *testing.T, store vfs.FS) func() error {
			c, err := cfs.New(store, "key", true)
			if err != nil {
				t.Fatal(err)
			}
			h := mustCreate(t, c, "f")
			if _, err := c.Write(h, 0, data); err != nil {
				t.Fatal(err)
			}
			return c.Sync
		}},
		{"ffs.Sync over a device wrapper", true, func(t *testing.T, store vfs.FS) func() error {
			h := mustCreate(t, store, "f")
			if _, err := store.Write(h, 0, data); err != nil {
				t.Fatal(err)
			}
			return store.Sync
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			syncs := func(wrap bool) int64 {
				dev := &syncCountDev{MemDevice: ffs.NewMemDevice(4096, 4096, ffs.DiskModel{})}
				var bd ffs.BlockDevice = dev
				if wrap && tc.wrapDev {
					bd = embedDev{bd}
				}
				fs, err := ffs.New(ffs.Config{Device: bd})
				if err != nil {
					t.Fatal(err)
				}
				var store vfs.FS = fs
				if wrap && !tc.wrapDev {
					store = embedFS{fs}
				}
				barrier := tc.setup(t, store)
				before := dev.syncs.Load()
				if err := barrier(); err != nil {
					t.Fatal(err)
				}
				return dev.syncs.Load() - before
			}
			bare, wrapped := syncs(false), syncs(true)
			t.Logf("device syncs: %d bare, %d wrapped", bare, wrapped)
			if bare == 0 || wrapped != bare {
				t.Errorf("barrier issued %d device syncs behind the wrapper, %d on the bare store", wrapped, bare)
			}
		})
	}
}

// TestGatherReadIntoThroughEmbeddingWrapper: a READ through the gather
// layer over a wrapped store still lands in the caller's buffer, with
// no payload-sized allocation on the way.
func TestGatherReadIntoThroughEmbeddingWrapper(t *testing.T) {
	backing := bigFFS(t)
	g := NewGatherFS(embedFS{backing}, GatherConfig{})
	defer g.Close()
	h := mustCreate(t, g, "f")
	if _, err := backing.Write(h, 0, testBytes(xferBytes, 4)); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, xferBytes)
	per := heapBytesPer(t, 20, func() {
		if n, _, err := g.ReadInto(h, 0, dst); err != nil || n != xferBytes {
			t.Fatalf("ReadInto = %d, %v", n, err)
		}
	})
	t.Logf("%d heap bytes per %d-byte ReadInto", per, xferBytes)
	if per >= xferBytes/16 {
		t.Errorf("a %d-byte ReadInto allocates %d heap bytes", xferBytes, per)
	}
}
