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
