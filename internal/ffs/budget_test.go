package ffs

import (
	"bytes"
	"sync"
	"testing"

	"discfs/internal/vfs"
)

// Tests that pin the device-operation budget of the data path: how many
// block transfers a run of file blocks may cost, and that skipping the
// zero-fill of a fresh block never lets a reused block's old bytes show.

// devOp is one device transfer as the counting device saw it.
type devOp struct {
	write bool
	bn    uint32
	n     int // bytes passed to WriteBlock
}

// countDev logs every transfer to the device under it.
type countDev struct {
	BlockDevice
	mu    sync.Mutex
	ops   []devOp
	syncs int
}

func (d *countDev) ReadBlock(bn uint32, buf []byte) error {
	d.mu.Lock()
	d.ops = append(d.ops, devOp{bn: bn})
	d.mu.Unlock()
	return d.BlockDevice.ReadBlock(bn, buf)
}

func (d *countDev) WriteBlock(bn uint32, data []byte) error {
	d.mu.Lock()
	d.ops = append(d.ops, devOp{write: true, bn: bn, n: len(data)})
	d.mu.Unlock()
	return d.BlockDevice.WriteBlock(bn, data)
}

func (d *countDev) Sync() error {
	d.mu.Lock()
	d.syncs++
	d.mu.Unlock()
	return nil
}

// take returns the log since the last take.
func (d *countDev) take() []devOp {
	d.mu.Lock()
	defer d.mu.Unlock()
	ops := d.ops
	d.ops = nil
	return ops
}

func newCountFS(t *testing.T, blockSize int, numBlocks uint32) (*FFS, *countDev) {
	t.Helper()
	dev := &countDev{BlockDevice: NewMemDevice(blockSize, numBlocks, DiskModel{})}
	fs, err := New(Config{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev
}

// ptrBlocksOf returns the device blocks holding ip's pointers.
func ptrBlocksOf(t *testing.T, fs *FFS, h vfs.Handle) map[uint32]bool {
	t.Helper()
	ip, err := fs.getInode(h)
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[uint32]bool)
	if ip.indirect != 0 {
		set[ip.indirect] = true
	}
	if ip.dindirect != 0 {
		set[ip.dindirect] = true
		top := make([]byte, fs.blockSize)
		if err := fs.dev.ReadBlock(ip.dindirect, top); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < fs.ptrsPerBlock(); i++ {
			if mid := ptrAt(top, i); mid != 0 {
				set[mid] = true
			}
		}
	}
	return set
}

// tally splits a log into data and pointer-block transfers.
type tally struct{ dataR, dataW, ptrR, ptrW, shortW int }

func tallyOps(ops []devOp, ptr map[uint32]bool, blockSize int) tally {
	var c tally
	for _, op := range ops {
		switch {
		case op.write && ptr[op.bn]:
			c.ptrW++
		case op.write:
			c.dataW++
			if op.n < blockSize {
				c.shortW++
			}
		case ptr[op.bn]:
			c.ptrR++
		default:
			c.dataR++
		}
	}
	return c
}

func patterned(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ salt | 1 // never zero
	}
	return b
}

// TestAppendBudget: a fresh sequential append writes each data block
// exactly once, whole, and moves each pointer block once per run — on
// the paper-era geometry (8 KiB blocks, 512 KiB runs) and on a small one
// that reaches the double-indirect tree. An overwrite of the same bytes
// touches no pointer block for writing at all.
func TestAppendBudget(t *testing.T) {
	for _, tc := range []struct {
		name             string
		blockSize, total int
		run              int // blocks per write
	}{
		{"8k-blocks-512k-runs", 8192, 4 << 20, 64},
		{"1k-blocks-double-indirect", 1024, 1 << 20, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blocks := tc.total / tc.blockSize
			fs, dev := newCountFS(t, tc.blockSize, uint32(2*blocks))
			a, err := fs.Create(fs.Root(), "f", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			data := patterned(tc.total, 0x5a)
			runBytes := tc.run * tc.blockSize
			write := func() [][]devOp {
				var logs [][]devOp
				dev.take()
				for off := 0; off < tc.total; off += runBytes {
					if _, err := fs.Write(a.Handle, uint64(off), data[off:off+runBytes]); err != nil {
						t.Fatal(err)
					}
					logs = append(logs, dev.take())
				}
				return logs
			}

			logs := write()
			ptr := ptrBlocksOf(t, fs, a.Handle)
			if tc.blockSize == 1024 && len(ptr) < 4 {
				t.Fatalf("file has %d pointer blocks; the case is meant to reach the double-indirect tree", len(ptr))
			}
			var sum tally
			for i, ops := range logs {
				c := tallyOps(ops, ptr, tc.blockSize)
				if c.dataW != tc.run || c.shortW != 0 || c.dataR != 0 {
					t.Errorf("run %d: %d data writes (%d short) and %d data reads for %d fresh blocks", i, c.dataW, c.shortW, c.dataR, tc.run)
				}
				// Two reads (the double-indirect block and a leaf, each
				// once per write) and two writes; a run that crosses into
				// the next leaf writes both leaves (the totals below hold
				// the average to two).
				if c.ptrR > 2 || c.ptrW > 3 {
					t.Errorf("run %d: %d pointer-block reads + %d writes", i, c.ptrR, c.ptrW)
				}
				sum.ptrR += c.ptrR
				sum.ptrW += c.ptrW
			}
			if n := len(logs); sum.ptrR > 2*n || sum.ptrW > 2*n {
				t.Errorf("append of %d runs: %d pointer-block reads + %d writes, want at most %d each", n, sum.ptrR, sum.ptrW, 2*n)
			}
			got, _, err := fs.Read(a.Handle, 0, uint32(tc.total))
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read back after append: err=%v, equal=%v", err, bytes.Equal(got, data))
			}
			mustCheck(t, fs)

			for i, ops := range write() {
				c := tallyOps(ops, ptr, tc.blockSize)
				// Reads: the double-indirect block and each leaf the run
				// touches.
				if c.dataW != tc.run || c.dataR != 0 || c.ptrW != 0 || c.ptrR > 3 {
					t.Errorf("overwrite run %d: %+v, want %d data writes, no pointer-block write, at most 3 reads", i, c, tc.run)
				}
			}
		})
	}
}

// TestReadBudget: a sequential read resolves a run through each pointer
// block once.
func TestReadBudget(t *testing.T) {
	const bs, blocks, run = 1024, 1024, 64
	fs, dev := newCountFS(t, bs, 4*blocks)
	a, err := fs.Create(fs.Root(), "f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := patterned(blocks*bs, 0x33)
	if _, err := fs.Write(a.Handle, 0, data); err != nil {
		t.Fatal(err)
	}
	ptr := ptrBlocksOf(t, fs, a.Handle)
	dst := make([]byte, run*bs)
	for off := 0; off < len(data); off += len(dst) {
		dev.take()
		if _, _, err := fs.ReadInto(a.Handle, uint64(off), dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, data[off:off+len(dst)]) {
			t.Fatalf("read at %d differs", off)
		}
		if c := tallyOps(dev.take(), ptr, bs); c.dataR != run || c.ptrR > 3 {
			t.Errorf("read of %d blocks at %d: %+v", run, off, c)
		}
	}
}

// fillAndFree leaves every free device block holding non-zero bytes: a
// patterned file covers the device and is removed.
func fillAndFree(t *testing.T, fs *FFS, salt byte) {
	t.Helper()
	st, err := fs.StatFS()
	if err != nil {
		t.Fatal(err)
	}
	a, err := fs.Create(fs.Root(), "old", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Leave room for the file's own pointer blocks and the directory.
	n := (int(st.FreeBlocks) - 16 - int(st.FreeBlocks)/int(fs.ptrsPerBlock())) * fs.blockSize
	if _, err := fs.Write(a.Handle, 0, patterned(n, salt)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(fs.Root(), "old"); err != nil {
		t.Fatal(err)
	}
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// TestReusedBlocksReadZeros: with every free block holding a removed
// file's bytes, the cases that used to lean on the zero-fill still read
// zeros — the rest of a block whose first write is partial, a hole, and
// the range a truncate cut off and a later grow exposed again.
func TestReusedBlocksReadZeros(t *testing.T) {
	const bs = 1024
	fs, _ := newCountFS(t, bs, 1024)
	fillAndFree(t, fs, 0xa5)
	root := fs.Root()

	t.Run("partial first write", func(t *testing.T) {
		a, err := fs.Create(root, "partial", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		// One in the direct range, one under the single-indirect block,
		// one under the double-indirect tree.
		for _, lbn := range []uint64{3, 100, 400} {
			off := lbn*bs + 100
			if _, err := fs.Write(a.Handle, off, []byte("fifty bytes of payload, more or less, in a block..")); err != nil {
				t.Fatal(err)
			}
			blk, _, err := fs.Read(a.Handle, lbn*bs, bs)
			if err != nil {
				t.Fatal(err)
			}
			if !allZero(blk[:100]) || !allZero(blk[150:]) {
				t.Errorf("block %d: bytes around a partial first write are not zero", lbn)
			}
		}
		mustCheck(t, fs)
	})

	t.Run("hole", func(t *testing.T) {
		a, err := fs.Create(root, "hole", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Write(a.Handle, 300*bs, patterned(bs, 1)); err != nil {
			t.Fatal(err)
		}
		got, _, err := fs.Read(a.Handle, 0, 300*bs)
		if err != nil || len(got) != 300*bs || !allZero(got) {
			t.Errorf("hole before a write at block 300: err=%v len=%d zero=%v", err, len(got), allZero(got))
		}
		mustCheck(t, fs)
	})

	t.Run("grow after truncate", func(t *testing.T) {
		a, err := fs.Create(root, "regrow", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		const blocks = 500
		data := patterned(blocks*bs, 0x77)
		if _, err := fs.Write(a.Handle, 0, data); err != nil {
			t.Fatal(err)
		}
		cut := uint64(280*bs + bs/2)
		full := uint64(blocks * bs)
		for _, sz := range []uint64{cut, full} {
			sz := sz
			if _, err := fs.SetAttr(a.Handle, vfs.SetAttr{Size: &sz}); err != nil {
				t.Fatal(err)
			}
		}
		got, _, err := fs.Read(a.Handle, 0, uint32(full))
		if err != nil || uint64(len(got)) != full {
			t.Fatalf("read after regrow: err=%v len=%d", err, len(got))
		}
		if !bytes.Equal(got[:cut], data[:cut]) {
			t.Error("bytes below the truncation point changed")
		}
		if !allZero(got[cut:]) {
			t.Error("bytes past the truncation point came back after the regrow")
		}
		// Blocks written into the regrown range start from zeros too.
		if _, err := fs.Write(a.Handle, 400*bs+10, []byte("x")); err != nil {
			t.Fatal(err)
		}
		blk, _, err := fs.Read(a.Handle, 400*bs, bs)
		if err != nil || !allZero(blk[:10]) || blk[10] != 'x' || !allZero(blk[11:]) {
			t.Errorf("block written after the regrow: err=%v", err)
		}
		mustCheck(t, fs)
	})
}

// TestTruncateBudget: freeing a file reads each of its pointer blocks
// once and rewrites none of them; a partial truncate rewrites only the
// pointer blocks that stay, once each.
func TestTruncateBudget(t *testing.T) {
	const bs = 1024
	const blocks = 16 << 20 / bs
	fs, dev := newCountFS(t, bs, blocks+1024)
	root := fs.Root()
	a, err := fs.Create(root, "big", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(a.Handle, 0, patterned(blocks*bs, 9)); err != nil {
		t.Fatal(err)
	}
	ptr := ptrBlocksOf(t, fs, a.Handle)

	// Cut inside a second-level block: it and the double-indirect block
	// stay and are rewritten; everything after is only read.
	keep := uint64(nDirect+256+10*256+100) * bs
	dev.take()
	if _, err := fs.SetAttr(a.Handle, vfs.SetAttr{Size: &keep}); err != nil {
		t.Fatal(err)
	}
	c := tallyOps(dev.take(), ptr, bs)
	if c.ptrW != 2 || c.ptrR > len(ptr) || c.dataR+c.dataW != 0 {
		t.Errorf("partial truncate of a %d-pointer-block file: %+v, want 2 pointer-block writes and no data transfer", len(ptr), c)
	}
	mustCheck(t, fs)

	ptr = ptrBlocksOf(t, fs, a.Handle)
	dev.take()
	if err := fs.Remove(root, "big"); err != nil {
		t.Fatal(err)
	}
	ops := dev.take()
	c = tallyOps(ops, ptr, bs)
	if c.ptrW != 0 || c.ptrR != len(ptr) {
		t.Errorf("remove: %d pointer-block reads, %d writes for %d pointer blocks", c.ptrR, c.ptrW, len(ptr))
	}
	if len(ops) > len(ptr)+8 {
		t.Errorf("remove cost %d device operations for %d pointer blocks", len(ops), len(ptr))
	}
	mustCheck(t, fs)
}
