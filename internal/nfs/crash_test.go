package nfs

// Crash-consistency suite for the server write path: a fault-injecting
// block device with a volatile write cache simulates a power cut at
// every Nth write, dropping the cache after applying a pseudo-random
// subset of it in shuffled order (the partial, reordered writeback a
// real disk cache performs as power dies). The assertions are exactly
// the NFS COMMIT contract:
//
//   - data a COMMIT acknowledged before the cut is intact, unless a
//     later (uncommitted) write targeted the same block — then the
//     block holds one of the post-commit versions, never anything
//     older than the committed one;
//   - unacknowledged writes may vanish or partially land;
//   - the filesystem checker passes after the cut — metadata writes
//     are synchronous, so a power cut never corrupts structure.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"discfs/internal/ffs"
	"discfs/internal/vfs"
)

var errPowerCut = errors.New("crashdev: power is out")

type cdWrite struct {
	bn   uint32
	data []byte
}

// crashDevice is a BlockDevice whose writes land in a volatile cache
// until Sync copies them to the backing MemDevice. Arm schedules a
// power cut after the Nth subsequent write.
type crashDevice struct {
	inner *ffs.MemDevice

	mu        sync.Mutex
	volatile  []cdWrite
	armed     bool
	countdown int
	cut       bool
	rng       *rand.Rand
}

func newCrashDevice(blockSize int, numBlocks uint32, seed int64) *crashDevice {
	return &crashDevice{
		inner: ffs.NewMemDevice(blockSize, numBlocks, ffs.DiskModel{}),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

func (d *crashDevice) BlockSize() int    { return d.inner.BlockSize() }
func (d *crashDevice) NumBlocks() uint32 { return d.inner.NumBlocks() }

// Arm schedules the power cut after n more writes.
func (d *crashDevice) Arm(n int) {
	d.mu.Lock()
	d.armed = true
	d.countdown = n
	d.mu.Unlock()
}

// Cut reports whether the power has been cut.
func (d *crashDevice) Cut() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cut
}

// ReadBlock reads through the volatile cache (the drive serves its own
// cached writes), newest entry first. Post-cut reads serve the platter:
// the dying machine's view no longer matters, but rollback paths in the
// filesystem still read.
func (d *crashDevice) ReadBlock(bn uint32, buf []byte) error {
	d.mu.Lock()
	for i := len(d.volatile) - 1; i >= 0; i-- {
		if d.volatile[i].bn == bn {
			data := d.volatile[i].data
			d.mu.Unlock()
			copy(buf, data)
			for i := len(data); i < len(buf); i++ {
				buf[i] = 0
			}
			return nil
		}
	}
	d.mu.Unlock()
	return d.inner.ReadBlock(bn, buf)
}

// WriteBlock caches the write; when the armed countdown expires, the
// power cut fires: a random subset of the cache lands on the platter
// in random order, the rest is lost.
func (d *crashDevice) WriteBlock(bn uint32, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cut {
		// Power is out; the write goes nowhere. Reporting success is
		// the realistic model (the machine dies, nobody reads the
		// status), and the driver stops on Cut().
		return nil
	}
	d.volatile = append(d.volatile, cdWrite{bn: bn, data: append([]byte(nil), data...)})
	if d.armed {
		d.countdown--
		if d.countdown <= 0 {
			d.performCutLocked()
		}
	}
	return nil
}

// Sync flushes the volatile cache to the platter.
func (d *crashDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cut {
		return errPowerCut
	}
	for _, w := range d.volatile {
		if err := d.inner.WriteBlock(w.bn, w.data); err != nil {
			return err
		}
	}
	d.volatile = nil
	return nil
}

// performCutLocked is the power cut: a shuffled random subset of the
// volatile cache reaches the platter; everything else is gone.
func (d *crashDevice) performCutLocked() {
	d.cut = true
	idx := d.rng.Perm(len(d.volatile))
	for _, i := range idx {
		if d.rng.Intn(2) == 0 {
			continue // this cached write never left the drive
		}
		w := d.volatile[i]
		_ = d.inner.WriteBlock(w.bn, w.data)
	}
	d.volatile = nil
}

// Recover restores power: the platter is what survived.
func (d *crashDevice) Recover() {
	d.mu.Lock()
	d.cut = false
	d.armed = false
	d.volatile = nil
	d.mu.Unlock()
}

// ---- the suite ----

const (
	crashBS       = 8192
	crashFiles    = 4
	crashBlocks   = 8 // blocks per file
	crashOps      = 400
	crashCommitEv = 3 // commit every Nth op
)

// pattern fills one crash-test block: (file, block, version) tagged.
func pattern(file, block, version int) []byte {
	b := make([]byte, crashBS)
	for i := range b {
		b[i] = byte(file*131 + block*31 + version*7 + i)
	}
	return b
}

// crashIteration runs one power-cut scenario: cut after the cutAt-th
// device write of the overwrite phase. It reports whether the cut
// actually fired (a huge cutAt outlives the workload).
func crashIteration(t *testing.T, cutAt int) bool {
	t.Helper()
	dev := newCrashDevice(crashBS, 4096, int64(cutAt)*7919+1)
	backing, err := ffs.New(ffs.Config{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	// Setup phase (durable by construction): create the files, write
	// every block once, commit. All allocation and namespace traffic
	// happens here, before the cut is armed.
	handles := make([]vfs.Handle, crashFiles)
	version := make([][]int, crashFiles) // current version per block
	lastAck := make([][]int, crashFiles) // version at the last acked COMMIT
	uncommitted := make([][]map[int]bool, crashFiles)
	for f := 0; f < crashFiles; f++ {
		a, err := backing.Create(backing.Root(), fmt.Sprintf("f%d", f), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		handles[f] = a.Handle
		version[f] = make([]int, crashBlocks)
		lastAck[f] = make([]int, crashBlocks)
		uncommitted[f] = make([]map[int]bool, crashBlocks)
		for b := 0; b < crashBlocks; b++ {
			uncommitted[f][b] = map[int]bool{}
			if _, err := backing.Write(handles[f], uint64(b*crashBS), pattern(f, b, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := CommitFS(backing, handles[f]); err != nil {
			t.Fatal(err)
		}
	}

	// Overwrite phase under the armed device.
	dev.Arm(cutAt)
	rng := rand.New(rand.NewSource(int64(cutAt)*104729 + 3))
	fired := false
	for op := 0; op < crashOps && !fired; op++ {
		f := rng.Intn(crashFiles)
		b := rng.Intn(crashBlocks)
		version[f][b]++
		uncommitted[f][b][version[f][b]] = true
		if _, err := backing.Write(handles[f], uint64(b*crashBS), pattern(f, b, version[f][b])); err != nil {
			break // power already out
		}
		if op%crashCommitEv == crashCommitEv-1 {
			cf := rng.Intn(crashFiles)
			_, _, err := CommitFS(backing, handles[cf])
			if err == nil && !dev.Cut() {
				// Acknowledged durable: everything written to cf so far.
				for b := 0; b < crashBlocks; b++ {
					lastAck[cf][b] = version[cf][b]
					uncommitted[cf][b] = map[int]bool{}
				}
			}
		}
		fired = dev.Cut()
	}
	if !dev.Cut() {
		return false
	}

	// Recovery: power returns; the device's volatile cache is gone.
	dev.Recover()

	// 1. Metadata is structurally sound.
	if errs := backing.Check(); len(errs) != 0 {
		t.Fatalf("cut@%d: fsck after power cut: %v", cutAt, errs[0])
	}
	// 2. Per block: the content is the last committed version, or any
	// version written after it — never anything older.
	for f := 0; f < crashFiles; f++ {
		for b := 0; b < crashBlocks; b++ {
			got, _, err := backing.Read(handles[f], uint64(b*crashBS), crashBS)
			if err != nil {
				t.Fatalf("cut@%d: read f%d block %d: %v", cutAt, f, b, err)
			}
			if bytes.Equal(got, pattern(f, b, lastAck[f][b])) {
				continue
			}
			ok := false
			for v := range uncommitted[f][b] {
				if v > lastAck[f][b] && bytes.Equal(got, pattern(f, b, v)) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("cut@%d: f%d block %d: content is neither the committed version %d nor any later write (COMMIT-acknowledged data lost)",
					cutAt, f, b, lastAck[f][b])
			}
		}
	}
	return true
}

// TestCrashConsistencySweep simulates a power cut at every write
// position from 1 to 120 — over 100 distinct cut points through the
// unstable-write/COMMIT pipeline.
func TestCrashConsistencySweep(t *testing.T) {
	fired := 0
	for cut := 1; cut <= 120; cut++ {
		if crashIteration(t, cut) {
			fired++
		}
	}
	if fired < 100 {
		t.Fatalf("only %d of 120 cut points fired; workload too small", fired)
	}
	t.Logf("verified COMMIT durability across %d power-cut points", fired)
}

// TestCrashCommitOverHeldBackRun: WRITE n+1 reaches the store before
// n, so it starts past EOF and the store leaves a hole in front of it,
// and a COMMIT follows. Power is cut at every device write from WRITE
// n+1 on, through that COMMIT and, when n is sent at all, through WRITE
// n and the second COMMIT. Every free block held a removed file's bytes
// beforehand. After the cut fsck is clean, COMMIT-acknowledged bytes
// are intact, and every other byte of the file is the one written there
// or zero — never the stale pattern.
//
// The hole n fills lies in direct blocks and run n+1 opens the single
// indirect block, so every pointer the writes publish is in core or in
// a fresh pointer block. (A pointer block that was already reachable and
// is rewritten as the power dies stays accounted in core whether or not
// it reached the platter, which fsck would count against the file.)
func TestCrashCommitOverHeldBackRun(t *testing.T) {
	const (
		bs      = 1024
		devSize = 512
		w       = MaxData // one WRITE
	)
	fill := func(size int, v byte) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(i%251) ^ v | 0x40 // never zero, never the stale 0xa5
		}
		return b
	}
	type span struct {
		off  uint64
		data []byte
	}
	base := span{0, fill(4*bs, 1)}   // committed before the cut is armed
	n := span{4 * bs, fill(w, 2)}    // direct blocks 4-11
	n1 := span{4*bs + w, fill(w, 3)} // blocks 12-19, under the indirect block
	end := n1.off + w
	for _, sendN := range []bool{false, true} {
		fired := 0
		for cut := 1; ; cut++ {
			dev := newCrashDevice(bs, devSize, int64(cut)*7919+17)
			fs, err := ffs.New(ffs.Config{Device: dev})
			if err != nil {
				t.Fatal(err)
			}
			root := fs.Root()
			old, err := fs.Create(root, "old", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Write(old.Handle, 0, bytes.Repeat([]byte{0xa5}, (devSize-64)*bs)); err != nil {
				t.Fatal(err)
			}
			if err := fs.Remove(root, "old"); err != nil {
				t.Fatal(err)
			}
			h := mustCreate(t, fs, "f")
			mustWrite(t, fs, h, base.off, base.data)
			if _, _, err := CommitFS(fs, h); err != nil {
				t.Fatal(err)
			}

			// A write the cut interrupts may fail: the power is out.
			dev.Arm(cut)
			ackN1, ackN := false, false
			if _, err := fs.Write(h, n1.off, n1.data); err == nil {
				_, _, err = CommitFS(fs, h)
				ackN1 = err == nil && !dev.Cut()
			}
			if sendN && !dev.Cut() {
				if _, err := fs.Write(h, n.off, n.data); err == nil {
					_, _, err = CommitFS(fs, h)
					ackN = err == nil && !dev.Cut()
				}
			}
			if !dev.Cut() {
				break // the cut point lies past the whole workload
			}
			fired++
			dev.Recover()

			if errs := fs.Check(); len(errs) != 0 {
				t.Fatalf("cut@%d: fsck after power cut: %v", cut, errs[0])
			}
			size := end
			if _, err := fs.SetAttr(h, vfs.SetAttr{Size: &size}); err != nil {
				t.Fatalf("cut@%d: grow: %v", cut, err)
			}
			got, _, err := fs.Read(h, 0, uint32(end))
			if err != nil || uint64(len(got)) != end {
				t.Fatalf("cut@%d: read: len=%d err=%v", cut, len(got), err)
			}
			for _, c := range []struct {
				span
				acked bool
			}{{base, true}, {n, ackN}, {n1, ackN1}} {
				part := got[c.off : c.off+uint64(len(c.data))]
				if c.acked && !bytes.Equal(part, c.data) {
					t.Fatalf("cut@%d: the COMMIT-acknowledged bytes at %d did not survive", cut, c.off)
				}
				for j, b := range part {
					if b != 0 && b != c.data[j] {
						t.Fatalf("cut@%d: byte %d is %#x: neither the one written there nor zero", cut, c.off+uint64(j), b)
					}
				}
			}
		}
		if fired < w/bs {
			t.Fatalf("sendN=%v: only %d cut points fired, fewer than the run's blocks", sendN, fired)
		}
		t.Logf("sendN=%v: COMMIT over a write past EOF durable at %d power-cut points", sendN, fired)
	}
}

// TestCrashMetadataDurability cuts power right after namespace traffic:
// synchronous metadata (creates, renames, removes) must survive any
// cut because every namespace operation syncs the device.
func TestCrashMetadataDurability(t *testing.T) {
	for cut := 1; cut <= 30; cut++ {
		dev := newCrashDevice(crashBS, 4096, int64(cut)*31+5)
		backing, err := ffs.New(ffs.Config{Device: dev})
		if err != nil {
			t.Fatal(err)
		}
		root := backing.Root()
		// Namespace workload with the device armed: the cut lands
		// between operations' internal writes, but each op syncs before
		// returning, so a completed op is durable.
		dev.Arm(cut)
		var done []string
		for i := 0; i < 40 && !dev.Cut(); i++ {
			name := fmt.Sprintf("d%d", i)
			if _, err := backing.Mkdir(root, name, 0o755); err != nil {
				break
			}
			if !dev.Cut() {
				done = append(done, name)
			}
		}
		if !dev.Cut() {
			continue
		}
		dev.Recover()
		if errs := backing.Check(); len(errs) != 0 {
			t.Fatalf("cut@%d: fsck: %v", cut, errs[0])
		}
		for _, name := range done {
			if _, err := backing.Lookup(root, name); err != nil {
				t.Fatalf("cut@%d: completed mkdir %s lost: %v", cut, name, err)
			}
		}
	}
}

// TestCrashNoStaleDataExposure: ffs does not zero a block it allocates,
// so what keeps a reused block's previous content from showing through
// a new file is ordering — the block's first write reaches the platter
// before any pointer to it does. Every free block of the device holds a
// removed file's pattern; a new file is appended over them with the
// power cut at each device write in turn. Afterwards every byte any
// surviving pointer reaches is the byte that was written there or zero,
// never the pattern, and every write that was acknowledged before the
// cut reads back whole.
//
// The in-core inode table survives the cut (ffs keeps inodes in memory;
// a synchronously written inode is the real-disk counterpart), so the
// file is grown to its full extent afterwards to read everything its
// pointers lead to. fsck is not run: the allocator of the machine that
// died may count blocks whose pointer block the cut swallowed.
func TestCrashNoStaleDataExposure(t *testing.T) {
	const (
		bs      = 1024
		devSize = 1024 // blocks: direct, single- and double-indirect all in play
		oldLen  = 990 * bs
		newLen  = 700 * bs
		step    = 40*bs + bs/2 // unaligned: partial first writes too
	)
	old := bytes.Repeat([]byte{0xa5}, oldLen)
	fresh := make([]byte, newLen)
	for i := range fresh {
		fresh[i] = byte(i%251) | 0x40 // never zero, never the old pattern
	}
	fired := 0
	for cut := 1; ; cut++ {
		dev := newCrashDevice(bs, devSize, int64(cut)*7919+11)
		fs, err := ffs.New(ffs.Config{Device: dev})
		if err != nil {
			t.Fatal(err)
		}
		root := fs.Root()
		a, err := fs.Create(root, "old", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Write(a.Handle, 0, old); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove(root, "old"); err != nil {
			t.Fatal(err)
		}
		if a, err = fs.Create(root, "new", 0o644); err != nil {
			t.Fatal(err)
		}

		dev.Arm(cut)
		acked := 0
		for off := 0; off < newLen && !dev.Cut(); off += step {
			end := min(off+step, newLen)
			if _, err := fs.Write(a.Handle, uint64(off), fresh[off:end]); err != nil {
				break
			}
			if !dev.Cut() {
				acked = end
			}
		}
		if !dev.Cut() {
			break // the cut point lies past the whole workload
		}
		fired++
		dev.Recover()

		size := uint64(newLen)
		if _, err := fs.SetAttr(a.Handle, vfs.SetAttr{Size: &size}); err != nil {
			t.Fatalf("cut@%d: grow: %v", cut, err)
		}
		got, _, err := fs.Read(a.Handle, 0, newLen)
		if err != nil || len(got) != newLen {
			t.Fatalf("cut@%d: read: len=%d err=%v", cut, len(got), err)
		}
		if !bytes.Equal(got[:acked], fresh[:acked]) {
			t.Fatalf("cut@%d: the %d bytes acknowledged before the cut did not survive it", cut, acked)
		}
		for i, b := range got {
			if b != 0 && b != fresh[i] {
				t.Fatalf("cut@%d: byte %d of the new file is %#x: a reused block shows its previous content", cut, i, b)
			}
		}
	}
	if fired < 100 {
		t.Fatalf("only %d cut points fired; workload too small", fired)
	}
	t.Logf("no stale data at any of %d power-cut points", fired)
}
