// Package ffs implements an inode- and block-based local filesystem in
// the style of the Berkeley Fast File System. It is both the backing
// store the DisCFS server exports and the "FFS" baseline of the paper's
// evaluation (local filesystem, no RPC, no policy checks).
//
// The layout is faithful in structure: fixed-size blocks addressed
// through 12 direct pointers, one single-indirect and one double-indirect
// block per inode; directories store packed entries in their data blocks;
// handles carry an inode number and a generation (the inode+generation
// scheme the paper proposes as future work), and inode numbers are never
// reused, so a removed file's handle stays stale. One read-write lock
// guards the whole filesystem: reads share it, and a mutation holds it
// alone, device calls included (see FFS). Persistence to a real disk is out of scope — the device is
// RAM-backed, optionally with a seek/bandwidth cost model.
package ffs

import (
	"fmt"
	"sync"
	"time"
)

// BlockDevice is the storage a filesystem is built on.
type BlockDevice interface {
	// BlockSize returns the device block size in bytes.
	BlockSize() int
	// NumBlocks returns the device capacity in blocks.
	NumBlocks() uint32
	// ReadBlock fills buf (BlockSize bytes) from block bn.
	ReadBlock(bn uint32, buf []byte) error
	// WriteBlock stores data (at most BlockSize bytes) to block bn; the
	// rest of the block after a short write is zeros.
	WriteBlock(bn uint32, data []byte) error
	// Sync flushes the device's volatile write cache to stable storage.
	// The filesystem calls it synchronously after metadata writes and
	// from FFS.Sync (the COMMIT durability barrier); crash-consistency
	// tests inject devices that lose unsynced writes at a simulated
	// power cut.
	Sync() error
}

// DiskModel adds synthetic device costs, letting experiments approximate
// spinning-disk behaviour. The zero value charges nothing.
type DiskModel struct {
	// SeekLatency is charged once per non-sequential block access.
	SeekLatency time.Duration
	// BytesPerSecond bounds transfer bandwidth; 0 means unlimited.
	BytesPerSecond int64
	// Exclusive serializes the modeled delay like one spindle: the
	// device lock is held while the cost elapses, so concurrent
	// accesses queue instead of overlapping their delays. Without it
	// the device lets go of its lock while a delay elapses, so the
	// model bounds per-access latency but not aggregate bandwidth for
	// readers — N goroutines reading through an FFS extract N times
	// BytesPerSecond. Writers through an FFS do not overlap their
	// delays in either mode: FFS holds its lock exclusively across
	// every device call of a mutation. Scale-out experiments set it so
	// a server's throughput is genuinely device-bound and adding
	// servers adds real aggregate bandwidth.
	Exclusive bool
}

// MemDevice is a RAM-backed block device with lazy allocation.
type MemDevice struct {
	blockSize int
	numBlocks uint32
	model     DiskModel

	mu     sync.Mutex
	blocks map[uint32][]byte
	lastBn uint32
	// debt accumulates Exclusive-mode delay not yet slept. Per-block
	// delays at realistic bandwidths are tens of microseconds — far
	// below what time.Sleep can honor accurately — so the model sleeps
	// in coarser quanta and settles against the measured sleep time
	// (overshoot carries forward as credit).
	debt time.Duration
}

// exclusiveQuantum is the Exclusive-mode sleep granularity: large
// enough that scheduler overshoot is a small relative error, small
// enough that devices stay smoothly paced.
const exclusiveQuantum = 2 * time.Millisecond

// NewMemDevice creates a device with numBlocks blocks of blockSize bytes.
func NewMemDevice(blockSize int, numBlocks uint32, model DiskModel) *MemDevice {
	return &MemDevice{
		blockSize: blockSize,
		numBlocks: numBlocks,
		model:     model,
		blocks:    make(map[uint32][]byte),
	}
}

// BlockSize returns the device block size.
func (d *MemDevice) BlockSize() int { return d.blockSize }

// NumBlocks returns the device capacity in blocks.
func (d *MemDevice) NumBlocks() uint32 { return d.numBlocks }

// charge applies the disk model for an access to bn of n bytes.
// Called with d.mu held.
func (d *MemDevice) charge(bn uint32, n int) {
	m := d.model
	var delay time.Duration
	if m.SeekLatency > 0 && bn != d.lastBn+1 && bn != d.lastBn {
		delay += m.SeekLatency
	}
	if m.BytesPerSecond > 0 {
		delay += time.Duration(int64(n) * int64(time.Second) / m.BytesPerSecond)
	}
	d.lastBn = bn
	if m.Exclusive {
		// Hold d.mu while the cost elapses: one access at a time, like
		// one head. The sleep itself is batched through a debt account.
		d.debt += delay
		if d.debt >= exclusiveQuantum {
			start := time.Now()
			time.Sleep(d.debt)
			d.debt -= time.Since(start)
		}
		return
	}
	if delay > 0 {
		d.mu.Unlock()
		time.Sleep(delay)
		d.mu.Lock()
	}
}

// ReadBlock implements BlockDevice.
func (d *MemDevice) ReadBlock(bn uint32, buf []byte) error {
	if bn >= d.numBlocks {
		return fmt.Errorf("ffs: read of block %d beyond device (%d blocks)", bn, d.numBlocks)
	}
	if len(buf) != d.blockSize {
		return fmt.Errorf("ffs: read buffer is %d bytes, want %d", len(buf), d.blockSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.charge(bn, d.blockSize)
	if b, ok := d.blocks[bn]; ok {
		copy(buf, b)
	} else {
		clear(buf)
	}
	return nil
}

// WriteBlock implements BlockDevice.
func (d *MemDevice) WriteBlock(bn uint32, data []byte) error {
	if bn >= d.numBlocks {
		return fmt.Errorf("ffs: write of block %d beyond device (%d blocks)", bn, d.numBlocks)
	}
	if len(data) > d.blockSize {
		return fmt.Errorf("ffs: write of %d bytes exceeds block size %d", len(data), d.blockSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.charge(bn, len(data))
	b, ok := d.blocks[bn]
	if !ok {
		b = make([]byte, d.blockSize)
		d.blocks[bn] = b
	}
	clear(b[copy(b, data):])
	return nil
}

// Sync implements BlockDevice. RAM is "stable storage" here, so there is
// nothing to flush.
func (d *MemDevice) Sync() error { return nil }
