package ffs

import (
	"encoding/binary"
	"time"

	"discfs/internal/vfs"
)

// nDirect is the number of direct block pointers per inode, as in FFS.
const nDirect = 12

// inode is the in-core inode. Block pointer 0 means "unallocated" (block
// 0 is reserved for the superblock), so sparse files read as zeros.
//
// Every field is guarded by the filesystem's lock (FFS.mu).
type inode struct {
	ino   uint64
	gen   uint32
	ftype vfs.FileType
	mode  uint32
	nlink uint32
	uid   uint32
	gid   uint32
	size  uint64
	atime time.Time
	mtime time.Time
	ctime time.Time

	direct    [nDirect]uint32
	indirect  uint32 // single-indirect block of pointers
	dindirect uint32 // double-indirect block

	// linkTarget holds symlink targets. FFS stores short targets in the
	// inode ("fast symlinks"); we keep all targets in-core.
	linkTarget string

	// parent is the containing directory (directories only; the root is
	// its own parent). It backs Lookup("..").
	parent vfs.Handle

	// nblocks counts allocated data+indirect blocks, for fattr and df.
	nblocks uint64
}

func (ip *inode) attr() vfs.Attr {
	return vfs.Attr{
		Handle: vfs.Handle{Ino: ip.ino, Gen: ip.gen},
		Type:   ip.ftype,
		Mode:   ip.mode,
		Nlink:  ip.nlink,
		UID:    ip.uid,
		GID:    ip.gid,
		Size:   ip.size,
		Blocks: ip.nblocks,
		Atime:  ip.atime,
		Mtime:  ip.mtime,
		Ctime:  ip.ctime,
	}
}

// ptrsPerBlock returns how many block pointers fit one block.
func (fs *FFS) ptrsPerBlock() uint64 { return uint64(fs.blockSize) / 4 }

// maxBlocks returns the largest block index addressable by an inode.
func (fs *FFS) maxFileBlocks() uint64 {
	p := fs.ptrsPerBlock()
	return nDirect + p + p*p
}

// anyPtr reports whether a run of pointer slots holds a block.
func anyPtr(slots []byte) bool {
	for _, b := range slots {
		if b != 0 {
			return true
		}
	}
	return false
}

func ptrAt(blk []byte, i uint64) uint32       { return binary.BigEndian.Uint32(blk[i*4:]) }
func setPtrAt(blk []byte, i uint64, v uint32) { binary.BigEndian.PutUint32(blk[i*4:], v) }

// leaf identifies the pointer array that maps one span of a file's
// logical blocks: the inode's direct pointers, the single-indirect
// block, or one second-level block under the double-indirect block.
// Data-path operations work a leaf at a time so that each pointer
// block crosses the device once per run of blocks, not once per block.
type leaf struct {
	kind  leafKind
	l1    uint64 // leafDouble: slot of this leaf in the double-indirect block
	first uint64 // logical block of slot 0
	slots uint64
}

type leafKind uint8

const (
	leafDirect leafKind = iota
	leafSingle
	leafDouble
)

// leafOf returns the leaf holding lbn's pointer; lbn is below
// maxFileBlocks.
func (fs *FFS) leafOf(lbn uint64) leaf {
	p := fs.ptrsPerBlock()
	switch {
	case lbn < nDirect:
		return leaf{kind: leafDirect, slots: nDirect}
	case lbn < nDirect+p:
		return leaf{kind: leafSingle, first: nDirect, slots: p}
	}
	l1 := (lbn - nDirect - p) / p
	return leaf{kind: leafDouble, l1: l1, first: nDirect + p + l1*p, slots: p}
}

// ptrBuf holds one pointer block in memory.
type ptrBuf struct {
	bn     uint32 // device block the buffer holds; 0 when none
	buf    []byte
	pooled *[]byte // the pool's handle on buf, for release
	// fresh marks a block allocated by the write in progress and not
	// yet published: it exists only in buf so far.
	fresh bool
}

// load makes pb hold pointer block bn, reading it unless it already
// does. Where the map has no pointer block (bn is 0) a reader gets
// ok false, and a writer (alloc) gets one allocated for ip, empty and
// in memory only.
func (pb *ptrBuf) load(fs *FFS, ip *inode, bn uint32, alloc bool) (ok bool, err error) {
	if bn == 0 && !alloc {
		return false, nil
	}
	if bn != 0 && pb.bn == bn {
		return true, nil
	}
	if pb.pooled == nil {
		pb.pooled = fs.getBlockBuf()
		pb.buf = *pb.pooled
	}
	pb.bn = 0
	if bn == 0 {
		if bn, err = fs.allocBlock(ip); err != nil {
			return false, err
		}
		clear(pb.buf)
		pb.bn, pb.fresh = bn, true
		return true, nil
	}
	if err = fs.dev.ReadBlock(bn, pb.buf); err != nil {
		return false, err
	}
	pb.bn = bn
	return true, nil
}

// blockMap resolves logical blocks for one read or write: the pointer
// blocks it walks stay in memory, so a sequential run moves each of
// them across the device once. The caller holds the filesystem's lock
// (shared suffices for lookup) and calls release when done.
type blockMap struct {
	fs        *FFS
	ip        *inode
	leaf, top ptrBuf
}

func (m *blockMap) release() {
	for _, pb := range []*ptrBuf{&m.leaf, &m.top} {
		if pb.pooled != nil {
			m.fs.putBlockBuf(pb.pooled)
		}
	}
}

// resolve makes m.leaf hold the pointer block of lf (not the direct
// leaf), going through m.top for one under the double-indirect block.
// ok is false where a reader finds no pointer block: a hole.
func (m *blockMap) resolve(lf leaf, alloc bool) (ok bool, err error) {
	leafBn := m.ip.indirect
	if lf.kind == leafDouble {
		if ok, err = m.top.load(m.fs, m.ip, m.ip.dindirect, alloc); !ok {
			return false, err
		}
		leafBn = ptrAt(m.top.buf, lf.l1)
	}
	return m.leaf.load(m.fs, m.ip, leafBn, alloc)
}

// lookup returns the device block of logical block lbn, 0 for a hole.
func (m *blockMap) lookup(lbn uint64) (uint32, error) {
	if lbn >= m.fs.maxFileBlocks() {
		return 0, vfs.ErrFBig
	}
	if lbn < nDirect {
		return m.ip.direct[lbn], nil
	}
	lf := m.fs.leafOf(lbn)
	if ok, err := m.resolve(lf, false); !ok {
		return 0, err
	}
	return ptrAt(m.leaf.buf, lbn-lf.first), nil
}

// newBlock is a data block allocated by the write in progress and the
// leaf slot that will point at it.
type newBlock struct {
	slot uint64
	bn   uint32
}

// writeLeaf writes data at off, all of it mapped by lf; the caller
// holds the filesystem's lock exclusively and lends a block-sized
// scratch buffer. The map is kept across the leaves of one write, so the
// double-indirect block is read once for all of them.
//
// Allocation order is data, then pointer. A block this write allocates
// is unreachable — no pointer a crash could preserve leads to it —
// until its final content is on stable storage: every fresh block
// (data, and a pointer block allocated alongside) is written first,
// then a barrier, then the pointers that publish them (in the inode,
// or in a pointer block that was already reachable), then a barrier
// for those. A reused device block therefore never shows its previous
// owner's bytes, and nothing is zero-filled only to be overwritten: a
// block whose first write covers it whole gets that write as its first
// device write, a partial first write goes out zero-padded.
func (m *blockMap) writeLeaf(lf leaf, off uint64, data, scratch []byte) (err error) {
	fs, ip := m.fs, m.ip
	bs := uint64(fs.blockSize)
	top, lp := &m.top, &m.leaf // the double-indirect block; the leaf's pointer block
	var fresh []newBlock
	defer func() {
		if err == nil {
			return
		}
		// Nothing fresh was published: hand it all back. The write is
		// over; what the map holds no longer matches the device.
		for _, n := range fresh {
			fs.freeBlock(ip, n.bn)
		}
		for _, pb := range []*ptrBuf{lp, top} {
			if pb.fresh {
				fs.freeBlock(ip, pb.bn)
			}
			pb.bn, pb.fresh = 0, false
		}
	}()
	if lf.kind != leafDirect {
		if _, err = m.resolve(lf, true); err != nil {
			return err
		}
	}

	for done := uint64(0); done < uint64(len(data)); {
		pos := off + done
		slot, boff := pos/bs-lf.first, pos%bs
		chunk := min(bs-boff, uint64(len(data))-done)
		var bn uint32
		if lf.kind == leafDirect {
			bn = ip.direct[slot]
		} else {
			bn = ptrAt(lp.buf, slot)
		}
		isNew := bn == 0
		if isNew {
			if bn, err = fs.allocBlock(ip); err != nil {
				return err
			}
			fresh = append(fresh, newBlock{slot, bn})
		}
		src := data[done : done+chunk]
		if chunk < bs {
			// Partial block: merge into the old content, or into zeros
			// when the block is new.
			if isNew {
				clear(scratch)
			} else if err = fs.dev.ReadBlock(bn, scratch); err != nil {
				return err
			}
			copy(scratch[boff:], src)
			src = scratch
		}
		if err = fs.dev.WriteBlock(bn, src); err != nil {
			return err
		}
		done += chunk
	}
	if len(fresh) == 0 {
		return nil // pure overwrite: the map did not change
	}
	if lf.kind == leafDirect {
		if err = fs.syncMeta(); err != nil {
			return err
		}
		for _, n := range fresh {
			ip.direct[n.slot] = n.bn
		}
		return nil
	}

	// The leaf takes its new pointers in memory. A fresh pointer block
	// is as unreachable as the data, so it goes out in the same batch.
	for _, n := range fresh {
		setPtrAt(lp.buf, n.slot, n.bn)
	}
	if lp.fresh {
		if err = fs.dev.WriteBlock(lp.bn, lp.buf); err != nil {
			return err
		}
	}
	if top.fresh {
		setPtrAt(top.buf, lf.l1, lp.bn)
		if err = fs.dev.WriteBlock(top.bn, top.buf); err != nil {
			return err
		}
	}
	if err = fs.syncMeta(); err != nil {
		return err
	}

	// Publish. In-core pointers need no device write; a pointer block
	// that was already reachable is rewritten once for the whole run.
	wrote := true
	switch {
	case !lp.fresh:
		err = fs.dev.WriteBlock(lp.bn, lp.buf)
	case lf.kind == leafSingle:
		ip.indirect, wrote = lp.bn, false
	case top.fresh:
		ip.dindirect, wrote = top.bn, false
	default:
		setPtrAt(top.buf, lf.l1, lp.bn)
		err = fs.dev.WriteBlock(top.bn, top.buf)
	}
	if err != nil {
		return err
	}
	// Published: if the barrier below fails the pointers may or may not
	// have reached the platter, but in core they stand, so the blocks
	// stay accounted to the file.
	fresh, lp.fresh, top.fresh = nil, false, false
	if wrote {
		return fs.syncMeta()
	}
	return nil
}

// truncateTo frees blocks beyond newSize and updates ip.size. The
// caller holds the filesystem's lock exclusively. Every pointer block
// is read once; one that is partly retained is rewritten once, before
// the blocks it lets go of return to the allocator, and one that is
// freed whole is not rewritten at all.
func (fs *FFS) truncateTo(ip *inode, newSize uint64) error {
	if newSize >= ip.size {
		ip.size = newSize
		return nil
	}
	p := fs.ptrsPerBlock()
	bs := uint64(fs.blockSize)
	keep := (newSize + bs - 1) / bs // first logical block to free
	bp := fs.getBlockBuf()
	defer fs.putBlockBuf(bp)
	buf := *bp

	// Zero the tail of the last kept block so a later grow reads zeros:
	// a short write, which the device zero-fills.
	if newSize%bs != 0 {
		m := blockMap{fs: fs, ip: ip}
		bn, err := m.lookup(newSize / bs)
		m.release()
		if err != nil {
			return err
		}
		if bn != 0 {
			if err := fs.dev.ReadBlock(bn, buf); err != nil {
				return err
			}
			if err := fs.dev.WriteBlock(bn, buf[:newSize%bs]); err != nil {
				return err
			}
		}
	}

	for l := keep; l < nDirect; l++ {
		if ip.direct[l] != 0 {
			fs.freeBlock(ip, ip.direct[l])
			ip.direct[l] = 0
		}
	}
	if ip.indirect != 0 && keep < nDirect+p {
		from := uint64(0)
		if keep > nDirect {
			from = keep - nDirect
		}
		if err := fs.freeLeafFrom(ip, ip.indirect, from, buf); err != nil {
			return err
		}
		if from == 0 {
			ip.indirect = 0
		}
	}
	if ip.dindirect != 0 {
		start := uint64(0)
		if keep > nDirect+p {
			start = keep - nDirect - p
		}
		if err := fs.freeDoubleFrom(ip, start, buf); err != nil {
			return err
		}
	}
	ip.size = newSize
	return nil
}

// freeLeafFrom releases the data blocks in slots [from, p) of pointer
// block bn, and bn itself when from is 0. buf is block-sized scratch.
func (fs *FFS) freeLeafFrom(ip *inode, bn uint32, from uint64, buf []byte) error {
	if err := fs.dev.ReadBlock(bn, buf); err != nil {
		return err
	}
	if from > 0 && anyPtr(buf[from*4:]) {
		// Retained: the slots are cleared on the device (a short write)
		// before the allocator can hand their blocks out again.
		if err := fs.dev.WriteBlock(bn, buf[:from*4]); err != nil {
			return err
		}
	}
	for i := from; i < fs.ptrsPerBlock(); i++ {
		if b := ptrAt(buf, i); b != 0 {
			fs.freeBlock(ip, b)
		}
	}
	if from == 0 {
		fs.freeBlock(ip, bn)
	}
	return nil
}

// freeDoubleFrom releases everything the double-indirect tree maps from
// its start-th data block on, and the tree's root when start is 0.
func (fs *FFS) freeDoubleFrom(ip *inode, start uint64, buf []byte) error {
	p := fs.ptrsPerBlock()
	tp := fs.getBlockBuf()
	defer fs.putBlockBuf(tp)
	top := *tp
	if err := fs.dev.ReadBlock(ip.dindirect, top); err != nil {
		return err
	}
	// Second-level blocks from l1 on are freed whole; the one before it
	// is cut at start%p when start falls inside it.
	l1 := (start + p - 1) / p
	if start > 0 {
		if anyPtr(top[l1*4:]) {
			if err := fs.dev.WriteBlock(ip.dindirect, top[:l1*4]); err != nil {
				return err
			}
		}
		if mid := ptrAt(top, start/p); start%p != 0 && mid != 0 {
			if err := fs.freeLeafFrom(ip, mid, start%p, buf); err != nil {
				return err
			}
		}
	}
	for ; l1 < p; l1++ {
		if mid := ptrAt(top, l1); mid != 0 {
			if err := fs.freeLeafFrom(ip, mid, 0, buf); err != nil {
				return err
			}
		}
	}
	if start == 0 {
		fs.freeBlock(ip, ip.dindirect)
		ip.dindirect = 0
	}
	return nil
}

// freeAllBlocks releases every block of ip (used when the inode dies).
func (fs *FFS) freeAllBlocks(ip *inode) error {
	return fs.truncateTo(ip, 0)
}
