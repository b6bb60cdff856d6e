package ffs

import (
	"sync"
	"time"

	"discfs/internal/vfs"
)

// Default geometry: 8 KiB blocks (the FFS default of the paper's era and
// the NFSv2 maximum transfer size) on a 2 GiB device.
const (
	DefaultBlockSize = 8192
	DefaultNumBlocks = 1 << 18
)

// Config parameterizes a new filesystem.
type Config struct {
	// BlockSize is the block size in bytes; it must be a multiple of 4.
	// 0 means DefaultBlockSize.
	BlockSize int
	// NumBlocks is the device capacity; 0 means DefaultNumBlocks.
	NumBlocks uint32
	// MaxInodes bounds the inode table; 0 derives it from NumBlocks.
	MaxInodes uint64
	// Device supplies the block device; nil means a MemDevice with the
	// geometry above. Tests inject fault-injecting devices here.
	Device BlockDevice
}

// FFS is the filesystem. All methods are safe for concurrent use.
//
// One RWMutex guards the whole filesystem: the inode table, the block
// allocator and every inode. Read-only operations (GetAttr, Lookup,
// ReadDir, ReadInto, Readlink, StatFS) hold it shared; every mutation,
// and Check and Dump, hold it exclusively. A handle resolves to its
// inode under the lock its operation then runs under, so an inode
// removed before the operation took the lock answers ErrStale. A
// method that holds the lock never calls another method that takes it:
// Go's RWMutex is not reentrant, and a nested RLock deadlocks once a
// writer queues.
type FFS struct {
	dev       BlockDevice
	blockSize int
	root      vfs.Handle // fixed at New and Load: the root never changes

	mu sync.RWMutex // guards the inode table, the allocator and every inode

	inodes    map[uint64]*inode
	nextIno   uint64 // never reused: a freed inode's handle stays stale
	maxInodes uint64

	freeBitmap []uint64 // one bit per device block; 1 = in use
	freeBlocks uint32
	rotor      uint32 // next-fit allocation pointer

	bufPool sync.Pool
}

// New creates a filesystem per cfg and formats it with an empty root
// directory.
func New(cfg Config) (*FFS, error) {
	bs := cfg.BlockSize
	if bs == 0 {
		bs = DefaultBlockSize
	}
	if bs < 512 || bs%4 != 0 {
		return nil, vfs.ErrInval
	}
	nb := cfg.NumBlocks
	if nb == 0 {
		nb = DefaultNumBlocks
	}
	dev := cfg.Device
	if dev == nil {
		dev = NewMemDevice(bs, nb, DiskModel{})
	} else {
		if dev.BlockSize() != bs && cfg.BlockSize != 0 {
			return nil, vfs.ErrInval
		}
		bs = dev.BlockSize()
		nb = dev.NumBlocks()
	}
	maxInodes := cfg.MaxInodes
	if maxInodes == 0 {
		maxInodes = uint64(nb) // one file per block, as good a bound as any
	}
	fs := &FFS{
		dev:        dev,
		blockSize:  bs,
		inodes:     make(map[uint64]*inode),
		nextIno:    1,
		maxInodes:  maxInodes,
		freeBitmap: make([]uint64, (int(nb)+63)/64),
		freeBlocks: nb - 1, // block 0 is the superblock
		rotor:      1,
	}
	fs.bufPool.New = func() any {
		b := make([]byte, bs)
		return &b
	}
	fs.markUsed(0) // superblock
	// Format: create the root directory (ino 1).
	root, err := fs.allocInode(vfs.TypeDir, 0o755, 0, 0)
	if err != nil {
		return nil, err
	}
	root.nlink = 2 // "." and the root's self-reference
	fs.root = vfs.Handle{Ino: root.ino, Gen: root.gen}
	root.parent = fs.root
	return fs, nil
}

// Device exposes the underlying block device (tests and df).
func (fs *FFS) Device() BlockDevice { return fs.dev }

// getBlockBuf returns a pooled block-sized buffer. The pool holds the
// pointers themselves, so returning one to putBlockBuf allocates nothing.
func (fs *FFS) getBlockBuf() *[]byte  { return fs.bufPool.Get().(*[]byte) }
func (fs *FFS) putBlockBuf(b *[]byte) { fs.bufPool.Put(b) }

// Sync implements vfs.FS: it flushes the device's volatile write
// cache. Data written before a successful Sync survives a power cut;
// later unsynced writes may not.
func (fs *FFS) Sync() error { return fs.dev.Sync() }

// syncMeta flushes the device after a metadata write (directory blocks,
// indirect pointers) and between a fresh block's first write and the
// pointer that publishes it, keeping metadata synchronous
// the way FFS does even when file data is allowed to sit in a volatile
// device cache until COMMIT. Same barrier as Sync; the name marks the
// call sites as mandatory, not client-driven.
func (fs *FFS) syncMeta() error { return fs.Sync() }

// ---- allocation ----

// markUsed/markFree/isUsed mutate the allocator bitmap; callers hold
// mu exclusively (or own the filesystem, as New and Load do).
func (fs *FFS) markUsed(bn uint32) { fs.freeBitmap[bn/64] |= 1 << (bn % 64) }
func (fs *FFS) markFree(bn uint32) { fs.freeBitmap[bn/64] &^= 1 << (bn % 64) }
func (fs *FFS) isUsed(bn uint32) bool {
	return fs.freeBitmap[bn/64]&(1<<(bn%64)) != 0
}

// allocBlock finds a free block next-fit from the rotor, charging it to
// ip's block count. The caller holds mu exclusively. The device
// slot keeps whatever it last held: the caller's first write must cover
// the whole block and reach stable storage before any pointer to it
// does (see writeLeaf).
func (fs *FFS) allocBlock(ip *inode) (uint32, error) {
	if fs.freeBlocks == 0 {
		return 0, vfs.ErrNoSpace
	}
	nb := fs.dev.NumBlocks()
	bn := fs.rotor
	for i := uint32(0); i < nb; i++ {
		if bn >= nb {
			bn = 1
		}
		if !fs.isUsed(bn) {
			fs.markUsed(bn)
			fs.freeBlocks--
			fs.rotor = bn + 1
			ip.nblocks++
			return bn, nil
		}
		bn++
	}
	return 0, vfs.ErrNoSpace
}

// freeBlock returns bn to the allocator. The caller holds mu
// exclusively.
func (fs *FFS) freeBlock(ip *inode, bn uint32) {
	fs.markFree(bn)
	fs.freeBlocks++
	if ip.nblocks > 0 {
		ip.nblocks--
	}
}

// allocInode creates a new in-core inode under a fresh inode number, at
// generation 1 (numbers are never reused). The caller holds mu
// exclusively (or owns the filesystem, as New does).
func (fs *FFS) allocInode(t vfs.FileType, mode, uid, gid uint32) (*inode, error) {
	n := time.Now()
	if uint64(len(fs.inodes)) >= fs.maxInodes {
		return nil, vfs.ErrNoSpace
	}
	ino := fs.nextIno
	fs.nextIno++
	ip := &inode{
		ino: ino, gen: 1, ftype: t, mode: mode & 0o7777,
		nlink: 1, uid: uid, gid: gid,
		atime: n, mtime: n, ctime: n,
	}
	fs.inodes[ino] = ip
	return ip, nil
}

// getInode resolves a handle to its live in-core inode, checking the
// generation number. The caller holds mu; a removed inode has left the
// map and answers ErrStale.
func (fs *FFS) getInode(h vfs.Handle) (*inode, error) {
	ip, ok := fs.inodes[h.Ino]
	if !ok || ip.gen != h.Gen {
		return nil, vfs.ErrStale
	}
	return ip, nil
}

// dropInode frees an inode whose link count reached zero, or one still
// private to a creation that rolls back. The caller holds mu
// exclusively.
func (fs *FFS) dropInode(ip *inode) error {
	err := fs.freeAllBlocks(ip)
	delete(fs.inodes, ip.ino)
	return err
}

// dataErr is the error for reading or writing ip's content as file
// data: ErrIsDir for a directory, ErrInval for a symlink, whose content
// is its target.
func dataErr(ip *inode) error {
	switch ip.ftype {
	case vfs.TypeRegular:
		return nil
	case vfs.TypeDir:
		return vfs.ErrIsDir
	}
	return vfs.ErrInval
}

// ---- vfs.FS implementation ----

// Root returns the root directory handle.
func (fs *FFS) Root() vfs.Handle { return fs.root }

// GetAttr implements vfs.FS.
func (fs *FFS) GetAttr(h vfs.Handle) (vfs.Attr, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ip, err := fs.getInode(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	return ip.attr(), nil
}

// SetAttr implements vfs.FS.
func (fs *FFS) SetAttr(h vfs.Handle, s vfs.SetAttr) (vfs.Attr, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ip, err := fs.getInode(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	if s.Size != nil {
		if err := dataErr(ip); err != nil {
			return vfs.Attr{}, err
		}
	}
	if s.Mode != nil {
		ip.mode = *s.Mode & 0o7777
	}
	if s.UID != nil {
		ip.uid = *s.UID
	}
	if s.GID != nil {
		ip.gid = *s.GID
	}
	if s.Size != nil {
		if err := fs.truncateTo(ip, *s.Size); err != nil {
			return vfs.Attr{}, err
		}
		ip.mtime = time.Now()
		if err := fs.syncMeta(); err != nil {
			return vfs.Attr{}, err
		}
	}
	if s.Atime != nil {
		ip.atime = *s.Atime
	}
	if s.Mtime != nil {
		ip.mtime = *s.Mtime
	}
	ip.ctime = time.Now()
	return ip.attr(), nil
}

// Read implements vfs.FS.
func (fs *FFS) Read(h vfs.Handle, off uint64, count uint32) ([]byte, bool, error) {
	return vfs.ReadAlloc(fs, h, off, count)
}

// ReadInto implements vfs.FS: file content is read directly
// into dst — block-aligned spans straight from the device with no
// intermediate buffer, so a maximal negotiated transfer costs one copy
// inside the store instead of two plus an allocation.
func (fs *FFS) ReadInto(h vfs.Handle, off uint64, dst []byte) (int, bool, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ip, err := fs.getInode(h)
	if err != nil {
		return 0, false, err
	}
	if err := dataErr(ip); err != nil {
		return 0, false, err
	}
	if off >= ip.size {
		return 0, true, nil
	}
	n := uint64(len(dst))
	if off+n > ip.size {
		n = ip.size - off
	}
	return fs.readIntoLocked(ip, off, dst[:n])
}

// readIntoLocked fills dst with content at off; the caller holds mu
// and has clamped len(dst) to the file size.
func (fs *FFS) readIntoLocked(ip *inode, off uint64, dst []byte) (int, bool, error) {
	n := uint64(len(dst))
	bs := uint64(fs.blockSize)
	m := blockMap{fs: fs, ip: ip}
	defer m.release()
	var buf *[]byte // partial-block staging, fetched lazily
	defer func() {
		if buf != nil {
			fs.putBlockBuf(buf)
		}
	}()
	for done := uint64(0); done < n; {
		lbn := (off + done) / bs
		boff := (off + done) % bs
		chunk := bs - boff
		if chunk > n-done {
			chunk = n - done
		}
		bn, err := m.lookup(lbn)
		if err != nil {
			return 0, false, err
		}
		switch {
		case bn == 0:
			// hole: zeros
			clear(dst[done : done+chunk])
		case boff == 0 && chunk == bs:
			// Block-aligned full block: read straight into dst.
			if err := fs.dev.ReadBlock(bn, dst[done:done+chunk]); err != nil {
				return 0, false, err
			}
		default:
			if buf == nil {
				buf = fs.getBlockBuf()
			}
			if err := fs.dev.ReadBlock(bn, *buf); err != nil {
				return 0, false, err
			}
			copy(dst[done:done+chunk], (*buf)[boff:boff+chunk])
		}
		done += chunk
	}
	return int(n), off+n >= ip.size, nil
}

// Write implements vfs.FS.
func (fs *FFS) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ip, err := fs.getInode(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	if err := dataErr(ip); err != nil {
		return vfs.Attr{}, err
	}
	if err := fs.writeLocked(ip, off, data); err != nil {
		return vfs.Attr{}, err
	}
	return ip.attr(), nil
}

// writeLocked writes data at off; the caller holds mu exclusively.
// The write proceeds a leaf of the block map at a time (writeLeaf), so
// metadata the write changes is on stable storage when it returns.
func (fs *FFS) writeLocked(ip *inode, off uint64, data []byte) error {
	bs := uint64(fs.blockSize)
	end := off + uint64(len(data))
	if end/bs >= fs.maxFileBlocks() {
		return vfs.ErrFBig
	}
	sp := fs.getBlockBuf()
	defer fs.putBlockBuf(sp)
	scratch := *sp
	m := blockMap{fs: fs, ip: ip}
	defer m.release()
	for done := uint64(0); done < uint64(len(data)); {
		lf := fs.leafOf((off + done) / bs)
		n := min(uint64(len(data))-done, (lf.first+lf.slots)*bs-(off+done))
		if err := m.writeLeaf(lf, off+done, data[done:done+n], scratch); err != nil {
			return err
		}
		done += n
	}
	if end > ip.size {
		ip.size = end
	}
	n := time.Now()
	ip.mtime = n
	ip.ctime = n
	return nil
}

// StatFS implements vfs.FS.
func (fs *FFS) StatFS() (vfs.StatFS, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	free := uint64(fs.freeBlocks)
	used := uint64(len(fs.inodes))
	nb := uint64(fs.dev.NumBlocks())
	return vfs.StatFS{
		BlockSize:   uint32(fs.blockSize),
		TotalBlocks: nb,
		FreeBlocks:  free,
		AvailBlocks: free,
		TotalInodes: fs.maxInodes,
		FreeInodes:  fs.maxInodes - used,
	}, nil
}
