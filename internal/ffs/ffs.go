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
	// Now supplies timestamps; nil means time.Now. Benchmarks inject a
	// cheap clock here.
	Now func() time.Time
}

// FFS is the filesystem. All methods are safe for concurrent use.
//
// Locking is fine-grained (see locktab.go for the full discipline):
// every inode has its own lock in a sharded table, the inode map and
// the block allocator have their own small mutexes, renames serialize
// on renameMu, and Check/Dump quiesce the filesystem through a
// read-mostly gate every operation holds shared.
type FFS struct {
	dev       BlockDevice
	blockSize int

	// quiesce is held shared by every operation and exclusively by
	// Check and Dump, which need a frozen filesystem.
	quiesce sync.RWMutex

	// metaMu guards the inode table. Leaf lock: nothing else is
	// acquired while holding it.
	metaMu    sync.RWMutex
	inodes    map[uint64]*inode
	nextIno   uint64
	gens      map[uint64]uint32 // last generation per inode slot, survives frees
	maxInodes uint64

	// allocMu guards the block allocator. Leaf lock.
	allocMu    sync.Mutex
	freeBitmap []uint64 // one bit per device block; 1 = in use
	freeBlocks uint32
	rotor      uint32 // next-fit allocation pointer

	// renameMu serializes renames and freezes the directory topology
	// for rename's ancestry walk.
	renameMu sync.Mutex

	// locks is the sharded per-inode lock table.
	locks lockTable

	now func() time.Time

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
	now := cfg.Now
	if now == nil {
		now = time.Now
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
		gens:       make(map[uint64]uint32),
		nextIno:    1,
		maxInodes:  maxInodes,
		freeBitmap: make([]uint64, (int(nb)+63)/64),
		freeBlocks: nb - 1, // block 0 is the superblock
		rotor:      1,
		now:        now,
	}
	fs.locks.init()
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
	root.parent = vfs.Handle{Ino: root.ino, Gen: root.gen}
	return fs, nil
}

// Device exposes the underlying block device (tests and df).
func (fs *FFS) Device() BlockDevice { return fs.dev }

func (fs *FFS) getBlockBuf() []byte  { return *(fs.bufPool.Get().(*[]byte)) }
func (fs *FFS) putBlockBuf(b []byte) { fs.bufPool.Put(&b) }

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
// allocMu (or own the filesystem exclusively, as New and Load do).
func (fs *FFS) markUsed(bn uint32) { fs.freeBitmap[bn/64] |= 1 << (bn % 64) }
func (fs *FFS) markFree(bn uint32) { fs.freeBitmap[bn/64] &^= 1 << (bn % 64) }
func (fs *FFS) isUsed(bn uint32) bool {
	return fs.freeBitmap[bn/64]&(1<<(bn%64)) != 0
}

// allocBlock finds a free block next-fit from the rotor, charging it to
// ip's block count. The caller holds ip's exclusive lock. The device
// slot keeps whatever it last held: the caller's first write must cover
// the whole block and reach stable storage before any pointer to it
// does (see writeLeaf).
func (fs *FFS) allocBlock(ip *inode) (uint32, error) {
	fs.allocMu.Lock()
	if fs.freeBlocks == 0 {
		fs.allocMu.Unlock()
		return 0, vfs.ErrNoSpace
	}
	nb := fs.dev.NumBlocks()
	bn := fs.rotor
	found := false
	for i := uint32(0); i < nb; i++ {
		if bn >= nb {
			bn = 1
		}
		if !fs.isUsed(bn) {
			fs.markUsed(bn)
			fs.freeBlocks--
			fs.rotor = bn + 1
			found = true
			break
		}
		bn++
	}
	fs.allocMu.Unlock()
	if !found {
		return 0, vfs.ErrNoSpace
	}
	ip.nblocks++
	return bn, nil
}

// freeBlock returns bn to the allocator. The caller holds ip's
// exclusive lock.
func (fs *FFS) freeBlock(ip *inode, bn uint32) {
	fs.allocMu.Lock()
	fs.markFree(bn)
	fs.freeBlocks++
	fs.allocMu.Unlock()
	if ip.nblocks > 0 {
		ip.nblocks--
	}
}

// allocInode creates a new in-core inode with a fresh generation. The
// new inode is private to the caller until a directory entry makes it
// visible.
func (fs *FFS) allocInode(t vfs.FileType, mode, uid, gid uint32) (*inode, error) {
	n := fs.now()
	fs.metaMu.Lock()
	if uint64(len(fs.inodes)) >= fs.maxInodes {
		fs.metaMu.Unlock()
		return nil, vfs.ErrNoSpace
	}
	ino := fs.nextIno
	fs.nextIno++
	gen := fs.gens[ino] + 1
	fs.gens[ino] = gen
	ip := &inode{
		ino: ino, gen: gen, ftype: t, mode: mode & 0o7777,
		nlink: 1, uid: uid, gid: gid,
		atime: n, mtime: n, ctime: n,
	}
	fs.inodes[ino] = ip
	fs.metaMu.Unlock()
	return ip, nil
}

// getInode resolves a handle to its live in-core inode, checking the
// generation number. The inode is not locked; the ino, gen and ftype
// fields are immutable, everything else requires the inode's lock.
func (fs *FFS) getInode(h vfs.Handle) (*inode, error) {
	fs.metaMu.RLock()
	ip, ok := fs.inodes[h.Ino]
	fs.metaMu.RUnlock()
	if !ok || ip.gen != h.Gen {
		return nil, vfs.ErrStale
	}
	return ip, nil
}

// dropInode frees an inode whose link count reached zero. The caller
// holds the inode's exclusive lock, or the inode is still private
// (creation rollback). Waiters queued on the inode's lock observe dead
// and answer ErrStale.
func (fs *FFS) dropInode(ip *inode) error {
	ip.dead = true
	err := fs.freeAllBlocks(ip)
	fs.metaMu.Lock()
	if cur, ok := fs.inodes[ip.ino]; ok && cur == ip {
		delete(fs.inodes, ip.ino)
	}
	fs.metaMu.Unlock()
	return err
}

// ---- vfs.FS implementation ----

// Root returns the root directory handle.
func (fs *FFS) Root() vfs.Handle {
	fs.metaMu.RLock()
	gen := fs.inodes[1].gen
	fs.metaMu.RUnlock()
	return vfs.Handle{Ino: 1, Gen: gen}
}

// GetAttr implements vfs.FS.
func (fs *FFS) GetAttr(h vfs.Handle) (vfs.Attr, error) {
	fs.quiesce.RLock()
	defer fs.quiesce.RUnlock()
	ip, err := fs.getInode(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	unlock, err := fs.rlockInode(ip)
	if err != nil {
		return vfs.Attr{}, err
	}
	defer unlock()
	return ip.attr(), nil
}

// SetAttr implements vfs.FS.
func (fs *FFS) SetAttr(h vfs.Handle, s vfs.SetAttr) (vfs.Attr, error) {
	fs.quiesce.RLock()
	defer fs.quiesce.RUnlock()
	ip, err := fs.getInode(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	unlock, err := fs.wlockInode(ip)
	if err != nil {
		return vfs.Attr{}, err
	}
	defer unlock()
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
		if ip.ftype == vfs.TypeDir {
			return vfs.Attr{}, vfs.ErrIsDir
		}
		if err := fs.truncateTo(ip, *s.Size); err != nil {
			return vfs.Attr{}, err
		}
		ip.mtime = fs.now()
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
	ip.ctime = fs.now()
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
	fs.quiesce.RLock()
	defer fs.quiesce.RUnlock()
	ip, err := fs.getInode(h)
	if err != nil {
		return 0, false, err
	}
	if ip.ftype == vfs.TypeDir {
		return 0, false, vfs.ErrIsDir
	}
	unlock, err := fs.rlockInode(ip)
	if err != nil {
		return 0, false, err
	}
	defer unlock()
	if off >= ip.size {
		return 0, true, nil
	}
	n := uint64(len(dst))
	if off+n > ip.size {
		n = ip.size - off
	}
	return fs.readIntoLocked(ip, off, dst[:n])
}

// readIntoLocked fills dst with content at off; the caller holds ip's
// lock and has clamped len(dst) to the file size.
func (fs *FFS) readIntoLocked(ip *inode, off uint64, dst []byte) (int, bool, error) {
	n := uint64(len(dst))
	bs := uint64(fs.blockSize)
	m := blockMap{fs: fs, ip: ip}
	defer m.release()
	var buf []byte // partial-block staging, fetched lazily
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
			if err := fs.dev.ReadBlock(bn, buf); err != nil {
				return 0, false, err
			}
			copy(dst[done:done+chunk], buf[boff:boff+chunk])
		}
		done += chunk
	}
	return int(n), off+n >= ip.size, nil
}

// Write implements vfs.FS.
func (fs *FFS) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	fs.quiesce.RLock()
	defer fs.quiesce.RUnlock()
	ip, err := fs.getInode(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	if ip.ftype == vfs.TypeDir {
		return vfs.Attr{}, vfs.ErrIsDir
	}
	unlock, err := fs.wlockInode(ip)
	if err != nil {
		return vfs.Attr{}, err
	}
	defer unlock()
	if err := fs.writeLocked(ip, off, data); err != nil {
		return vfs.Attr{}, err
	}
	return ip.attr(), nil
}

// writeLocked writes data at off; the caller holds ip's exclusive lock.
// The write proceeds a leaf of the block map at a time (writeLeaf), so
// metadata the write changes is on stable storage when it returns.
func (fs *FFS) writeLocked(ip *inode, off uint64, data []byte) error {
	bs := uint64(fs.blockSize)
	end := off + uint64(len(data))
	if end/bs >= fs.maxFileBlocks() {
		return vfs.ErrFBig
	}
	scratch := fs.getBlockBuf()
	defer fs.putBlockBuf(scratch)
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
	n := fs.now()
	ip.mtime = n
	ip.ctime = n
	return nil
}

// StatFS implements vfs.FS.
func (fs *FFS) StatFS() (vfs.StatFS, error) {
	fs.quiesce.RLock()
	defer fs.quiesce.RUnlock()
	fs.allocMu.Lock()
	free := uint64(fs.freeBlocks)
	fs.allocMu.Unlock()
	fs.metaMu.RLock()
	used := uint64(len(fs.inodes))
	fs.metaMu.RUnlock()
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
