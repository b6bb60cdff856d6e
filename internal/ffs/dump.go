package ffs

import (
	"fmt"
	"io"
	"time"

	"discfs/internal/vfs"
	"discfs/internal/xdr"
)

// Filesystem image persistence: Dump serializes the complete state —
// geometry, inode table, generation history, allocator, and every used
// block — and Load reconstructs it. Generation history is included so
// handles that were stale before a dump remain stale after a restore.
//
// The image is written through the shared XDR codec. The format is
// versioned by magic; it is a snapshot format (the whole image is built
// in memory), suited to backup/migration of the modest filesystems a
// DisCFS server exports rather than terabyte volumes.

// imageMagic identifies a dump stream.
var imageMagic = []byte("DisCFS-FFS-image-1")

// Dump writes the filesystem image to w. It holds the filesystem's
// lock exclusively throughout: the image is a consistent snapshot.
func (fs *FFS) Dump(w io.Writer) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()

	e := xdr.NewEncoder()
	e.Opaque(imageMagic)
	e.Uint32(uint32(fs.blockSize))
	e.Uint32(fs.dev.NumBlocks())
	e.Uint64(fs.nextIno)
	e.Uint64(fs.maxInodes)
	e.Uint32(fs.rotor)

	// Inode table.
	e.Uint32(uint32(len(fs.inodes)))
	for _, ip := range fs.inodes {
		e.Uint64(ip.ino)
		e.Uint32(ip.gen)
		e.Uint32(uint32(ip.ftype))
		e.Uint32(ip.mode)
		e.Uint32(ip.nlink)
		e.Uint32(ip.uid)
		e.Uint32(ip.gid)
		e.Uint64(ip.size)
		e.Int64(ip.atime.UnixNano())
		e.Int64(ip.mtime.UnixNano())
		e.Int64(ip.ctime.UnixNano())
		for _, bn := range ip.direct {
			e.Uint32(bn)
		}
		e.Uint32(ip.indirect)
		e.Uint32(ip.dindirect)
		e.Uint64(ip.nblocks)
		e.String(ip.linkTarget)
		e.Uint64(ip.parent.Ino)
		e.Uint32(ip.parent.Gen)
	}

	// Generation history (for inodes live and dead).
	e.Uint32(uint32(len(fs.gens)))
	for ino, gen := range fs.gens {
		e.Uint64(ino)
		e.Uint32(gen)
	}

	// Used blocks (excluding the reserved superblock).
	var used []uint32
	for bn := uint32(1); bn < fs.dev.NumBlocks(); bn++ {
		if fs.isUsed(bn) {
			used = append(used, bn)
		}
	}
	e.Uint32(uint32(len(used)))
	bp := fs.getBlockBuf()
	defer fs.putBlockBuf(bp)
	buf := *bp
	for _, bn := range used {
		if err := fs.dev.ReadBlock(bn, buf); err != nil {
			return fmt.Errorf("ffs: dump: reading block %d: %w", bn, err)
		}
		e.Uint32(bn)
		e.OpaqueFixed(buf)
	}

	_, err := w.Write(e.Bytes())
	return err
}

// Load reconstructs a filesystem from an image produced by Dump.
func Load(r io.Reader) (*FFS, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ffs: load: %w", err)
	}
	d := xdr.NewDecoder(data)
	magic := d.Opaque(64)
	if d.Err() != nil || string(magic) != string(imageMagic) {
		return nil, fmt.Errorf("ffs: load: not an FFS image")
	}
	blockSize := d.Uint32()
	numBlocks := d.Uint32()
	nextIno := d.Uint64()
	maxInodes := d.Uint64()
	rotor := d.Uint32()
	if d.Err() != nil {
		return nil, fmt.Errorf("ffs: load: truncated header: %w", d.Err())
	}

	fs, err := New(Config{
		BlockSize: int(blockSize),
		NumBlocks: numBlocks,
		MaxInodes: maxInodes,
	})
	if err != nil {
		return nil, err
	}
	// Discard the freshly formatted root; the image carries everything.
	fs.inodes = make(map[uint64]*inode)
	fs.gens = make(map[uint64]uint32)
	fs.freeBitmap = make([]uint64, (int(numBlocks)+63)/64)
	fs.markUsed(0)
	fs.freeBlocks = numBlocks - 1
	fs.nextIno = nextIno
	fs.rotor = rotor

	nInodes := d.Count(int(maxInodes) + 1)
	for i := 0; i < nInodes; i++ {
		ip := &inode{}
		ip.ino = d.Uint64()
		ip.gen = d.Uint32()
		ip.ftype = vfs.FileType(d.Uint32())
		ip.mode = d.Uint32()
		ip.nlink = d.Uint32()
		ip.uid = d.Uint32()
		ip.gid = d.Uint32()
		ip.size = d.Uint64()
		ip.atime = time.Unix(0, d.Int64())
		ip.mtime = time.Unix(0, d.Int64())
		ip.ctime = time.Unix(0, d.Int64())
		for j := range ip.direct {
			ip.direct[j] = d.Uint32()
		}
		ip.indirect = d.Uint32()
		ip.dindirect = d.Uint32()
		ip.nblocks = d.Uint64()
		ip.linkTarget = d.String(vfs.MaxNameLen * 8)
		ip.parent.Ino = d.Uint64()
		ip.parent.Gen = d.Uint32()
		if d.Err() != nil {
			return nil, fmt.Errorf("ffs: load: inode %d: %w", i, d.Err())
		}
		fs.inodes[ip.ino] = ip
	}

	nGens := d.Count(1 << 24)
	for i := 0; i < nGens; i++ {
		ino := d.Uint64()
		gen := d.Uint32()
		if d.Err() != nil {
			return nil, fmt.Errorf("ffs: load: generation table: %w", d.Err())
		}
		fs.gens[ino] = gen
	}

	nBlocks := d.Count(int(numBlocks))
	for i := 0; i < nBlocks; i++ {
		bn := d.Uint32()
		blk := d.OpaqueFixed(int(blockSize))
		if d.Err() != nil {
			return nil, fmt.Errorf("ffs: load: block %d: %w", i, d.Err())
		}
		if bn == 0 || bn >= numBlocks {
			return nil, fmt.Errorf("ffs: load: block number %d out of range", bn)
		}
		if fs.isUsed(bn) {
			return nil, fmt.Errorf("ffs: load: duplicate block %d", bn)
		}
		if err := fs.dev.WriteBlock(bn, blk); err != nil {
			return nil, fmt.Errorf("ffs: load: writing block %d: %w", bn, err)
		}
		fs.markUsed(bn)
		fs.freeBlocks--
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("ffs: load: %d trailing bytes", d.Remaining())
	}
	root, ok := fs.inodes[1]
	if !ok {
		return nil, fmt.Errorf("ffs: load: image has no root inode")
	}
	fs.root = vfs.Handle{Ino: 1, Gen: root.gen}
	return fs, nil
}
