package ffs

import (
	"fmt"

	"discfs/internal/vfs"
)

// Check runs fsck-style invariant verification and returns every
// inconsistency found. Property tests call it after random operation
// sequences; a healthy filesystem returns nil.
//
// Invariants checked:
//  1. Every block referenced by an inode (data, indirect, double
//     indirect) is marked used in the allocator bitmap, and no block is
//     referenced twice.
//  2. The allocator's free-block count matches the bitmap.
//  3. Every inode's nblocks equals its actual block usage.
//  4. Every inode reachable from the root has a link count equal to its
//     directory reference count (plus 2-for-self semantics for dirs).
//  5. Every directory entry points at a live inode with a matching
//     generation, and every live inode is reachable.
func (fs *FFS) Check() []error {
	// Check needs a frozen view of the inode table, the allocator and
	// every file's block pointers at once.
	fs.mu.Lock()
	defer fs.mu.Unlock()

	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	// Walk every inode's block pointers.
	refs := make(map[uint32]uint64) // block -> referencing ino
	addRef := func(ino uint64, bn uint32) {
		if bn == 0 {
			return
		}
		if prev, dup := refs[bn]; dup {
			report("block %d referenced by both ino %d and ino %d", bn, prev, ino)
			return
		}
		refs[bn] = ino
		if !fs.isUsed(bn) {
			report("block %d referenced by ino %d but marked free", bn, ino)
		}
	}

	p := fs.ptrsPerBlock()
	for ino, ip := range fs.inodes {
		var used uint64
		count := func(bn uint32) {
			if bn != 0 {
				used++
				addRef(ino, bn)
			}
		}
		for _, bn := range ip.direct {
			count(bn)
		}
		// countLeaf counts pointer block bn and the data blocks it maps.
		countLeaf := func(bn uint32, what string) {
			count(bn)
			lp := fs.getBlockBuf()
			defer fs.putBlockBuf(lp)
			leaf := *lp
			if err := fs.dev.ReadBlock(bn, leaf); err != nil {
				report("ino %d: reading %s: %v", ino, what, err)
				return
			}
			for i := uint64(0); i < p; i++ {
				count(ptrAt(leaf, i))
			}
		}
		if ip.indirect != 0 {
			countLeaf(ip.indirect, "indirect")
		}
		if ip.dindirect != 0 {
			count(ip.dindirect)
			tp := fs.getBlockBuf()
			top := *tp
			if err := fs.dev.ReadBlock(ip.dindirect, top); err != nil {
				report("ino %d: reading dindirect: %v", ino, err)
			} else {
				for i := uint64(0); i < p; i++ {
					if mid := ptrAt(top, i); mid != 0 {
						countLeaf(mid, "dindirect L2")
					}
				}
			}
			fs.putBlockBuf(tp)
		}
		if used != ip.nblocks {
			report("ino %d: nblocks=%d but %d blocks in use", ino, ip.nblocks, used)
		}
	}

	// Bitmap vs free count.
	var usedBits uint32
	for bn := uint32(0); bn < fs.dev.NumBlocks(); bn++ {
		if fs.isUsed(bn) {
			usedBits++
		}
	}
	if got := fs.dev.NumBlocks() - usedBits; got != fs.freeBlocks {
		report("free count %d but bitmap says %d", fs.freeBlocks, got)
	}
	// Every used block except the superblock must be referenced.
	for bn := uint32(1); bn < fs.dev.NumBlocks(); bn++ {
		if fs.isUsed(bn) {
			if _, ok := refs[bn]; !ok {
				report("block %d marked used but unreferenced", bn)
			}
		}
	}

	// Reachability and link counts.
	type linkInfo struct{ fromDirs uint32 }
	links := make(map[uint64]*linkInfo, len(fs.inodes))
	for ino := range fs.inodes {
		links[ino] = &linkInfo{}
	}
	visited := make(map[uint64]bool)
	var walk func(ip *inode)
	walk = func(dir *inode) {
		if visited[dir.ino] {
			report("directory ino %d reached twice (cycle or extra link)", dir.ino)
			return
		}
		visited[dir.ino] = true
		ents, err := fs.readDirLocked(dir)
		if err != nil {
			report("ino %d: readdir: %v", dir.ino, err)
			return
		}
		seen := make(map[string]bool, len(ents))
		for _, e := range ents {
			if seen[e.Name] {
				report("ino %d: duplicate entry %q", dir.ino, e.Name)
			}
			seen[e.Name] = true
			child, ok := fs.inodes[e.Handle.Ino]
			if !ok {
				report("ino %d: entry %q points at dead ino %d", dir.ino, e.Name, e.Handle.Ino)
				continue
			}
			if child.gen != e.Handle.Gen {
				report("ino %d: entry %q has gen %d, inode has %d", dir.ino, e.Name, e.Handle.Gen, child.gen)
				continue
			}
			links[child.ino].fromDirs++
			if child.ftype == vfs.TypeDir {
				if child.parent.Ino != dir.ino || child.parent.Gen != dir.gen {
					report("ino %d: parent pointer is (%d,%d), want (%d,%d)",
						child.ino, child.parent.Ino, child.parent.Gen, dir.ino, dir.gen)
				}
				walk(child)
			}
		}
	}
	root, ok := fs.inodes[1]
	if !ok {
		report("no root inode")
		return errs
	}
	links[1].fromDirs++ // the implicit self-reference of the root
	walk(root)

	for ino, ip := range fs.inodes {
		if !visited[ino] && ip.ftype == vfs.TypeDir {
			report("directory ino %d unreachable", ino)
		}
		want := links[ino].fromDirs
		if ip.ftype == vfs.TypeDir {
			// "." self link plus one ".." per subdirectory.
			want++ // "."
			ents, err := fs.readDirLocked(ip)
			if err == nil {
				for _, e := range ents {
					if c, ok := fs.inodes[e.Handle.Ino]; ok && c.ftype == vfs.TypeDir {
						want++
					}
				}
			}
			// Stored entries already counted one parent ref; the root
			// counted its self-reference above.
		}
		if ip.ftype != vfs.TypeDir && want == 0 {
			report("ino %d (type %d) unreachable", ino, ip.ftype)
		}
		if ip.nlink != want {
			report("ino %d: nlink=%d, want %d", ino, ip.nlink, want)
		}
	}
	return errs
}
