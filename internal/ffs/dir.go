package ffs

import (
	"encoding/binary"
	"fmt"

	"discfs/internal/bufpool"
	"discfs/internal/vfs"
)

// Directory entries are stored packed in the directory's data blocks:
//
//	ino   uint64  (big endian)
//	gen   uint32
//	nlen  uint16
//	name  nlen bytes
//
// "." and ".." are synthesized by Lookup, not stored; each directory
// inode carries its parent handle instead (root is its own parent).

const direntHeader = 8 + 4 + 2

// appendDirent serializes one entry.
func appendDirent(buf []byte, h vfs.Handle, name string) []byte {
	var hdr [direntHeader]byte
	binary.BigEndian.PutUint64(hdr[0:], h.Ino)
	binary.BigEndian.PutUint32(hdr[8:], h.Gen)
	binary.BigEndian.PutUint16(hdr[12:], uint16(len(name)))
	buf = append(buf, hdr[:]...)
	return append(buf, name...)
}

// nextDirent decodes the entry at off in a directory's content: its
// handle, its name (aliasing data) and the offset of the entry after it.
// A truncated entry is ErrIO.
func nextDirent(data []byte, off int) (h vfs.Handle, name []byte, next int, err error) {
	if off+direntHeader > len(data) {
		return vfs.Handle{}, nil, 0, fmt.Errorf("%w: truncated directory entry", vfs.ErrIO)
	}
	h = vfs.Handle{Ino: binary.BigEndian.Uint64(data[off:]), Gen: binary.BigEndian.Uint32(data[off+8:])}
	nlen := int(binary.BigEndian.Uint16(data[off+12:]))
	off += direntHeader
	if off+nlen > len(data) {
		return vfs.Handle{}, nil, 0, fmt.Errorf("%w: truncated directory name", vfs.ErrIO)
	}
	return h, data[off : off+nlen], off + nlen, nil
}

// parseDirents decodes a directory's full content.
func parseDirents(data []byte) ([]vfs.DirEntry, error) {
	var out []vfs.DirEntry
	for off := 0; off < len(data); {
		h, name, next, err := nextDirent(data, off)
		if err != nil {
			return nil, err
		}
		out = append(out, vfs.DirEntry{Name: string(name), Handle: h})
		off = next
	}
	return out, nil
}

// readDirLocked returns the parsed entries of dir. The caller holds mu
// (shared suffices).
func (fs *FFS) readDirLocked(dir *inode) ([]vfs.DirEntry, error) {
	buf, data, err := fs.readDirBytes(dir)
	if err != nil {
		return nil, err
	}
	defer bufpool.Put(buf)
	return parseDirents(data)
}

// readDirBytes reads dir's raw content into a pooled buffer: data
// aliases buf, which the caller Puts once done with data.
func (fs *FFS) readDirBytes(dir *inode) (buf, data []byte, err error) {
	if dir.ftype != vfs.TypeDir {
		return nil, nil, vfs.ErrNotDir
	}
	if dir.size == 0 {
		return nil, nil, nil
	}
	if dir.size > uint64(int(^uint(0)>>1)) {
		return nil, nil, vfs.ErrFBig
	}
	buf = bufpool.Get(int(dir.size))
	n, _, err := fs.readIntoLocked(dir, 0, buf)
	if err != nil {
		bufpool.Put(buf)
		return nil, nil, err
	}
	return buf, buf[:n], nil
}

// dirLookupLocked finds name in dir. The caller holds mu. The
// names are compared in place in the raw content; the scan runs to the
// end, so a truncated entry anywhere is ErrIO, as it is for ReadDir.
func (fs *FFS) dirLookupLocked(dir *inode, name string) (vfs.Handle, bool, error) {
	buf, data, err := fs.readDirBytes(dir)
	if err != nil {
		return vfs.Handle{}, false, err
	}
	defer bufpool.Put(buf)
	var found vfs.Handle
	ok := false
	for off := 0; off < len(data); {
		h, ent, next, err := nextDirent(data, off)
		if err != nil {
			return vfs.Handle{}, false, err
		}
		if !ok && string(ent) == name {
			found, ok = h, true
		}
		off = next
	}
	return found, ok, nil
}

// dirAddLocked appends an entry (caller holds mu exclusively and has
// checked for duplicates).
func (fs *FFS) dirAddLocked(dir *inode, h vfs.Handle, name string) error {
	ent := appendDirent(nil, h, name)
	return fs.writeLocked(dir, dir.size, ent)
}

// dirRemoveLocked deletes name from dir, rewriting the remaining
// entries. Reports whether the entry existed. The caller holds mu
// exclusively.
func (fs *FFS) dirRemoveLocked(dir *inode, name string) (vfs.Handle, bool, error) {
	ents, err := fs.readDirLocked(dir)
	if err != nil {
		return vfs.Handle{}, false, err
	}
	var removed vfs.Handle
	found := false
	var buf []byte
	for _, e := range ents {
		if !found && e.Name == name {
			removed = e.Handle
			found = true
			continue
		}
		buf = appendDirent(buf, e.Handle, e.Name)
	}
	if !found {
		return vfs.Handle{}, false, nil
	}
	if err := fs.truncateTo(dir, 0); err != nil {
		return vfs.Handle{}, false, err
	}
	if len(buf) > 0 {
		if err := fs.writeLocked(dir, 0, buf); err != nil {
			return vfs.Handle{}, false, err
		}
	} else {
		dir.mtime = fs.now()
	}
	return removed, true, nil
}

// Lookup implements vfs.FS.
func (fs *FFS) Lookup(dirH vfs.Handle, name string) (vfs.Attr, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	dir, err := fs.getInode(dirH)
	if err != nil {
		return vfs.Attr{}, err
	}
	if dir.ftype != vfs.TypeDir {
		return vfs.Attr{}, vfs.ErrNotDir
	}
	var childH vfs.Handle
	switch name {
	case ".":
		return dir.attr(), nil
	case "..":
		childH = dir.parent
	default:
		if !vfs.ValidName(name) {
			if len(name) > vfs.MaxNameLen {
				return vfs.Attr{}, vfs.ErrNameTooLong
			}
			return vfs.Attr{}, vfs.ErrInval
		}
		h, ok, err := fs.dirLookupLocked(dir, name)
		if err != nil {
			return vfs.Attr{}, err
		}
		if !ok {
			return vfs.Attr{}, vfs.ErrNotExist
		}
		childH = h
	}
	child, err := fs.getInode(childH)
	if err != nil {
		return vfs.Attr{}, err
	}
	return child.attr(), nil
}

// ReadDir implements vfs.FS.
func (fs *FFS) ReadDir(dirH vfs.Handle) ([]vfs.DirEntry, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	dir, err := fs.getInode(dirH)
	if err != nil {
		return nil, err
	}
	return fs.readDirLocked(dir)
}

// checkNewName validates name and ensures it is absent from dir. The
// caller holds mu.
func (fs *FFS) checkNewName(dir *inode, name string) error {
	if dir.ftype != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	if !vfs.ValidName(name) {
		if len(name) > vfs.MaxNameLen {
			return vfs.ErrNameTooLong
		}
		return vfs.ErrInval
	}
	_, exists, err := fs.dirLookupLocked(dir, name)
	if err != nil {
		return err
	}
	if exists {
		return vfs.ErrExist
	}
	return nil
}

// createEntry is the common create/mkdir/symlink path: under mu it
// validates the name, allocates an inode via mk, and links it into dir,
// rolling the inode back on failure.
func (fs *FFS) createEntry(dirH vfs.Handle, name string, mk func(dir *inode) (*inode, error)) (vfs.Attr, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, err := fs.getInode(dirH)
	if err != nil {
		return vfs.Attr{}, err
	}
	if dir.ftype != vfs.TypeDir {
		return vfs.Attr{}, vfs.ErrNotDir
	}
	if err := fs.checkNewName(dir, name); err != nil {
		return vfs.Attr{}, err
	}
	ip, err := mk(dir)
	if err != nil {
		return vfs.Attr{}, err
	}
	oldSize := dir.size
	if err := fs.dirAddLocked(dir, vfs.Handle{Ino: ip.ino, Gen: ip.gen}, name); err != nil {
		// The append may have grown the directory (and synced part of
		// the growth) before failing; truncating back to the old size
		// restores the in-core state to the last durable one.
		_ = fs.truncateTo(dir, oldSize)
		fs.dropInode(ip)
		return vfs.Attr{}, err
	}
	if ip.ftype == vfs.TypeDir {
		dir.nlink++ // the child's ".."
	}
	if err := fs.syncMeta(); err != nil {
		// The entry's durability cannot be promised: roll the creation
		// back so the in-core state matches the last synced device
		// state (the entry was appended, so truncating to the old size
		// removes exactly it).
		_ = fs.truncateTo(dir, oldSize)
		if ip.ftype == vfs.TypeDir {
			dir.nlink--
		}
		_ = fs.dropInode(ip)
		return vfs.Attr{}, err
	}
	return ip.attr(), nil
}

// Create implements vfs.FS.
func (fs *FFS) Create(dirH vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	return fs.createEntry(dirH, name, func(*inode) (*inode, error) {
		return fs.allocInode(vfs.TypeRegular, mode, 0, 0)
	})
}

// Mkdir implements vfs.FS.
func (fs *FFS) Mkdir(dirH vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	return fs.createEntry(dirH, name, func(dir *inode) (*inode, error) {
		ip, err := fs.allocInode(vfs.TypeDir, mode, 0, 0)
		if err != nil {
			return nil, err
		}
		ip.nlink = 2 // "." plus the entry in the parent
		ip.parent = vfs.Handle{Ino: dir.ino, Gen: dir.gen}
		return ip, nil
	})
}

// Symlink implements vfs.FS.
func (fs *FFS) Symlink(dirH vfs.Handle, name, target string, mode uint32) (vfs.Attr, error) {
	return fs.createEntry(dirH, name, func(*inode) (*inode, error) {
		ip, err := fs.allocInode(vfs.TypeSymlink, mode, 0, 0)
		if err != nil {
			return nil, err
		}
		ip.linkTarget = target
		ip.size = uint64(len(target))
		return ip, nil
	})
}

// Destructive namespace operations (Remove, Rmdir, Rename) report a
// metadata-sync failure with the mutation left applied, unlike the
// creation paths, which roll back. Undoing an unlink would have to
// resurrect inodes and blocks already returned to the allocator in the
// middle of an error path; and NFS's non-idempotent-operation semantics
// already require clients to tolerate a failed REMOVE/RENAME having
// taken effect (the retry answers ErrNotExist, which clients treat as
// done).

// Remove implements vfs.FS.
func (fs *FFS) Remove(dirH vfs.Handle, name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, err := fs.getInode(dirH)
	if err != nil {
		return err
	}
	if dir.ftype != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	h, ok, err := fs.dirLookupLocked(dir, name)
	if err != nil {
		return err
	}
	if !ok {
		return vfs.ErrNotExist
	}
	ip, err := fs.getInode(h)
	if err != nil {
		return err
	}
	if ip.ftype == vfs.TypeDir {
		return vfs.ErrIsDir
	}
	if _, _, err := fs.dirRemoveLocked(dir, name); err != nil {
		return err
	}
	ip.nlink--
	ip.ctime = fs.now()
	if ip.nlink == 0 {
		if err := fs.dropInode(ip); err != nil {
			return err
		}
	}
	return fs.syncMeta()
}

// Rmdir implements vfs.FS.
func (fs *FFS) Rmdir(dirH vfs.Handle, name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, err := fs.getInode(dirH)
	if err != nil {
		return err
	}
	if dir.ftype != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	h, ok, err := fs.dirLookupLocked(dir, name)
	if err != nil {
		return err
	}
	if !ok {
		return vfs.ErrNotExist
	}
	ip, err := fs.getInode(h)
	if err != nil {
		return err
	}
	if ip.ftype != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	ents, err := fs.readDirLocked(ip)
	if err != nil {
		return err
	}
	if len(ents) != 0 {
		return vfs.ErrNotEmpty
	}
	if _, _, err := fs.dirRemoveLocked(dir, name); err != nil {
		return err
	}
	dir.nlink-- // the child's ".." is gone
	if err := fs.dropInode(ip); err != nil {
		return err
	}
	return fs.syncMeta()
}

// Rename implements vfs.FS.
func (fs *FFS) Rename(fromDirH vfs.Handle, fromName string, toDirH vfs.Handle, toName string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()

	fromDir, err := fs.getInode(fromDirH)
	if err != nil {
		return err
	}
	toDir, err := fs.getInode(toDirH)
	if err != nil {
		return err
	}
	if fromDir.ftype != vfs.TypeDir || toDir.ftype != vfs.TypeDir {
		return vfs.ErrNotDir
	}
	if !vfs.ValidName(toName) {
		if len(toName) > vfs.MaxNameLen {
			return vfs.ErrNameTooLong
		}
		return vfs.ErrInval
	}

	srcH, ok, err := fs.dirLookupLocked(fromDir, fromName)
	if err != nil {
		return err
	}
	if !ok {
		return vfs.ErrNotExist
	}
	src, err := fs.getInode(srcH)
	if err != nil {
		return err
	}
	if fromDir == toDir && fromName == toName {
		return nil
	}
	if src == fromDir || src == toDir {
		return vfs.ErrInval // self-referential entry
	}
	// A directory must not be moved into its own subtree (src == toDir
	// was rejected above).
	if src.ftype == vfs.TypeDir {
		if anc, err := fs.dirIsAncestor(src, toDir); err != nil {
			return err
		} else if anc {
			return vfs.ErrInval
		}
	}
	dstH, dstExists, err := fs.dirLookupLocked(toDir, toName)
	if err != nil {
		return err
	}
	var dst *inode
	if dstExists {
		dst, err = fs.getInode(dstH)
		if err != nil {
			return err
		}
		if dst == src {
			return nil // hard links to the same inode: no-op
		}
		if dst == fromDir || dst == toDir {
			return vfs.ErrInval
		}
		switch {
		case dst.ftype == vfs.TypeDir && src.ftype != vfs.TypeDir:
			return vfs.ErrIsDir
		case dst.ftype != vfs.TypeDir && src.ftype == vfs.TypeDir:
			return vfs.ErrNotDir
		}
	}
	if dst != nil {
		if dst.ftype == vfs.TypeDir {
			ents, err := fs.readDirLocked(dst)
			if err != nil {
				return err
			}
			if len(ents) != 0 {
				return vfs.ErrNotEmpty
			}
			if _, _, err := fs.dirRemoveLocked(toDir, toName); err != nil {
				return err
			}
			toDir.nlink--
			if err := fs.dropInode(dst); err != nil {
				return err
			}
		} else {
			if _, _, err := fs.dirRemoveLocked(toDir, toName); err != nil {
				return err
			}
			dst.nlink--
			if dst.nlink == 0 {
				if err := fs.dropInode(dst); err != nil {
					return err
				}
			}
		}
	}
	if _, _, err := fs.dirRemoveLocked(fromDir, fromName); err != nil {
		return err
	}
	if err := fs.dirAddLocked(toDir, srcH, toName); err != nil {
		return err
	}
	if src.ftype == vfs.TypeDir && fromDir != toDir {
		src.parent = vfs.Handle{Ino: toDir.ino, Gen: toDir.gen}
		fromDir.nlink--
		toDir.nlink++
	}
	src.ctime = fs.now()
	return fs.syncMeta()
}

// Readlink implements vfs.FS.
func (fs *FFS) Readlink(h vfs.Handle) (string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ip, err := fs.getInode(h)
	if err != nil {
		return "", err
	}
	if ip.ftype != vfs.TypeSymlink {
		return "", vfs.ErrInval
	}
	return ip.linkTarget, nil
}

// Link implements vfs.FS.
func (fs *FFS) Link(dirH vfs.Handle, name string, target vfs.Handle) (vfs.Attr, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir, err := fs.getInode(dirH)
	if err != nil {
		return vfs.Attr{}, err
	}
	tp, err := fs.getInode(target)
	if err != nil {
		return vfs.Attr{}, err
	}
	if tp.ftype == vfs.TypeDir {
		return vfs.Attr{}, vfs.ErrIsDir
	}
	if tp == dir {
		return vfs.Attr{}, vfs.ErrInval
	}
	if err := fs.checkNewName(dir, name); err != nil {
		return vfs.Attr{}, err
	}
	oldSize := dir.size
	if err := fs.dirAddLocked(dir, target, name); err != nil {
		_ = fs.truncateTo(dir, oldSize)
		return vfs.Attr{}, err
	}
	tp.nlink++
	tp.ctime = fs.now()
	if err := fs.syncMeta(); err != nil {
		_ = fs.truncateTo(dir, oldSize)
		tp.nlink--
		return vfs.Attr{}, err
	}
	return tp.attr(), nil
}

// dirIsAncestor reports whether anc is a proper ancestor of d: rename's
// "mv a a/b" check. The caller holds mu.
func (fs *FFS) dirIsAncestor(anc, d *inode) (bool, error) {
	for d.ino != 1 { // until root
		p, err := fs.getInode(d.parent)
		if err != nil {
			return false, err
		}
		if p == anc {
			return true, nil
		}
		d = p
	}
	return false, nil
}
