// Package vfs defines the filesystem interface shared by the DisCFS
// stack: the FFS substrate implements it, the CFS layer stacks on top of
// any implementation, the DisCFS core wraps one with credential checks,
// and the NFS server exports one over RPC.
package vfs

import (
	"errors"
	"time"
)

// Handle identifies a file: an inode number plus a generation counter.
// The paper's prototype used bare inode numbers and flagged exactly this
// inode+generation scheme (as in 4.4BSD NFS) as the fix; we implement
// the fix.
type Handle struct {
	Ino uint64
	Gen uint32
}

// IsZero reports whether the handle is the zero value (no file).
func (h Handle) IsZero() bool { return h.Ino == 0 && h.Gen == 0 }

// FileType enumerates file kinds (the NFSv2 subset DisCFS needs).
type FileType uint32

// File types.
const (
	TypeNone    FileType = 0
	TypeRegular FileType = 1
	TypeDir     FileType = 2
	TypeSymlink FileType = 5
)

// Attr holds file attributes, mirroring the NFSv2 fattr structure.
type Attr struct {
	Handle Handle
	Type   FileType
	Mode   uint32 // permission bits (low 9 bits + setuid/setgid/sticky)
	Nlink  uint32
	UID    uint32
	GID    uint32
	Size   uint64
	Blocks uint64 // allocated blocks
	Atime  time.Time
	Mtime  time.Time
	Ctime  time.Time
}

// SetAttr carries the mutable attributes of an NFSv2 sattr; nil fields
// are left unchanged.
type SetAttr struct {
	Mode  *uint32
	UID   *uint32
	GID   *uint32
	Size  *uint64
	Atime *time.Time
	Mtime *time.Time
}

// DirEntry is one directory entry.
type DirEntry struct {
	Name   string
	Handle Handle
}

// StatFS describes filesystem capacity, mirroring NFSv2 statfs results.
type StatFS struct {
	BlockSize   uint32
	TotalBlocks uint64
	FreeBlocks  uint64
	AvailBlocks uint64
	TotalInodes uint64
	FreeInodes  uint64
}

// FS is the filesystem interface. Implementations must be safe for
// concurrent use.
type FS interface {
	// Root returns the handle of the filesystem root directory.
	Root() Handle
	// GetAttr returns the attributes of h.
	GetAttr(h Handle) (Attr, error)
	// SetAttr updates attributes of h and returns the new attributes.
	SetAttr(h Handle, s SetAttr) (Attr, error)
	// Lookup resolves name within directory dir.
	Lookup(dir Handle, name string) (Attr, error)
	// Read returns up to count bytes at offset off. eof is true when the
	// read reaches the end of the file. Every implementation is
	// ReadAlloc; ReadInto is the read path.
	Read(h Handle, off uint64, count uint32) (data []byte, eof bool, err error)
	// ReadInto fills dst with file content at off — short only at end of
	// file — and reports the byte count and EOF as Read does. The NFS
	// server reads directly into the reply record through it.
	// Implementations must not retain dst.
	ReadInto(h Handle, off uint64, dst []byte) (n int, eof bool, err error)
	// Write stores data at offset off, extending the file as needed.
	Write(h Handle, off uint64, data []byte) (Attr, error)
	// Create makes a regular file in dir.
	Create(dir Handle, name string, mode uint32) (Attr, error)
	// Remove unlinks a non-directory from dir.
	Remove(dir Handle, name string) error
	// Rename moves fromName in fromDir to toName in toDir, replacing a
	// non-directory target if present.
	Rename(fromDir Handle, fromName string, toDir Handle, toName string) error
	// Mkdir makes a directory in dir.
	Mkdir(dir Handle, name string, mode uint32) (Attr, error)
	// Rmdir removes an empty directory from dir.
	Rmdir(dir Handle, name string) error
	// ReadDir lists all entries of dir, excluding "." and "..".
	ReadDir(dir Handle) ([]DirEntry, error)
	// Symlink creates a symbolic link to target.
	Symlink(dir Handle, name, target string, mode uint32) (Attr, error)
	// Readlink returns the target of a symlink.
	Readlink(h Handle) (string, error)
	// Link creates a hard link to target named name in dir.
	Link(dir Handle, name string, target Handle) (Attr, error)
	// StatFS reports capacity.
	StatFS() (StatFS, error)
	// Sync is the durability barrier behind the NFS COMMIT operation:
	// data written before a successful Sync survives a crash of the
	// store. A layer forwards it to the store it stacks on.
	Sync() error
}

// ReadAlloc is Read for callers without a buffer: it sizes one from
// GetAttr and fills it with ReadInto.
func ReadAlloc(fs FS, h Handle, off uint64, count uint32) ([]byte, bool, error) {
	a, err := fs.GetAttr(h)
	if err != nil {
		return nil, false, err
	}
	out := make([]byte, min(uint64(count), a.Size-min(off, a.Size)))
	n, eof, err := fs.ReadInto(h, off, out)
	if err != nil {
		return nil, false, err
	}
	return out[:n], eof, nil
}

// ReadFSInto is fs.ReadInto, kept for the benchmark harness that calls
// it.
func ReadFSInto(fs FS, h Handle, off uint64, dst []byte) (int, bool, error) {
	return fs.ReadInto(h, off, dst)
}

// SyncFS is fs.Sync, kept for the benchmark harness that calls it.
func SyncFS(fs FS) error { return fs.Sync() }

// Filesystem errors; the NFS layer maps them onto NFSv2 status codes.
var (
	ErrNotExist    = errors.New("vfs: no such file or directory")
	ErrExist       = errors.New("vfs: file exists")
	ErrNotDir      = errors.New("vfs: not a directory")
	ErrIsDir       = errors.New("vfs: is a directory")
	ErrNotEmpty    = errors.New("vfs: directory not empty")
	ErrStale       = errors.New("vfs: stale file handle")
	ErrPerm        = errors.New("vfs: permission denied")
	ErrNoSpace     = errors.New("vfs: no space left on device")
	ErrNameTooLong = errors.New("vfs: file name too long")
	ErrInval       = errors.New("vfs: invalid argument")
	ErrIO          = errors.New("vfs: i/o error")
	ErrFBig        = errors.New("vfs: file too large")
	// ErrThrottled reports admission-control rejection: the request was
	// shaped beyond its principal's budget and should be retried after a
	// backoff. It maps to the TRYLATER extension status on the wire.
	ErrThrottled = errors.New("vfs: request throttled")
)

// MaxNameLen is the maximum directory entry name length (NFSv2 limit).
const MaxNameLen = 255

// ValidName reports whether name is a legal directory entry name.
func ValidName(name string) bool {
	if name == "" || name == "." || name == ".." || len(name) > MaxNameLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return false
		}
	}
	return true
}
