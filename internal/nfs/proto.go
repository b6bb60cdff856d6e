// Package nfs implements the NFS version 2 protocol (RFC 1094): wire
// types, a user-level server dispatching into a vfs.FS backend, the MOUNT
// protocol, and a Go client library that plays the role the kernel NFS
// client plays in the paper's prototype.
package nfs

import (
	"errors"
	"fmt"
	"time"

	"discfs/internal/vfs"
	"discfs/internal/xdr"
)

// Program numbers and versions.
const (
	// Prog is the NFS program number.
	Prog = 100003
	// Vers is NFS version 2.
	Vers = 2
	// MountProg is the MOUNT protocol program number.
	MountProg = 100005
	// MountVers is MOUNT protocol version 1.
	MountVers = 1
)

// NFSv2 procedure numbers.
const (
	ProcNull       = 0
	ProcGetattr    = 1
	ProcSetattr    = 2
	ProcRoot       = 3 // obsolete
	ProcLookup     = 4
	ProcReadlink   = 5
	ProcRead       = 6
	ProcWritecache = 7 // unused
	ProcWrite      = 8
	ProcCreate     = 9
	ProcRemove     = 10
	ProcRename     = 11
	ProcLink       = 12
	ProcSymlink    = 13
	ProcMkdir      = 14
	ProcRmdir      = 15
	ProcReaddir    = 16
	ProcStatfs     = 17
	// ProcCommit is this server's extension beyond RFC 1094: the NFSv3
	// COMMIT durability barrier (unstable WRITEs are flushed to stable
	// storage; the reply carries the boot verifier so clients detect a
	// restart that lost buffered writes and replay them).
	ProcCommit = 18
	// ProcFSInfo is the FSINFO-style transfer-size negotiation, the
	// second extension slot: the client proposes the largest READ/WRITE
	// payload it wants to use, the server clamps the proposal to
	// DefaultMaxTransfer and replies with the granted size. A connection
	// that never negotiates stays at the v2 baseline (MaxData, 8 KiB).
	// A DisCFS client reads its grant from the secure channel's accept
	// record instead (EncodeWelcome); FSINFO serves plain-NFS peers.
	ProcFSInfo = 19
	// ProcReaddirPlus is the batched metadata extension (NFSv3
	// READDIRPLUS in spirit): one call returns a page of directory
	// entries with their attributes and file handles piggybacked, sized
	// to the negotiated transfer, resumed via a 64-bit cookie validated
	// against a cookie verifier naming a server-side snapshot of the
	// listing. A verifier the server no longer holds answers
	// ErrBadCookie and the client restarts the walk from cookie 0.
	ProcReaddirPlus = 20
	// ProcLookupRead is the compound LOOKUP+READ extension for an open
	// that will read: (dir fh, name, count) → the plain LOOKUP result
	// and, when it succeeded, a READ result for the leaf at offset 0
	// whose own status may fail (not a regular file, denied, I/O).
	ProcLookupRead = 22
	// ProcWriteExtents is the batched WRITE extension for a client that
	// flushes scattered dirty pages: (fh, n, n × (offset, data)) → the
	// WRITE attrstat. The extents are applied in order, each as one
	// WRITE, up to the first that fails; the reply is that failure's
	// status, or the file's attributes after the last extent.
	ProcWriteExtents = 23
)

// procNames labels NFS procedures for metrics and diagnostics.
var procNames = [...]string{
	ProcNull:         "null",
	ProcGetattr:      "getattr",
	ProcSetattr:      "setattr",
	ProcRoot:         "root",
	ProcLookup:       "lookup",
	ProcReadlink:     "readlink",
	ProcRead:         "read",
	ProcWritecache:   "writecache",
	ProcWrite:        "write",
	ProcCreate:       "create",
	ProcRemove:       "remove",
	ProcRename:       "rename",
	ProcLink:         "link",
	ProcSymlink:      "symlink",
	ProcMkdir:        "mkdir",
	ProcRmdir:        "rmdir",
	ProcReaddir:      "readdir",
	ProcStatfs:       "statfs",
	ProcCommit:       "commit",
	ProcFSInfo:       "fsinfo",
	ProcReaddirPlus:  "readdirplus",
	ProcLookupRead:   "lookupread",
	ProcWriteExtents: "writeextents",
}

// ProcName returns a stable lower-case label for an NFS procedure
// number, for metric label values.
func ProcName(proc uint32) string {
	if proc < uint32(len(procNames)) && procNames[proc] != "" {
		return procNames[proc]
	}
	return fmt.Sprintf("proc%d", proc)
}

// MOUNT procedure numbers.
const (
	MountProcNull = 0
	MountProcMnt  = 1
	MountProcUmnt = 3
)

// Stat is an NFSv2 status code.
type Stat uint32

// NFSv2 status codes.
const (
	OK          Stat = 0
	ErrPerm     Stat = 1
	ErrNoEnt    Stat = 2
	ErrIO       Stat = 5
	ErrAcces    Stat = 13
	ErrExist    Stat = 17
	ErrNotDir   Stat = 20
	ErrIsDir    Stat = 21
	ErrFBig     Stat = 27
	ErrNoSpc    Stat = 28
	ErrROFS     Stat = 30
	ErrNameLong Stat = 63
	ErrNotEmpty Stat = 66
	ErrDQuot    Stat = 69
	ErrStale    Stat = 70
)

// ErrTryLater is a protocol extension (both ends of this protocol are
// ours): the server's admission control rejected the request and the
// client should back off and retry. The value matches NFSv3's
// NFS3ERR_JUKEBOX (10008), the closest standard analogue — servers
// predating the extension never emit it, and clients predating it
// surface a generic error rather than misreading a v2 code.
const ErrTryLater Stat = 10008

// ErrXDev reports a cross-device operation: under federation, a RENAME
// or LINK whose two handles live on different shards (servers) cannot
// be performed atomically and is rejected client-side before anything
// touches the wire. The value matches NFS3ERR_XDEV (and errno EXDEV);
// no NFSv2 code collides with it. Servers never emit it — a single
// server is a single device.
const ErrXDev Stat = 18

// ErrBadCookie is a protocol extension paired with ProcReaddirPlus: the
// cookie verifier no longer names a live directory cursor (evicted from
// the server's bounded snapshot LRU, or issued before a restart), so
// the walk cannot be resumed — the client restarts it from cookie 0.
// The value matches NFSv3's NFS3ERR_BAD_COOKIE.
const ErrBadCookie Stat = 10003

func (s Stat) String() string {
	switch s {
	case OK:
		return "OK"
	case ErrPerm:
		return "operation not permitted"
	case ErrNoEnt:
		return "no such file or directory"
	case ErrIO:
		return "i/o error"
	case ErrAcces:
		return "permission denied"
	case ErrExist:
		return "file exists"
	case ErrNotDir:
		return "not a directory"
	case ErrIsDir:
		return "is a directory"
	case ErrFBig:
		return "file too large"
	case ErrNoSpc:
		return "no space left on device"
	case ErrROFS:
		return "read-only file system"
	case ErrNameLong:
		return "file name too long"
	case ErrNotEmpty:
		return "directory not empty"
	case ErrDQuot:
		return "quota exceeded"
	case ErrStale:
		return "stale file handle"
	case ErrXDev:
		return "cross-shard operation"
	case ErrTryLater:
		return "request throttled, try again later"
	case ErrBadCookie:
		return "readdir cookie is stale"
	}
	return fmt.Sprintf("nfs status %d", uint32(s))
}

// Error wraps a non-OK Stat as a Go error (client side).
type Error struct{ Stat Stat }

func (e *Error) Error() string { return "nfs: " + e.Stat.String() }

// StatOf extracts the NFS status from an error returned by the client
// helpers; OK when err is nil, ErrIO for non-NFS errors.
func StatOf(err error) Stat {
	if err == nil {
		return OK
	}
	var ne *Error
	if errors.As(err, &ne) {
		return ne.Stat
	}
	return ErrIO
}

// MapError converts a vfs error to an NFS status (server side).
func MapError(err error) Stat {
	switch {
	case err == nil:
		return OK
	case errors.Is(err, vfs.ErrNotExist):
		return ErrNoEnt
	case errors.Is(err, vfs.ErrExist):
		return ErrExist
	case errors.Is(err, vfs.ErrNotDir):
		return ErrNotDir
	case errors.Is(err, vfs.ErrIsDir):
		return ErrIsDir
	case errors.Is(err, vfs.ErrNotEmpty):
		return ErrNotEmpty
	case errors.Is(err, vfs.ErrStale):
		return ErrStale
	case errors.Is(err, vfs.ErrPerm):
		return ErrAcces
	case errors.Is(err, vfs.ErrNoSpace):
		return ErrNoSpc
	case errors.Is(err, vfs.ErrNameTooLong):
		return ErrNameLong
	case errors.Is(err, vfs.ErrFBig):
		return ErrFBig
	case errors.Is(err, vfs.ErrThrottled):
		return ErrTryLater
	case errors.Is(err, vfs.ErrInval):
		return ErrIO // NFSv2 has no EINVAL; IO is the catch-all
	default:
		return ErrIO
	}
}

// FHSize is the fixed NFSv2 file handle size.
const FHSize = 32

// MaxData is the NFSv2 baseline READ/WRITE transfer size: the fallback
// every connection starts from, and all an un-negotiated (v2-era) peer
// ever uses.
const MaxData = 8192

// Negotiated transfer bounds (see ProcFSInfo). DefaultMaxTransfer is
// the server-side default clamp: one 8 KiB block under the 512 KiB
// pool class, so a maximal record — payload plus RPC framing and
// attributes — still fits the class and a cached block pins exactly
// the memory the cache accounts for (a full 512 KiB payload would tip
// every record into the 1 MiB class, doubling the footprint).
// MaxTransferLimit is the protocol's absolute ceiling (the record
// layers size their buffers to carry it).
const (
	DefaultMaxTransfer = (512 - 8) << 10
	MaxTransferLimit   = 1 << 20
)

// MaxExtents bounds the extents of one WRITEEXTENTS call: one per
// MaxData block of the largest transfer.
const MaxExtents = MaxTransferLimit / MaxData

// ClampTransfer bounds a transfer-size proposal or configuration value
// to [MaxData, MaxTransferLimit] and rounds it down to a whole number
// of MaxData blocks — an unaligned grant would quietly disable the
// block-aligned zero-copy read path.
// 0 (and anything below the baseline) means the baseline.
func ClampTransfer(n int) uint32 {
	if n < MaxData {
		return MaxData
	}
	if n > MaxTransferLimit {
		return MaxTransferLimit
	}
	return uint32(n - n%MaxData)
}

// MaxPath and MaxName bound path and name strings.
const (
	MaxPath = 1024
	MaxName = 255
)

// Federation shard tags. A federated client stamps the shard id of the
// owning server into the top byte of every handle's inode number, so
// any operation on the handle routes to the right server without a
// table lookup. The tag exists only inside the client process: it is
// stripped before a handle is encoded onto the wire and applied as
// handles are decoded off it, so servers — including pre-federation
// ones — only ever see untagged inos. Shard 0's tag is zero, making
// the transform the identity for a single-server (legacy) deployment:
// a fed-aware client against a stock server leaks no prefix bytes.
const (
	// ShardShift is the bit position of the shard tag within Ino.
	ShardShift = 56
	// MaxServerIno bounds server-assigned inode numbers; anything
	// larger would collide with the tag space. FFS inode numbers are
	// dense small integers, far below this.
	MaxServerIno = uint64(1)<<ShardShift - 1
)

// UntagIno strips the shard tag from an inode number.
func UntagIno(ino uint64) uint64 { return ino & MaxServerIno }

// ShardOfIno extracts the shard id from a (possibly tagged) inode.
func ShardOfIno(ino uint64) int { return int(ino >> ShardShift) }

// fhMagic distinguishes handles minted by this server.
var fhMagic = [4]byte{'D', 'F', 'S', '2'}

// EncodeFH packs a vfs.Handle into a 32-byte NFS file handle.
func EncodeFH(h vfs.Handle) [FHSize]byte {
	var fh [FHSize]byte
	copy(fh[0:4], fhMagic[:])
	be64(fh[4:12], h.Ino)
	be32(fh[12:16], h.Gen)
	return fh
}

// DecodeFH unpacks an NFS file handle; stale/foreign handles error.
func DecodeFH(fh []byte) (vfs.Handle, error) {
	if len(fh) != FHSize || fh[0] != fhMagic[0] || fh[1] != fhMagic[1] ||
		fh[2] != fhMagic[2] || fh[3] != fhMagic[3] {
		return vfs.Handle{}, vfs.ErrStale
	}
	return vfs.Handle{
		Ino: rd64(fh[4:12]),
		Gen: rd32(fh[12:16]),
	}, nil
}

func be64(b []byte, v uint64) {
	b[0], b[1], b[2], b[3] = byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32)
	b[4], b[5], b[6], b[7] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}
func be32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}
func rd64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}
func rd32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// FAttr is the NFSv2 fattr structure.
type FAttr struct {
	Type      uint32
	Mode      uint32
	Nlink     uint32
	UID       uint32
	GID       uint32
	Size      uint32
	BlockSize uint32
	Rdev      uint32
	Blocks    uint32
	FSID      uint32
	FileID    uint32
	Atime     time.Time
	Mtime     time.Time
	Ctime     time.Time
}

// NFSv2 file type codes (subset).
const (
	ftypeNon  = 0
	ftypeReg  = 1
	ftypeDir  = 2
	ftypeLink = 5
)

// mode type bits, as in stat(2); NFSv2 duplicates the type in the mode.
const (
	modeDir  = 0o040000
	modeReg  = 0o100000
	modeLink = 0o120000
)

// FAttrFromVFS converts vfs.Attr to the wire fattr.
func FAttrFromVFS(a vfs.Attr, blockSize uint32) FAttr {
	fa := FAttr{
		Mode:      a.Mode,
		Nlink:     a.Nlink,
		UID:       a.UID,
		GID:       a.GID,
		Size:      uint32(a.Size),
		BlockSize: blockSize,
		Blocks:    uint32(a.Blocks),
		FSID:      1,
		FileID:    uint32(a.Handle.Ino),
		Atime:     a.Atime,
		Mtime:     a.Mtime,
		Ctime:     a.Ctime,
	}
	switch a.Type {
	case vfs.TypeRegular:
		fa.Type = ftypeReg
		fa.Mode |= modeReg
	case vfs.TypeDir:
		fa.Type = ftypeDir
		fa.Mode |= modeDir
	case vfs.TypeSymlink:
		fa.Type = ftypeLink
		fa.Mode |= modeLink
	default:
		fa.Type = ftypeNon
	}
	return fa
}

func encodeTime(e *xdr.Encoder, t time.Time) {
	if t.IsZero() {
		e.Uint32(0)
		e.Uint32(0)
		return
	}
	e.Uint32(uint32(t.Unix()))
	e.Uint32(uint32(t.Nanosecond() / 1000))
}

func decodeTime(d *xdr.Decoder) time.Time {
	sec := d.Uint32()
	usec := d.Uint32()
	if sec == 0 && usec == 0 {
		return time.Time{}
	}
	return time.Unix(int64(sec), int64(usec)*1000)
}

// Encode writes the fattr to e.
func (fa *FAttr) Encode(e *xdr.Encoder) {
	e.Uint32(fa.Type)
	e.Uint32(fa.Mode)
	e.Uint32(fa.Nlink)
	e.Uint32(fa.UID)
	e.Uint32(fa.GID)
	e.Uint32(fa.Size)
	e.Uint32(fa.BlockSize)
	e.Uint32(fa.Rdev)
	e.Uint32(fa.Blocks)
	e.Uint32(fa.FSID)
	e.Uint32(fa.FileID)
	encodeTime(e, fa.Atime)
	encodeTime(e, fa.Mtime)
	encodeTime(e, fa.Ctime)
}

// DecodeFAttr reads an fattr from d.
func DecodeFAttr(d *xdr.Decoder) FAttr {
	return FAttr{
		Type: d.Uint32(), Mode: d.Uint32(), Nlink: d.Uint32(),
		UID: d.Uint32(), GID: d.Uint32(), Size: d.Uint32(),
		BlockSize: d.Uint32(), Rdev: d.Uint32(), Blocks: d.Uint32(),
		FSID: d.Uint32(), FileID: d.Uint32(),
		Atime: decodeTime(d), Mtime: decodeTime(d), Ctime: decodeTime(d),
	}
}

// noVal is the sattr "do not set" sentinel.
const noVal = 0xffffffff

// SAttr is the NFSv2 settable-attributes structure.
type SAttr struct {
	Mode  uint32
	UID   uint32
	GID   uint32
	Size  uint32
	Atime time.Time
	Mtime time.Time
	// SetAtime/SetMtime distinguish zero times from "do not set".
	SetAtime bool
	SetMtime bool
}

// NewSAttr returns an SAttr with every field marked "do not set".
func NewSAttr() SAttr {
	return SAttr{Mode: noVal, UID: noVal, GID: noVal, Size: noVal}
}

// Encode writes the sattr.
func (s *SAttr) Encode(e *xdr.Encoder) {
	e.Uint32(s.Mode)
	e.Uint32(s.UID)
	e.Uint32(s.GID)
	e.Uint32(s.Size)
	if s.SetAtime {
		encodeTime(e, s.Atime)
	} else {
		e.Uint32(noVal)
		e.Uint32(noVal)
	}
	if s.SetMtime {
		encodeTime(e, s.Mtime)
	} else {
		e.Uint32(noVal)
		e.Uint32(noVal)
	}
}

// DecodeSAttr reads an sattr.
func DecodeSAttr(d *xdr.Decoder) SAttr {
	s := SAttr{
		Mode: d.Uint32(), UID: d.Uint32(), GID: d.Uint32(), Size: d.Uint32(),
	}
	asec, ausec := d.Uint32(), d.Uint32()
	msec, musec := d.Uint32(), d.Uint32()
	if asec != noVal {
		s.SetAtime = true
		s.Atime = time.Unix(int64(asec), int64(ausec)*1000)
	}
	if msec != noVal {
		s.SetMtime = true
		s.Mtime = time.Unix(int64(msec), int64(musec)*1000)
	}
	return s
}

// ToVFS converts the sattr into a vfs.SetAttr.
func (s *SAttr) ToVFS() vfs.SetAttr {
	var out vfs.SetAttr
	if s.Mode != noVal {
		m := s.Mode & 0o7777
		out.Mode = &m
	}
	if s.UID != noVal {
		u := s.UID
		out.UID = &u
	}
	if s.GID != noVal {
		g := s.GID
		out.GID = &g
	}
	if s.Size != noVal {
		sz := uint64(s.Size)
		out.Size = &sz
	}
	if s.SetAtime {
		t := s.Atime
		out.Atime = &t
	}
	if s.SetMtime {
		t := s.Mtime
		out.Mtime = &t
	}
	return out
}

// DirEntry is one READDIR result entry.
type DirEntry struct {
	FileID uint32
	Name   string
	Cookie uint32
}

// DirEntryPlus is one READDIRPLUS result entry: a directory entry with
// its file handle and attributes piggybacked. HasAttr is false (and
// Handle zero) when the server could not fetch attributes for the
// entry — typically because it was removed after the walk's snapshot
// was taken; callers fall back to a LOOKUP or skip the name.
type DirEntryPlus struct {
	FileID  uint32
	Name    string
	Cookie  uint64
	Handle  vfs.Handle
	HasAttr bool
	Attr    vfs.Attr
}

// Access permission bits reported by the AccessChecker capability, the
// classic rwx encoding.
const (
	AccessExec  uint32 = 1
	AccessWrite uint32 = 2
	AccessRead  uint32 = 4
)
