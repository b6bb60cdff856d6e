package nfs

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"discfs/internal/bufpool"
	"discfs/internal/sunrpc"
	"discfs/internal/vfs"
	"discfs/internal/xdr"
)

// Client is an NFSv2 client over a sunrpc connection. It stands in for
// the kernel NFS client of the paper's prototype: same procedures, same
// wire format, usable from tests, tools and the DisCFS client library.
type Client struct {
	rpc *sunrpc.Client
	// maxData is this connection's READ/WRITE transfer size: the v2
	// baseline until Attach, Negotiate or SetMaxData raises it.
	maxData atomic.Uint32
	// shardTag is the federation shard id this connection belongs to,
	// pre-shifted to the handle tag position (see ShardShift). Handles
	// passed in carry the tag in Ino; it is stripped before encoding
	// and re-applied after decoding, so the server only ever sees its
	// own untagged inos. Zero (shard 0, or no federation) makes both
	// transforms the identity. Set once at connection setup, before
	// concurrent use.
	shardTag uint64
}

// SetShard assigns the connection's federation shard id. Must be
// called before the client is shared between goroutines.
func (c *Client) SetShard(id int) { c.shardTag = uint64(id) << ShardShift }

// WireFH returns h's on-the-wire form: the shard tag is verified
// against this connection's shard and stripped. A handle tagged for a
// different shard yields ErrXDev — the op was about to address the
// wrong server, which under federation means a cross-shard operation.
func (c *Client) WireFH(h vfs.Handle) ([FHSize]byte, error) {
	if h.Ino&^MaxServerIno != c.shardTag {
		return [FHSize]byte{}, &Error{Stat: ErrXDev}
	}
	return EncodeFH(vfs.Handle{Ino: h.Ino & MaxServerIno, Gen: h.Gen}), nil
}

// DecodeWireFH decodes a handle received from the server and applies
// this connection's shard tag. A tagged connection refuses server inos
// that would overflow into the tag space.
func (c *Client) DecodeWireFH(raw []byte) (vfs.Handle, error) {
	h, err := DecodeFH(raw)
	if err != nil {
		return vfs.Handle{}, err
	}
	return c.tagHandle(h)
}

func (c *Client) tagHandle(h vfs.Handle) (vfs.Handle, error) {
	if c.shardTag == 0 {
		return h, nil
	}
	if h.Ino > MaxServerIno {
		return vfs.Handle{}, fmt.Errorf("nfs: server ino %#x overflows the federation tag space", h.Ino)
	}
	h.Ino |= c.shardTag
	return h, nil
}

// NewClient wraps an RPC client. The connection starts at the v2
// baseline transfer size (MaxData); Attach or Negotiate raises it.
func NewClient(rpc *sunrpc.Client) *Client {
	c := &Client{rpc: rpc}
	c.maxData.Store(MaxData)
	return c
}

// RPC exposes the underlying RPC client (for the DisCFS extension
// program, which shares the connection).
func (c *Client) RPC() *sunrpc.Client { return c.rpc }

// MaxData returns the connection's current transfer size: the largest
// payload one READ or WRITE carries.
func (c *Client) MaxData() uint32 { return c.maxData.Load() }

// SetMaxData pins the transfer size without a negotiation round trip.
// Outside tests its one caller is a client's redial, which keeps the
// grant its first connection was given: the server-side bound is
// global, and the data caches already run at that granule. The value
// is clamped to [MaxData, MaxTransferLimit].
func (c *Client) SetMaxData(n uint32) { c.maxData.Store(ClampTransfer(int(n))) }

// Negotiate proposes a transfer size (ProcFSInfo) and adopts the
// server's grant for subsequent READs and WRITEs on this connection.
// propose == 0 proposes DefaultMaxTransfer. Any failure, including an
// RPC-level refusal of the procedure, is returned as it came and leaves
// the transfer size unchanged.
func (c *Client) Negotiate(ctx context.Context, propose uint32) (uint32, error) {
	if propose == 0 {
		propose = DefaultMaxTransfer
	}
	propose = ClampTransfer(int(propose))
	e := xdr.NewEncoder()
	e.Uint32(propose)
	d, err := c.call(ctx, ProcFSInfo, e.Bytes())
	if err != nil {
		return c.maxData.Load(), err
	}
	defer recycleReply(d)
	granted := d.Uint32()
	if err := d.Err(); err != nil {
		return c.maxData.Load(), err
	}
	// Never exceed our own proposal, whatever the server claims.
	granted = ClampTransfer(int(granted))
	if granted > propose {
		granted = propose
	}
	c.maxData.Store(granted)
	return granted, nil
}

// EncodeWelcome is what a DisCFS server's handshake accept record
// carries, so the peer attaches with no RPC, in XDR: the root handle of
// the peer's view as MNT returns it, the grant FSINFO gives
// (DefaultMaxTransfer), and the boot verifier COMMIT returns.
func EncodeWelcome(root vfs.Handle, verifier uint64) []byte {
	fh := EncodeFH(root)
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(fh[:], DefaultMaxTransfer), verifier)
}

// Attach adopts a welcome (EncodeWelcome) in place of MOUNT and
// FSINFO: it clamps the grant to [MaxData, DefaultMaxTransfer] and
// returns the shard-tagged root handle and the boot verifier. A welcome
// of the wrong length or with a foreign root handle is an error.
func (c *Client) Attach(welcome []byte) (vfs.Handle, uint64, error) {
	if len(welcome) != FHSize+4+8 {
		return vfs.Handle{}, 0, fmt.Errorf("nfs: welcome of %d bytes, want %d", len(welcome), FHSize+4+8)
	}
	root, err := c.DecodeWireFH(welcome[:FHSize])
	if err != nil {
		return vfs.Handle{}, 0, err
	}
	c.maxData.Store(min(ClampTransfer(int(binary.BigEndian.Uint32(welcome[FHSize:]))), DefaultMaxTransfer))
	return root, binary.BigEndian.Uint64(welcome[FHSize+4:]), nil
}

// Mount issues MOUNTPROC_MNT and returns the root file handle.
func (c *Client) Mount(ctx context.Context, dirpath string) (vfs.Handle, error) {
	e := xdr.NewEncoder()
	e.String(dirpath)
	d, err := c.rpc.Call(ctx, MountProg, MountVers, MountProcMnt, e.Bytes())
	if err != nil {
		return vfs.Handle{}, err
	}
	defer recycleReply(d)
	if st := Stat(d.Uint32()); st != OK {
		return vfs.Handle{}, &Error{Stat: st}
	}
	raw := d.OpaqueFixed(FHSize)
	if d.Err() != nil {
		return vfs.Handle{}, d.Err()
	}
	return c.DecodeWireFH(raw)
}

// Unmount issues MOUNTPROC_UMNT.
func (c *Client) Unmount(ctx context.Context, dirpath string) error {
	e := xdr.NewEncoder()
	e.String(dirpath)
	d, err := c.rpc.Call(ctx, MountProg, MountVers, MountProcUmnt, e.Bytes())
	recycleReply(d)
	return err
}

// Null issues the NFS NULL procedure (an RPC round-trip).
func (c *Client) Null(ctx context.Context) error {
	d, err := c.rpc.Call(ctx, Prog, Vers, ProcNull, nil)
	recycleReply(d)
	return err
}

// call runs an NFS procedure and checks the leading status word. On
// success the returned decoder's backing record is pooled and owned by
// the caller: recycle it (recycleReply) once nothing aliases it, or
// hand it off (Read's payload). Failure paths recycle it here.
func (c *Client) call(ctx context.Context, proc uint32, args []byte) (*xdr.Decoder, error) {
	d, err := c.rpc.Call(ctx, Prog, Vers, proc, args)
	if err != nil {
		return nil, err
	}
	if st := Stat(d.Uint32()); st != OK {
		recycleReply(d)
		return nil, &Error{Stat: st}
	}
	if err := d.Err(); err != nil {
		recycleReply(d)
		return nil, err
	}
	return d, nil
}

// recycleReply returns a reply record to the buffer pool. Callers must
// be done with every alias into the record (Opaque/OpaqueFixed slices);
// decoded values and strings are copies and stay valid. nil is a no-op,
// so `defer recycleReply(d)` composes with call's error return.
func recycleReply(d *xdr.Decoder) {
	if d != nil {
		bufpool.Put(d.Buffer())
	}
}

// RecycleReply is recycleReply for callers outside the package that
// issue raw sunrpc calls (the core extension procedures) and are done
// with the reply record.
func RecycleReply(d *xdr.Decoder) { recycleReply(d) }

// decodeAttr reads an fattr result into a vfs.Attr plus the wire fattr.
func decodeAttr(d *xdr.Decoder, h vfs.Handle) (vfs.Attr, FAttr, error) {
	fa := DecodeFAttr(d)
	if err := d.Err(); err != nil {
		return vfs.Attr{}, FAttr{}, err
	}
	a := vfs.Attr{
		Handle: h,
		Mode:   fa.Mode & 0o7777,
		Nlink:  fa.Nlink,
		UID:    fa.UID,
		GID:    fa.GID,
		Size:   uint64(fa.Size),
		Blocks: uint64(fa.Blocks),
		Atime:  fa.Atime,
		Mtime:  fa.Mtime,
		Ctime:  fa.Ctime,
	}
	switch fa.Type {
	case ftypeReg:
		a.Type = vfs.TypeRegular
	case ftypeDir:
		a.Type = vfs.TypeDir
	case ftypeLink:
		a.Type = vfs.TypeSymlink
	}
	return a, fa, nil
}

// DecodeDiropres reads (fhandle, fattr).
func (c *Client) DecodeDiropres(d *xdr.Decoder) (vfs.Attr, error) {
	raw := d.OpaqueFixed(FHSize)
	if err := d.Err(); err != nil {
		return vfs.Attr{}, err
	}
	h, err := c.DecodeWireFH(raw)
	if err != nil {
		return vfs.Attr{}, err
	}
	a, _, err := decodeAttr(d, h)
	return a, err
}

// GetAttr issues GETATTR.
func (c *Client) GetAttr(ctx context.Context, h vfs.Handle) (vfs.Attr, error) {
	e := xdr.NewEncoder()
	fh, err := c.WireFH(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	e.OpaqueFixed(fh[:])
	d, err := c.call(ctx, ProcGetattr, e.Bytes())
	if err != nil {
		return vfs.Attr{}, err
	}
	defer recycleReply(d)
	a, _, err := decodeAttr(d, h)
	return a, err
}

// SetAttr issues SETATTR.
func (c *Client) SetAttr(ctx context.Context, h vfs.Handle, sa SAttr) (vfs.Attr, error) {
	e := xdr.NewEncoder()
	fh, err := c.WireFH(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	e.OpaqueFixed(fh[:])
	sa.Encode(e)
	d, err := c.call(ctx, ProcSetattr, e.Bytes())
	if err != nil {
		return vfs.Attr{}, err
	}
	defer recycleReply(d)
	a, _, err := decodeAttr(d, h)
	return a, err
}

// Lookup issues LOOKUP.
func (c *Client) Lookup(ctx context.Context, dir vfs.Handle, name string) (vfs.Attr, error) {
	e := xdr.NewEncoder()
	fh, err := c.WireFH(dir)
	if err != nil {
		return vfs.Attr{}, err
	}
	e.OpaqueFixed(fh[:])
	e.String(name)
	d, err := c.call(ctx, ProcLookup, e.Bytes())
	if err != nil {
		return vfs.Attr{}, err
	}
	defer recycleReply(d)
	return c.DecodeDiropres(d)
}

// Readlink issues READLINK.
func (c *Client) Readlink(ctx context.Context, h vfs.Handle) (string, error) {
	e := xdr.NewEncoder()
	fh, err := c.WireFH(h)
	if err != nil {
		return "", err
	}
	e.OpaqueFixed(fh[:])
	d, err := c.call(ctx, ProcReadlink, e.Bytes())
	if err != nil {
		return "", err
	}
	defer recycleReply(d)
	s := d.String(MaxPath)
	return s, d.Err()
}

// Read issues READ; at most MaxData() bytes are returned, in a slice of
// the caller's own: the reply record is recycled. Callers with a
// destination buffer use ReadInto; a caller that keeps the payload where
// it landed uses ReadRecord.
func (c *Client) Read(ctx context.Context, h vfs.Handle, offset uint32, count uint32) ([]byte, vfs.Attr, error) {
	d, data, a, err := c.read(ctx, h, offset, count)
	if err != nil {
		return nil, vfs.Attr{}, err
	}
	data = bytes.Clone(data)
	recycleReply(d)
	return data, a, nil
}

// ReadRecord issues READ and hands the reply record to the caller: data
// (at most MaxData() bytes) aliases rec, a pooled buffer the caller
// must bufpool.Put once nothing reads data any more. The data cache
// installs a transfer-sized reply as pages this way, without a copy.
func (c *Client) ReadRecord(ctx context.Context, h vfs.Handle, offset uint32, count uint32) (rec, data []byte, a vfs.Attr, err error) {
	d, data, a, err := c.read(ctx, h, offset, count)
	if err != nil {
		return nil, nil, vfs.Attr{}, err
	}
	return d.Buffer(), data, a, nil
}

// ReadInto issues READ with the payload copied into dst (at most
// MaxData() bytes per call) and recycles the reply record immediately —
// the path for callers that own a destination buffer and do not want
// the Read hand-off. Returns the bytes read; 0 at or beyond EOF.
func (c *Client) ReadInto(ctx context.Context, h vfs.Handle, offset uint32, dst []byte) (int, vfs.Attr, error) {
	d, data, a, err := c.read(ctx, h, offset, uint32(len(dst)))
	if err != nil {
		return 0, vfs.Attr{}, err
	}
	n := copy(dst, data)
	recycleReply(d)
	return n, a, nil
}

// read issues READ for at most MaxData() bytes and returns the reply
// record with the payload aliasing it; the caller owns the record. On
// error the record is already recycled.
func (c *Client) read(ctx context.Context, h vfs.Handle, offset, count uint32) (*xdr.Decoder, []byte, vfs.Attr, error) {
	if max := c.maxData.Load(); count > max {
		count = max
	}
	e := xdr.NewEncoder()
	fh, err := c.WireFH(h)
	if err != nil {
		return nil, nil, vfs.Attr{}, err
	}
	e.OpaqueFixed(fh[:])
	e.Uint32(offset)
	e.Uint32(count)
	e.Uint32(count) // totalcount
	d, err := c.call(ctx, ProcRead, e.Bytes())
	if err != nil {
		return nil, nil, vfs.Attr{}, err
	}
	data, a, err := decodeReadRes(d, h)
	if err != nil {
		recycleReply(d)
		return nil, nil, vfs.Attr{}, err
	}
	return d, data, a, nil
}

// decodeReadRes reads the body of a READ result after its OK status: the
// post-op attributes, and the payload, which aliases d's record.
func decodeReadRes(d *xdr.Decoder, h vfs.Handle) ([]byte, vfs.Attr, error) {
	a, _, _ := decodeAttr(d, h) // its only error is d's, returned below
	data := d.Opaque(MaxTransferLimit)
	return data, a, d.Err()
}

// LookupReadResult is the LOOKUPREAD reply: the leaf as LOOKUP reports
// it, and the READ of its first bytes with their post-op attributes.
// ReadErr is the READ half's status; when it is nil, Data aliases Rec, a
// pooled record the caller must bufpool.Put once nothing reads Data.
type LookupReadResult struct {
	Attr, ReadAttr vfs.Attr
	Rec, Data      []byte
	ReadErr        error
}

// LookupRead issues ProcLookupRead: it looks name up in dir and reads at
// most count bytes (and at most MaxData()) of the leaf from offset 0, in
// one round trip. The error is the lookup's; a failed READ half is
// reported in ReadErr, with the record already recycled.
func (c *Client) LookupRead(ctx context.Context, dir vfs.Handle, name string, count uint32) (LookupReadResult, error) {
	e := xdr.NewEncoder()
	fh, err := c.WireFH(dir)
	if err != nil {
		return LookupReadResult{}, err
	}
	e.OpaqueFixed(fh[:])
	e.String(name)
	e.Uint32(min(count, c.maxData.Load()))
	d, err := c.call(ctx, ProcLookupRead, e.Bytes())
	if err != nil {
		return LookupReadResult{}, err
	}
	var r LookupReadResult
	if r.Attr, err = c.DecodeDiropres(d); err == nil {
		if st := Stat(d.Uint32()); st != OK {
			r.ReadErr, err = &Error{Stat: st}, d.Err()
		} else if r.Data, r.ReadAttr, err = decodeReadRes(d, r.Attr.Handle); err == nil {
			r.Rec = d.Buffer()
			return r, nil
		}
	}
	recycleReply(d)
	return r, err
}

// Write issues WRITE; data must be at most MaxData() bytes. The payload
// is encoded directly into the outgoing record — one copy between the
// caller's buffer and the wire.
func (c *Client) Write(ctx context.Context, h vfs.Handle, offset uint32, data []byte) (vfs.Attr, error) {
	return c.write(ctx, h, ProcWrite, len(data), func(e *xdr.Encoder) {
		e.Uint32(0) // beginoffset
		e.Uint32(offset)
		e.Uint32(uint32(len(data))) // totalcount
		e.Opaque(data)
	})
}

// Extent is one run of a WRITEEXTENTS call: the concatenation of Data
// lands at Offset.
type Extent struct {
	Offset uint32
	Data   [][]byte
}

// WriteExtents issues WRITEEXTENTS: exts go out as one call, each piece
// copied once into the outgoing record, and the server writes them in
// order, stopping at the first failure. Together they carry at most
// MaxData() bytes, in at most MaxExtents extents. The attributes are the
// file's after the last extent.
func (c *Client) WriteExtents(ctx context.Context, h vfs.Handle, exts []Extent) (vfs.Attr, error) {
	size := 4
	for _, x := range exts {
		size += 8
		for _, s := range x.Data {
			size += len(s)
		}
	}
	return c.write(ctx, h, ProcWriteExtents, size, func(e *xdr.Encoder) {
		e.Uint32(uint32(len(exts)))
		for _, x := range exts {
			e.Uint32(x.Offset)
			e.OpaqueV(x.Data)
		}
	})
}

// write issues a WRITE-shaped procedure: h, then what encode appends
// (about size bytes), answered by an attrstat.
func (c *Client) write(ctx context.Context, h vfs.Handle, proc uint32, size int, encode func(*xdr.Encoder)) (vfs.Attr, error) {
	fh, err := c.WireFH(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	d, err := c.rpc.CallAppend(ctx, Prog, Vers, proc, size+64, func(e *xdr.Encoder) {
		e.OpaqueFixed(fh[:])
		encode(e)
	})
	if err != nil {
		return vfs.Attr{}, err
	}
	defer recycleReply(d)
	if st := Stat(d.Uint32()); st != OK {
		return vfs.Attr{}, &Error{Stat: st}
	}
	if err := d.Err(); err != nil {
		return vfs.Attr{}, err
	}
	a, _, err := decodeAttr(d, h)
	return a, err
}

// Commit issues COMMIT (this server's NFSv3-style extension): the
// durability barrier for unstable WRITEs. It returns the file's
// post-commit attributes and the server's boot verifier; a verifier
// that changed between two COMMITs means the server restarted and may
// have lost writes acknowledged-but-uncommitted in between, which the
// caller must replay.
func (c *Client) Commit(ctx context.Context, h vfs.Handle) (vfs.Attr, uint64, error) {
	e := xdr.NewEncoder()
	fh, err := c.WireFH(h)
	if err != nil {
		return vfs.Attr{}, 0, err
	}
	e.OpaqueFixed(fh[:])
	e.Uint32(0) // offset: whole file
	e.Uint32(0) // count: whole file
	d, err := c.call(ctx, ProcCommit, e.Bytes())
	if err != nil {
		return vfs.Attr{}, 0, err
	}
	defer recycleReply(d)
	a, _, err := decodeAttr(d, h)
	if err != nil {
		return vfs.Attr{}, 0, err
	}
	ver := d.Uint64()
	return a, ver, d.Err()
}

// Create issues CREATE.
func (c *Client) Create(ctx context.Context, dir vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	e := xdr.NewEncoder()
	fh, err := c.WireFH(dir)
	if err != nil {
		return vfs.Attr{}, err
	}
	e.OpaqueFixed(fh[:])
	e.String(name)
	sa := NewSAttr()
	sa.Mode = mode
	sa.Encode(e)
	d, err := c.call(ctx, ProcCreate, e.Bytes())
	if err != nil {
		return vfs.Attr{}, err
	}
	defer recycleReply(d)
	return c.DecodeDiropres(d)
}

// Remove issues REMOVE.
func (c *Client) Remove(ctx context.Context, dir vfs.Handle, name string) error {
	e := xdr.NewEncoder()
	fh, err := c.WireFH(dir)
	if err != nil {
		return err
	}
	e.OpaqueFixed(fh[:])
	e.String(name)
	d, err := c.call(ctx, ProcRemove, e.Bytes())
	recycleReply(d)
	return err
}

// Rename issues RENAME. Under federation a source and destination on
// different shards cannot be renamed atomically: the mismatched handle
// tag surfaces as ErrXDev before anything reaches the wire.
func (c *Client) Rename(ctx context.Context, fromDir vfs.Handle, fromName string, toDir vfs.Handle, toName string) error {
	e := xdr.NewEncoder()
	f1, err := c.WireFH(fromDir)
	if err != nil {
		return err
	}
	e.OpaqueFixed(f1[:])
	e.String(fromName)
	f2, err := c.WireFH(toDir)
	if err != nil {
		return err
	}
	e.OpaqueFixed(f2[:])
	e.String(toName)
	d, err := c.call(ctx, ProcRename, e.Bytes())
	recycleReply(d)
	return err
}

// Link issues LINK.
func (c *Client) Link(ctx context.Context, target vfs.Handle, dir vfs.Handle, name string) error {
	e := xdr.NewEncoder()
	ft, err := c.WireFH(target)
	if err != nil {
		return err
	}
	e.OpaqueFixed(ft[:])
	fd, err := c.WireFH(dir)
	if err != nil {
		return err
	}
	e.OpaqueFixed(fd[:])
	e.String(name)
	d, err := c.call(ctx, ProcLink, e.Bytes())
	recycleReply(d)
	return err
}

// Symlink issues SYMLINK.
func (c *Client) Symlink(ctx context.Context, dir vfs.Handle, name, target string, mode uint32) error {
	e := xdr.NewEncoder()
	fh, err := c.WireFH(dir)
	if err != nil {
		return err
	}
	e.OpaqueFixed(fh[:])
	e.String(name)
	e.String(target)
	sa := NewSAttr()
	sa.Mode = mode
	sa.Encode(e)
	d, err := c.call(ctx, ProcSymlink, e.Bytes())
	recycleReply(d)
	return err
}

// Mkdir issues MKDIR.
func (c *Client) Mkdir(ctx context.Context, dir vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	e := xdr.NewEncoder()
	fh, err := c.WireFH(dir)
	if err != nil {
		return vfs.Attr{}, err
	}
	e.OpaqueFixed(fh[:])
	e.String(name)
	sa := NewSAttr()
	sa.Mode = mode
	sa.Encode(e)
	d, err := c.call(ctx, ProcMkdir, e.Bytes())
	if err != nil {
		return vfs.Attr{}, err
	}
	defer recycleReply(d)
	return c.DecodeDiropres(d)
}

// Rmdir issues RMDIR.
func (c *Client) Rmdir(ctx context.Context, dir vfs.Handle, name string) error {
	e := xdr.NewEncoder()
	fh, err := c.WireFH(dir)
	if err != nil {
		return err
	}
	e.OpaqueFixed(fh[:])
	e.String(name)
	d, err := c.call(ctx, ProcRmdir, e.Bytes())
	recycleReply(d)
	return err
}

// ReadDirPage issues one READDIR call from cookie.
func (c *Client) ReadDirPage(ctx context.Context, dir vfs.Handle, cookie, count uint32) ([]DirEntry, bool, error) {
	e := xdr.NewEncoder()
	fh, err := c.WireFH(dir)
	if err != nil {
		return nil, false, err
	}
	e.OpaqueFixed(fh[:])
	e.Uint32(cookie)
	e.Uint32(count)
	d, err := c.call(ctx, ProcReaddir, e.Bytes())
	if err != nil {
		return nil, false, err
	}
	defer recycleReply(d) // entry names are String copies
	var ents []DirEntry
	for d.Bool() {
		ent := DirEntry{
			FileID: d.Uint32(),
			Name:   d.String(MaxName),
			Cookie: d.Uint32(),
		}
		if d.Err() != nil {
			return nil, false, d.Err()
		}
		ents = append(ents, ent)
	}
	eof := d.Bool()
	return ents, eof, d.Err()
}

// maxListingRestarts bounds how many times a bulk listing restarts
// after the server reports its cursor gone (stale/bad cookie) before
// surfacing the error — a guard against livelock when cursors are
// evicted faster than a walk completes.
const maxListingRestarts = 4

// ReadDirAll pages through READDIR until eof. A stale cookie mid-walk
// (the server dropped this walk's cursor) restarts the listing from
// scratch; an empty non-eof page (count budget smaller than the next
// entry) retries with a doubled count — it is never treated as the end
// of the listing.
func (c *Client) ReadDirAll(ctx context.Context, dir vfs.Handle) ([]DirEntry, error) {
	return c.readDirAll(ctx, dir, MaxData)
}

func (c *Client) readDirAll(ctx context.Context, dir vfs.Handle, count uint32) ([]DirEntry, error) {
	for attempt := 0; ; attempt++ {
		all, restartable, err := c.readDirPass(ctx, dir, count)
		if err == nil {
			return all, nil
		}
		if !restartable || attempt == maxListingRestarts {
			return nil, err
		}
	}
}

// readDirPass is one front-to-back paging pass. restartable reports
// that the error was a stale cookie mid-walk, fixable by re-listing.
func (c *Client) readDirPass(ctx context.Context, dir vfs.Handle, count uint32) (all []DirEntry, restartable bool, err error) {
	cookie := uint32(0)
	for {
		ents, eof, err := c.ReadDirPage(ctx, dir, cookie, count)
		if err != nil {
			return nil, cookie != 0 && StatOf(err) == ErrStale, err
		}
		all = append(all, ents...)
		if eof {
			return all, false, nil
		}
		if len(ents) == 0 {
			// Empty page without eof: the count budget is smaller than
			// the next entry. Grow it and retry — returning the partial
			// listing as complete would silently truncate it.
			if count >= MaxTransferLimit {
				return nil, false, fmt.Errorf("nfs: empty READDIR page at count %d without eof", count)
			}
			count *= 2
			continue
		}
		cookie = ents[len(ents)-1].Cookie
	}
}

// ReadDirPlusPage is one READDIRPLUS reply page.
type ReadDirPlusPage struct {
	// Dir is the directory's own attributes, refreshed every page.
	Dir vfs.Attr
	// Verf names the server-side cursor; pass it back with the cookie.
	Verf    uint64
	Entries []DirEntryPlus
	EOF     bool
}

// ReadDirPlus issues one READDIRPLUS call: a page of directory entries
// with attributes piggybacked, up to count reply bytes. Start a walk
// with verf = cookie = 0; resume with the previous page's Verf and the
// last entry's Cookie. An ErrBadCookie status means the server no
// longer holds the walk's cursor: restart from 0.
func (c *Client) ReadDirPlus(ctx context.Context, dir vfs.Handle, verf, cookie uint64, count uint32) (ReadDirPlusPage, error) {
	e := xdr.NewEncoder()
	fh, err := c.WireFH(dir)
	if err != nil {
		return ReadDirPlusPage{}, err
	}
	e.OpaqueFixed(fh[:])
	e.Uint64(verf)
	e.Uint64(cookie)
	e.Uint32(count)
	d, err := c.call(ctx, ProcReaddirPlus, e.Bytes())
	if err != nil {
		return ReadDirPlusPage{}, err
	}
	defer recycleReply(d) // names are String copies, handles decoded
	var pg ReadDirPlusPage
	dirA, _, err := decodeAttr(d, dir)
	if err != nil {
		return pg, err
	}
	pg.Dir = dirA
	pg.Verf = d.Uint64()
	for d.Bool() {
		ent := DirEntryPlus{
			FileID: d.Uint32(),
			Name:   d.String(MaxName),
			Cookie: d.Uint64(),
		}
		if d.Bool() {
			raw := d.OpaqueFixed(FHSize)
			if err := d.Err(); err != nil {
				return pg, err
			}
			h, err := c.DecodeWireFH(raw)
			if err != nil {
				return pg, err
			}
			ent.Handle = h
		}
		if d.Bool() {
			a, _, err := decodeAttr(d, ent.Handle)
			if err != nil {
				return pg, err
			}
			ent.Attr = a
			ent.HasAttr = true
		}
		if err := d.Err(); err != nil {
			return pg, err
		}
		pg.Entries = append(pg.Entries, ent)
	}
	pg.EOF = d.Bool()
	return pg, d.Err()
}

// ReadDirPlusAll lists dir with attributes piggybacked, paging
// READDIRPLUS at the negotiated transfer size until eof, and restarts
// on a bad cookie (bounded). Returns the directory's own attributes
// alongside the entries.
func (c *Client) ReadDirPlusAll(ctx context.Context, dir vfs.Handle) (vfs.Attr, []DirEntryPlus, error) {
	for attempt := 0; ; attempt++ {
		dirA, all, err := c.readDirPlusPass(ctx, dir)
		if err == nil {
			return dirA, all, nil
		}
		// ErrBadCookie only arises on a resume, so it is always a
		// restartable mid-walk cursor loss.
		if StatOf(err) != ErrBadCookie || attempt == maxListingRestarts {
			return vfs.Attr{}, nil, err
		}
	}
}

func (c *Client) readDirPlusPass(ctx context.Context, dir vfs.Handle) (vfs.Attr, []DirEntryPlus, error) {
	var (
		all          []DirEntryPlus
		dirA         vfs.Attr
		verf, cookie uint64
	)
	count := c.maxData.Load()
	for {
		pg, err := c.ReadDirPlus(ctx, dir, verf, cookie, count)
		if err != nil {
			return vfs.Attr{}, nil, err
		}
		dirA, verf = pg.Dir, pg.Verf
		all = append(all, pg.Entries...)
		if pg.EOF {
			return dirA, all, nil
		}
		if len(pg.Entries) == 0 {
			if count >= MaxTransferLimit {
				return vfs.Attr{}, nil, fmt.Errorf("nfs: empty READDIRPLUS page at count %d without eof", count)
			}
			count *= 2
			continue
		}
		cookie = pg.Entries[len(pg.Entries)-1].Cookie
	}
}

// StatFSResult is the STATFS reply.
type StatFSResult struct {
	TSize  uint32 // optimal transfer size
	BSize  uint32
	Blocks uint32
	BFree  uint32
	BAvail uint32
}

// StatFS issues STATFS.
func (c *Client) StatFS(ctx context.Context, h vfs.Handle) (StatFSResult, error) {
	e := xdr.NewEncoder()
	fh, err := c.WireFH(h)
	if err != nil {
		return StatFSResult{}, err
	}
	e.OpaqueFixed(fh[:])
	d, err := c.call(ctx, ProcStatfs, e.Bytes())
	if err != nil {
		return StatFSResult{}, err
	}
	defer recycleReply(d)
	r := StatFSResult{
		TSize: d.Uint32(), BSize: d.Uint32(),
		Blocks: d.Uint32(), BFree: d.Uint32(), BAvail: d.Uint32(),
	}
	return r, d.Err()
}

// readAllTransfers bounds, in transfers, the capacity ReadAll reserves
// on the word of the first reply's attributes; a larger file grows the
// result as it comes.
const readAllTransfers = 8

// ReadAll reads the entire file through sequential maximal READs. The
// result is sized from the first reply and each payload is copied into
// it straight from its reply record: no transfer-sized scratch buffer,
// and no pooled record pinned behind the result. The attributes' size
// is the server's word, so it is trusted only when the first reply came
// back full, and then only up to readAllTransfers transfers; a short
// first reply is the whole file.
func (c *Client) ReadAll(ctx context.Context, h vfs.Handle) ([]byte, error) {
	d, data, attr, err := c.read(ctx, h, 0, c.maxData.Load())
	if err != nil {
		return nil, err
	}
	defer recycleReply(d)
	return c.ReadAllFrom(ctx, h, data, attr.Size)
}

// ReadAllFrom is ReadAll from a first reply the caller holds: first, what
// a READ of MaxData() bytes at offset 0 returned, and the file size its
// attributes reported. It returns a copy of first, then the rest.
func (c *Client) ReadAllFrom(ctx context.Context, h vfs.Handle, first []byte, size uint64) ([]byte, error) {
	if len(first) == 0 {
		return nil, nil
	}
	count := c.maxData.Load()
	reserve := uint64(len(first))
	if reserve == uint64(count) {
		reserve = max(reserve, min(size, readAllTransfers*reserve))
	}
	out := append(make([]byte, 0, reserve), first...)
	for data := first; len(data) > 0 && uint64(len(out)) < size; {
		d, next, attr, err := c.read(ctx, h, uint32(len(out)), count)
		if err != nil {
			return nil, err
		}
		out = append(out, next...)
		recycleReply(d)
		data, size = next, attr.Size
	}
	return out, nil
}

// WriteAll writes data through sequential maximal WRITEs at offset 0.
func (c *Client) WriteAll(ctx context.Context, h vfs.Handle, data []byte) error {
	step := int(c.maxData.Load())
	for off := 0; off < len(data); off += step {
		end := off + step
		if end > len(data) {
			end = len(data)
		}
		if _, err := c.Write(ctx, h, uint32(off), data[off:end]); err != nil {
			return err
		}
	}
	return nil
}
