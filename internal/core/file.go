package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"discfs/internal/nfs"
	"discfs/internal/vfs"
)

// File is a streaming handle on a remote DisCFS file. It implements
// io.Reader, io.Writer, io.Seeker, io.ReaderAt, io.WriterAt and
// io.Closer, chunking transfers into NFS READ/WRITE calls of at most
// the connection's negotiated transfer size each (504 KiB unless the
// client proposed less), so arbitrarily large files move
// without ever being buffered whole on either side.
//
// Unless the client was dialed with WithNoDataCache, file I/O runs
// through a client-side page cache with sequential readahead and
// write-behind (see datacache.go). Writes may be acknowledged before
// they reach the server; Sync and Close drain them and return the first
// deferred write error — the NFS error barrier. Consistency across
// clients is close-to-open: Open revalidates against the server, so a
// reader that opens after a writer's Close sees the writer's data.
//
// The context passed to Open governs every RPC the File issues;
// canceling it aborts in-flight and future operations, including
// background flushes. A File is safe for concurrent use; the read/write
// cursor is shared, as with os.File, and positioned I/O (ReadAt/WriteAt)
// runs in parallel without touching the cursor.
type File struct {
	c    *Client
	sh   *shard // the shard owning h; every RPC the File issues goes there
	ctx  context.Context
	h    vfs.Handle
	path string
	cred string // creator credential when Open created the file

	readable bool
	writable bool
	append_  bool

	dc *handleCache // nil when the data cache is disabled

	size  atomic.Int64 // last size observed from the server (uncached path)
	wrote atomic.Bool  // uncached path: WRITEs issued since the last COMMIT

	mu     sync.Mutex // guards the cursor and the closed flag
	pos    int64
	closed bool
}

// Open opens the file at path. flag is the standard os.O_* bitmask:
// os.O_RDONLY, os.O_WRONLY, os.O_RDWR, optionally combined with
// os.O_CREATE (create if missing, returning the creator credential),
// os.O_EXCL (with O_CREATE: fail if the file exists — best-effort, as
// NFSv2 CREATE has no exclusive mode), os.O_TRUNC (truncate on open)
// and os.O_APPEND (start the cursor at end-of-file).
//
// Open fails with an error matching ErrNotExist when the file is missing
// and os.O_CREATE is not set, and with ErrAccessDenied when credentials
// do not permit the requested access.
func (c *Client) Open(ctx context.Context, path string, flag int) (*File, error) {
	acc := flag & (os.O_RDONLY | os.O_WRONLY | os.O_RDWR)
	f := &File{
		c:        c,
		ctx:      ctx,
		path:     path,
		readable: acc == os.O_RDONLY || acc == os.O_RDWR,
		writable: acc == os.O_WRONLY || acc == os.O_RDWR,
		append_:  flag&os.O_APPEND != 0,
	}
	// An open that will read asks for the file's first window with the
	// leaf lookup: the READ a first sequential Read would issue. A warm
	// re-open, whose cache still holds that window, asks only for the
	// attributes that revalidate it.
	read := readNone
	if f.readable && flag&(os.O_CREATE|os.O_TRUNC) == 0 && !c.dataCache.disabled {
		read = readUncached
	}
	seq, inv := c.flushClock.Load(), c.invalClock.Load()
	t, err := c.resolveLeaf(ctx, path, read)
	attr := t.attr
	switch {
	case err == nil:
		if flag&(os.O_CREATE|os.O_EXCL) == os.O_CREATE|os.O_EXCL {
			return nil, fmt.Errorf("core: open %s: %w", path, vfs.ErrExist)
		}
		if attr.Type == vfs.TypeDir {
			return nil, fmt.Errorf("core: open %s: %w", path, vfs.ErrIsDir)
		}
		if flag&os.O_TRUNC != 0 && f.writable {
			sa := nfs.NewSAttr()
			sa.Size = 0
			if attr, err = c.shardOf(attr.Handle).attrc(ctx).SetAttr(ctx, attr.Handle, sa); err != nil {
				return nil, c.wireError(err)
			}
		}
	case nfs.StatOf(err) == nfs.ErrNoEnt && t.name != "" && flag&os.O_CREATE != 0:
		attr, f.cred, err = c.CreateWithCredential(ctx, t.dir, t.name, 0o644)
		if err != nil {
			return nil, err
		}
	default:
		return nil, c.wireError(err)
	}
	c.finishOpen(f, attr, seq, inv, t.first)
	return f, nil
}

// OpenHandle opens a File directly on an NFS handle, bypassing path
// resolution — for tools and benchmarks that already hold handles. flag
// takes the access bits (os.O_RDONLY, os.O_WRONLY, os.O_RDWR) plus
// os.O_APPEND; creation flags are not supported.
func (c *Client) OpenHandle(ctx context.Context, h vfs.Handle, flag int) (*File, error) {
	acc := flag & (os.O_RDONLY | os.O_WRONLY | os.O_RDWR)
	f := &File{
		c:        c,
		ctx:      ctx,
		path:     fmt.Sprintf("handle:%d.%d", h.Ino, h.Gen),
		readable: acc == os.O_RDONLY || acc == os.O_RDWR,
		writable: acc == os.O_WRONLY || acc == os.O_RDWR,
		append_:  flag&os.O_APPEND != 0,
	}
	seq := c.flushClock.Load()
	attr, err := c.shardOf(h).attrc(ctx).Revalidate(ctx, h)
	if err != nil {
		return nil, c.wireError(err)
	}
	if attr.Type == vfs.TypeDir {
		return nil, fmt.Errorf("core: open %s: %w", f.path, vfs.ErrIsDir)
	}
	c.finishOpen(f, attr, seq, 0, nfs.LookupReadResult{})
	return f, nil
}

// finishOpen binds the opened attributes to f and, when the data cache
// is enabled, attaches the handle's cache after the close-to-open
// revalidation: attr is what the server reported for the file in the
// RPC that opened it (the leaf LOOKUP or LOOKUPREAD, or the
// SETATTR/CREATE that followed), and its mtime/size is compared against
// the cache's validator, invalidating stale pages. seq and inv are the
// client's clocks read before that RPC, and first its READ half.
func (c *Client) finishOpen(f *File, attr vfs.Attr, seq, inv uint64, first nfs.LookupReadResult) {
	f.h = attr.Handle
	f.sh = c.shardOf(attr.Handle)
	if c.dataCache.disabled {
		f.size.Store(int64(attr.Size))
	} else {
		hc := c.openCache(attr.Handle)
		hc.revalidate(attr, seq, inv, first)
		f.dc = hc
	}
	if f.append_ {
		f.pos = f.Size()
	}
}

// Handle returns the file's NFS handle.
func (f *File) Handle() vfs.Handle { return f.h }

// Name returns the path the file was opened with.
func (f *File) Name() string { return f.path }

// Credential returns the creator credential text when Open created the
// file (os.O_CREATE on a missing path), and "" otherwise.
func (f *File) Credential() string { return f.cred }

// Size returns the file size as this client sees it: the last size
// observed from the server plus any unflushed local writes.
func (f *File) Size() int64 {
	if f.dc != nil {
		return f.dc.logicalSize()
	}
	return f.size.Load()
}

// Stat returns the file's attributes — served from the client's
// attribute cache within its TTL when the data cache is enabled (as
// stat on an NFS mount is), fresh from the server otherwise. The
// reported size always reflects unflushed local writes.
func (f *File) Stat() (vfs.Attr, error) {
	if err := f.checkOpen(); err != nil {
		return vfs.Attr{}, err
	}
	var attr vfs.Attr
	var err error
	if f.dc != nil {
		attr, err = f.sh.attrc(f.ctx).GetAttr(f.ctx, f.h)
	} else {
		attr, err = f.sh.nfsc(f.ctx).GetAttr(f.ctx, f.h)
	}
	if err != nil {
		return vfs.Attr{}, f.c.wireError(err)
	}
	f.size.Store(int64(attr.Size))
	if f.dc != nil {
		if sz := f.dc.logicalSize(); sz > int64(attr.Size) {
			attr.Size = uint64(sz)
		}
	}
	return attr, nil
}

var errClosed = fmt.Errorf("core: file already closed")

// Read implements io.Reader, advancing the cursor. On the cached path a
// single call may return more than one NFS transfer's worth of data.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, errClosed
	}
	if !f.readable {
		return 0, fmt.Errorf("core: %s not opened for reading: %w", f.path, vfs.ErrPerm)
	}
	n, err := f.readChunk(p, f.pos)
	f.pos += int64(n)
	return n, err
}

// ReadAt implements io.ReaderAt; it does not move the cursor, and
// concurrent positioned reads proceed in parallel. Unlike Read it loops
// until p is full or the file ends, per the io.ReaderAt contract.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if !f.readable {
		return 0, fmt.Errorf("core: %s not opened for reading: %w", f.path, vfs.ErrPerm)
	}
	total := 0
	for total < len(p) {
		n, err := f.readChunk(p[total:], off+int64(total))
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// checkOpen reports errClosed once Close has run.
func (f *File) checkOpen() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errClosed
	}
	return nil
}

// readChunk serves one read at off: from the data cache when enabled,
// otherwise as a single READ of at most the negotiated transfer size.
func (f *File) readChunk(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if f.dc != nil {
		return f.dc.readAt(f.ctx, p, off)
	}
	if off > math.MaxUint32 {
		return 0, fmt.Errorf("core: offset %d beyond NFSv2 range: %w", off, vfs.ErrFBig)
	}
	count := uint32(len(p))
	nc := f.sh.nfsc(f.ctx)
	if max := nc.MaxData(); count > max {
		count = max
	}
	n, attr, err := nc.ReadInto(f.ctx, f.h, uint32(off), p[:count])
	if err != nil {
		return 0, f.c.wireError(err)
	}
	f.size.Store(int64(attr.Size))
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Write implements io.Writer, advancing the cursor. The full slice is
// written (in negotiated-transfer chunks) or an error is returned; on
// the cached path "written" means buffered for write-behind, with
// errors deferred to Sync/Close.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, errClosed
	}
	if f.append_ {
		f.pos = f.Size()
	}
	n, err := f.writeAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

// WriteAt implements io.WriterAt; it does not move the cursor, and
// concurrent positioned writes proceed in parallel.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	return f.writeAt(p, off)
}

// writeAt chunks p into WRITEs starting at off (cached: buffers into
// the write-behind queue).
func (f *File) writeAt(p []byte, off int64) (int, error) {
	if !f.writable {
		return 0, fmt.Errorf("core: %s not opened for writing: %w", f.path, vfs.ErrPerm)
	}
	if f.dc != nil {
		return f.dc.writeAt(f.ctx, p, off)
	}
	nc := f.sh.nfsc(f.ctx)
	step := int(nc.MaxData())
	total := 0
	for total < len(p) {
		end := total + step
		if end > len(p) {
			end = len(p)
		}
		at := off + int64(total)
		if at > math.MaxUint32 {
			return total, fmt.Errorf("core: offset %d beyond NFSv2 range: %w", at, vfs.ErrFBig)
		}
		attr, err := nc.Write(f.ctx, f.h, uint32(at), p[total:end])
		if err != nil {
			return total, f.c.wireError(err)
		}
		f.size.Store(int64(attr.Size))
		f.wrote.Store(true)
		total = end
	}
	return total, nil
}

// commitUncached issues the COMMIT durability barrier for the uncached
// path: against a write-behind server the synchronous WRITEs above were
// only unstable. It goes through the attribute cache, which keeps the
// reply's size and mtime. No-op when the File has not written.
func (f *File) commitUncached() error {
	if !f.wrote.Swap(false) {
		return nil
	}
	if _, _, err := f.sh.attrc(f.ctx).Commit(f.ctx, f.h); err != nil {
		// The barrier did not happen: re-arm so a retried Sync/Close
		// issues the COMMIT again instead of reporting durability it
		// never got.
		f.wrote.Store(true)
		return f.c.wireError(err)
	}
	return nil
}

// Seek implements io.Seeker. Seeking relative to the end fetches fresh
// attributes so concurrent writers are observed. A seek only moves the
// cursor: it starts no flush of buffered writes.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, errClosed
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		attr, err := f.sh.nfsc(f.ctx).GetAttr(f.ctx, f.h)
		if err != nil {
			return 0, f.c.wireError(err)
		}
		f.size.Store(int64(attr.Size))
		base = int64(attr.Size)
		if f.dc != nil {
			if sz := f.dc.logicalSize(); sz > base {
				base = sz
			}
		}
	default:
		return 0, fmt.Errorf("core: seek: invalid whence %d: %w", whence, vfs.ErrInval)
	}
	pos := base + offset
	if pos < 0 {
		return 0, fmt.Errorf("core: seek to %d: %w", pos, vfs.ErrInval)
	}
	f.pos = pos
	return pos, nil
}

// Sync drains the write-behind queue, runs the COMMIT durability
// barrier, and returns the first deferred write error — the error
// barrier, as fsync(2) is on a real NFS mount. Without the data cache
// every write is already synchronous (but, against a server with
// write-behind enabled, still unstable), so Sync reduces to the COMMIT.
func (f *File) Sync() error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	if f.dc == nil {
		return f.commitUncached()
	}
	return f.dc.sync(f.ctx)
}

// Truncate resizes the file, draining buffered writes first.
func (f *File) Truncate(size int64) error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	if !f.writable {
		return fmt.Errorf("core: %s not opened for writing: %w", f.path, vfs.ErrPerm)
	}
	if size < 0 || size > math.MaxUint32 {
		return fmt.Errorf("core: truncate to %d: %w", size, vfs.ErrInval)
	}
	if f.dc != nil {
		if err := f.dc.sync(f.ctx); err != nil {
			return err
		}
	}
	sa := nfs.NewSAttr()
	sa.Size = uint32(size)
	attr, err := f.sh.attrc(f.ctx).SetAttr(f.ctx, f.h, sa)
	if err != nil {
		return f.c.wireError(err)
	}
	f.size.Store(int64(attr.Size))
	if f.dc != nil {
		f.dc.truncate(attr)
	}
	return nil
}

// Close drains the write-behind queue, releases the handle, and returns
// the first deferred write error — the error barrier of close(2) on an
// NFS mount. NFSv2 itself is stateless, so no release RPC is issued.
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errClosed
	}
	f.closed = true
	f.mu.Unlock()
	if f.dc == nil {
		return f.commitUncached()
	}
	err := f.dc.sync(f.ctx)
	f.dc.release()
	return err
}

var (
	_ io.ReadWriteSeeker = (*File)(nil)
	_ io.ReaderAt        = (*File)(nil)
	_ io.WriterAt        = (*File)(nil)
	_ io.Closer          = (*File)(nil)
)
