package nfs

// Server-side write gathering: the NFSv3 unstable-write model bolted
// onto this server's v2-era protocol. WRITE buffers into a per-file
// queue and returns immediately; a pool of background committers
// coalesces adjacent blocks into large backing-store writes; the COMMIT
// procedure (ProcCommit, an extension slot beyond RFC 1094) is the
// durability barrier that drains the file's queue and flushes the
// device's volatile cache. A boot verifier returned by every COMMIT
// lets clients detect a server restart that lost buffered writes and
// replay them — the NFSv3 writeverf3 mechanism.
//
// The gather layer sits directly above the backing store (below the
// per-principal policy views), so buffered bytes are shared server
// state: any reader, on any connection, sees them merged over the
// backing data immediately.

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"discfs/internal/bufpool"
	"discfs/internal/vfs"
)

// Committer is an optional vfs.FS capability: the COMMIT durability
// barrier. Commit drains any buffered writes for h to stable storage
// and returns the server's boot verifier with the file's post-commit
// attributes.
type Committer interface {
	Commit(h vfs.Handle) (uint64, vfs.Attr, error)
}

// CommitFS commits h on fs: through its Committer capability when
// present, and as a plain sync-plus-getattr barrier otherwise (a server
// without write-behind holds nothing volatile, so its verifier is the
// stable zero value).
func CommitFS(fs vfs.FS, h vfs.Handle) (uint64, vfs.Attr, error) {
	if c, ok := fs.(Committer); ok {
		return c.Commit(h)
	}
	if err := fs.Sync(); err != nil {
		return 0, vfs.Attr{}, err
	}
	a, err := fs.GetAttr(h)
	return 0, a, err
}

// GatherConfig parameterizes NewGatherFS. The zero value means
// "enabled with defaults".
type GatherConfig struct {
	// QueueBlocks bounds the memory the queued writes of all files hold,
	// in MaxData-sized blocks; writers are throttled beyond it. Default
	// 1024 (8 MiB).
	QueueBlocks int
	// Committers is the background committer pool size. Default 2.
	Committers int
	// maxRunBlocks caps one coalesced backing write, in blocks:
	// DefaultMaxTransfer/MaxData (63, 504 KiB), so a full run is exactly
	// what one large WRITE carries. Tests shrink it to force run
	// boundaries.
	maxRunBlocks int
}

func (c GatherConfig) normalized() GatherConfig {
	if c.QueueBlocks <= 0 {
		c.QueueBlocks = 1024
	}
	if c.Committers <= 0 {
		c.Committers = 2
	}
	if c.maxRunBlocks <= 0 {
		c.maxRunBlocks = DefaultMaxTransfer / MaxData
	}
	return c
}

// newVerifier draws a boot verifier: random, never zero.
func newVerifier() uint64 {
	var b [8]byte
	v := uint64(time.Now().UnixNano())
	if _, err := rand.Read(b[:]); err == nil {
		v = binary.BigEndian.Uint64(b[:])
	}
	return max(v, 1)
}

// GatherStats is a snapshot of the gather layer's work.
type GatherStats struct {
	// QueueDepth is the memory the queue holds right now, in bytes:
	// every buffer a queued extent is cut from, at its full capacity.
	QueueDepth int
	// WritesGathered counts WRITE operations absorbed into the queue.
	WritesGathered uint64
	// BackendWrites counts coalesced writes issued to the backing
	// store; WritesGathered/BackendWrites is the gathering ratio.
	BackendWrites uint64
	// Commits counts COMMIT barriers served.
	Commits uint64
}

// payload is the bytes of one WRITE in a pooled buffer. The extents cut
// from it (whole, or the pieces left when a later write overlaps or a
// flush splits it) and the readers overlaying them each hold a
// reference; the buffer returns to the pool when the last one lets go.
type payload struct {
	buf  []byte // as bufpool.Get returned it: Put needs the full capacity
	refs atomic.Int32
	// queued counts the extents in files' queues cut from buf; while it
	// is non-zero the buffer's capacity counts against the queue bound.
	// Guarded by GatherFS.mu.
	queued int
}

func (p *payload) release() {
	if p.refs.Add(-1) == 0 {
		bufpool.Put(p.buf)
	}
}

// extent is one contiguous run of buffered bytes: a window into a
// payload, which it holds a reference to. Extents in a file's queue are
// sorted and disjoint; adjacent ones stay separate until a flush writes
// them as one run. The bytes are never mutated after publication, so
// readers that took their own reference may copy them outside the lock.
type extent struct {
	off  uint64
	data []byte
	src  *payload
}

func (e extent) end() uint64 { return e.off + uint64(len(e.data)) }

// slice returns the part [lo, hi) of e (file offsets) with a reference
// of its own.
func (e extent) slice(lo, hi uint64) extent {
	e.src.refs.Add(1)
	return extent{off: lo, data: e.data[lo-e.off : hi-e.off], src: e.src}
}

func releaseAll(exts []extent) {
	for _, e := range exts {
		e.src.release()
	}
}

// gfile is the pending state of one file.
type gfile struct {
	exts      []extent
	inflight  []extent  // run dequeued for a backing write still in flight; readers merge it under exts
	pendEnd   uint64    // max buffered end offset
	pendMtime time.Time // last buffered write
	attr      vfs.Attr  // last attributes observed from the backing store; Size is its EOF
	flushing  bool      // a committer (or commit barrier) owns the flush
	werr      error     // first deferred backing write error since the last barrier
}

// GatherFS wraps a backing vfs.FS with server-side write-behind. It
// implements vfs.FS and Committer.
type GatherFS struct {
	backing vfs.FS
	cfg     GatherConfig

	verifier atomic.Uint64

	mu      sync.Mutex
	cond    *sync.Cond
	files   map[vfs.Handle]*gfile
	pinned  int // bytes of buffer the queued extents of all files hold
	workers int
	stopped bool

	gathered      atomic.Uint64
	backendWrites atomic.Uint64
	commits       atomic.Uint64
	// landed counts flushes whose backing write has landed; attributes
	// read from the store while it moved may predate the flush.
	landed atomic.Uint64
}

var (
	_ vfs.FS    = (*GatherFS)(nil)
	_ Committer = (*GatherFS)(nil)
)

// NewGatherFS stacks the write-gathering layer over backing.
func NewGatherFS(backing vfs.FS, cfg GatherConfig) *GatherFS {
	g := &GatherFS{
		backing: backing,
		cfg:     cfg.normalized(),
		files:   make(map[vfs.Handle]*gfile),
	}
	g.verifier.Store(newVerifier())
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Backing returns the wrapped filesystem.
func (g *GatherFS) Backing() vfs.FS { return g.backing }

// Verifier returns the current boot verifier.
func (g *GatherFS) Verifier() uint64 { return g.verifier.Load() }

// Stats returns a snapshot of the layer's counters.
func (g *GatherFS) Stats() GatherStats {
	g.mu.Lock()
	depth := g.pinned
	g.mu.Unlock()
	return GatherStats{
		QueueDepth:     depth,
		WritesGathered: g.gathered.Load(),
		BackendWrites:  g.backendWrites.Load(),
		Commits:        g.commits.Load(),
	}
}

// Reboot simulates (or administratively forces) the post-restart state:
// a fresh boot verifier and, when dropPending is true, the loss of
// every buffered-but-uncommitted write. Clients detect the verifier
// change at their next COMMIT and replay uncommitted data, exactly as
// NFSv3 clients do after a server crash.
func (g *GatherFS) Reboot(dropPending bool) {
	g.mu.Lock()
	g.verifier.Store(newVerifier())
	if dropPending {
		for h, f := range g.files {
			g.dropQueuedLocked(f)
			f.werr = nil
			if !f.flushing {
				delete(g.files, h)
			}
		}
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// dropQueuedLocked discards f's queued extents (never the in-flight
// run, which its flush still owns). Caller holds g.mu.
func (g *GatherFS) dropQueuedLocked(f *gfile) {
	g.dequeuedLocked(f.exts)
	releaseAll(f.exts)
	f.exts = nil
}

// ---- buffering ----

// enqueuedLocked and dequeuedLocked account for extents entering and
// leaving a file's queue. What counts against the queue bound is the
// memory held, not the bytes that still show: a buffer counts whole,
// once, for as long as any queued extent is cut from it, so a stream of
// tiny or mostly overwritten WRITEs cannot pin more than the bound.
func (g *GatherFS) enqueuedLocked(exts []extent) {
	for _, e := range exts {
		if e.src.queued == 0 {
			g.pinned += cap(e.src.buf)
		}
		e.src.queued++
	}
}

func (g *GatherFS) dequeuedLocked(exts []extent) {
	for _, e := range exts {
		if e.src.queued--; e.src.queued == 0 {
			g.pinned -= cap(e.src.buf)
		}
	}
}

// insertLocked queues e in f's extent list, newest data winning on
// overlap; it takes over e's reference. Caller holds g.mu. No byte is
// copied: an older extent the new one overlaps is cut back to the
// pieces that still show.
func (g *GatherFS) insertLocked(f *gfile, e extent) {
	// Extents [i, j) overlap e.
	i := sort.Search(len(f.exts), func(k int) bool { return f.exts[k].end() > e.off })
	j := i
	for j < len(f.exts) && f.exts[j].off < e.end() {
		j++
	}
	var pieces [3]extent
	repl := pieces[:0]
	if i < j {
		if first := f.exts[i]; first.off < e.off {
			repl = append(repl, first.slice(first.off, e.off))
		}
	}
	repl = append(repl, e)
	if i < j {
		if last := f.exts[j-1]; last.end() > e.end() {
			repl = append(repl, last.slice(e.end(), last.end()))
		}
	}
	g.enqueuedLocked(repl)
	g.dequeuedLocked(f.exts[i:j])
	releaseAll(f.exts[i:j])
	f.exts = slices.Replace(f.exts, i, j, repl...)
	if e.end() > f.pendEnd {
		f.pendEnd = e.end()
	}
}

// headRun sizes the run of adjacent whole extents at the head of the
// queue that one backing write of at most maxRun bytes can carry — an
// extent larger than that counts alone, to be split. closed reports
// that the run cannot gather any more: it is full, or the adjacent
// extent after it does not fit.
func (f *gfile) headRun(maxRun int) (k, total int, closed bool) {
	for k < len(f.exts) {
		e := f.exts[k]
		if k > 0 && e.off != f.exts[k-1].end() {
			return k, total, false
		}
		if k > 0 && total+len(e.data) > maxRun {
			return k, total, true
		}
		total += len(e.data)
		k++
		if total >= maxRun {
			return k, total, true
		}
	}
	return k, total, false
}

// overlayAttr rewrites a to reflect buffered state. Caller holds g.mu.
func (f *gfile) overlayAttr(a vfs.Attr) vfs.Attr {
	if f.pendEnd > a.Size {
		a.Size = f.pendEnd
	}
	if f.pendMtime.After(a.Mtime) {
		a.Mtime = f.pendMtime
		a.Ctime = f.pendMtime
	}
	return a
}

// Write implements vfs.FS: an unstable write. The data is buffered and
// acknowledged immediately; it reaches the backing store through the
// committer pool and becomes durable at the next COMMIT.
func (g *GatherFS) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	if len(data) == 0 {
		return g.GetAttr(h)
	}
	// The one copy of the gather layer, made before the lock is taken:
	// data belongs to the caller (the RPC record is recycled when the
	// handler returns), the queue keeps its own in a pooled buffer.
	p := &payload{buf: bufpool.Get(len(data))}
	copy(p.buf, data)
	p.refs.Store(1)
	queued := false
	defer func() {
		if !queued {
			p.release() // a path below bypassed the queue
		}
	}()

	g.mu.Lock()
	if g.stopped {
		return g.writeThroughStoppedLocked(h, off, data)
	}
	f := g.files[h]
	if f == nil {
		// First write to this handle: validate it synchronously so WRITE
		// to a directory or a stale handle fails now, not at COMMIT.
		g.mu.Unlock()
		a, err := g.backing.GetAttr(h)
		if err != nil {
			return vfs.Attr{}, err
		}
		if a.Type == vfs.TypeDir {
			return vfs.Attr{}, vfs.ErrIsDir
		}
		if a.Type != vfs.TypeRegular {
			// Symlinks and exotica skip the gather path.
			return g.backing.Write(h, off, data)
		}
		g.mu.Lock()
		if g.stopped {
			return g.writeThroughStoppedLocked(h, off, data)
		}
		if f = g.files[h]; f == nil {
			f = &gfile{attr: a}
			g.files[h] = f
		}
	}
	queued = true
	g.insertLocked(f, extent{off: off, data: p.buf, src: p})
	f.pendMtime = time.Now()
	attr := f.overlayAttr(f.attr)
	g.gathered.Add(1)
	g.ensureWorkersLocked()
	g.cond.Broadcast()
	// Throttle once the queue bound is exceeded; committers drain it.
	for g.pinned > g.cfg.QueueBlocks*MaxData && !g.stopped {
		g.cond.Wait()
	}
	g.mu.Unlock()
	return attr, nil
}

// writeThroughStoppedLocked handles a Write issued after Close():
// buffering now would leave data no committer will ever drain, so the
// write goes through to the backing store synchronously — after any
// extents that raced the Close drain have landed, keeping the layer's
// newest-wins ordering (the committers must not flush an older queued
// extent over these bytes). Caller holds g.mu; it is released.
func (g *GatherFS) writeThroughStoppedLocked(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	var err error
	if f := g.files[h]; f != nil {
		err = g.drainLocked(h, f)
	}
	g.mu.Unlock()
	if err != nil {
		return vfs.Attr{}, err
	}
	return g.backing.Write(h, off, data)
}

// ---- committing ----

func (g *GatherFS) ensureWorkersLocked() {
	for g.workers < g.cfg.Committers {
		g.workers++
		go g.committer()
	}
}

// pickLocked returns a file whose buffered data should flush now. To
// maximize gathering, background committers run only under queue
// pressure (above half the bound) or when a file's head run can gather
// no more (it fills a backing write, or the next adjacent extent would
// overflow it); otherwise data waits for its COMMIT barrier, which
// drains inline — small writes therefore coalesce for as long as NFS
// semantics allow.
//
// Nor do they open a hole: a file whose head extent starts past the
// store's EOF (f.attr.Size) waits while the WRITE that fills the gap is
// still on its way — a client flushes one file's windows on several
// connections, so WRITE n+1 often arrives before WRITE n. Written now,
// the run would make the store fill the gap (dedup chunks zeros) only
// for WRITE n to rewrite it. Such a run flushes once the hole fills,
// under pressure, or at a barrier (COMMIT, Sync, SetAttr, Close), which
// writes it hole and all.
func (g *GatherFS) pickLocked() (vfs.Handle, *gfile) {
	// After stop, anything still queued (a write that raced Close) must
	// drain unconditionally — no further barrier will come for it.
	pressure := g.stopped || g.pinned > g.cfg.QueueBlocks*MaxData/2
	maxRun := g.cfg.maxRunBlocks * MaxData
	for h, f := range g.files {
		if f.flushing || len(f.exts) == 0 {
			continue
		}
		if pressure {
			return h, f
		}
		if f.exts[0].off > f.attr.Size {
			continue
		}
		if _, _, closed := f.headRun(maxRun); closed {
			return h, f
		}
	}
	return vfs.Handle{}, nil
}

// flushOneLocked takes the head run of f (adjacent extents, up to
// maxRunBlocks) and writes it to the backing store, releasing g.mu
// around the write. Caller holds g.mu; f must not be flushing. The
// per-file flushing flag keeps backing writes for one file ordered,
// which makes the queue's newest-wins semantics carry over to the
// backing store.
//
// A run of one extent is written from its payload as it stands; a run
// of several is coalesced here, once, into a pooled buffer — the only
// time a gathered byte is copied again.
func (g *GatherFS) flushOneLocked(h vfs.Handle, f *gfile) {
	maxRun := g.cfg.maxRunBlocks * MaxData
	k, total, _ := f.headRun(maxRun)
	// Keep the dequeued run visible to the read path until the backing
	// write lands: the WRITEs that buffered it were already
	// acknowledged, so a READ in this window must still see the bytes.
	f.inflight = append(f.inflight[:0], f.exts[:k]...)
	if total > maxRun {
		// One extent larger than a backing write: flush its head, leave
		// the tail queued. Both are windows into the same payload, which
		// stays accounted to the queue.
		e := f.exts[0]
		cut := e.off + uint64(maxRun)
		f.inflight[0] = e.slice(e.off, cut)
		f.exts[0] = e.slice(cut, e.end())
		e.src.release()
		total = maxRun
	} else {
		g.dequeuedLocked(f.exts[:k])
		f.exts = f.exts[k:]
	}
	f.flushing = true
	run := f.inflight
	g.mu.Unlock()

	off, data := run[0].off, run[0].data
	var joined []byte
	if len(run) > 1 {
		joined = bufpool.Get(total)
		n := 0
		for _, e := range run {
			n += copy(joined[n:], e.data)
		}
		data = joined
	}
	attr, err := g.backing.Write(h, off, data)
	bufpool.Put(joined)
	g.backendWrites.Add(1)

	g.mu.Lock()
	g.landed.Add(1)
	f.flushing = false
	releaseAll(f.inflight)
	clear(f.inflight) // drop the payload pointers with the references
	f.inflight = f.inflight[:0]
	if err != nil {
		if errors.Is(err, vfs.ErrStale) {
			// The file is gone (removed or replaced under buffered
			// writes): the remaining extents can never land, and a sticky
			// error would pin the entry in g.files until some client
			// COMMITs the dead handle. Drop the state instead — COMMIT
			// and Sync on the handle still observe staleness through the
			// backing GetAttr.
			g.dropQueuedLocked(f)
		} else if f.werr == nil {
			// The buffered write is lost; the error surfaces at the next
			// COMMIT barrier, as a deferred write error does on a client.
			f.werr = err
		}
	} else {
		f.attr = attr
	}
	if len(f.exts) == 0 && f.werr == nil && g.files[h] == f {
		delete(g.files, h)
	}
	g.cond.Broadcast()
}

// committer is one background flush worker.
func (g *GatherFS) committer() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		h, f := g.pickLocked()
		if f == nil {
			if g.stopped && g.pinned == 0 {
				g.workers--
				return
			}
			g.cond.Wait()
			continue
		}
		g.flushOneLocked(h, f)
	}
}

// drainLocked flushes every buffered extent of f inline and waits out
// concurrent flushes, then returns (and clears) the sticky error.
// Caller holds g.mu.
func (g *GatherFS) drainLocked(h vfs.Handle, f *gfile) error {
	for {
		if len(f.exts) > 0 && !f.flushing {
			g.flushOneLocked(h, f)
			continue
		}
		if f.flushing {
			g.cond.Wait()
			continue
		}
		break
	}
	err := f.werr
	f.werr = nil
	if g.files[h] == f && len(f.exts) == 0 {
		delete(g.files, h)
	}
	return err
}

// Commit implements Committer: the durability barrier behind the COMMIT
// procedure. It drains h's buffered writes to the backing store,
// flushes the store's volatile device cache, and returns the boot
// verifier with fresh attributes.
func (g *GatherFS) Commit(h vfs.Handle) (uint64, vfs.Attr, error) {
	g.commits.Add(1)
	g.mu.Lock()
	var err error
	if f := g.files[h]; f != nil {
		err = g.drainLocked(h, f)
	}
	g.mu.Unlock()
	ver := g.verifier.Load()
	if err != nil {
		return ver, vfs.Attr{}, err
	}
	if err := g.backing.Sync(); err != nil {
		return ver, vfs.Attr{}, err
	}
	a, err := g.backing.GetAttr(h)
	if err != nil {
		return ver, vfs.Attr{}, err
	}
	return ver, a, nil
}

// Sync implements vfs.FS: a full barrier draining every file,
// whether or not the committers would have flushed it yet. A file
// removed under buffered writes is benign here: its stale flush drops
// the buffered state without recording an error, and staleness
// surfaces on the dead handle's own COMMIT (through the backing
// GetAttr), not on the whole-server barrier.
func (g *GatherFS) Sync() error {
	var first error
	g.mu.Lock()
	for {
		var h vfs.Handle
		var f *gfile
		for hh, ff := range g.files {
			if len(ff.exts) > 0 || ff.flushing || ff.werr != nil {
				h, f = hh, ff
				break
			}
		}
		if f == nil {
			break
		}
		if err := g.drainLocked(h, f); err != nil && first == nil {
			first = err
		}
		if g.files[h] == f && len(f.exts) == 0 && !f.flushing {
			delete(g.files, h) // drained clean; drop the tracking entry
		}
	}
	g.mu.Unlock()
	if err := g.backing.Sync(); err != nil && first == nil {
		first = err
	}
	return first
}

// Close drains all buffered writes and stops the committer pool.
func (g *GatherFS) Close() error {
	err := g.Sync()
	g.mu.Lock()
	g.stopped = true
	g.cond.Broadcast()
	g.mu.Unlock()
	return err
}

// ---- read-side merging ----

// Read implements vfs.FS.
func (g *GatherFS) Read(h vfs.Handle, off uint64, count uint32) ([]byte, bool, error) {
	return vfs.ReadAlloc(g, h, off, count)
}

// ReadInto implements vfs.FS, overlaying buffered extents on the backing
// data so every principal reads its (and everyone's) unstable writes:
// the backing store's own zero-copy path fills dst, and a file with
// buffered state has its extents copied over that in place. The
// extents are pinned before the backing read, so one a flush lands in
// between is still overlaid (with the same bytes the store now holds).
func (g *GatherFS) ReadInto(h vfs.Handle, off uint64, dst []byte) (int, bool, error) {
	end := off + uint64(len(dst))
	var pinned []extent
	var pendEnd uint64
	g.mu.Lock()
	if f := g.files[h]; f != nil {
		// The in-flight run first: it is older than anything still
		// queued, so queued extents copied after it win on overlap.
		for _, list := range [2][]extent{f.inflight, f.exts} {
			for _, e := range list {
				if e.end() > off && e.off < end {
					pinned = append(pinned, e.slice(max(e.off, off), min(e.end(), end)))
				}
			}
		}
		pendEnd = f.pendEnd
	}
	g.mu.Unlock()
	defer releaseAll(pinned)

	n, eof, err := g.backing.ReadInto(h, off, dst)
	if err != nil {
		return 0, false, err
	}
	// Buffered bytes can extend the file past what the store holds; the
	// gap between the two reads as zeros.
	if lim := min(pendEnd, end); lim > off+uint64(n) {
		clear(dst[n : lim-off])
		n = int(lim - off)
	}
	for _, e := range pinned {
		copy(dst[e.off-off:], e.data)
	}
	return n, eof && pendEnd <= off+uint64(n), nil
}

// GetAttr implements vfs.FS with buffered size/mtime overlay.
func (g *GatherFS) GetAttr(h vfs.Handle) (vfs.Attr, error) {
	seen := g.landed.Load()
	a, err := g.backing.GetAttr(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	return g.overlay(h, a, seen)
}

// overlay merges h's buffered state into a, read from the backing store
// after landed was seen at that value. With nothing buffered for h any
// more, a flush that landed meanwhile may have been h's last run and a
// may predate it — a size short of WRITEs already acknowledged, which a
// READ would clip to — so the store is asked again.
func (g *GatherFS) overlay(h vfs.Handle, a vfs.Attr, seen uint64) (vfs.Attr, error) {
	g.mu.Lock()
	f := g.files[h]
	if f != nil {
		a = f.overlayAttr(a)
	}
	g.mu.Unlock()
	if f == nil && g.landed.Load() != seen {
		return g.backing.GetAttr(h)
	}
	return a, nil
}

// SetAttr implements vfs.FS. Attribute changes — above all truncation —
// order against buffered writes by draining them first.
func (g *GatherFS) SetAttr(h vfs.Handle, s vfs.SetAttr) (vfs.Attr, error) {
	g.mu.Lock()
	var err error
	if f := g.files[h]; f != nil {
		err = g.drainLocked(h, f)
	}
	g.mu.Unlock()
	if err != nil {
		return vfs.Attr{}, err
	}
	a, err := g.backing.SetAttr(h, s)
	if err != nil {
		return a, err
	}
	// A WRITE racing this call may have queued a fresh entry holding the
	// size from before it: the EOF that holds runs back moves with it.
	g.mu.Lock()
	if f := g.files[h]; f != nil {
		f.attr = a
		g.cond.Broadcast()
	}
	g.mu.Unlock()
	return a, nil
}

// Lookup implements vfs.FS with buffered attribute overlay.
func (g *GatherFS) Lookup(dir vfs.Handle, name string) (vfs.Attr, error) {
	seen := g.landed.Load()
	a, err := g.backing.Lookup(dir, name)
	if err != nil {
		return vfs.Attr{}, err
	}
	return g.overlay(a.Handle, a, seen)
}

// ---- passthrough namespace operations ----

// Root implements vfs.FS.
func (g *GatherFS) Root() vfs.Handle { return g.backing.Root() }

// Create implements vfs.FS.
func (g *GatherFS) Create(dir vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	return g.backing.Create(dir, name, mode)
}

// discardIfGone drops the buffered extents of h when the inode no
// longer exists (removed with buffered writes outstanding): they can
// never land, and flushing them would only manufacture stale-handle
// noise. A surviving hard link keeps them.
func (g *GatherFS) discardIfGone(h vfs.Handle) {
	if _, err := g.backing.GetAttr(h); !errors.Is(err, vfs.ErrStale) {
		return
	}
	g.mu.Lock()
	if f := g.files[h]; f != nil {
		g.dropQueuedLocked(f)
		if !f.flushing {
			delete(g.files, h)
		}
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// Remove implements vfs.FS; buffered writes to the removed file (if it
// had no other links) are discarded. The Lookup/Remove pair is not
// atomic against a concurrent rename swapping the entry — a file
// unlinked through that race is reclaimed when its next flush or
// barrier observes ErrStale and drops the buffered state.
func (g *GatherFS) Remove(dir vfs.Handle, name string) error {
	target, lerr := g.backing.Lookup(dir, name)
	if err := g.backing.Remove(dir, name); err != nil {
		return err
	}
	if lerr == nil {
		g.discardIfGone(target.Handle)
	}
	return nil
}

// Rename implements vfs.FS. Buffered writes are keyed by handle, so
// they follow the file across the rename untouched; a replaced target
// has its buffered writes discarded with it.
func (g *GatherFS) Rename(fromDir vfs.Handle, fromName string, toDir vfs.Handle, toName string) error {
	dst, derr := g.backing.Lookup(toDir, toName)
	if err := g.backing.Rename(fromDir, fromName, toDir, toName); err != nil {
		return err
	}
	if derr == nil {
		g.discardIfGone(dst.Handle)
	}
	return nil
}

// Mkdir implements vfs.FS.
func (g *GatherFS) Mkdir(dir vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	return g.backing.Mkdir(dir, name, mode)
}

// Rmdir implements vfs.FS.
func (g *GatherFS) Rmdir(dir vfs.Handle, name string) error {
	return g.backing.Rmdir(dir, name)
}

// ReadDir implements vfs.FS.
func (g *GatherFS) ReadDir(dir vfs.Handle) ([]vfs.DirEntry, error) {
	return g.backing.ReadDir(dir)
}

// Symlink implements vfs.FS.
func (g *GatherFS) Symlink(dir vfs.Handle, name, target string, mode uint32) (vfs.Attr, error) {
	return g.backing.Symlink(dir, name, target, mode)
}

// Readlink implements vfs.FS.
func (g *GatherFS) Readlink(h vfs.Handle) (string, error) {
	return g.backing.Readlink(h)
}

// Link implements vfs.FS.
func (g *GatherFS) Link(dir vfs.Handle, name string, target vfs.Handle) (vfs.Attr, error) {
	return g.backing.Link(dir, name, target)
}

// StatFS implements vfs.FS.
func (g *GatherFS) StatFS() (vfs.StatFS, error) { return g.backing.StatFS() }
