package core

// The client-side data cache: a per-file page cache with sequential
// readahead and write-behind, the role the kernel page cache plays for
// real NFS clients. Without it every 8 KiB of file I/O costs one
// synchronous RPC round-trip — the dominant term in the paper's Figures
// 7-11 — so the cache is where the client wins throughput without
// touching the trust model: credentials are still checked on every RPC
// the server sees.
//
// What the cache remembers and what one RPC carries are separate, the
// way a kernel page cache sits under rsize/wsize. Residency, dirtiness,
// eviction and the unstable/COMMIT pin are per 8 KiB page; the
// connection's negotiated transfer size survives only as the cluster
// window that schedules I/O. A random miss or a partial-page write
// fetches just the pages the request touches; a sequential reader
// fetches to the end of its window and reads whole windows ahead; a
// flush worker waits for a transfer's worth of dirty pages and sends
// the runs it claims, up to one transfer of them, as one WRITEEXTENTS
// call.
//
// Consistency is close-to-open, exactly as NFS clients provide it:
//
//   - Open revalidates the file against the server (the attributes in
//     the reply to its leaf LOOKUP or LOOKUPREAD, which is never served
//     from cache); a changed mtime or size drops every clean cached page.
//   - Close (and Sync) drain the write-behind queue and return the first
//     deferred write error — the error barrier of write(2)-then-close on
//     a real NFS mount.
//
// Between open and close, reads may serve cached data that a concurrent
// remote writer has already overwritten, and writes may sit dirty on the
// client for a flush delay; a reader that needs another client's writes
// must open after the writer's close.

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"discfs/internal/bufpool"
	"discfs/internal/nfs"
	"discfs/internal/vfs"
)

// Process-global data-cache counters (like the buffer pool's): page
// lookups served from cache vs. fetched over RPC, summed across every
// client in the process. The server's metrics registry bridges them in,
// so a co-located client's hit rate shows up on /metrics.
var (
	dcHits   atomic.Uint64
	dcMisses atomic.Uint64
)

// DataCacheStats reports the process-wide data-cache page lookup
// counters (hits served locally, misses fetched over RPC).
func DataCacheStats() (hits, misses uint64) {
	return dcHits.Load(), dcMisses.Load()
}

const (
	// pageSize is the cache granule: the NFSv2 transfer size, which every
	// negotiated transfer is a whole multiple of.
	pageSize = nfs.MaxData
	// maxCachedBytes bounds the per-file cache footprint; clean pages
	// beyond it are evicted, dirty and unstable pages never are.
	maxCachedBytes = 16 << 20
	// writeBehindBytes is the write-behind window: the dirty data
	// buffered client-side before writers are throttled (a sliver of what
	// kernel page caches allow via vm.dirty_ratio, but enough to absorb
	// bursts whole). With maxUnstableBytes it fills maxCachedBytes.
	writeBehindBytes = 8 << 20
	// maxUnstableBytes bounds the flushed-but-uncommitted data pinned
	// in the cache: past it the writer issues an intermediate COMMIT,
	// the way kernel NFS clients bound dirty-plus-unstable pages, so a
	// streaming write cannot pin the whole file in memory until Sync.
	maxUnstableBytes = 8 << 20
	// maxDataRPCs bounds the data RPCs one file keeps in flight: how
	// many windows a sequential reader fetches ahead, and how many
	// goroutines flush its dirty pages. They pipeline through the
	// shard's one connection and the server's per-record dispatch.
	maxDataRPCs = 8
	// maxHandleCaches bounds how many files keep their cache after the
	// last close (retained so a re-open can revalidate instead of
	// refetching).
	maxHandleCaches = 64
	// idleCacheBytes bounds what those retained caches hold together:
	// past it the clean pages of the file closed longest ago go first.
	idleCacheBytes = maxCachedBytes
	// partialFlushDelay is how long dirty pages short of a transfer may
	// wait for more to join them before they are flushed anyway.
	partialFlushDelay = 50 * time.Millisecond
)

// dataCacheConfig parameterizes the cache; the zero value means
// "enabled with defaults".
type dataCacheConfig struct {
	disabled bool
	// Federation (rides here because ClientOption closes over this
	// struct): extra shard servers, static path grafts, and the
	// consistent-hash-sharded subtree. All empty for a classic
	// single-server client.
	fedServers []string
	fedGrafts  map[string]int
	fedSubtree string
}

// readBuf is the pooled buffer a READ landed in — the reply record, or
// the exact-size buffer a request-sized fetch read into — shared by the
// pages that alias it. It goes back to the pool when the last of them
// leaves the cache. refs is guarded by the handle cache's mutex.
type readBuf struct {
	buf  []byte
	refs int // resident pages aliasing buf, plus the fetch snapshot until its owner consumed it
}

func (r *readBuf) unref() {
	if r.refs--; r.refs == 0 {
		bufpool.Put(r.buf)
	}
}

// pageMem is where a page's bytes live: an 8 KiB pool buffer of the
// page's own, or a page-sized slice of a readBuf.
type pageMem struct {
	data []byte   // pageSize bytes; nil once released
	rb   *readBuf // the READ buffer data aliases; nil when data is the page's own
}

// release gives the memory back: the page's own buffer to the pool, an
// alias's reference to its READ buffer.
func (m *pageMem) release() {
	if m.rb != nil {
		m.rb.unref()
	} else if m.data != nil {
		bufpool.Put(m.data)
	}
	*m = pageMem{}
}

// ownPage returns d, zero-padded to a page, in a pool buffer of its own.
func ownPage(d []byte) []byte {
	b := bufpool.Get(pageSize)
	clear(b[copy(b, d):])
	return b
}

// page is one cached page. data is always pageSize bytes and wholly
// valid: bytes past the end of the file are zero. The page owns its
// memory from the moment it is installed until dropLocked.
type page struct {
	idx int64 // page number within the file
	pageMem
	// lent is the memory a writer detached the page from while a flush
	// had it on the wire (see cow): the flush's WRITE still reads it, so
	// it is released when that flush lands.
	lent pageMem

	// A page is on hc.clean while evictable, on hc.unstable while pinned
	// for COMMIT, and on neither while dirty but never yet flushed.
	list       *pageList
	prev, next *page
	ref        bool // re-read out of sequence since the eviction hand last passed

	dirty    bool
	gen      uint64 // bumped by every write; a flush only cleans its own generation
	flushGen uint64 // gen when the in-flight flush took its snapshot
	flushing bool
	// cow marks data as lent to an in-flight flush RPC: a writer that
	// wants to mutate the page first detaches onto a private copy (and
	// the lent memory moves to lent), so the flush reads a stable buffer
	// without snapshotting every flush.
	cow bool
	// unstable marks a page flushed to the server but not yet covered by
	// a COMMIT barrier: against a write-behind server the WRITE reply
	// promises nothing durable, so the page is pinned in the cache
	// (never evicted) until a COMMIT with an unchanged boot verifier
	// confirms it — or replayed if the verifier moved (the NFSv3 client
	// write path).
	unstable bool
	// flushedSeq is the flush-sequence number of the last completed
	// flush of this page. A COMMIT only confirms pages whose flush reply
	// preceded it (flushedSeq at most the sequence at COMMIT issue);
	// pages flushed while the COMMIT was on the wire stay unstable for
	// the next barrier.
	flushedSeq uint64
}

// pageList is an intrusive FIFO of pages.
type pageList struct{ head, tail *page }

func (l *pageList) pushBack(p *page) {
	p.list, p.prev, p.next = l, l.tail, nil
	if l.tail != nil {
		l.tail.next = p
	} else {
		l.head = p
	}
	l.tail = p
}

func (l *pageList) remove(p *page) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		l.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		l.tail = p.prev
	}
	p.list, p.prev, p.next = nil, nil, nil
}

// window is one cluster window: the transfer-aligned span of pages one
// RPC can carry. It indexes its resident pages in offset order and
// schedules their I/O; it exists only while it has pages or fetches.
type window struct {
	idx     int64   // window number within the file
	pages   []*page // one slot per page of the window; nil when not resident
	n       int     // resident pages
	ready   int     // dirty pages no flush has in flight
	queued  bool    // on hc.dirtyq
	fetches []*fetchState
}

// handleCache is the cache of one remote file, shared by every File a
// Client has open on the handle and retained across closes so a re-open
// can revalidate cheaply.
type handleCache struct {
	c  *Client
	sh *shard // the shard owning h; all cache RPCs go there
	h  vfs.Handle

	mu   sync.Mutex
	cond *sync.Cond // wakes flush workers, drain waiters and throttled writers

	// perWin is the cluster window in pages: the connection's negotiated
	// transfer size, so a whole window moves as exactly one READ/WRITE.
	perWin int64
	// The byte budgets above in this file's units: pages, except that
	// the unstable bound counts whole windows.
	maxPages    int
	maxUnstable int
	wbPages     int

	wins      map[int64]*window
	nPages    int
	clean     pageList // evictable pages; the head is the eviction hand
	unstable  pageList // pages awaiting COMMIT, in flush-completion order
	nFetching int      // in-flight READs
	inval     uint64   // invalidation epoch (Client.invalClock tick): stale in-flight fetches aren't cached

	// size is the logical file size: the server's size plus any
	// unflushed extension by local writes. Reads EOF against it.
	size int64
	// srvSize is the last size observed from the server, deciding which
	// pages exist server-side (fetch vs hole).
	srvSize uint64
	// valMtime/valSize are the close-to-open validator: the server state
	// the cached pages correspond to. Updated by revalidation and by
	// our own flush replies (so self-inflicted mtime changes do not
	// invalidate the cache on the next open).
	valMtime time.Time
	valSize  uint64
	haveVal  bool

	nDirty int // dirty pages, including those being flushed
	ready  int // dirty pages no flush has in flight: every window's ready, summed
	// dirtyq holds the windows with ready pages in the order they became
	// ready; entries whose ready count has since dropped to zero are
	// discarded when they reach the head.
	dirtyq    []*window
	nUnstable int // flushed-but-uncommitted pages (see page.unstable)
	// commitVer is the server boot verifier of the last COMMIT, and
	// before the first one the shard's verifier when the cache was
	// created: a baseline older than every WRITE the cache sends, so a
	// restart between a WRITE and the first COMMIT shows.
	commitVer  uint64
	committing bool // a writer-triggered intermediate COMMIT is pending; no new WRITE starts
	writing    int  // WRITE RPCs in flight
	draining   int  // >0: a Sync/Close is waiting, every dirty page is flush-eligible
	timerArmed bool
	lapsed     bool   // partialFlushDelay ran out with pages ready; cleared once none are
	flushSeq   uint64 // Client.flushClock tick of the latest flush completion; orders revalidations and COMMITs vs flushes
	werr       error  // first deferred write error since the last barrier

	refs    int  // open Files
	stopped bool // set when refs drop to zero or the client closes; workers exit once clean
	// idle marks a cache on Client.dcIdle, whose pages count towards the
	// idle budget (changed under both Client.dcMu and mu).
	idle    bool
	workers int

	// flushCtx bounds flush RPCs: the context of the most recent writer
	// (canceling it aborts in-flight flushes; the error surfaces at the
	// next barrier).
	flushCtx context.Context

	raNext  int64 // next expected sequential read offset
	raDepth int64 // windows the sequential stream reads ahead; 0 when there is none
}

// ---- Client-side registry ----

// openCache returns the (possibly retained) cache for h, creating it
// under the client's configuration, with one more open File counted on
// it.
func (c *Client) openCache(h vfs.Handle) *handleCache {
	c.dcMu.Lock()
	defer c.dcMu.Unlock()
	hc := c.dcaches[h]
	if hc == nil {
		hc = c.newHandleCache(h)
	}
	hc.mu.Lock()
	if hc.idle {
		hc.idle = false
		c.dcIdlePages.Add(-int64(hc.nPages))
		c.dcIdle = slices.DeleteFunc(c.dcIdle, func(x *handleCache) bool { return x == hc })
	}
	hc.refs++
	hc.stopped = false
	hc.mu.Unlock()
	return hc
}

// newHandleCache creates and registers the cache for h, first forgetting
// the caches of files closed longest ago while there are too many.
// Caller holds dcMu.
func (c *Client) newHandleCache(h vfs.Handle) *handleCache {
	for i := 0; len(c.dcaches) >= maxHandleCaches && i < len(c.dcIdle); {
		old := c.dcIdle[i]
		old.mu.Lock()
		if old.nDirty > 0 {
			old.mu.Unlock()
			i++
			continue
		}
		old.forgetLocked()
		old.idle = false
		old.mu.Unlock()
		c.dcIdle = slices.Delete(c.dcIdle, i, i+1)
		delete(c.dcaches, old.h)
	}
	sh := c.shardOf(h)
	xfer := int64(sh.xfer)
	if xfer == 0 {
		xfer = pageSize
	}
	hc := &handleCache{
		c:           c,
		sh:          sh,
		h:           h,
		commitVer:   sh.ver.Load(),
		perWin:      xfer / pageSize,
		maxPages:    maxCachedBytes / pageSize,
		maxUnstable: int(maxUnstableBytes / xfer * (xfer / pageSize)),
		wbPages:     writeBehindBytes / pageSize,
		wins:        make(map[int64]*window),
		flushCtx:    context.Background(),
	}
	hc.cond = sync.NewCond(&hc.mu)
	c.dcaches[h] = hc
	return hc
}

// trimIdleLocked drops the clean pages of closed files' caches, the file
// closed longest ago first, until together they hold at most
// idleCacheBytes. Caller holds dcMu.
func (c *Client) trimIdleLocked() {
	const budget = idleCacheBytes / pageSize
	for _, hc := range c.dcIdle {
		if c.dcIdlePages.Load() <= budget {
			return
		}
		hc.mu.Lock()
		for c.dcIdlePages.Load() > budget && hc.clean.head != nil {
			hc.dropLocked(hc.clean.head)
		}
		hc.mu.Unlock()
	}
}

// shutdownCaches releases every flush worker and every clean page;
// called from Client.Close. Dirty pages drain against the closed
// connection (each flush fails fast and is dropped), so workers exit
// promptly and the pages' memory returns to the pool.
func (c *Client) shutdownCaches() {
	c.dcMu.Lock()
	defer c.dcMu.Unlock()
	for _, hc := range c.dcaches {
		hc.mu.Lock()
		hc.stopped = true
		hc.dropCleanLocked()
		hc.cond.Broadcast()
		hc.mu.Unlock()
	}
}

// ---- lifecycle ----

// release drops a File's reference; the last release lets idle flush
// workers exit. The pages stay cached for the next open, within the
// budget all closed files' caches share.
func (hc *handleCache) release() {
	c := hc.c
	c.dcMu.Lock()
	defer c.dcMu.Unlock()
	hc.mu.Lock()
	hc.refs--
	if hc.refs <= 0 {
		hc.stopped = true
		hc.cond.Broadcast()
		if !hc.idle {
			hc.idle = true
			c.dcIdlePages.Add(int64(hc.nPages))
			c.dcIdle = append(c.dcIdle, hc)
		}
	}
	hc.mu.Unlock()
	c.trimIdleLocked()
}

// dropCleanLocked drops every clean page and keeps the fetches in flight
// from installing theirs.
func (hc *handleCache) dropCleanLocked() {
	for hc.clean.head != nil {
		hc.dropLocked(hc.clean.head)
	}
	hc.inval = hc.c.invalClock.Add(1)
}

// forgetLocked empties a cache no File has open and nothing dirty in,
// before the client forgets it: the pages awaiting COMMIT go as well,
// since no barrier will be run for them.
func (hc *handleCache) forgetLocked() {
	hc.dropCleanLocked()
	for hc.unstable.head != nil {
		hc.dropLocked(hc.unstable.head)
	}
}

// revalidate applies the close-to-open check against fresh server
// attributes: if the file changed under us (mtime or size moved and it
// wasn't our own flush), every clean page is dropped. Dirty pages are
// kept — they are this client's unflushed writes — and so are unstable
// ones, which must survive for replay. seq and inv are the client's
// flush and invalidation clocks read before the RPC that returned a.
//
// first is that RPC's READ half when it was a LOOKUPREAD; revalidate
// consumes its record. The bytes go in as a completed fetch of window 0,
// the one a first sequential read would issue, only if they are what it
// would bring: the cache was quiescent across the RPC, no window-0 page
// is resident, the READ saw the file the lookup saw, and no drop, this
// revalidation's included, has stamped the cache since inv. Else another
// open may have overtaken this reply and installed newer bytes.
func (hc *handleCache) revalidate(a vfs.Attr, seq, inv uint64, first nfs.LookupReadResult) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if hc.haveVal && (!a.Mtime.Equal(hc.valMtime) || a.Size != hc.valSize) {
		hc.dropCleanLocked()
	}
	hc.haveVal = true
	hc.valMtime, hc.valSize = a.Mtime, a.Size
	// Adopt the server's size only when the cache was quiescent across
	// the whole RPC: with flushes in flight — or completed while the
	// RPC was on the wire (flushSeq passed seq) — the reply may report a
	// size the server has already moved past, and regressing srvSize
	// would make reads treat flushed data as holes. While busy, sizes
	// only ratchet up.
	if hc.nDirty > 0 || hc.nFetching > 0 || hc.flushSeq > seq {
		if a.Size > hc.srvSize {
			hc.srvSize = a.Size
		}
		if int64(a.Size) > hc.size {
			hc.size = int64(a.Size)
		}
		bufpool.Put(first.Rec)
		return
	}
	hc.srvSize = a.Size
	hc.size = int64(a.Size)
	if first.Rec == nil || hc.wins[0] != nil || hc.inval > inv || !first.ReadAttr.Mtime.Equal(a.Mtime) || first.ReadAttr.Size != a.Size {
		bufpool.Put(first.Rec)
		return
	}
	fs := &fetchState{hi: hc.perWin, epoch: hc.inval}
	hc.fillLocked(fs, first.Rec, first.Data)
	fs.release()
}

// logicalSize returns the file size as this client sees it (server size
// plus unflushed local extension).
func (hc *handleCache) logicalSize() int64 {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	return hc.size
}

// ---- residency ----

// lookupLocked returns the resident page pg, or nil.
func (hc *handleCache) lookupLocked(pg int64) *page {
	if w := hc.wins[pg/hc.perWin]; w != nil {
		return w.pages[pg%hc.perWin]
	}
	return nil
}

// windowLocked returns window idx, creating it.
func (hc *handleCache) windowLocked(idx int64) *window {
	w := hc.wins[idx]
	if w == nil {
		w = &window{idx: idx, pages: make([]*page, hc.perWin)}
		hc.wins[idx] = w
	}
	return w
}

// releaseWindowLocked forgets a window nothing refers to any more. w
// may already have been forgotten, and replaced, while its caller was
// installing pages (each install can evict).
func (hc *handleCache) releaseWindowLocked(w *window) {
	if w.n == 0 && len(w.fetches) == 0 && hc.wins[w.idx] == w {
		delete(hc.wins, w.idx)
	}
}

// installLocked makes p resident and clean, first evicting to keep the
// footprint under the cap: second-chance (CLOCK) over the clean pages,
// so a page re-read since the hand last passed survives a scan. Dirty
// and unstable pages are not on the clean list and are never victims.
func (hc *handleCache) installLocked(p *page) {
	for hc.nPages >= hc.maxPages && hc.clean.head != nil {
		victim := hc.clean.head
		if victim.ref {
			victim.ref = false
			if victim.rb != nil && cap(victim.rb.buf) > pageSize {
				// A survivor must not keep its evicted fetch-mates' READ
				// buffer alive: 8 KiB of hot data would pin a transfer's
				// worth.
				old := victim.pageMem
				victim.pageMem = pageMem{data: ownPage(old.data)}
				old.release()
			}
			hc.clean.remove(victim)
			hc.clean.pushBack(victim)
			continue
		}
		hc.dropLocked(victim)
	}
	w := hc.windowLocked(p.idx / hc.perWin)
	w.pages[p.idx%hc.perWin] = p
	w.n++
	hc.nPages++
	if hc.idle {
		hc.c.dcIdlePages.Add(1)
	}
	hc.clean.pushBack(p)
}

// dropLocked removes a resident page that no flush has in flight and
// releases its memory.
func (hc *handleCache) dropLocked(p *page) {
	if p.list != nil {
		p.list.remove(p)
	}
	w := hc.wins[p.idx/hc.perWin]
	w.pages[p.idx%hc.perWin] = nil
	w.n--
	hc.nPages--
	if hc.idle {
		hc.c.dcIdlePages.Add(-1)
	}
	p.release()
	if p.dirty {
		hc.nDirty--
		hc.unreadyLocked(w, 1)
	}
	if p.unstable {
		hc.nUnstable--
	}
	hc.releaseWindowLocked(w)
}

// ---- read path ----

// readAt copies file content at off into p, serving cached pages and
// fetching missing ones from the server. It returns io.EOF at (and
// beyond) end of file, and triggers asynchronous readahead when the
// access pattern is sequential.
func (hc *handleCache) readAt(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("core: read at %d: %w", off, vfs.ErrInval)
	}
	if len(p) == 0 {
		return 0, nil
	}
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if off >= hc.size {
		hc.raNext = off // a repeated tail read still counts as sequential
		return 0, io.EOF
	}
	n := len(p)
	if int64(n) > hc.size-off {
		n = int(hc.size - off)
	}
	sequential := off == hc.raNext || off == 0
	end := off + int64(n)
	last := (end - 1) / pageSize
	pos := off
	// take copies the page holding pos out of data (its valid bytes from
	// the page start) and zero-fills what data does not reach: holes and
	// bytes past a short server read.
	take := func(data []byte) {
		start := pos - pos%pageSize
		dst := p[pos-off : min(start+pageSize, end)-off]
		c := 0
		if in := int(pos - start); in < len(data) {
			c = copy(dst, data[in:])
		}
		clear(dst[c:])
		pos += int64(len(dst))
	}
	var hits uint64
	defer func() { dcHits.Add(hits) }()
	for pos < end {
		pg := pos / pageSize
		if pp := hc.lookupLocked(pg); pp != nil {
			// A sequential pass is a scan: it earns its pages no second
			// chance, or the hand would pass over everything the reader
			// has consumed and evict the readahead it has yet to reach.
			pp.ref = pp.ref || !sequential
			take(pp.data)
			hits++
			continue
		}
		if uint64(pg*pageSize) >= hc.srvSize {
			take(nil) // in-bounds hole: answered without an RPC
			hits++
			continue
		}
		// What the fetch covers is served from the live page or else,
		// when the fetch is this read's own, from its snapshot: a
		// concurrent open's revalidation may have kept it from installing
		// them. A page the snapshot does not answer for is looked up
		// afresh.
		fs, mine, err := hc.fetchLocked(ctx, pg, last, sequential)
		if err != nil {
			return 0, err
		}
		for ; pg < fs.hi && pos < end; pg++ {
			if pp := hc.lookupLocked(pg); pp != nil {
				take(pp.data)
			} else if mine && fs.covers(pg) {
				take(fs.page(pg))
			} else {
				break
			}
		}
		if mine {
			fs.release()
		}
	}
	hc.raNext = end
	if !sequential {
		hc.raDepth = 0
		return n, nil
	}
	// Each further sequential read doubles how far ahead the stream
	// reads, from two windows up to maxDataRPCs READs in flight.
	hc.raDepth = min(max(2, 2*hc.raDepth), maxDataRPCs)
	hc.readaheadLocked(ctx, last/hc.perWin+1)
	return n, nil
}

// fetchState carries one in-flight READ of pages [lo, hi) — never
// crossing a window — so concurrent callers share the RPC: data/err are
// valid once done is closed. The data is a server snapshot, valid to the
// fetch's owner in the critical section it completes in even when an
// invalidation (open revalidation, truncate) forbids caching it. Callers
// that wait for someone else's fetch take only what it installed: by the
// time they hold the lock again, a page may have been written, flushed,
// committed and dropped, and the snapshot would undo that write.
type fetchState struct {
	lo, hi int64
	epoch  uint64 // hc.inval when the fetch was issued
	// stale marks, by page from lo, the pages the snapshot does not
	// answer for: dirty when the fetch was issued or written while it
	// was in flight, so the server may have answered with bytes this
	// client has since overwritten. nil while there are none.
	stale []bool
	done  chan struct{}
	data  []byte // what the server returned, from page lo's start
	// rb holds data, with one reference for the snapshot: the owner
	// drops it (release) once it has consumed the snapshot.
	rb  *readBuf
	err error
}

// release drops the snapshot; only the fetch's owner calls it, under the
// cache's lock.
func (fs *fetchState) release() {
	if fs.rb != nil {
		fs.rb.unref()
		fs.rb, fs.data = nil, nil
	}
}

// covers reports whether the snapshot answers for page pg.
func (fs *fetchState) covers(pg int64) bool {
	return fs.lo <= pg && pg < fs.hi && (fs.stale == nil || !fs.stale[pg-fs.lo])
}

// disown takes page pg of the fetch's range out of what it answers for.
func (fs *fetchState) disown(pg int64) {
	if fs.stale == nil {
		fs.stale = make([]bool, fs.hi-fs.lo)
	}
	fs.stale[pg-fs.lo] = true
}

// page returns the fetched bytes of page pg: fewer than pageSize, or
// none, when the server's file ended first.
func (fs *fetchState) page(pg int64) []byte {
	o := int((pg - fs.lo) * pageSize)
	if o >= len(fs.data) {
		return nil
	}
	return fs.data[o:min(o+pageSize, len(fs.data))]
}

// inflightLocked returns an in-flight fetch of the current epoch that
// answers for page pg, if any.
func (hc *handleCache) inflightLocked(pg int64) *fetchState {
	if w := hc.wins[pg/hc.perWin]; w != nil {
		for _, fs := range w.fetches {
			if fs.epoch == hc.inval && fs.covers(pg) {
				return fs
			}
		}
	}
	return nil
}

// startFetchLocked registers a fetch of pages [lo, hi). Dirty pages in
// the range are resident and read from the cache, but the reply does not
// answer for them: it may predate their flush.
func (hc *handleCache) startFetchLocked(lo, hi int64) *fetchState {
	fs := &fetchState{lo: lo, hi: hi, epoch: hc.inval, done: make(chan struct{})}
	w := hc.windowLocked(lo / hc.perWin)
	for pg := lo; pg < hi; pg++ {
		if p := w.pages[pg%hc.perWin]; p != nil && p.dirty {
			fs.disown(pg)
		}
	}
	w.fetches = append(w.fetches, fs)
	hc.nFetching++
	return fs
}

// fetchLocked brings in the absent, server-backed page pg and returns
// the completed fetch that did: an in-flight one it waited for, when pg
// is resident once it has, or else its own (mine), whose snapshot the
// caller releases once consumed. A sequential reader fetches to the end
// of pg's window; anyone else fetches only what the request touches
// (pages pg through last). Either way the extent sheds
// trailing pages that are already resident. The lock is released around
// the wait or the RPC and held again on return, when pg is resident or
// the caller's own snapshot answers for it.
//
// A pass that ends neither way lost pg, while it waited or its READ was
// in flight, to an invalidation, an eviction, or a write that was then
// flushed, committed and dropped; it fetches again. So the loop runs on
// only while other callers keep doing that to pg. The caller's own
// failed READ ends it, and so does a third failed fetch it waited for.
func (hc *handleCache) fetchLocked(ctx context.Context, pg, last int64, sequential bool) (fs *fetchState, mine bool, err error) {
	failed := 0
	for {
		if fs = hc.inflightLocked(pg); fs != nil {
			hc.mu.Unlock()
			select {
			case <-fs.done:
				hc.mu.Lock()
			case <-ctx.Done():
				hc.mu.Lock()
				return nil, false, ctx.Err()
			}
			if fs.err != nil {
				// The racer failed; retry ourselves.
				if failed++; failed == 3 {
					return nil, false, fs.err
				}
			} else if hc.lookupLocked(pg) != nil {
				return fs, false, nil
			}
			continue // not installed, or dropped since: fetch it ourselves
		}
		hi := (pg/hc.perWin + 1) * hc.perWin
		if !sequential {
			hi = min(hi, last+1)
		}
		for hi > pg+1 && hc.lookupLocked(hi-1) != nil {
			hi--
		}
		fs = hc.startFetchLocked(pg, hi)
		dcMisses.Add(uint64(min(hi, last+1) - pg)) // the pages the caller came for
		hc.mu.Unlock()
		hc.fetch(ctx, fs, sequential)
		if fs.err != nil {
			return nil, false, fs.err
		}
		// A write to pg while the fetch was in flight disowned it: the
		// written page is resident, or — flushed, committed and dropped
		// since — pg is fetched again.
		if fs.covers(pg) || hc.lookupLocked(pg) != nil {
			return fs, true, nil
		}
		fs.release()
	}
}

// fetch reads fs's pages from the server and, when permitted, installs
// them in the cache. It must be called without the lock, by the
// goroutine that registered fs, and returns holding it, so the caller
// consumes the snapshot before anything else can touch the pages. A
// reply from before an invalidation (fs.epoch is past) is not cached,
// and pages the fetch no longer answers for are never installed.
//
// clustered says who asked. A window-scheduled fetch (a sequential
// reader, readahead) keeps the reply record and installs its pages as
// aliases of it: they arrive together and age out together, so the copy
// would buy nothing. A request-sized fetch reads into an exact-size pool
// buffer instead and the record is recycled at once, so a lone hot page
// does not pin a record of twice its size. Either way the buffer returns
// to the pool when the snapshot and the last page aliasing it are gone.
func (hc *handleCache) fetch(ctx context.Context, fs *fetchState, clustered bool) {
	start := fs.lo * pageSize
	count := uint32((fs.hi - fs.lo) * pageSize)
	var buf, data []byte
	var err error
	if start > math.MaxUint32 {
		err = fmt.Errorf("core: offset %d beyond NFSv2 range: %w", start, vfs.ErrFBig)
	} else {
		// The reply's attributes are deliberately NOT folded into
		// srvSize: a READ that raced our in-flight flushes reports a
		// size the server has moved past, and shrinking srvSize would
		// turn flushed data into holes. Remote truncation is adopted at
		// the next quiescent open (close-to-open).
		nc := hc.sh.nfsc(ctx)
		if clustered {
			buf, data, _, err = nc.ReadRecord(ctx, hc.h, uint32(start), count)
		} else {
			buf = bufpool.Get(int(count))
			var n int
			if n, _, err = nc.ReadInto(ctx, hc.h, uint32(start), buf); err != nil {
				bufpool.Put(buf)
			}
			data = buf[:n]
		}
	}
	hc.mu.Lock()
	w := hc.wins[fs.lo/hc.perWin]
	w.fetches = slices.DeleteFunc(w.fetches, func(f *fetchState) bool { return f == fs })
	hc.nFetching--
	if err != nil {
		fs.err = hc.c.wireError(err)
	} else {
		hc.fillLocked(fs, buf, data)
	}
	close(fs.done)
	hc.releaseWindowLocked(w)
}

// fillLocked hands fs what its READ brought back (data, in the pooled
// buf) and installs it. A page written locally while the fetch was in
// flight is newer truth, and a reply predating an invalidation is stale;
// install only over absent pages the fetch answers for, in its epoch. A
// full page aliases the buffer; the file's last, short page is copied,
// zero-padded.
func (hc *handleCache) fillLocked(fs *fetchState, buf, data []byte) {
	fs.data, fs.rb = data, &readBuf{buf: buf, refs: 1}
	for pg := fs.lo; pg < fs.hi && hc.inval == fs.epoch; pg++ {
		d := fs.page(pg)
		if len(d) == 0 {
			break
		}
		if fs.covers(pg) && hc.lookupLocked(pg) == nil {
			p := &page{idx: pg}
			if len(d) == pageSize {
				p.data, p.rb = d[:pageSize:pageSize], fs.rb
				fs.rb.refs++
			} else {
				p.data = ownPage(d)
			}
			hc.installLocked(p)
		}
	}
}

// readaheadLocked starts asynchronous fetches for the raDepth windows
// from win on, one READ per window covering what it lacks: the whole
// window when none of it is cached or in flight.
func (hc *handleCache) readaheadLocked(ctx context.Context, win int64) {
	for k := win; k < win+hc.raDepth; k++ {
		lo, hi := k*hc.perWin, (k+1)*hc.perWin
		if w := hc.wins[k]; w != nil {
			base := lo
			for lo < hi && w.pages[lo-base] != nil {
				lo++
			}
			for hi > lo && w.pages[hi-1-base] != nil {
				hi--
			}
		}
		if uint64(lo*pageSize) >= hc.srvSize {
			return
		}
		if lo == hi || hc.inflightLocked(lo) != nil {
			continue
		}
		// Readahead is advisory: errors are dropped, the demand read
		// will refetch and report.
		fs := hc.startFetchLocked(lo, hi)
		go func() {
			hc.fetch(ctx, fs, true)
			fs.release()
			hc.mu.Unlock()
		}()
	}
}

// ---- write path ----

// writeAt buffers p at off, marking pages dirty for the background
// flush workers, and throttles while the write-behind window is full.
// The data is durable on the server only after a successful Sync or
// Close (the error barrier).
func (hc *handleCache) writeAt(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("core: write at %d: %w", off, vfs.ErrInval)
	}
	if off+int64(len(p)) > math.MaxUint32 {
		return 0, fmt.Errorf("core: offset %d beyond NFSv2 range: %w", off+int64(len(p)), vfs.ErrFBig)
	}
	xfer := hc.perWin * pageSize
	total := 0
	for total < len(p) {
		at := off + int64(total)
		n := int(min(int64(len(p)-total), (at/xfer+1)*xfer-at))
		written, err := hc.writeWindow(ctx, p[total:total+n], at)
		total += written
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// writeWindow applies the part of a write that falls inside one window,
// then wakes the flushers and applies back-pressure once for all of it.
func (hc *handleCache) writeWindow(ctx context.Context, p []byte, at int64) (int, error) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	total := 0
	var err error
	for total < len(p) && err == nil {
		pos := at + int64(total)
		bo := int(pos % pageSize)
		n := min(len(p)-total, pageSize-bo)
		if err = hc.writePageLocked(ctx, pos/pageSize, bo, p[total:total+n]); err == nil {
			total += n
		}
	}
	hc.flushCtx = ctx
	hc.ensureWorkersLocked()
	hc.cond.Broadcast()
	// Too many flushed-but-uncommitted pages pinned: run an
	// intermediate COMMIT (single-flight) so a streaming write's
	// footprint stays bounded instead of pinning the whole file until
	// Sync. Confirmed pages become clean and evictable. The COMMIT
	// goes out once the file's WRITEs in flight have landed, and no new
	// one starts before it returns: a COMMIT that overtook WRITE n would
	// commit the gap n leaves, and n would then land on committed bytes,
	// which a dedup store rewrites copy-on-write (it chunks the file's
	// raw suffix on the WRITE path instead of in its sweeper).
	if hc.nUnstable >= hc.maxUnstable && !hc.committing && hc.werr == nil {
		hc.committing = true
		for hc.writing > 0 {
			hc.cond.Wait()
		}
		hc.commitBarrierLocked(ctx)
		hc.committing = false
		hc.cond.Broadcast()
	}
	// Write-behind window: wait for the flushers to catch up. A flush
	// error drains its pages, so this cannot wedge; the error itself is
	// reported at the next barrier.
	for hc.nDirty > hc.wbPages && hc.werr == nil {
		hc.cond.Wait()
	}
	return total, err
}

// writePageLocked applies one intra-page write.
func (hc *handleCache) writePageLocked(ctx context.Context, pg int64, bo int, p []byte) error {
	start := pg * pageSize
	end := bo + len(p)
	pp := hc.lookupLocked(pg)
	filled := false // pp.data was allocated holding p already
	if pp == nil {
		var base []byte
		var snap *fetchState // this write's own fetch, released once base is copied
		// Read-modify-write: when the server holds bytes of this page
		// the write does not cover, fetch the page first so the flush
		// carries correct base data.
		srvEnd := min(hc.srvSize, uint64(start)+pageSize)
		if uint64(start) < hc.srvSize && (bo > 0 || uint64(start)+uint64(end) < srvEnd) {
			fs, mine, err := hc.fetchLocked(ctx, pg, pg, false)
			if err != nil {
				return err
			}
			if mine {
				snap = fs
			}
			// If the page is not resident, the fetch is this write's own
			// and could not be cached (an invalidation raced it): its
			// snapshot is still the base for this write.
			if pp = hc.lookupLocked(pg); pp == nil {
				base = fs.page(pg)
			}
		}
		if pp == nil {
			pp = &page{idx: pg}
			if filled = base == nil && len(p) == pageSize; filled {
				// A write covering a whole absent page: the page is
				// filled from its source instead of zeroed and then
				// overwritten.
				pp.data = bufpool.Get(pageSize)
				copy(pp.data, p)
			} else {
				pp.data = ownPage(base)
			}
			hc.installLocked(pp)
		}
		if snap != nil {
			snap.release()
		}
	}
	if e := start + int64(end); e > hc.size {
		hc.size = e
	}
	if pp.cow {
		// The buffer is lent to an in-flight flush RPC: mutate a
		// private copy and leave the lent memory to the flush, which
		// releases it when it lands.
		pp.lent = pp.pageMem
		pp.pageMem = pageMem{data: ownPage(pp.lent.data)}
		pp.cow = false
	}
	if !filled {
		copy(pp.data[bo:end], p)
	}
	hc.dirtyLocked(pp)
	return nil
}

// dirtyLocked records a modification of p, queueing its window for the
// flush workers.
func (hc *handleCache) dirtyLocked(p *page) {
	p.gen++
	if p.dirty {
		return // already queued, or re-flushed when the flush in flight lands
	}
	p.dirty = true
	hc.nDirty++
	if p.list == &hc.clean {
		hc.clean.remove(p)
	}
	w := hc.wins[p.idx/hc.perWin]
	// A fetch in flight over p may have read the server before this
	// write reaches it. Once p is flushed, committed and dropped, a read
	// served from that snapshot would undo the writer's own write.
	for _, fs := range w.fetches {
		if fs.lo <= p.idx && p.idx < fs.hi {
			fs.disown(p.idx)
		}
	}
	hc.readyLocked(w)
}

// readyLocked counts one more flushable page in w.
func (hc *handleCache) readyLocked(w *window) {
	w.ready++
	hc.ready++
	if !w.queued {
		w.queued = true
		hc.dirtyq = append(hc.dirtyq, w)
	}
}

// unreadyLocked takes n pages of w out of the flushable count, claimed
// or dropped. Once none is left, a lapsed flush delay has done its work.
func (hc *handleCache) unreadyLocked(w *window, n int) {
	w.ready -= n
	if hc.ready -= n; hc.ready == 0 {
		hc.lapsed = false
	}
}

// ---- flushing ----

// ensureWorkersLocked keeps the flush worker pool running while there
// is (or may be) dirty data.
func (hc *handleCache) ensureWorkersLocked() {
	for hc.workers < min(hc.wbPages, maxDataRPCs) {
		hc.workers++
		go hc.flushWorker()
	}
}

// flushBatch is one WRITEEXTENTS call's worth of claimed runs: the
// pages in run order, their payloads (stable under cow: no snapshot
// copy), and the runs as extents over them. A worker reuses its batch
// from call to call.
type flushBatch struct {
	pages []*page
	segs  [][]byte
	exts  []nfs.Extent
}

// claimLocked fills b with ready runs, the first of the longest-queued
// window first, until they hold one transfer's worth of pages. A run
// that would overfill it is cut, and its tail stays ready for the next
// claim. Nothing is claimed until a transfer's worth of pages is ready,
// so scattered small writes leave together, unless a barrier is
// draining, the write-behind window is over pressure, or
// partialFlushDelay has lapsed; and nothing while an intermediate
// COMMIT is pending.
func (hc *handleCache) claimLocked(b *flushBatch) {
	b.pages, b.segs, b.exts = b.pages[:0], b.segs[:0], b.exts[:0]
	perWin := int(hc.perWin)
	if hc.committing || hc.ready < perWin && hc.draining == 0 && hc.nDirty <= hc.wbPages && !hc.lapsed {
		return
	}
	ready := func(p *page) bool { return p != nil && p.dirty && !p.flushing }
	for len(b.pages) < perWin && len(hc.dirtyq) > 0 {
		w := hc.dirtyq[0]
		if w.ready == 0 {
			w.queued = false
			hc.dirtyq = hc.dirtyq[1:]
			continue
		}
		lo := slices.IndexFunc(w.pages, ready)
		hi := lo
		for end := min(len(w.pages), lo+perWin-len(b.pages)); hi < end && ready(w.pages[hi]); hi++ {
			p := w.pages[hi]
			p.flushing = true
			p.cow = true // writers detach onto a private copy while we send
			p.flushGen = p.gen
			// Stop at the file's logical end so the last page's zero
			// tail does not extend the file.
			b.segs = append(b.segs, p.data[:max(0, min(pageSize, hc.size-p.idx*pageSize))])
		}
		hc.unreadyLocked(w, hi-lo)
		b.exts = append(b.exts, nfs.Extent{Offset: uint32(w.pages[lo].idx * pageSize), Data: b.segs[len(b.pages):]})
		b.pages = append(b.pages, w.pages[lo:hi]...)
	}
}

// flushWorker drains dirty pages until the cache is stopped and clean.
// Each flush claims up to one transfer of ready runs and sends them as
// one WRITEEXTENTS call, so a scattered writer's backlog costs one RPC
// per transfer, not one per run. Workers flush concurrently, so their
// calls pipeline on the shard's connection.
func (hc *handleCache) flushWorker() {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	var b flushBatch
	for {
		hc.claimLocked(&b)
		if len(b.pages) == 0 {
			if hc.stopped && hc.nDirty == 0 {
				hc.workers--
				return
			}
			// Ready pages short of a transfer wait for more: arm a timer
			// that lets them go after partialFlushDelay, so a lone small
			// write still reaches the server without a barrier.
			if hc.ready > 0 && !hc.timerArmed {
				hc.timerArmed = true
				time.AfterFunc(partialFlushDelay, func() {
					hc.mu.Lock()
					hc.timerArmed = false
					hc.lapsed = hc.ready > 0
					hc.cond.Broadcast()
					hc.mu.Unlock()
				})
			}
			hc.cond.Wait()
			continue
		}
		ctx := hc.flushCtx
		hc.writing++
		hc.mu.Unlock()

		attr, err := hc.sh.nfsc(ctx).WriteExtents(ctx, hc.h, b.exts)

		hc.mu.Lock()
		hc.writing--
		hc.flushSeq = hc.c.flushClock.Add(1)
		if err != nil {
			if hc.werr == nil {
				hc.werr = fmt.Errorf("core: deferred write at offset %d: %w", b.exts[0].Offset, hc.c.wireError(err))
			}
		} else {
			// Our own flush moved the server mtime; fold the reply into
			// the validator so the next open does not self-invalidate.
			// Both fields only ratchet: concurrent flush replies land
			// out of order, and a regressed srvSize would let a later
			// write skip its read-modify-write fetch, while a regressed
			// validator would spuriously invalidate the cache.
			hc.ratchetLocked(attr)
		}
		// Flushing pages are never dropped, so their windows still hold
		// them.
		for _, p := range b.pages {
			p.flushing, p.cow = false, false
			p.lent.release()
			if err != nil || p.gen == p.flushGen {
				p.dirty = false
				hc.nDirty--
			} else {
				hc.readyLocked(hc.wins[p.idx/hc.perWin]) // re-dirtied mid-flush; it re-flushes
			}
			if err != nil {
				// The write is lost (and reported at the barrier); drop
				// the page so reads refetch server truth. The server may
				// hold it all the same, written by an extent ahead of the
				// one that failed: reads must ask rather than take a hole.
				hc.srvSize = max(hc.srvSize, uint64(min(hc.size, (p.idx+1)*pageSize)))
				hc.dropLocked(p)
				continue
			}
			// The server now holds this flush unstably; the page is
			// pinned until a COMMIT barrier confirms it.
			if p.list != nil {
				p.list.remove(p)
			}
			hc.unstable.pushBack(p)
			if !p.unstable {
				p.unstable = true
				hc.nUnstable++
			}
			p.flushedSeq = hc.flushSeq
		}
		hc.cond.Broadcast()
	}
}

// ratchetLocked folds post-write server attributes into the validator
// and the server size, never backwards.
func (hc *handleCache) ratchetLocked(attr vfs.Attr) {
	if attr.Mtime.After(hc.valMtime) {
		hc.valMtime = attr.Mtime
	}
	if attr.Size > hc.valSize {
		hc.valSize = attr.Size
	}
	if attr.Size > hc.srvSize {
		hc.srvSize = attr.Size
	}
}

// commitBarrierLocked issues one COMMIT and applies its outcome. On
// success it confirms exactly the pages whose flush reply preceded
// the COMMIT (flushedSeq at most the sequence at issue) — pages
// flushed while the COMMIT was on the wire stay unstable for the next
// barrier. A verifier that moved since the last COMMIT means the
// server restarted and may have lost acknowledged writes: every
// unstable page is re-dirtied for replay (the NFSv3 client restart
// protocol) and retry is reported. Caller holds hc.mu.
func (hc *handleCache) commitBarrierLocked(ctx context.Context) (retry bool) {
	snapSeq := hc.flushSeq
	if ctx == nil {
		ctx = hc.flushCtx
	}
	hc.mu.Unlock()
	attr, ver, err := hc.sh.attrc(ctx).Commit(ctx, hc.h)
	hc.mu.Lock()
	if err != nil {
		if hc.werr == nil {
			hc.werr = fmt.Errorf("core: commit: %w", hc.c.wireError(err))
		}
		return false // unstable pages stay pinned for the next barrier
	}
	hc.sh.ver.Store(ver)
	if ver != hc.commitVer {
		hc.commitVer = ver
		// Replay: everything uncommitted may have been lost. The pages
		// go back to their windows' dirty runs, in the order they were
		// first flushed.
		for p := hc.unstable.head; p != nil; p = hc.unstable.head {
			hc.unstable.remove(p)
			p.unstable = false
			hc.nUnstable--
			hc.dirtyLocked(p)
		}
		hc.cond.Broadcast()
		return true
	}
	for p := hc.unstable.head; p != nil && p.flushedSeq <= snapSeq; p = hc.unstable.head {
		hc.unstable.remove(p)
		p.unstable = false
		hc.nUnstable--
		if !p.dirty {
			hc.clean.pushBack(p)
		}
	}
	// The commit reply is post-flush server truth: ratchet the
	// validator so the next open does not self-invalidate.
	hc.ratchetLocked(attr)
	hc.cond.Broadcast()
	return false
}

// sync drains the write-behind queue, runs the COMMIT durability
// barrier, and returns (and clears) the first deferred write error —
// the NFS error barrier, shared by File.Sync and File.Close.
//
// Against a write-behind server the drained WRITEs are only unstable;
// COMMIT makes them durable. The loop retries while the server's boot
// verifier keeps moving (replay after restart, bounded) — but one
// successful barrier suffices: unstable pages it did not cover belong
// to writes concurrent with this sync, which the next barrier owns.
func (hc *handleCache) sync(ctx context.Context) error {
	hc.mu.Lock()
	hc.draining++
	if ctx != nil {
		hc.flushCtx = ctx
	}
	hc.ensureWorkersLocked()
	hc.cond.Broadcast()
	for attempt := 0; ; attempt++ {
		for hc.nDirty > 0 {
			hc.cond.Wait()
		}
		if hc.werr != nil || hc.nUnstable == 0 {
			break
		}
		if attempt > 4 {
			if hc.werr == nil {
				hc.werr = fmt.Errorf("core: commit: server restarted repeatedly during replay: %w", vfs.ErrIO)
			}
			break
		}
		if !hc.commitBarrierLocked(ctx) {
			break // success (or a deferred error); no replay needed
		}
	}
	hc.draining--
	err := hc.werr
	hc.werr = nil
	hc.mu.Unlock()
	return err
}

// truncate resets the cache to the post-SetAttr server state. The
// caller must have drained pending writes first.
func (hc *handleCache) truncate(a vfs.Attr) {
	hc.mu.Lock()
	for _, w := range hc.wins {
		for _, p := range w.pages {
			if p != nil && !p.flushing {
				hc.dropLocked(p)
			}
		}
	}
	hc.inval = hc.c.invalClock.Add(1) // in-flight fetches and opens carry pre-truncate bytes
	hc.haveVal = true
	hc.valMtime, hc.valSize = a.Mtime, a.Size
	hc.srvSize = a.Size
	hc.size = int64(a.Size)
	hc.cond.Broadcast()
	hc.mu.Unlock()
}
