package dedup

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"discfs/internal/bufpool"
	"discfs/internal/vfs"
)

// Manifest on-disk format. A regular file's backing content is its
// chunk manifest: a 64-byte header followed by 64-byte records, each
// holding one chunk's SHA-256 address and length. Records never
// straddle a backing block (64 divides every power-of-two block size),
// so a torn multi-block write can only mix whole old and whole new
// records — each of which is valid — never half of one.
//
// Crash ordering (enforced by Sync): chunk data is made durable before
// any record referencing it is written, records are made durable before
// the header that extends their count, and the header — the commit
// point — is a single sub-block write. Manifest files never shrink;
// records past the header's count are dead and ignored.
const (
	hdrSize   = 64
	recSize   = 64
	magic     = 0x4443465344445550 // "DCFSDDUP"
	verCurr   = 1
	maxChunks = 1 << 28 // header sanity bound (~16 TiB files)
)

// ErrClosed is returned by operations on a closed layer.
var ErrClosed = errors.New("dedup: layer closed")

// entry is one manifest record: a chunk address and its length.
type entry struct {
	sum sha
	n   uint32
}

// manifest is a file's in-memory chunk map. offs caches cumulative
// chunk start offsets (len(ents)+1 items, offs[len] == size) for
// binary-searched reads.
type manifest struct {
	size uint64
	ents []entry
	offs []uint64
}

func emptyManifest() *manifest { return &manifest{offs: []uint64{0}} }

// rebuildOffs recomputes offs from entry index `from` on.
func (m *manifest) rebuildOffs(from int) {
	if cap(m.offs) < len(m.ents)+1 {
		no := make([]uint64, len(m.ents)+1)
		copy(no, m.offs[:from+1])
		m.offs = no
	} else {
		m.offs = m.offs[:len(m.ents)+1]
	}
	for i := from; i < len(m.ents); i++ {
		m.offs[i+1] = m.offs[i] + uint64(m.ents[i].n)
	}
}

// chunkAt returns the index of the chunk containing pos; pos == size
// maps to the last chunk. The manifest must be non-empty.
func (m *manifest) chunkAt(pos uint64) int {
	lo, hi := 0, len(m.ents)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if m.offs[mid] <= pos {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if pos >= m.offs[lo+1] && lo < len(m.ents)-1 {
		lo++
	}
	return lo
}

// boundary reports whether abs is a chunk boundary, returning the index
// of the first entry starting at abs (== len(ents) for EOF).
func (m *manifest) boundary(abs uint64) (int, bool) {
	lo, hi := 0, len(m.offs)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		switch {
		case m.offs[mid] < abs:
			lo = mid + 1
		case m.offs[mid] > abs:
			hi = mid - 1
		default:
			return mid, true
		}
	}
	return 0, false
}

// manLayout is a manifest's committed on-disk record geometry. The
// record array lives in one of two fixed slots (A at slotBase, B at
// slotBase+cap·recSize): pure appends extend the live slot past the
// committed count, anything that changes a committed record writes the
// whole array into the *other* slot, and outgrowing the slots moves to
// a doubled pair past both. Every record write therefore lands outside
// the region the committed header governs — the header flip is the one
// atomic commit point.
type manLayout struct {
	start uint64 // live record array offset
	base  uint64 // slot A offset (slot B is base + cap*recSize)
	cap   int    // records per slot
	count int    // committed record count
}

// fileState is the per-file in-memory state: the manifest plus dirty
// tracking for the write-behind manifest flush.
type fileState struct {
	mu    sync.RWMutex
	man   *manifest // nil until loaded
	disk  manLayout // committed layout (what the on-disk header says)
	dirty bool
	// dirtyFrom is the lowest entry index whose committed record is
	// stale (== len(ents) when only appends are pending).
	dirtyFrom int
	// diskUnknown means a failed Sync wrote manifest headers whose
	// durability was never acknowledged, so disk may not describe the
	// header the backing store actually holds. The next Sync re-reads
	// the header (after its leading device sync pins it down) before
	// choosing a slot, so record writes never land in the region the
	// committed header governs.
	diskUnknown bool
	// gone marks a state dropped by releaseIfGoneLocked (last link
	// removed). A writer that fetched the state before the drop must
	// fail with ErrStale instead of mutating the orphan — chunk refs
	// added to a dropped state are never flushed or released.
	gone  bool
	mtime time.Time
	// tail buffers the file's logical suffix past the last chunk
	// boundary — the "open chunk". Appends accumulate here and reach the
	// chunk store only when a cut finalizes (or Sync forces one), so the
	// size of the WRITEs that reach the layer never rewrites a partial
	// chunk on the device or fragments the chunk sequence. man.size
	// includes the tail; man.offs[len(ents)] is where it starts.
	tail []byte
	// holes are the ranges of the tail no write has filled yet, in file
	// order. A client flushes one file on several connections, so WRITE
	// n+1 often lands before n: the gap it opens past EOF is held here
	// instead of being chunked as zeros that WRITE n then rewrites.
	// Holes read as zeros (the tail holds zeros there) and count toward
	// the size; spilling stops at the first one. held is what the tail
	// counts against the store-wide bound: its length while it has
	// holes, else 0.
	holes []span
	held  int64
	// forced marks the last manifest entry as a Sync-forced short chunk;
	// the next append at EOF reabsorbs it into the tail so the chunk
	// sequence converges back to the canonical content-defined chunking
	// (and duplicate detection keeps working across COMMIT boundaries).
	forced bool
}

// span is a byte range [lo, hi) of a file.
type span struct{ lo, hi uint64 }

// The bounds on tails held behind holes. Per file, a tail keeps its
// holes while it reaches at most maxHeldTail past the last chunk
// boundary: room for the WRITEs a client keeps in flight on one file
// (8 transfers of 504 KiB). Across the store, the tails with holes hold
// at most maxHeldBytes, so many sparse files cannot pin unbounded
// memory. A write past either bound turns the file's holes into zeros.
//
// A tail buffer that grew past maxKeptTail behind holes is given back
// once they are filled; one WRITE plus the open chunk fit well under it.
const (
	maxHeldTail  = 8 << 20
	maxHeldBytes = 64 << 20
	maxKeptTail  = 2 << 20
)

// Option configures Wrap.
type Option func(*config)

type config struct {
	params     Params
	sweepEvery time.Duration
	workers    int
}

// WithParams sets the chunk geometry.
func WithParams(p Params) Option { return func(c *config) { c.params = p } }

// WithAvgChunkSize derives the geometry from a target average chunk
// size; the server passes maxTransfer/8 so one full WRITE spans several
// chunks.
func WithAvgChunkSize(avg int) Option {
	return func(c *config) { c.params = ParamsForAvg(avg) }
}

// WithSweepInterval sets the background GC cadence (0 disables the
// sweeper goroutine; SweepNow still works).
func WithSweepInterval(iv time.Duration) Option {
	return func(c *config) { c.sweepEvery = iv }
}

// FS is the deduplicating layer. It implements vfs.FS over any backing
// FS.
type FS struct {
	backing vfs.FS
	p       Params
	st      *store
	root    vfs.Handle
	blockSz uint64

	fmu   sync.Mutex
	files map[vfs.Handle]*fileState

	dmu      sync.Mutex
	dirtySet map[vfs.Handle]struct{}

	// gate is the quiesce handshake (the ffs Check/Dump idiom): every
	// mutating operation holds it shared; the sweeper's candidate scan
	// and Verify hold it exclusively, so no writer can resurrect a
	// chunk mid-sweep.
	gate sync.RWMutex

	// syncMu serializes Sync; the epoch counters gate GC eligibility
	// (see chunkRec.graveEpoch).
	syncMu      sync.Mutex
	syncStarted atomic.Uint64
	syncDone    atomic.Uint64

	logical atomic.Int64
	// held is the sum of every file's fileState.held.
	held atomic.Int64

	tasks  chan func()
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
	once   sync.Once

	sweepEvery time.Duration
}

// Wrap stacks the deduplicating layer over backing. The mount scan
// rebuilds the chunk refcounts from the manifests on disk (refcounts
// are never persisted — a crash can only leak unreferenced chunks, and
// only until the next sweep reclaims them).
func Wrap(backing vfs.FS, opts ...Option) (*FS, error) {
	cfg := config{
		params:     DefaultParams(),
		sweepEvery: 2 * time.Second,
		workers:    runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(&cfg)
	}
	if !cfg.params.valid() {
		return nil, fmt.Errorf("dedup: invalid chunk params %+v", cfg.params)
	}
	if cfg.workers > 4 {
		cfg.workers = 4
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	st, err := newStore(backing)
	if err != nil {
		return nil, err
	}
	d := &FS{
		backing:    backing,
		p:          cfg.params,
		st:         st,
		root:       backing.Root(),
		files:      make(map[vfs.Handle]*fileState),
		dirtySet:   make(map[vfs.Handle]struct{}),
		tasks:      make(chan func(), 64),
		stop:       make(chan struct{}),
		sweepEvery: cfg.sweepEvery,
	}
	d.blockSz = 8192
	if sfs, err := backing.StatFS(); err == nil && sfs.BlockSize > 0 {
		d.blockSz = uint64(sfs.BlockSize)
	}
	if err := d.mount(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.workers; i++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for {
				select {
				case f := <-d.tasks:
					f()
				case <-d.stop:
					return
				}
			}
		}()
	}
	if d.sweepEvery > 0 {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			t := time.NewTicker(d.sweepEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					d.sweepOnce(false)
				case <-d.stop:
					return
				}
			}
		}()
	}
	return d, nil
}

// mount rebuilds the chunk index: pass 1 adopts every chunk file under
// .chunks (untrusted, zero refs); pass 2 walks the manifests and
// tallies references, clearing the untrusted mark on anything a durable
// manifest names. Whatever stays at zero refs is crash debris for the
// sweeper.
func (d *FS) mount() error {
	if err := d.st.scan(); err != nil {
		return err
	}
	return d.walkManifests(func(h vfs.Handle, man *manifest) error {
		for _, e := range man.ents {
			if err := d.st.tally(e.sum, e.n); err != nil {
				return err
			}
		}
		d.logical.Add(int64(man.size))
		return nil
	})
}

// walkManifests visits every regular file's on-disk manifest exactly
// once (hard links dedupe by handle), skipping the chunk store.
func (d *FS) walkManifests(visit func(vfs.Handle, *manifest) error) error {
	seen := make(map[vfs.Handle]bool)
	var walk func(dir vfs.Handle) error
	walk = func(dir vfs.Handle) error {
		ents, err := d.backing.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, de := range ents {
			if dir == d.root && de.Name == chunksName {
				continue
			}
			if seen[de.Handle] {
				continue
			}
			seen[de.Handle] = true
			a, err := d.backing.GetAttr(de.Handle)
			if err != nil {
				return err
			}
			switch a.Type {
			case vfs.TypeDir:
				if err := walk(a.Handle); err != nil {
					return err
				}
			case vfs.TypeRegular:
				man, _, err := d.readManifest(a)
				if err != nil {
					return fmt.Errorf("dedup: manifest of ino %d: %w", a.Handle.Ino, err)
				}
				if err := visit(a.Handle, man); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(d.root)
}

// ---- manifest I/O ----

func encodeHeader(buf []byte, size uint64, l manLayout) {
	for i := range buf[:hdrSize] {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint64(buf[0:], magic)
	binary.LittleEndian.PutUint32(buf[8:], verCurr)
	binary.LittleEndian.PutUint64(buf[16:], size)
	binary.LittleEndian.PutUint32(buf[24:], uint32(l.count))
	binary.LittleEndian.PutUint64(buf[28:], l.start)
	binary.LittleEndian.PutUint64(buf[36:], l.base)
	binary.LittleEndian.PutUint32(buf[44:], uint32(l.cap))
}

func encodeRec(buf []byte, e entry) {
	copy(buf[0:32], e.sum[:])
	binary.LittleEndian.PutUint32(buf[32:], e.n)
	for i := 36; i < recSize; i++ {
		buf[i] = 0
	}
}

// emptyLayout is a fresh file's record geometry: zero-capacity slots at
// the header's edge, so the first flush takes the grow path and sizes
// the slot pair to the file.
func emptyLayout() manLayout { return manLayout{start: hdrSize, base: hdrSize} }

// decodeHeader parses and validates a manifest header against the
// backing file's size. empty reports an all-zero header (a manifest
// whose first flush never committed). A cap-0 layout is accepted when
// the count is also 0 — headers committed for files truncated to empty
// before their first record flush look like this.
func decodeHeader(hdr []byte, backingSize uint64) (size uint64, l manLayout, empty bool, err error) {
	mg := binary.LittleEndian.Uint64(hdr[0:])
	if mg == 0 {
		return 0, emptyLayout(), true, nil
	}
	if mg != magic {
		return 0, manLayout{}, false, fmt.Errorf("%w: bad manifest magic", vfs.ErrIO)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != verCurr {
		return 0, manLayout{}, false, fmt.Errorf("%w: manifest version %d", vfs.ErrIO, v)
	}
	size = binary.LittleEndian.Uint64(hdr[16:])
	l = manLayout{
		count: int(binary.LittleEndian.Uint32(hdr[24:])),
		start: binary.LittleEndian.Uint64(hdr[28:]),
		base:  binary.LittleEndian.Uint64(hdr[36:]),
		cap:   int(binary.LittleEndian.Uint32(hdr[44:])),
	}
	switch {
	case l.count > maxChunks || l.cap > 2*maxChunks || l.count > l.cap,
		l.base < hdrSize,
		l.start != l.base && l.start != l.base+uint64(l.cap)*recSize,
		l.count > 0 && l.start+uint64(l.count)*recSize > backingSize:
		return 0, manLayout{}, false, fmt.Errorf("%w: manifest geometry corrupt", vfs.ErrIO)
	}
	return size, l, false, nil
}

// readManifest parses h's on-disk manifest. An empty file and an
// all-zero header both decode as an empty manifest (the latter is a
// manifest whose first flush never committed — the file's durable
// logical state is empty).
func (d *FS) readManifest(a vfs.Attr) (*manifest, manLayout, error) {
	if a.Size == 0 {
		return emptyManifest(), emptyLayout(), nil
	}
	var hdr [hdrSize]byte
	if _, _, err := d.backing.ReadInto(a.Handle, 0, hdr[:]); err != nil {
		return nil, manLayout{}, err
	}
	size, l, empty, err := decodeHeader(hdr[:], a.Size)
	if err != nil {
		return nil, manLayout{}, err
	}
	if empty {
		return emptyManifest(), emptyLayout(), nil
	}
	n := l.count
	m := &manifest{size: size, ents: make([]entry, n)}
	raw := bufpool.Get(n * recSize)
	defer bufpool.Put(raw)
	read := 0
	for read < len(raw) {
		nn, _, err := d.backing.ReadInto(a.Handle, l.start+uint64(read), raw[read:])
		if err != nil {
			return nil, manLayout{}, err
		}
		if nn == 0 {
			return nil, manLayout{}, fmt.Errorf("%w: manifest short read", vfs.ErrIO)
		}
		read += nn
	}
	var total uint64
	for i := range m.ents {
		rec := raw[i*recSize:]
		copy(m.ents[i].sum[:], rec[:32])
		m.ents[i].n = binary.LittleEndian.Uint32(rec[32:])
		if m.ents[i].n == 0 {
			return nil, manLayout{}, fmt.Errorf("%w: zero-length chunk record", vfs.ErrIO)
		}
		total += uint64(m.ents[i].n)
	}
	if total != size {
		return nil, manLayout{}, fmt.Errorf("%w: manifest covers %d bytes, header says %d", vfs.ErrIO, total, size)
	}
	m.offs = make([]uint64, n+1)
	m.rebuildOffs(0)
	return m, l, nil
}

// readLayout reads just h's committed header geometry, without the
// records. Sync uses it to resynchronize fst.disk with the header the
// backing store actually holds after a failed flush left the on-disk
// header state unknown.
func (d *FS) readLayout(h vfs.Handle) (manLayout, error) {
	a, err := d.backing.GetAttr(h)
	if err != nil {
		return manLayout{}, err
	}
	if a.Size == 0 {
		return emptyLayout(), nil
	}
	var hdr [hdrSize]byte
	if _, _, err := d.backing.ReadInto(h, 0, hdr[:]); err != nil {
		return manLayout{}, err
	}
	_, l, _, err := decodeHeader(hdr[:], a.Size)
	return l, err
}

// ---- per-file state ----

// state returns (creating if needed) h's fileState with the manifest
// loaded. The caller must hold the gate shared.
func (d *FS) state(h vfs.Handle) (*fileState, error) {
	d.fmu.Lock()
	fst := d.files[h]
	if fst == nil {
		fst = &fileState{}
		d.files[h] = fst
	}
	d.fmu.Unlock()
	fst.mu.Lock()
	err := d.loadLocked(h, fst)
	fst.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return fst, nil
}

// loadLocked populates fst.man from disk; the caller holds fst.mu.
func (d *FS) loadLocked(h vfs.Handle, fst *fileState) error {
	if fst.man != nil {
		return nil
	}
	a, err := d.backing.GetAttr(h)
	if err != nil {
		return err
	}
	if a.Type != vfs.TypeRegular {
		return vfs.ErrInval
	}
	man, layout, err := d.readManifest(a)
	if err != nil {
		return err
	}
	fst.man = man
	fst.disk = layout
	fst.dirty = false
	fst.dirtyFrom = len(man.ents)
	fst.mtime = a.Mtime
	return nil
}

// dropState forgets h's state (after the last link dies).
func (d *FS) dropState(h vfs.Handle) {
	d.fmu.Lock()
	delete(d.files, h)
	d.fmu.Unlock()
	d.dmu.Lock()
	delete(d.dirtySet, h)
	d.dmu.Unlock()
}

func (d *FS) markDirty(h vfs.Handle) {
	d.dmu.Lock()
	d.dirtySet[h] = struct{}{}
	d.dmu.Unlock()
}

// overlayLocked rewrites a backing attr with the file's logical
// geometry; the caller holds fst.mu (shared suffices).
func (d *FS) overlayLocked(a vfs.Attr, fst *fileState) vfs.Attr {
	a.Size = fst.man.size
	a.Blocks = (fst.man.size + d.blockSz - 1) / d.blockSz
	if !fst.mtime.IsZero() {
		a.Mtime = fst.mtime
	}
	return a
}

// attrOf returns h's attributes with the manifest overlay applied to
// regular files.
func (d *FS) attrOf(a vfs.Attr) (vfs.Attr, error) {
	if a.Type != vfs.TypeRegular {
		return a, nil
	}
	fst, err := d.state(a.Handle)
	if err != nil {
		return vfs.Attr{}, err
	}
	fst.mu.RLock()
	a = d.overlayLocked(a, fst)
	fst.mu.RUnlock()
	return a, nil
}

// ---- chunk reads ----

// readChunkInto fills dst with chunk content at innerOff: one ranged
// read of the chunk file straight into dst (the ReadInto path the NFS
// read plane depends on), whether dst covers the whole chunk or part of
// it.
func (d *FS) readChunkInto(e entry, innerOff uint64, dst []byte) error {
	h, _, ok := d.st.handleOf(e.sum)
	if !ok {
		return fmt.Errorf("%w: chunk missing from store", vfs.ErrIO)
	}
	n, _, err := d.backing.ReadInto(h, innerOff, dst)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("%w: chunk short read", vfs.ErrIO)
	}
	return nil
}

// readRange fills dst with logical file content starting at abs; the
// caller holds the manifest lock (shared suffices) and has clamped the
// range to the file size.
func (d *FS) readRange(man *manifest, abs uint64, dst []byte) error {
	i := man.chunkAt(abs)
	for len(dst) > 0 {
		e := man.ents[i]
		inner := abs - man.offs[i]
		n := uint64(e.n) - inner
		if n > uint64(len(dst)) {
			n = uint64(len(dst))
		}
		if err := d.readChunkInto(e, inner, dst[:n]); err != nil {
			return err
		}
		dst = dst[n:]
		abs += n
		i++
	}
	return nil
}

// ---- vfs.FS ----

// Root implements vfs.FS.
func (d *FS) Root() vfs.Handle { return d.root }

// GetAttr implements vfs.FS with the logical-size overlay.
func (d *FS) GetAttr(h vfs.Handle) (vfs.Attr, error) {
	a, err := d.backing.GetAttr(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	return d.attrOf(a)
}

// Lookup implements vfs.FS; the chunk store directory is invisible.
func (d *FS) Lookup(dir vfs.Handle, name string) (vfs.Attr, error) {
	if dir == d.root && name == chunksName {
		return vfs.Attr{}, vfs.ErrNotExist
	}
	a, err := d.backing.Lookup(dir, name)
	if err != nil {
		return vfs.Attr{}, err
	}
	return d.attrOf(a)
}

// reserved reports namespace operations aimed at the chunk store root.
func (d *FS) reserved(dir vfs.Handle, name string) bool {
	return dir == d.root && name == chunksName
}

// Read implements vfs.FS.
func (d *FS) Read(h vfs.Handle, off uint64, count uint32) ([]byte, bool, error) {
	return vfs.ReadAlloc(d, h, off, count)
}

// ReadInto implements vfs.FS: the read plane assembles file
// content from chunks directly into the caller's buffer.
func (d *FS) ReadInto(h vfs.Handle, off uint64, dst []byte) (int, bool, error) {
	fst, err := d.state(h)
	if err != nil {
		if errors.Is(err, vfs.ErrInval) {
			// Match the backing store's error for directory reads.
			return 0, false, vfs.ErrIsDir
		}
		return 0, false, err
	}
	fst.mu.RLock()
	defer fst.mu.RUnlock()
	if fst.gone {
		return 0, false, vfs.ErrStale
	}
	man := fst.man
	if off >= man.size {
		return 0, true, nil
	}
	n := uint64(len(dst))
	if off+n > man.size {
		n = man.size - off
	}
	// Committed chunks first, then the in-memory tail.
	committed := man.offs[len(man.ents)]
	p := dst[:n]
	if off < committed {
		cn := committed - off
		if cn > n {
			cn = n
		}
		if err := d.readRange(man, off, p[:cn]); err != nil {
			return 0, false, err
		}
		p = p[cn:]
		off += cn
	}
	if len(p) > 0 {
		copy(p, fst.tail[off-committed:])
	}
	return int(n), off+uint64(len(p)) >= man.size, nil
}

// Write implements vfs.FS: the hot path. The affected region is
// re-chunked from the preceding chunk boundary; chunking resumes old
// boundaries as soon as a cut coincides with one past the write (the
// CDC resynchronization property), so an overwrite re-hashes O(written
// bytes), not the file. New chunks are hashed on the worker pool and
// stored once; duplicate chunks mutate only the manifest.
func (d *FS) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	a, err := d.backing.GetAttr(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	if a.Type == vfs.TypeDir {
		return vfs.Attr{}, vfs.ErrIsDir
	}
	if a.Type != vfs.TypeRegular {
		return vfs.Attr{}, vfs.ErrInval
	}
	d.gate.RLock()
	defer d.gate.RUnlock()
	if d.closed.Load() {
		return vfs.Attr{}, ErrClosed
	}
	fst, err := d.state(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	fst.mu.Lock()
	defer fst.mu.Unlock()
	if fst.gone {
		return vfs.Attr{}, vfs.ErrStale
	}
	if len(data) > 0 {
		if err := d.writeLocked(h, fst, off, data); err != nil {
			return vfs.Attr{}, err
		}
	}
	return d.overlayLocked(a, fst), nil
}

// writeLocked applies one write; the caller holds the gate shared and
// fst.mu exclusively. Writes at or past the last chunk boundary — the
// streaming-append hot path — go through the in-memory tail buffer;
// overwrites of committed chunks take the re-chunk/resync path below.
func (d *FS) writeLocked(h vfs.Handle, fst *fileState, off uint64, data []byte) error {
	if fst.gone {
		// A Remove dropped this state between the writer's state fetch
		// and its lock: mutating the orphan would pin chunk refs no Sync
		// or sweep can ever see again.
		return vfs.ErrStale
	}
	if off >= fst.man.offs[len(fst.man.ents)] {
		return d.writeTailLocked(h, fst, off, data)
	}
	// The re-chunk below may pull the tail in and keep what it does not
	// reach as is: both need a tail without holes.
	if err := d.settleHolesLocked(fst); err != nil {
		return err
	}
	man := fst.man
	committed := man.offs[len(man.ents)] // > off, so ents is non-empty
	oldSize := man.size
	end := off + uint64(len(data))
	newSize := oldSize
	if end > newSize {
		newSize = end
	}

	// The region to re-chunk starts at the boundary of the chunk
	// containing the write offset.
	b0Idx := man.chunkAt(off)
	b0 := man.offs[b0Idx]
	pre := int(off - b0)

	// Materialize [b0, end) into a pooled buffer: preserved prefix
	// bytes, then the new data. The buffer is owned by this call alone
	// (the one-owner rule) — hash workers only ever read sub-slices
	// inside hashCuts' barrier.
	region := bufpool.Get(pre + len(data))
	defer func() { bufpool.Put(region) }()
	if pre > 0 {
		if err := d.readRange(man, b0, region[:pre]); err != nil {
			return err
		}
	}
	copy(region[pre:], data)
	regionEnd := end

	// nextOld is the committed chunk containing regionEnd (== len(ents)
	// once regionEnd reaches the tail region).
	nextOld := len(man.ents)
	if end < committed {
		nextOld = man.chunkAt(end)
	}

	var cuts []int
	cur := 0
	suffix := len(man.ents)
	resynced := false
	for {
		n := d.p.Next(region[cur:])
		real := n == d.p.Max || n < len(region)-cur
		if !real && regionEnd < oldSize {
			// Provisional cut but the file continues: pull in the rest of
			// the next committed chunk — or the in-memory tail — and
			// re-chunk across it.
			oldLen := len(region)
			if nextOld < len(man.ents) {
				stop := man.offs[nextOld+1]
				region = bufpool.Grow(region, oldLen+int(stop-regionEnd))
				inner := regionEnd - man.offs[nextOld]
				if err := d.readChunkInto(man.ents[nextOld], inner, region[oldLen:]); err != nil {
					return err
				}
				regionEnd = stop
				nextOld++
			} else {
				inner := regionEnd - committed
				region = bufpool.Grow(region, oldLen+len(fst.tail)-int(inner))
				copy(region[oldLen:], fst.tail[inner:])
				regionEnd = oldSize
			}
			continue
		}
		if !real {
			break // provisional at the (new) EOF: the remainder becomes the tail
		}
		cuts = append(cuts, cur+n)
		cutAbs := b0 + uint64(cur+n)
		cur += n
		if cutAbs >= end && cutAbs <= committed {
			if j, ok := man.boundary(cutAbs); ok {
				suffix = j // resynchronized with the old chunk sequence
				resynced = true
				break
			}
		}
		if cur == len(region) {
			break // reached (new) EOF at an exact cut
		}
	}

	sums := d.hashCuts(region, cuts)
	epoch := d.syncStarted.Load()
	for i := range cuts {
		start := 0
		if i > 0 {
			start = cuts[i-1]
		}
		if _, err := d.st.addRef(sums[i], region[start:cuts[i]]); err != nil {
			for k := 0; k < i; k++ {
				d.st.unref(sums[k], epoch)
			}
			return err
		}
	}

	dropped := append([]entry(nil), man.ents[b0Idx:suffix]...)
	newEnts := make([]entry, len(cuts))
	for i := range cuts {
		start := 0
		if i > 0 {
			start = cuts[i-1]
		}
		newEnts[i] = entry{sum: sums[i], n: uint32(cuts[i] - start)}
	}
	man.ents = append(man.ents[:b0Idx:b0Idx], append(newEnts, man.ents[suffix:]...)...)
	man.size = newSize
	man.rebuildOffs(b0Idx)
	if !resynced {
		// Everything to the right of the last cut is the new open tail
		// (on a resync the surviving suffix — including the unchanged
		// tail buffer — is kept instead).
		fst.tail = append(fst.tail[:0], region[cur:]...)
		fst.forced = false
	}
	if b0Idx < fst.dirtyFrom {
		fst.dirtyFrom = b0Idx
	}
	fst.dirty = true
	fst.mtime = time.Now()
	d.markDirty(h)
	d.logical.Add(int64(newSize) - int64(oldSize))
	for _, e := range dropped {
		d.st.unref(e.sum, epoch)
	}
	return nil
}

// writeTailLocked applies a write entirely at or past the last chunk
// boundary: grow the tail buffer, copy the data, and spill whatever
// chunks the write finalized. A gap the write opens past EOF is held as
// a hole while the bounds allow, and zero-filled otherwise. The caller
// holds the gate shared and fst.mu exclusively.
func (d *FS) writeTailLocked(h vfs.Handle, fst *fileState, off uint64, data []byte) error {
	man := fst.man
	// Reabsorb a Sync-forced short chunk on the next extending write: pop
	// it back into the tail so re-chunking restores the canonical cut
	// sequence. This reads the chunk back from the store: one chunk read
	// per Sync-then-append.
	if fst.forced && len(fst.tail) == 0 && len(man.ents) > 0 {
		last := man.ents[len(man.ents)-1]
		buf := make([]byte, last.n)
		if err := d.readChunkInto(last, 0, buf); err == nil {
			man.ents = man.ents[:len(man.ents)-1]
			man.rebuildOffs(len(man.ents))
			fst.tail = buf
			if len(man.ents) < fst.dirtyFrom {
				fst.dirtyFrom = len(man.ents)
			}
			d.st.unref(last.sum, d.syncStarted.Load())
		}
	}
	fst.forced = false

	committed := man.offs[len(man.ents)]
	oldSize := man.size
	fst.dirty = true
	fst.mtime = time.Now()
	d.markDirty(h)
	defer func() { d.logical.Add(int64(man.size) - int64(oldSize)) }()
	defer d.recountHeldLocked(fst)
	end := off + uint64(len(data))
	if off > man.size || len(fst.holes) > 0 {
		if d.mayHoldLocked(fst, max(end, man.size)-committed) {
			if off > man.size {
				fst.holes = append(fst.holes, span{man.size, off})
			}
		} else {
			// Past a bound: the holes stay zeros, as they read, and a gap
			// this write opens is zero-filled in bounded segments that
			// spill as they accumulate, so a far-EOF write never buffers
			// the gap in memory.
			fst.holes = nil
			const seg uint64 = 1 << 20
			for man.size < off {
				n := min(off-man.size, seg)
				fst.growTail(len(fst.tail) + int(n))
				man.size += n
				if err := d.spillTailLocked(fst, false); err != nil {
					return err
				}
			}
			committed = man.offs[len(man.ents)]
		}
	}
	if need := int(end - committed); len(fst.tail) < need {
		fst.growTail(need)
	}
	copy(fst.tail[off-committed:], data)
	fst.fillHoles(off, end)
	if end > man.size {
		man.size = end
	}
	return d.spillTailLocked(fst, false)
}

// growTail extends the tail with zeros to n bytes. A buffer that is too
// small is replaced by one at least twice its size: a tail held behind
// holes grows a WRITE at a time, and an exact fit would be copied whole
// at every one.
func (fst *fileState) growTail(n int) {
	if n > cap(fst.tail) {
		t := make([]byte, len(fst.tail), max(n, 2*cap(fst.tail)))
		copy(t, fst.tail)
		fst.tail = t
	}
	old := len(fst.tail)
	fst.tail = fst.tail[:n]
	clear(fst.tail[old:])
}

// mayHoldLocked reports whether fst may keep holes in a tail of n bytes
// under both bounds. The caller holds fst.mu exclusively.
func (d *FS) mayHoldLocked(fst *fileState, n uint64) bool {
	return n <= maxHeldTail && d.held.Load()-fst.held+int64(n) <= maxHeldBytes
}

// fillHoles takes the written range [lo, hi) out of the holes.
func (fst *fileState) fillHoles(lo, hi uint64) {
	if len(fst.holes) == 0 {
		return
	}
	var left []span
	for _, s := range fst.holes {
		if s.hi <= lo || s.lo >= hi {
			left = append(left, s)
			continue
		}
		if s.lo < lo {
			left = append(left, span{s.lo, lo})
		}
		if s.hi > hi {
			left = append(left, span{hi, s.hi})
		}
	}
	fst.holes = left
}

// settleHolesLocked gives up fst's holes: they stay zeros, as they
// already read, and the tail spills past where they stood. Sync,
// truncation and the overwrite path call it. The caller holds fst.mu
// exclusively.
func (d *FS) settleHolesLocked(fst *fileState) error {
	if len(fst.holes) == 0 {
		return nil
	}
	fst.holes = nil
	d.recountHeldLocked(fst)
	return d.spillTailLocked(fst, false)
}

// recountHeldLocked brings fst's share of the store-wide bound up to
// date. The caller holds fst.mu exclusively.
func (d *FS) recountHeldLocked(fst *fileState) {
	var n int64
	if len(fst.holes) > 0 {
		n = int64(len(fst.tail))
	}
	d.held.Add(n - fst.held)
	fst.held = n
}

// spillTailLocked moves finalized chunks out of the tail buffer into
// the chunk store, up to the first hole. A cut is final once it cannot
// move — a content cut with more bytes behind it, or a forced
// maximum-size cut; with force set (the Sync barrier, which settles the
// holes first) the provisional remainder is stored too, as a short
// chunk the next append at EOF reabsorbs. The caller holds fst.mu
// exclusively and owns the dirty bookkeeping.
func (d *FS) spillTailLocked(fst *fileState, force bool) error {
	man := fst.man
	tail := fst.tail
	if len(fst.holes) > 0 {
		tail = tail[:fst.holes[0].lo-man.offs[len(man.ents)]]
	}
	var cuts []int
	cur := 0
	for cur < len(tail) {
		n := d.p.Next(tail[cur:])
		if n < d.p.Max && cur+n == len(tail) && !force {
			break // provisional: the next write may move this cut
		}
		cur += n
		cuts = append(cuts, cur)
	}
	if len(cuts) == 0 {
		return nil
	}
	sums := d.hashCuts(tail, cuts)
	epoch := d.syncStarted.Load()
	for i := range cuts {
		start := 0
		if i > 0 {
			start = cuts[i-1]
		}
		if _, err := d.st.addRef(sums[i], tail[start:cuts[i]]); err != nil {
			for k := 0; k < i; k++ {
				d.st.unref(sums[k], epoch)
			}
			return err
		}
	}
	base := len(man.ents)
	for i := range cuts {
		start := 0
		if i > 0 {
			start = cuts[i-1]
		}
		man.ents = append(man.ents, entry{sum: sums[i], n: uint32(cuts[i] - start)})
	}
	man.rebuildOffs(base)
	if rest := fst.tail[cur:]; len(fst.holes) == 0 && cap(fst.tail) > maxKeptTail {
		// The holes that grew the buffer are filled: give it back.
		fst.tail = append([]byte(nil), rest...)
	} else {
		fst.tail = fst.tail[:copy(fst.tail, rest)]
	}
	return nil
}

// hashCuts computes the chunk addresses, fanning out to the worker
// pool; a saturated pool hashes inline (writers never block behind each
// other's hashing).
func (d *FS) hashCuts(region []byte, cuts []int) []sha {
	sums := make([]sha, len(cuts))
	if len(cuts) == 1 {
		sums[0] = sha256.Sum256(region[:cuts[0]])
		return sums
	}
	var wg sync.WaitGroup
	start := 0
	for i := range cuts {
		i, s, e := i, start, cuts[i]
		start = cuts[i]
		wg.Add(1)
		task := func() {
			sums[i] = sha256.Sum256(region[s:e])
			wg.Done()
		}
		select {
		case d.tasks <- task:
		default:
			task()
		}
	}
	wg.Wait()
	return sums
}

// SetAttr implements vfs.FS; size changes are logical truncates against
// the manifest, everything else passes through to the backing store —
// with the cached mtime kept in step, so a SETATTR(mtime) (tar/rsync
// timestamp restore) survives the attribute overlay.
func (d *FS) SetAttr(h vfs.Handle, s vfs.SetAttr) (vfs.Attr, error) {
	a, err := d.backing.GetAttr(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	if a.Type != vfs.TypeRegular {
		if s.Size != nil {
			return vfs.Attr{}, vfs.ErrInval
		}
		return d.backing.SetAttr(h, s)
	}
	d.gate.RLock()
	defer d.gate.RUnlock()
	if d.closed.Load() {
		return vfs.Attr{}, ErrClosed
	}
	fst, err := d.state(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	fst.mu.Lock()
	defer fst.mu.Unlock()
	if fst.gone {
		return vfs.Attr{}, vfs.ErrStale
	}
	if s.Size != nil {
		if err := d.truncateLocked(h, fst, *s.Size); err != nil {
			return vfs.Attr{}, err
		}
	}
	rest := s
	rest.Size = nil
	if rest != (vfs.SetAttr{}) {
		if a, err = d.backing.SetAttr(h, rest); err != nil {
			return vfs.Attr{}, err
		}
		if rest.Mtime != nil {
			fst.mtime = *rest.Mtime
		}
	}
	return d.overlayLocked(a, fst), nil
}

// truncateLocked resizes the logical file. Shrinks drop and re-chunk at
// the cut; grows append zero chunks (which dedup against each other, so
// sparse extension is cheap on disk).
func (d *FS) truncateLocked(h vfs.Handle, fst *fileState, newSize uint64) error {
	if err := d.settleHolesLocked(fst); err != nil {
		return err
	}
	man := fst.man
	old := man.size
	if newSize == old {
		return nil
	}
	if committed := man.offs[len(man.ents)]; newSize < old && newSize >= committed {
		// The cut lands inside the in-memory tail: no chunk changes.
		fst.tail = fst.tail[:newSize-committed]
		man.size = newSize
		fst.dirty = true
		fst.mtime = time.Now()
		d.markDirty(h)
		d.logical.Add(int64(newSize) - int64(old))
		return nil
	}
	if newSize > old {
		const seg = 1 << 20
		zeros := bufpool.Get(seg)
		defer bufpool.Put(zeros)
		for i := range zeros {
			zeros[i] = 0
		}
		for cur := old; cur < newSize; {
			n := newSize - cur
			if n > seg {
				n = seg
			}
			if err := d.writeLocked(h, fst, cur, zeros[:n]); err != nil {
				return err
			}
			cur += n
		}
		fst.mtime = time.Now()
		return nil
	}
	// Shrinking below the committed prefix: the tail is cut entirely.
	fst.tail = fst.tail[:0]
	fst.forced = false
	epoch := d.syncStarted.Load()
	j := 0
	var newEnts []entry
	if newSize > 0 {
		j = man.chunkAt(newSize)
		if man.offs[j] < newSize {
			// Re-chunk the partial cut chunk's surviving bytes.
			n := int(newSize - man.offs[j])
			buf := bufpool.Get(n)
			defer bufpool.Put(buf)
			if err := d.readRange(man, man.offs[j], buf); err != nil {
				return err
			}
			var cuts []int
			for cur := 0; cur < n; {
				c := d.p.Next(buf[cur:])
				cur += c
				cuts = append(cuts, cur)
			}
			sums := d.hashCuts(buf, cuts)
			for i := range cuts {
				start := 0
				if i > 0 {
					start = cuts[i-1]
				}
				if _, err := d.st.addRef(sums[i], buf[start:cuts[i]]); err != nil {
					for k := 0; k < i; k++ {
						d.st.unref(sums[k], epoch)
					}
					return err
				}
				newEnts = append(newEnts, entry{sum: sums[i], n: uint32(cuts[i] - start)})
			}
		}
	}
	dropped := append([]entry(nil), man.ents[j:]...)
	man.ents = append(man.ents[:j:j], newEnts...)
	man.size = newSize
	man.rebuildOffs(j)
	if j < fst.dirtyFrom {
		fst.dirtyFrom = j
	}
	fst.dirty = true
	fst.mtime = time.Now()
	d.markDirty(h)
	d.logical.Add(int64(newSize) - int64(old))
	for _, e := range dropped {
		d.st.unref(e.sum, epoch)
	}
	return nil
}

// Create implements vfs.FS.
func (d *FS) Create(dir vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	if d.reserved(dir, name) {
		return vfs.Attr{}, vfs.ErrPerm
	}
	a, err := d.backing.Create(dir, name, mode)
	if err != nil {
		return vfs.Attr{}, err
	}
	d.fmu.Lock()
	if d.files[a.Handle] == nil {
		fst := &fileState{man: emptyManifest(), disk: emptyLayout(), mtime: a.Mtime}
		d.files[a.Handle] = fst
	}
	d.fmu.Unlock()
	return a, nil
}

// Remove implements vfs.FS; dropping the last link releases the file's
// chunk references.
func (d *FS) Remove(dir vfs.Handle, name string) error {
	if d.reserved(dir, name) {
		return vfs.ErrPerm
	}
	d.gate.RLock()
	defer d.gate.RUnlock()
	a, err := d.backing.Lookup(dir, name)
	if err != nil {
		return err
	}
	if a.Type != vfs.TypeRegular {
		return d.backing.Remove(dir, name)
	}
	fst, err := d.state(a.Handle)
	if err != nil {
		return err
	}
	fst.mu.Lock()
	defer fst.mu.Unlock()
	if err := d.backing.Remove(dir, name); err != nil {
		return err
	}
	d.releaseIfGoneLocked(a.Handle, fst)
	return nil
}

// releaseIfGoneLocked drops h's chunk references when the inode no
// longer exists (last link removed or replaced); the caller holds
// fst.mu exclusively.
func (d *FS) releaseIfGoneLocked(h vfs.Handle, fst *fileState) {
	if _, err := d.backing.GetAttr(h); err == nil {
		return // other hard links remain
	}
	epoch := d.syncStarted.Load()
	for _, e := range fst.man.ents {
		d.st.unref(e.sum, epoch)
	}
	d.logical.Add(-int64(fst.man.size))
	fst.man = emptyManifest()
	fst.tail = nil
	fst.holes = nil
	d.recountHeldLocked(fst)
	fst.forced = false
	fst.dirty = false
	fst.dirtyFrom = 0
	fst.gone = true
	d.dropState(h)
}

// Rename implements vfs.FS; a replaced regular target releases its
// chunk references.
func (d *FS) Rename(fromDir vfs.Handle, fromName string, toDir vfs.Handle, toName string) error {
	if d.reserved(fromDir, fromName) || d.reserved(toDir, toName) {
		return vfs.ErrPerm
	}
	d.gate.RLock()
	defer d.gate.RUnlock()
	ta, terr := d.backing.Lookup(toDir, toName)
	if terr == nil && ta.Type == vfs.TypeRegular {
		if sa, serr := d.backing.Lookup(fromDir, fromName); serr == nil && sa.Handle == ta.Handle {
			return d.backing.Rename(fromDir, fromName, toDir, toName)
		}
		fst, err := d.state(ta.Handle)
		if err != nil {
			return err
		}
		fst.mu.Lock()
		defer fst.mu.Unlock()
		if err := d.backing.Rename(fromDir, fromName, toDir, toName); err != nil {
			return err
		}
		d.releaseIfGoneLocked(ta.Handle, fst)
		return nil
	}
	return d.backing.Rename(fromDir, fromName, toDir, toName)
}

// Mkdir implements vfs.FS.
func (d *FS) Mkdir(dir vfs.Handle, name string, mode uint32) (vfs.Attr, error) {
	if d.reserved(dir, name) {
		return vfs.Attr{}, vfs.ErrPerm
	}
	return d.backing.Mkdir(dir, name, mode)
}

// Rmdir implements vfs.FS.
func (d *FS) Rmdir(dir vfs.Handle, name string) error {
	if d.reserved(dir, name) {
		return vfs.ErrPerm
	}
	return d.backing.Rmdir(dir, name)
}

// ReadDir implements vfs.FS; the chunk store stays invisible.
func (d *FS) ReadDir(dir vfs.Handle) ([]vfs.DirEntry, error) {
	ents, err := d.backing.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	if dir != d.root {
		return ents, nil
	}
	out := ents[:0]
	for _, e := range ents {
		if e.Name != chunksName {
			out = append(out, e)
		}
	}
	return out, nil
}

// Symlink implements vfs.FS.
func (d *FS) Symlink(dir vfs.Handle, name, target string, mode uint32) (vfs.Attr, error) {
	if d.reserved(dir, name) {
		return vfs.Attr{}, vfs.ErrPerm
	}
	return d.backing.Symlink(dir, name, target, mode)
}

// Readlink implements vfs.FS.
func (d *FS) Readlink(h vfs.Handle) (string, error) { return d.backing.Readlink(h) }

// Link implements vfs.FS; hard links share one manifest (state is keyed
// by handle), so no reference counting changes here.
func (d *FS) Link(dir vfs.Handle, name string, target vfs.Handle) (vfs.Attr, error) {
	if d.reserved(dir, name) {
		return vfs.Attr{}, vfs.ErrPerm
	}
	a, err := d.backing.Link(dir, name, target)
	if err != nil {
		return vfs.Attr{}, err
	}
	return d.attrOf(a)
}

// StatFS implements vfs.FS; capacity is the backing store's (the whole
// point is that dedup makes it go further).
func (d *FS) StatFS() (vfs.StatFS, error) { return d.backing.StatFS() }

// ---- durability ----

// Sync implements vfs.FS: the COMMIT barrier. The write-behind
// manifest flush happens here, in crash-safe order:
//
//	A. device sync — chunk data becomes durable;
//	B. dirty manifests' records are written, always OUTSIDE the region
//	   the committed header governs (appends past the committed count;
//	   rewrites as a full array in the other slot; growth in a fresh
//	   doubled slot pair past both — see manLayout);
//	C. device sync — records durable (referencing only synced chunks);
//	D. headers are written (the commit point, one sub-block write each);
//	E. device sync.
//
// A power cut in any window leaves every manifest decoding to either
// its previous committed state or a later acknowledged one, never to a
// torn mix or a record that names an unsynced chunk.
func (d *FS) Sync() error {
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	started := d.syncStarted.Add(1)
	if err := d.backing.Sync(); err != nil {
		return err
	}
	d.dmu.Lock()
	set := d.dirtySet
	d.dirtySet = make(map[vfs.Handle]struct{})
	d.dmu.Unlock()
	type pendingHdr struct {
		h         vfs.Handle
		fst       *fileState
		layout    manLayout
		size      uint64
		prevDirty int
		buf       [hdrSize]byte
	}
	var hdrs []pendingHdr
	// flipped is set once phase D starts writing headers: from then on
	// an aborted flush leaves the on-disk headers in an unknown state
	// (some written, none acknowledged durable), which fail records on
	// the affected files so their next flush resynchronizes first.
	flipped := false
	// fail undoes an aborted flush: every file processed so far goes
	// back to dirty with its pre-flush dirtyFrom restored. Before the
	// header phase the committed state is provably still the old one
	// (records only ever land outside the governed region); after it,
	// fst.disk can no longer be trusted to match the on-disk header.
	fail := func(err error) error {
		for _, ph := range hdrs {
			ph.fst.mu.Lock()
			ph.fst.dirty = true
			if ph.prevDirty < ph.fst.dirtyFrom {
				ph.fst.dirtyFrom = ph.prevDirty
			}
			if flipped {
				ph.fst.diskUnknown = true
			}
			ph.fst.mu.Unlock()
		}
		d.dmu.Lock()
		for h := range set {
			d.dirtySet[h] = struct{}{}
		}
		d.dmu.Unlock()
		return err
	}
	for h := range set {
		d.fmu.Lock()
		fst := d.files[h]
		d.fmu.Unlock()
		if fst == nil {
			continue
		}
		fst.mu.Lock()
		if !fst.dirty || fst.man == nil {
			fst.mu.Unlock()
			continue
		}
		if fst.diskUnknown {
			// A previous Sync died after writing headers it never saw
			// acknowledged. The phase-A device sync above made whatever
			// header the backing holds durable, so re-reading it is the
			// ground truth for which slot the committed header governs —
			// without it a rewrite could target the governed slot and a
			// crash mid-rewrite would tear the manifest.
			l, lerr := d.readLayout(h)
			if errors.Is(lerr, vfs.ErrStale) || errors.Is(lerr, vfs.ErrNotExist) {
				fst.dirty = false
				fst.mu.Unlock()
				continue // file is gone; nothing to persist
			}
			if lerr != nil {
				fst.mu.Unlock()
				return fail(lerr)
			}
			fst.disk = l
			fst.diskUnknown = false
		}
		// Force the open tail chunk out, holes stored as the zeros they
		// read as: the manifest about to commit must cover every
		// acknowledged byte. The chunk write lands before the phase-C
		// sync below, so the ordering invariant (no committed record
		// names an unsynced chunk) holds.
		if err := d.settleHolesLocked(fst); err != nil {
			fst.mu.Unlock()
			return fail(err)
		}
		if len(fst.tail) > 0 {
			if err := d.spillTailLocked(fst, true); err != nil {
				fst.mu.Unlock()
				return fail(err)
			}
			fst.forced = true
		}
		n := len(fst.man.ents)
		next := manLayout{start: fst.disk.start, base: fst.disk.base, cap: fst.disk.cap, count: n}
		writeFrom := 0
		switch {
		case fst.disk.cap < 1 || n > fst.disk.cap:
			// Outgrown the slots — or a fresh file's first commit (the
			// emptyLayout's zero-capacity slots), which must size a real
			// slot pair even when the manifest itself is empty (a file
			// truncated to zero before its first flush): a committed
			// header never carries cap 0.
			next.cap = 2 * n
			if next.cap < 64 {
				next.cap = 64
			}
			next.base = fst.disk.base + 2*uint64(fst.disk.cap)*recSize
			next.start = next.base
		case fst.dirtyFrom >= fst.disk.count:
			// Committed records untouched: append past them in place.
			writeFrom = fst.disk.count
		default:
			// A committed record changed: full array into the other slot.
			if fst.disk.start == fst.disk.base {
				next.start = fst.disk.base + uint64(fst.disk.cap)*recSize
			} else {
				next.start = fst.disk.base
			}
		}
		if cnt := n - writeFrom; cnt > 0 {
			buf := bufpool.Get(cnt * recSize)
			for i := 0; i < cnt; i++ {
				encodeRec(buf[i*recSize:], fst.man.ents[writeFrom+i])
			}
			_, werr := d.backing.Write(h, next.start+uint64(writeFrom)*recSize, buf)
			bufpool.Put(buf)
			if errors.Is(werr, vfs.ErrStale) || errors.Is(werr, vfs.ErrNotExist) {
				fst.dirty = false
				fst.mu.Unlock()
				continue // file is gone; nothing to persist
			}
			if werr != nil {
				fst.mu.Unlock()
				return fail(werr)
			}
		}
		ph := pendingHdr{h: h, fst: fst, layout: next, size: fst.man.size, prevDirty: fst.dirtyFrom}
		encodeHeader(ph.buf[:], ph.size, next)
		hdrs = append(hdrs, ph)
		fst.dirty = false
		fst.dirtyFrom = n
		fst.mu.Unlock()
	}
	if err := d.backing.Sync(); err != nil {
		return fail(err)
	}
	flipped = true
	for _, ph := range hdrs {
		if _, err := d.backing.Write(ph.h, 0, ph.buf[:]); err != nil &&
			!errors.Is(err, vfs.ErrStale) && !errors.Is(err, vfs.ErrNotExist) {
			return fail(err)
		}
	}
	if err := d.backing.Sync(); err != nil {
		return fail(err)
	}
	for _, ph := range hdrs {
		ph.fst.mu.Lock()
		ph.fst.disk = ph.layout
		ph.fst.mu.Unlock()
	}
	d.syncDone.Store(started)
	return nil
}

// ---- GC ----

// sweepOnce runs one GC cycle: a full Sync (so on-disk manifests agree
// with memory), then — under the exclusive quiesce gate — reclamation
// of every chunk whose refcount zeroed before that sync. The hot path
// truncates chunk files rather than unlinking them (crash-safe against
// torn directory rewrites in the backing FS); Close passes unlink=true
// to compact the chunk namespace on clean shutdown.
func (d *FS) sweepOnce(unlink bool) int {
	if err := d.Sync(); err != nil {
		return 0
	}
	d.gate.Lock()
	n := d.st.sweep(d.syncDone.Load(), unlink)
	d.gate.Unlock()
	return n
}

// SweepNow forces one GC cycle and reports how many chunks it
// reclaimed (tests, soak harness, shutdown).
func (d *FS) SweepNow() int { return d.sweepOnce(false) }

// VerifyResult is the refcount fsck outcome.
type VerifyResult struct {
	Chunks       int // chunk files indexed
	Orphans      int // zero-reference chunks awaiting the sweeper
	RefMismatch  int // chunks whose in-memory refcount disagrees with the manifests
	MissingChunk int // manifest entries naming a chunk the store lacks
}

// Verify recomputes every chunk's reference count from the on-disk
// manifests (after a full Sync) and compares with the live index — the
// soak harness's leak gate. It holds the quiesce gate exclusively.
func (d *FS) Verify() (VerifyResult, error) {
	if err := d.Sync(); err != nil {
		return VerifyResult{}, err
	}
	d.gate.Lock()
	defer d.gate.Unlock()
	want := make(map[sha]int64)
	err := d.walkManifests(func(h vfs.Handle, man *manifest) error {
		for _, e := range man.ents {
			want[e.sum]++
		}
		return nil
	})
	if err != nil {
		return VerifyResult{}, err
	}
	have := d.st.snapshotRefs()
	var res VerifyResult
	res.Chunks = len(have)
	for sum, refs := range have {
		if refs == 0 {
			res.Orphans++
		}
		if want[sum] != refs {
			res.RefMismatch++
		}
	}
	for sum := range want {
		if _, ok := have[sum]; !ok {
			res.MissingChunk++
		}
	}
	return res, nil
}

// ---- lifecycle ----

// Close flushes manifests, stops the background workers and sweeps
// once so a clean shutdown leaves no garbage chunks behind.
func (d *FS) Close() error {
	var err error
	d.once.Do(func() {
		err = d.Sync()
		d.sweepOnce(true)
		d.closed.Store(true)
		close(d.stop)
		d.wg.Wait()
	})
	return err
}

// abort stops the background goroutines without flushing — the crash
// suite uses it to abandon a layer whose in-memory state must not heal
// the simulated power cut.
func (d *FS) abort() {
	d.once.Do(func() {
		d.closed.Store(true)
		close(d.stop)
		d.wg.Wait()
	})
}

// Stats is a counters snapshot for the metrics plane.
type Stats struct {
	Chunks       int64  // unique chunks stored
	BytesLogical int64  // bytes addressable through manifests
	BytesStored  int64  // bytes held in chunk files
	Hits         uint64 // writes absorbed as pure index mutations
	GCChunks     uint64 // chunks reclaimed by the sweeper
	GCBytes      uint64 // bytes reclaimed by the sweeper
}

// Stats returns a snapshot.
func (d *FS) Stats() Stats {
	return Stats{
		Chunks:       d.st.chunks.Load(),
		BytesLogical: d.logical.Load(),
		BytesStored:  d.st.storedBytes.Load(),
		Hits:         d.st.hits.Load(),
		GCChunks:     d.st.gcChunks.Load(),
		GCBytes:      d.st.gcBytes.Load(),
	}
}

// Params returns the chunk geometry in use.
func (d *FS) Params() Params { return d.p }
