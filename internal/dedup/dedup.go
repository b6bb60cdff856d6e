package dedup

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
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
// The records may cover less than the header's size: the rest of the
// file, its raw suffix, lives in a sibling file under rawName, byte x at
// offset x plus the header's shift (see manifest.shift). Past the
// sibling's end the suffix reads as zeros.
//
// Crash ordering (enforced by Sync): chunk and raw suffix data is made
// durable before any record referencing it is written, records are made
// durable before the header that extends their count or the size, and
// the header — the commit point — is a single sub-block write. Manifest
// files never shrink; records past the header's count are dead and
// ignored.
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
// chunk start offsets (len(ents)+1 items) for binary-searched reads;
// offs[len(ents)] is where the raw suffix starts, and [it, size) lives
// in the sibling file at shift past its offset. shift is 0 until a
// truncation has to move the suffix past bytes a committed header
// still reads (see FS.claimLocked).
type manifest struct {
	size  uint64
	shift uint64
	ents  []entry
	offs  []uint64
}

func emptyManifest() *manifest { return &manifest{offs: []uint64{0}} }

// prefix is the end of the chunked part of the file.
func (m *manifest) prefix() uint64 { return m.offs[len(m.ents)] }

// rawEnd is the sibling length the manifest reads: 0 when the records
// cover the whole file.
func (m *manifest) rawEnd() uint64 {
	if m.prefix() == m.size {
		return 0
	}
	return m.size + m.shift
}

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

// chunkAt returns the index of the chunk containing pos < prefix().
func (m *manifest) chunkAt(pos uint64) int {
	i, found := slices.BinarySearch(m.offs, pos)
	if !found {
		i--
	}
	return i
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
	// gone marks a state dropped by dropLink (last link
	// removed). A writer that fetched the state before the drop must
	// fail with ErrStale instead of mutating the orphan — chunk refs
	// added to a dropped state are never flushed or released.
	gone bool
	// loaders counts state calls between taking the entry from d.files
	// and finishing its load; guarded by d.fmu. A failed load forgets
	// the entry only when it is the last.
	loaders int
	mtime   time.Time
	// sib is the sibling file holding the raw suffix (see manifest),
	// zero until the layer first needs it; sibEnd bounds its length.
	// A WRITE past the chunked prefix is one write into it, so no chunk
	// is cut or hashed while the client is still sending the file:
	// the sweeper chunks it once it is committed and idle (sweepFile).
	sib    vfs.Handle
	sibEnd uint64
	// keep is the sibling length the committed header reads (its
	// rawEnd). Bytes below it may not change until a later header
	// commits, or a power cut would tear the committed file. Sync raises
	// it as it encodes a header and sets it once the header is durable.
	keep uint64
	// wrote marks a write or truncation since the sweeper last looked.
	wrote bool
	// forced marks the last manifest entry as a short chunk cut only
	// because the data ended there; the next seal rescans it together
	// with the raw suffix, so the chunk sequence converges back to the
	// canonical content-defined one (and duplicate detection keeps
	// working across sweeps).
	forced bool
}

// sealWindow is how much raw suffix a seal reads and chunks at once. It
// holds a maximum-size chunk twice over, so every window but the last
// finalizes at least one cut.
const sealWindow = 2 * maxChunkCeil

// Option configures Wrap.
type Option func(*config)

type config struct {
	params     Params
	sweepEvery time.Duration
}

// WithParams sets the chunk geometry.
func WithParams(p Params) Option { return func(c *config) { c.params = p } }

// WithAvgChunkSize derives the geometry from a target average chunk
// size; the server passes maxTransfer/8 so one full WRITE spans several
// chunks.
func WithAvgChunkSize(avg int) Option {
	return func(c *config) { c.params = ParamsForAvg(avg) }
}

// WithSweepInterval sets the sweeper's cadence, which is both how often
// committed, idle raw suffixes are chunked and how often zero-reference
// chunks are reclaimed (0 disables the sweeper goroutine; SweepNow and
// Close still chunk and reclaim).
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
	raw     *fanout
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
	}
	for _, o := range opts {
		o(&cfg)
	}
	if !cfg.params.valid() {
		return nil, fmt.Errorf("dedup: invalid chunk params %+v", cfg.params)
	}
	st, err := newStore(backing)
	if err != nil {
		return nil, err
	}
	raw, err := newFanout(backing, rawName)
	if err != nil {
		return nil, fmt.Errorf("dedup: raw suffix root: %w", err)
	}
	d := &FS{
		backing:    backing,
		p:          cfg.params,
		st:         st,
		root:       backing.Root(),
		raw:        raw,
		files:      make(map[vfs.Handle]*fileState),
		dirtySet:   make(map[vfs.Handle]struct{}),
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
	if d.sweepEvery > 0 {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			t := time.NewTicker(d.sweepEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					d.sweepOnce(false, false)
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
// sweeper. Last, a raw suffix file no committed header reads (its owner
// is gone, was swept, or never committed one) is removed, and every
// file whose header does read one is loaded, which cuts the sibling to
// what the header reads (loadLocked) and puts the file in the first
// sweep's way.
func (d *FS) mount() error {
	if err := d.st.scan(); err != nil {
		return err
	}
	owners := make(map[string]vfs.Handle)
	err := d.walkManifests(func(h vfs.Handle, man *manifest) error {
		for _, e := range man.ents {
			if err := d.st.tally(e.sum, e.n); err != nil {
				return err
			}
		}
		d.logical.Add(int64(man.size))
		if man.rawEnd() > 0 {
			owners[rawFileName(h)] = h
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = d.raw.each(func(dir vfs.Handle, e vfs.DirEntry) error {
		if _, live := owners[e.Name]; !live {
			_ = d.backing.Remove(dir, e.Name) // debris; the next mount retries
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, h := range owners {
		if _, err := d.state(h); err != nil {
			return err
		}
	}
	return nil
}

// walkManifests visits every regular file's on-disk manifest exactly
// once (hard links dedupe by handle), skipping the reserved directories.
func (d *FS) walkManifests(visit func(vfs.Handle, *manifest) error) error {
	seen := make(map[vfs.Handle]bool)
	var walk func(dir vfs.Handle) error
	walk = func(dir vfs.Handle) error {
		ents, err := d.backing.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, de := range ents {
			if d.reserved(dir, de.Name) || seen[de.Handle] {
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

func encodeHeader(buf []byte, size, shift uint64, l manLayout) {
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
	binary.LittleEndian.PutUint64(buf[48:], shift)
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
// backing file's size. An all-zero header (a manifest whose first flush
// never committed) decodes as an empty file. A cap-0 layout is accepted
// when the count is also 0 — headers committed for files truncated to
// empty before their first record flush look like this. Headers written
// before raw suffixes existed hold zeros where the shift is.
func decodeHeader(hdr []byte, backingSize uint64) (size, shift uint64, l manLayout, err error) {
	mg := binary.LittleEndian.Uint64(hdr[0:])
	if mg == 0 {
		return 0, 0, emptyLayout(), nil
	}
	if mg != magic {
		return 0, 0, manLayout{}, fmt.Errorf("%w: bad manifest magic", vfs.ErrIO)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != verCurr {
		return 0, 0, manLayout{}, fmt.Errorf("%w: manifest version %d", vfs.ErrIO, v)
	}
	size = binary.LittleEndian.Uint64(hdr[16:])
	shift = binary.LittleEndian.Uint64(hdr[48:])
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
		l.count > 0 && (l.start > backingSize || uint64(l.count)*recSize > backingSize-l.start),
		size+shift < size:
		return 0, 0, manLayout{}, fmt.Errorf("%w: manifest geometry corrupt", vfs.ErrIO)
	}
	return size, shift, l, nil
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
	size, shift, l, err := decodeHeader(hdr[:], a.Size)
	if err != nil {
		return nil, manLayout{}, err
	}
	n := l.count
	m := &manifest{size: size, shift: shift, ents: make([]entry, n)}
	raw := bufpool.Get(n * recSize)
	defer bufpool.Put(raw)
	if nn, _, err := d.backing.ReadInto(a.Handle, l.start, raw); err != nil {
		return nil, manLayout{}, err
	} else if nn != len(raw) {
		return nil, manLayout{}, fmt.Errorf("%w: manifest short read", vfs.ErrIO)
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
	if total > size {
		return nil, manLayout{}, fmt.Errorf("%w: manifest covers %d bytes, header says %d", vfs.ErrIO, total, size)
	}
	m.offs = make([]uint64, n+1)
	m.rebuildOffs(0)
	return m, l, nil
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
	fst.loaders++
	d.fmu.Unlock()
	fst.mu.Lock()
	defer fst.mu.Unlock()
	err := d.loadLocked(h, fst)
	d.fmu.Lock()
	fst.loaders--
	if err != nil && fst.loaders == 0 && d.files[h] == fst {
		// Nothing loaded the state and no other caller is about to try:
		// forget it, or every stale handle, directory or symlink read
		// would leave an empty entry for the store's lifetime.
		delete(d.files, h)
	}
	d.fmu.Unlock()
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
	switch a.Type {
	case vfs.TypeRegular:
	case vfs.TypeDir:
		return vfs.ErrIsDir // the backing store's error for directory data
	default:
		return vfs.ErrInval
	}
	man, layout, err := d.readManifest(a)
	if err != nil {
		return err
	}
	if fst.keep = man.rawEnd(); fst.keep > 0 {
		// Bytes past what the header reads were never committed: cut
		// them, so none reappears inside a later gap.
		if _, err := d.siblingLocked(h, fst); err != nil {
			return err
		}
		if err := d.cutSibLocked(fst, fst.keep); err != nil {
			return err
		}
	}
	fst.man = man
	fst.disk = layout
	fst.dirty = false
	fst.dirtyFrom = len(man.ents)
	fst.mtime = a.Mtime
	return nil
}

// rawName is the reserved root directory of the raw suffix files, one
// per regular file that has had a raw suffix since the mount, named by
// its owner's handle and fanned out by the low byte of its ino. Like the
// chunk store, the layer hides it from the namespace.
const rawName = ".raw"

func rawFileName(h vfs.Handle) string {
	return strconv.FormatUint(h.Ino, 16) + "-" + strconv.FormatUint(uint64(h.Gen), 16)
}

// siblingLocked returns h's raw suffix file, creating it on first use.
// The caller holds fst.mu exclusively.
func (d *FS) siblingLocked(h vfs.Handle, fst *fileState) (vfs.Handle, error) {
	if fst.sib.IsZero() {
		dir, err := d.raw.dir(byte(h.Ino))
		if err != nil {
			return vfs.Handle{}, err
		}
		name := rawFileName(h)
		a, err := d.backing.Create(dir, name, 0o600)
		if errors.Is(err, vfs.ErrExist) {
			a, err = d.backing.Lookup(dir, name)
		}
		if err != nil {
			return vfs.Handle{}, err
		}
		fst.sib, fst.sibEnd = a.Handle, a.Size
	}
	return fst.sib, nil
}

// cutSibLocked cuts the raw suffix file to n bytes if it is longer. The
// caller holds fst.mu exclusively.
func (d *FS) cutSibLocked(fst *fileState, n uint64) error {
	if fst.sibEnd <= n {
		return nil
	}
	if _, err := d.backing.SetAttr(fst.sib, vfs.SetAttr{Size: &n}); err != nil {
		return err
	}
	fst.sibEnd = n
	return nil
}

// readRaw fills dst with the raw suffix at off: the sibling's bytes,
// then zeros past its end. The caller holds fst.mu.
func (d *FS) readRaw(fst *fileState, off uint64, dst []byte) error {
	n := 0
	if !fst.sib.IsZero() {
		var err error
		if n, _, err = d.backing.ReadInto(fst.sib, off+fst.man.shift, dst); err != nil {
			return err
		}
	}
	clear(dst[n:])
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

// Lookup implements vfs.FS; the chunk store and the raw suffix
// directories are invisible.
func (d *FS) Lookup(dir vfs.Handle, name string) (vfs.Attr, error) {
	if d.reserved(dir, name) {
		return vfs.Attr{}, vfs.ErrNotExist
	}
	a, err := d.backing.Lookup(dir, name)
	if err != nil {
		return vfs.Attr{}, err
	}
	return d.attrOf(a)
}

// reserved reports namespace operations aimed at the chunk store root
// or the raw suffix root.
func (d *FS) reserved(dir vfs.Handle, name string) bool {
	return dir == d.root && (name == chunksName || name == rawName)
}

// Read implements vfs.FS.
func (d *FS) Read(h vfs.Handle, off uint64, count uint32) ([]byte, bool, error) {
	return vfs.ReadAlloc(d, h, off, count)
}

// ReadInto implements vfs.FS: the read plane assembles file content
// from chunks and the raw suffix directly into the caller's buffer.
func (d *FS) ReadInto(h vfs.Handle, off uint64, dst []byte) (int, bool, error) {
	fst, err := d.state(h)
	if err != nil {
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
	n := min(uint64(len(dst)), man.size-off)
	buf := dst[:n]
	if prefix := man.prefix(); off < prefix {
		cn := min(n, prefix-off)
		if err := d.readRange(man, off, buf[:cn]); err != nil {
			return 0, false, err
		}
		buf, off = buf[cn:], off+cn
	}
	if len(buf) > 0 {
		if err := d.readRaw(fst, off, buf); err != nil {
			return 0, false, err
		}
	}
	return int(n), off+uint64(len(buf)) >= man.size, nil
}

// Write implements vfs.FS. A write at or past the end of the chunked
// prefix — every append — is one write into the raw suffix file; no
// chunk is cut, hashed or stored until the sweeper takes the file.
func (d *FS) Write(h vfs.Handle, off uint64, data []byte) (vfs.Attr, error) {
	a, err := d.backing.GetAttr(h)
	if err != nil {
		return vfs.Attr{}, err
	}
	d.gate.RLock()
	defer d.gate.RUnlock()
	if d.closed.Load() {
		return vfs.Attr{}, ErrClosed
	}
	fst, err := d.state(h) // a directory or symlink fails its load
	if err != nil {
		return vfs.Attr{}, err
	}
	fst.mu.Lock()
	defer fst.mu.Unlock()
	if len(data) > 0 {
		if err := d.writeLocked(h, fst, off, data); err != nil {
			return vfs.Attr{}, err
		}
	}
	return d.overlayLocked(a, fst), nil
}

// writeLocked applies one write; the caller holds the gate shared and
// fst.mu exclusively. The part inside the chunked prefix takes the
// re-chunk path; the rest goes to the raw suffix file.
func (d *FS) writeLocked(h vfs.Handle, fst *fileState, off uint64, data []byte) error {
	if fst.gone {
		// A Remove dropped this state between the writer's state fetch
		// and its lock: mutating the orphan would pin chunk refs no Sync
		// or sweep can ever see again.
		return vfs.ErrStale
	}
	man := fst.man
	oldSize := man.size
	defer func() {
		d.touchLocked(h, fst) // even if it failed part-way
		d.logical.Add(int64(man.size) - int64(oldSize))
	}()
	end := off + uint64(len(data))
	if end > man.prefix() {
		if err := d.claimLocked(h, fst, max(off, man.prefix())); err != nil {
			return err
		}
	}
	if p := man.prefix(); off < p {
		n := min(end, p) - off
		if err := d.rechunkLocked(fst, off, data[:n]); err != nil {
			return err
		}
		off, data = off+n, data[n:]
	}
	if len(data) > 0 {
		sib, err := d.siblingLocked(h, fst)
		if err != nil {
			return err
		}
		fst.sibEnd = max(fst.sibEnd, end+man.shift) // a failed write may leave bytes too
		if _, err := d.backing.Write(sib, off+man.shift, data); err != nil {
			return err
		}
		man.size = max(man.size, end)
	}
	return nil
}

// touchLocked records a change to the file: dirty for the next Sync,
// new mtime, and not idle for the sweeper.
func (d *FS) touchLocked(h vfs.Handle, fst *fileState) {
	fst.dirty, fst.wrote = true, true
	fst.mtime = time.Now()
	d.markDirty(h)
}

// claimLocked readies the raw suffix file for a change from file offset
// from on. A committed header reads the sibling below fst.keep, and a
// power cut must find those bytes as it committed them: if the change
// reaches below keep, the raw suffix is chunked first (sealLocked, whose
// chunks are copy-on-write), and the suffix that follows starts past
// keep (man.shift). Bytes past the file's end are cut, so none
// reappears when the file grows over them. The caller holds the gate
// shared and fst.mu exclusively.
func (d *FS) claimLocked(h vfs.Handle, fst *fileState, from uint64) error {
	man := fst.man
	if from+man.shift < fst.keep {
		if err := d.sealLocked(h, fst); err != nil {
			return err
		}
		if fst.keep > man.size+man.shift {
			man.shift = fst.keep - man.size
		}
	}
	return d.cutSibLocked(fst, man.size+man.shift)
}

// rechunkLocked applies a write that lies inside the chunked prefix.
// The affected region is re-chunked from the preceding chunk boundary;
// chunking resumes old boundaries as soon as a cut coincides with one
// past the write (the CDC resynchronization property), so an overwrite
// re-hashes O(written bytes), not the file. When it reaches the end of
// the prefix without resyncing, it cuts there by force: the raw suffix
// stays where it is, and the next seal rescans the short chunk. Each
// chunk is hashed as its cut is found and stored once; duplicate chunks
// mutate only the manifest. The caller holds the gate shared and fst.mu
// exclusively and owns the dirty bookkeeping.
func (d *FS) rechunkLocked(fst *fileState, off uint64, data []byte) error {
	man := fst.man
	prefix := man.prefix()
	end := off + uint64(len(data))

	// The region to re-chunk starts at the boundary of the chunk
	// containing the write offset.
	b0Idx := man.chunkAt(off)
	b0 := man.offs[b0Idx]
	pre := int(off - b0)

	// Materialize [b0, end) into a pooled buffer: preserved prefix
	// bytes, then the new data.
	region := bufpool.Get(pre + len(data))
	defer func() { bufpool.Put(region) }()
	if pre > 0 {
		if err := d.readRange(man, b0, region[:pre]); err != nil {
			return err
		}
	}
	copy(region[pre:], data)
	regionEnd := end

	// nextOld is the chunk containing regionEnd (== len(ents) once
	// regionEnd reaches the end of the prefix).
	nextOld := len(man.ents)
	if end < prefix {
		nextOld = man.chunkAt(end)
	}

	var newEnts []entry
	cur := 0
	suffix := len(man.ents)
	forced := false
	for {
		if cur < len(region) {
			n := d.p.Next(region[cur:])
			if n == d.p.Max || n < len(region)-cur {
				newEnts = append(newEnts, chunkEntry(region[cur:cur+n]))
				cur += n
				if cutAbs := b0 + uint64(cur); cutAbs >= end {
					if j, ok := slices.BinarySearch(man.offs, cutAbs); ok {
						suffix = j // resynchronized with the old chunk sequence
						break
					}
				}
				continue
			}
		}
		// The region ends in a provisional cut, or is cut through.
		if nextOld == len(man.ents) {
			if cur < len(region) {
				newEnts = append(newEnts, chunkEntry(region[cur:])) // the end of the prefix: cut by force
				forced = true
			}
			break
		}
		// The prefix continues: pull in the rest of the next chunk and
		// re-chunk across it.
		oldLen := len(region)
		stop := man.offs[nextOld+1]
		region = bufpool.Grow(region, oldLen+int(stop-regionEnd))
		inner := regionEnd - man.offs[nextOld]
		if err := d.readChunkInto(man.ents[nextOld], inner, region[oldLen:]); err != nil {
			return err
		}
		regionEnd = stop
		nextOld++
	}

	if err := d.storeChunks(region, newEnts); err != nil {
		return err
	}

	epoch := d.syncStarted.Load()
	for _, e := range man.ents[b0Idx:suffix] {
		d.st.unref(e.sum, epoch)
	}
	if suffix == len(man.ents) {
		fst.forced = forced
	}
	man.ents = slices.Replace(man.ents, b0Idx, suffix, newEnts...)
	man.rebuildOffs(b0Idx)
	fst.dirtyFrom = min(fst.dirtyFrom, b0Idx)
	return nil
}

// sealLocked moves the raw suffix into the chunk store: it reads it
// sealWindow bytes at a time, stores every chunk a window finalizes,
// appends the records and carries the rest into the next window, and
// cuts the last chunk by force at the end of the file. A forced last
// chunk from an earlier seal is rescanned first: no content cut lies
// inside it, so the first cut of the rescan lies past it. The sibling
// keeps its bytes (a committed header may still read them); the sweeper
// cuts it once a header without a raw suffix is durable. The caller
// holds the gate shared and fst.mu exclusively.
func (d *FS) sealLocked(h vfs.Handle, fst *fileState) error {
	man := fst.man
	pos := man.prefix()
	if pos == man.size {
		return nil
	}
	fst.dirty = true
	d.markDirty(h)
	buf := bufpool.Get(sealWindow)
	defer bufpool.Put(buf)
	k, carry := len(man.ents), 0 // records from k on are replaced
	if fst.forced && k > 0 {
		k--
		carry = int(man.ents[k].n)
		if err := d.readChunkInto(man.ents[k], 0, buf[:carry]); err != nil {
			return err
		}
	}
	for pos < man.size {
		n := carry + int(min(uint64(len(buf)-carry), man.size-pos))
		if err := d.readRaw(fst, pos, buf[carry:n]); err != nil {
			return err
		}
		pos += uint64(n - carry)
		cur, err := d.chunkFrom(fst, k, buf[:n], pos < man.size)
		if err != nil {
			return err
		}
		k = len(man.ents)
		carry = copy(buf, buf[cur:n])
	}
	fst.forced = true
	return nil
}

// chunkFrom chunks data, stores the chunks and makes them the manifest's
// records from index k on, releasing the records they replace. With
// more set, the file goes on past data, so a last cut that the next
// bytes may still move is left out; it reports how many bytes of data
// it chunked. The caller holds fst.mu exclusively.
func (d *FS) chunkFrom(fst *fileState, k int, data []byte, more bool) (int, error) {
	man := fst.man
	var ents []entry
	cur := 0
	for cur < len(data) {
		c := d.p.Next(data[cur:])
		if more && c < d.p.Max && cur+c == len(data) {
			break
		}
		ents = append(ents, chunkEntry(data[cur:cur+c]))
		cur += c
	}
	if err := d.storeChunks(data, ents); err != nil {
		return 0, err
	}
	epoch := d.syncStarted.Load()
	for _, e := range man.ents[k:] {
		d.st.unref(e.sum, epoch)
	}
	man.ents = append(man.ents[:k], ents...)
	man.rebuildOffs(k)
	fst.dirtyFrom = min(fst.dirtyFrom, k)
	return cur, nil
}

// chunkEntry is the manifest record of one chunk.
func chunkEntry(c []byte) entry { return entry{sum: sha256.Sum256(c), n: uint32(len(c))} }

// storeChunks takes a reference on each of ents, whose bytes lie back to
// back from the start of data, writing the chunks the store lacks. On
// failure it releases every reference it took.
func (d *FS) storeChunks(data []byte, ents []entry) error {
	for i, e := range ents {
		if _, err := d.st.addRef(e.sum, data[:e.n]); err != nil {
			epoch := d.syncStarted.Load()
			for _, r := range ents[:i] {
				d.st.unref(r.sum, epoch)
			}
			return err
		}
		data = data[e.n:]
	}
	return nil
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

// truncateLocked resizes the logical file. A cut inside the chunked
// prefix drops the chunks past it and re-chunks the surviving bytes of
// the chunk it lands in, the last of them cut by force; a cut inside
// the raw suffix only moves the end. A grow is a size change and
// nothing else: the raw suffix reads zeros past the sibling's end. The
// caller holds the gate shared and fst.mu exclusively.
func (d *FS) truncateLocked(h vfs.Handle, fst *fileState, newSize uint64) error {
	man := fst.man
	old := man.size
	if newSize == old {
		return nil
	}
	if newSize < man.prefix() {
		j := man.chunkAt(newSize)
		buf := bufpool.Get(int(newSize - man.offs[j]))
		defer bufpool.Put(buf)
		if err := d.readRange(man, man.offs[j], buf); err != nil {
			return err
		}
		if _, err := d.chunkFrom(fst, j, buf, false); err != nil {
			return err
		}
		fst.forced = len(buf) > 0
	}
	man.size = newSize
	d.touchLocked(h, fst)
	d.logical.Add(int64(newSize) - int64(old))
	return d.claimLocked(h, fst, newSize)
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
	return d.dropLink(a.Handle, func() error { return d.backing.Remove(dir, name) })
}

// dropLink runs op, which drops a link to the regular file h (a Remove,
// or a Rename over it), under h's lock, and releases h's chunk
// references and raw suffix file when the inode no longer exists.
func (d *FS) dropLink(h vfs.Handle, op func() error) error {
	fst, err := d.state(h)
	if err != nil {
		return err
	}
	fst.mu.Lock()
	defer fst.mu.Unlock()
	if err := op(); err != nil {
		return err
	}
	if _, err := d.backing.GetAttr(h); err == nil {
		return nil // other hard links remain
	}
	epoch := d.syncStarted.Load()
	for _, e := range fst.man.ents {
		d.st.unref(e.sum, epoch)
	}
	d.logical.Add(-int64(fst.man.size))
	fst.man = emptyManifest()         // a racing dropLink must not release it twice
	fst.dirty, fst.gone = false, true // a Sync that holds the state skips it
	d.dropState(h)
	if !fst.sib.IsZero() {
		// A sibling left behind (the removal failed, or a crash lost it)
		// is removed at the next mount.
		dir, _ := d.raw.dir(byte(h.Ino)) // made with the sibling
		_ = d.backing.Remove(dir, rawFileName(h))
	}
	return nil
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
		return d.dropLink(ta.Handle, func() error { return d.backing.Rename(fromDir, fromName, toDir, toName) })
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

// ReadDir implements vfs.FS; the chunk store and the raw suffix
// directories stay invisible.
func (d *FS) ReadDir(dir vfs.Handle) ([]vfs.DirEntry, error) {
	ents, err := d.backing.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := ents[:0]
	for _, e := range ents {
		if !d.reserved(dir, e.Name) {
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
//	A. device sync — chunk and raw suffix data becomes durable;
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
func (d *FS) Sync() error { return d.commit(nil) }

// commit is Sync over the dirty files pick accepts (all when pick is
// nil); the rest stay dirty. One that leaves a dirty file out does not
// count as a completed Sync for the chunk sweep: a manifest it left out
// may still name a chunk released before it started.
func (d *FS) commit(pick func(*fileState) bool) error {
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
		keep      uint64
		prevDirty int
		buf       [hdrSize]byte
	}
	var hdrs []pendingHdr
	partial := false
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
		if pick != nil && !pick(fst) {
			fst.mu.Unlock()
			d.markDirty(h)
			partial = true
			continue
		}
		if fst.diskUnknown {
			// A previous Sync died after writing headers it never saw
			// acknowledged. The phase-A device sync above made whatever
			// header the backing holds durable, so re-reading it is the
			// ground truth for which slot the committed header governs —
			// without it a rewrite could target the governed slot and a
			// crash mid-rewrite would tear the manifest.
			a, lerr := d.backing.GetAttr(h)
			var l manLayout
			if lerr == nil {
				_, l, lerr = d.readManifest(a)
			}
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
			next.cap = max(2*n, 64)
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
		ph := pendingHdr{h: h, fst: fst, layout: next, keep: fst.man.rawEnd(), prevDirty: fst.dirtyFrom}
		encodeHeader(ph.buf[:], fst.man.size, fst.man.shift, next)
		hdrs = append(hdrs, ph)
		// From here a power cut may leave this header durable: its raw
		// suffix must not change in place before the next one is.
		fst.keep = max(fst.keep, ph.keep)
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
		ph.fst.keep = ph.keep
		ph.fst.mu.Unlock()
	}
	if !partial {
		d.syncDone.Store(started)
	}
	return nil
}

// ---- the sweeper ----

// sweepOnce runs one sweeper cycle over the idle files: on a timer tick
// the files nobody has written since the previous tick, with all set
// (SweepNow, Close) every file. First the idle files' manifests are
// committed, and only theirs: a header committed while a client is
// still sending the file would land its overtaken WRITEs on committed
// raw bytes, which only change copy-on-write (see claimLocked). Then
// each idle file's raw suffix is chunked and committed, one file per
// commit (sweepFile). Last, under the exclusive quiesce gate, every
// chunk whose refcount zeroed before a completed Sync is reclaimed. The
// hot path truncates chunk files rather than unlinking them (crash-safe
// against torn directory rewrites in the backing FS); Close passes
// unlink=true to compact the chunk namespace on clean shutdown.
func (d *FS) sweepOnce(all, unlink bool) int {
	if err := d.commit(func(f *fileState) bool { return all || !f.wrote }); err != nil {
		return 0
	}
	d.fmu.Lock()
	files := maps.Clone(d.files)
	d.fmu.Unlock()
	for h, fst := range files {
		if err := d.sweepFile(h, fst, all); err != nil {
			break
		}
	}
	d.gate.Lock()
	n := d.st.sweep(d.syncDone.Load(), unlink)
	d.gate.Unlock()
	return n
}

// sweepFile chunks one file's raw suffix (sealLocked), commits that
// file alone, and only then cuts the sibling to nothing, so the space a
// sweep needs on top of the raw suffixes is one file's new chunks. A
// crash between the header and the cut leaves bytes the chunked prefix
// covers, which are never read. The cut is a truncation, not an unlink,
// for the chunk sweep's reason (see store.sweep); the mount removes the
// empty sibling. A file written since the sweeper last looked is left
// for a later cycle unless all is set.
func (d *FS) sweepFile(h vfs.Handle, fst *fileState, all bool) error {
	d.gate.RLock()
	defer d.gate.RUnlock()
	fst.mu.Lock()
	idle := all || !fst.wrote
	fst.wrote = false
	if fst.gone || fst.man == nil || !idle || fst.man.prefix() == fst.man.size && fst.sibEnd == 0 {
		fst.mu.Unlock()
		return nil
	}
	err := d.sealLocked(h, fst)
	fst.mu.Unlock()
	if err == nil {
		err = d.commit(func(f *fileState) bool { return f == fst })
	}
	if err != nil {
		return err
	}
	fst.mu.Lock()
	defer fst.mu.Unlock()
	if fst.gone || fst.keep > 0 || fst.man.prefix() < fst.man.size {
		return nil // written again meanwhile: a later cycle cuts it
	}
	fst.man.shift = 0
	return d.cutSibLocked(fst, 0)
}

// SweepNow runs one sweeper cycle over every file and reports how many
// chunks it reclaimed (tests, soak harness, shutdown).
func (d *FS) SweepNow() int { return d.sweepOnce(true, false) }

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

// Close flushes manifests, sweeps once — chunking every raw suffix and
// leaving no garbage chunks behind — and stops the sweeper.
func (d *FS) Close() error {
	var err error
	d.once.Do(func() {
		err = d.Sync()
		d.sweepOnce(true, true)
		d.closed.Store(true)
		close(d.stop)
		d.wg.Wait()
	})
	return err
}

// Stats is a counters snapshot for the metrics plane.
type Stats struct {
	Chunks       int64  // unique chunks stored
	BytesLogical int64  // bytes addressable through manifests
	BytesStored  int64  // bytes held in chunk files
	Hits         uint64 // chunks the sweep (or an overwrite) found stored already
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
