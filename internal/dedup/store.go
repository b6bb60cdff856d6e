package dedup

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"discfs/internal/vfs"
)

// sha is a chunk's content address.
type sha = [32]byte

// chunksName is the reserved root directory holding chunk files,
// fanned out into 256 subdirectories by the first address byte. The
// dedup layer hides it from the namespace it exports.
const chunksName = ".chunks"

const storeShards = 16

// chunkRec is one chunk's in-memory record. Refcounts are deliberately
// not persisted: they are rebuilt from the manifests at mount, so a
// crash can at worst leak an unreferenced chunk file until the next
// sweep, never lose referenced data to a stale count.
type chunkRec struct {
	refs int64
	size uint32
	h    vfs.Handle
	// done is non-nil while the creating writer materializes the chunk
	// file; concurrent adders of the same hash wait on it and retry.
	done chan struct{}
	// untrusted marks a chunk found orphaned at mount: its data may be
	// a torn pre-crash write, so the first writer to reference it again
	// rewrites the content instead of taking a dedup hit.
	untrusted bool
	// graveEpoch is the sync-started count observed when refs reached
	// zero. The sweeper may only delete the file once a full manifest
	// flush that *started after* that moment has completed — before
	// then an on-disk manifest may still reference the chunk.
	graveEpoch uint64
}

// store is the refcounted chunk index plus its persistence through the
// backing FS (chunk files under .chunks/xx/<hex-sha256>).
type store struct {
	backing vfs.FS

	mu [storeShards]sync.Mutex
	m  [storeShards]map[sha]*chunkRec

	dirs *fanout

	chunks      atomic.Int64
	storedBytes atomic.Int64
	hits        atomic.Uint64
	gcChunks    atomic.Uint64
	gcBytes     atomic.Uint64
}

func newStore(backing vfs.FS) (*store, error) {
	st := &store{backing: backing}
	for i := range st.m {
		st.m[i] = make(map[sha]*chunkRec)
	}
	dirs, err := newFanout(backing, chunksName)
	if err != nil {
		return nil, fmt.Errorf("dedup: chunk store root: %w", err)
	}
	st.dirs = dirs
	return st, nil
}

// ensureDir returns the directory name under parent, making it if it
// does not exist yet.
func ensureDir(backing vfs.FS, parent vfs.Handle, name string) (vfs.Handle, error) {
	a, err := backing.Lookup(parent, name)
	if errors.Is(err, vfs.ErrNotExist) {
		a, err = backing.Mkdir(parent, name, 0o700)
	}
	return a.Handle, err
}

// fanout is a reserved root directory fanned out into 256
// subdirectories, named by one byte in hex and made on demand, so that
// no directory the backing store scans on a create, lookup or remove
// holds more than a 256th of the entries.
type fanout struct {
	backing vfs.FS
	root    vfs.Handle
	mu      sync.Mutex
	sub     [256]vfs.Handle
}

func newFanout(backing vfs.FS, name string) (*fanout, error) {
	root, err := ensureDir(backing, backing.Root(), name)
	return &fanout{backing: backing, root: root}, err
}

// dir returns (creating on demand) subdirectory b.
func (f *fanout) dir(b byte) (vfs.Handle, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sub[b].IsZero() {
		dir, err := ensureDir(f.backing, f.root, hex.EncodeToString([]byte{b}))
		if err != nil {
			return vfs.Handle{}, err
		}
		f.sub[b] = dir
	}
	return f.sub[b], nil
}

// each visits every entry of every subdirectory (the mount scan).
func (f *fanout) each(visit func(dir vfs.Handle, e vfs.DirEntry) error) error {
	subs, err := f.backing.ReadDir(f.root)
	if err != nil {
		return err
	}
	for _, sub := range subs {
		b, err := hex.DecodeString(sub.Name)
		if err != nil || len(b) != 1 {
			continue
		}
		f.mu.Lock()
		f.sub[b[0]] = sub.Handle
		f.mu.Unlock()
		ents, err := f.backing.ReadDir(sub.Handle)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if err := visit(sub.Handle, e); err != nil {
				return err
			}
		}
	}
	return nil
}

func shardOf(sum sha) int { return int(sum[31]) % storeShards }

func chunkFileName(sum sha) string { return hex.EncodeToString(sum[:]) }

// writeChunk materializes sum's chunk file with data. The file's
// existence is durable when this returns (the backing FFS writes
// metadata synchronously); its *content* is volatile until the next
// device sync — the manifest-flush protocol orders a sync before any
// manifest entry referencing the chunk reaches disk.
func (st *store) writeChunk(sum sha, data []byte) (vfs.Handle, error) {
	dir, err := st.dirs.dir(sum[0])
	if err != nil {
		return vfs.Handle{}, err
	}
	name := chunkFileName(sum)
	a, err := st.backing.Create(dir, name, 0o600)
	if errors.Is(err, vfs.ErrExist) {
		// Leftover from a lost race or an unscanned orphan: reuse the
		// inode, rewrite the content below.
		a, err = st.backing.Lookup(dir, name)
	}
	if err != nil {
		return vfs.Handle{}, err
	}
	if _, err := st.backing.Write(a.Handle, 0, data); err != nil {
		return vfs.Handle{}, err
	}
	if a.Size > uint64(len(data)) {
		sz := uint64(len(data))
		if _, err := st.backing.SetAttr(a.Handle, vfs.SetAttr{Size: &sz}); err != nil {
			return vfs.Handle{}, err
		}
	}
	return a.Handle, nil
}

// addRef stores one reference to the chunk with address sum and content
// data, writing the chunk file only if this is the first reference ever
// (or the surviving copy is untrusted). It reports whether the call was
// a dedup hit (no data written).
func (st *store) addRef(sum sha, data []byte) (hit bool, err error) {
	sh := shardOf(sum)
	for {
		st.mu[sh].Lock()
		rec := st.m[sh][sum]
		if rec == nil {
			rec = &chunkRec{refs: 1, size: uint32(len(data)), done: make(chan struct{})}
			st.m[sh][sum] = rec
			st.mu[sh].Unlock()
			h, werr := st.writeChunk(sum, data)
			st.mu[sh].Lock()
			if werr != nil {
				delete(st.m[sh], sum)
			} else {
				rec.h = h
			}
			close(rec.done)
			rec.done = nil
			st.mu[sh].Unlock()
			if werr != nil {
				return false, werr
			}
			st.chunks.Add(1)
			st.storedBytes.Add(int64(len(data)))
			return false, nil
		}
		if rec.done != nil {
			ch := rec.done
			st.mu[sh].Unlock()
			<-ch
			continue // re-examine: creation may have failed
		}
		if rec.untrusted {
			// Orphan found at mount: its bytes may be torn. Take the
			// reference, then rewrite the content with the known-good
			// copy before anyone can read it through a manifest.
			rec.refs++
			rec.untrusted = false
			rec.size = uint32(len(data))
			h := rec.h
			st.mu[sh].Unlock()
			if _, werr := st.backing.Write(h, 0, data); werr != nil {
				st.unref(sum, 0)
				return false, werr
			}
			return false, nil
		}
		rec.refs++
		st.mu[sh].Unlock()
		st.hits.Add(1)
		return true, nil
	}
}

// tally adds references discovered by the mount scan (no file writes).
func (st *store) tally(sum sha, n uint32) error {
	sh := shardOf(sum)
	st.mu[sh].Lock()
	defer st.mu[sh].Unlock()
	rec := st.m[sh][sum]
	if rec == nil {
		return fmt.Errorf("dedup: manifest references missing chunk %s", chunkFileName(sum))
	}
	if rec.size != n {
		return fmt.Errorf("dedup: chunk %s is %d bytes on disk, manifest expects %d",
			chunkFileName(sum), rec.size, n)
	}
	rec.refs++
	rec.untrusted = false // referenced by a durable manifest ⇒ data was synced
	return nil
}

// adopt records a chunk file discovered by the mount scan with no
// references yet; the scan's manifest pass increments via tally, and
// anything still at zero is an orphan for the sweeper.
func (st *store) adopt(sum sha, h vfs.Handle, size uint32) {
	sh := shardOf(sum)
	st.mu[sh].Lock()
	if st.m[sh][sum] == nil {
		st.m[sh][sum] = &chunkRec{refs: 0, size: size, h: h, untrusted: true}
		st.chunks.Add(1)
		st.storedBytes.Add(int64(size))
	}
	st.mu[sh].Unlock()
}

// unref drops one reference. epoch is the current sync-started count;
// it gates when the sweeper may delete the file (see chunkRec).
func (st *store) unref(sum sha, epoch uint64) {
	sh := shardOf(sum)
	st.mu[sh].Lock()
	rec := st.m[sh][sum]
	if rec != nil && rec.refs > 0 {
		rec.refs--
		if rec.refs == 0 {
			rec.graveEpoch = epoch
		}
	}
	st.mu[sh].Unlock()
}

// handleOf returns the chunk file handle and size for reads.
func (st *store) handleOf(sum sha) (vfs.Handle, uint32, bool) {
	sh := shardOf(sum)
	st.mu[sh].Lock()
	rec := st.m[sh][sum]
	st.mu[sh].Unlock()
	if rec == nil || rec.done != nil {
		return vfs.Handle{}, 0, false
	}
	return rec.h, rec.size, true
}

// sweep reclaims chunk files whose refcount is zero and whose zeroing
// predates syncDone (a completed full manifest flush), so no on-disk
// manifest can still reference them. The caller holds the layer's
// quiesce gate exclusively: no writer can resurrect a candidate while
// the sweep scans and reclaims.
//
// The hot-path sweep TRUNCATES the chunk file to zero rather than
// unlinking it: truncation frees the data blocks but touches no
// directory content, so a power cut mid-sweep can never tear a
// directory (the backing FFS leaves a failed unlink's directory
// rewrite applied in core but possibly lost on the platter — see the
// note above ffs.Remove). The empty file stays behind as a free slot:
// a later store of the same hash reuses it by name, and the mount scan
// discards empty slots. A clean shutdown passes unlink=true to compact
// the namespace for real.
func (st *store) sweep(syncDone uint64, unlink bool) (reclaimed int) {
	for sh := range st.m {
		st.mu[sh].Lock()
		for sum, rec := range st.m[sh] {
			if rec.refs != 0 || rec.done != nil {
				continue
			}
			if !rec.untrusted && rec.graveEpoch >= syncDone {
				continue // a durable manifest may still point here
			}
			if rec.size > 0 {
				var err error
				if unlink {
					var dir vfs.Handle
					if dir, err = st.dirs.dir(sum[0]); err == nil {
						err = st.backing.Remove(dir, chunkFileName(sum))
					}
				} else {
					var zero uint64
					_, err = st.backing.SetAttr(rec.h, vfs.SetAttr{Size: &zero})
				}
				if err != nil && !errors.Is(err, vfs.ErrNotExist) && !errors.Is(err, vfs.ErrStale) {
					continue // try again next sweep
				}
				st.storedBytes.Add(-int64(rec.size))
				st.gcChunks.Add(1)
				st.gcBytes.Add(uint64(rec.size))
				reclaimed++
			} else if unlink {
				// Empty slot left by an earlier truncating sweep.
				if dir, err := st.dirs.dir(sum[0]); err == nil {
					_ = st.backing.Remove(dir, chunkFileName(sum))
				}
			}
			delete(st.m[sh], sum)
			st.chunks.Add(-1)
		}
		st.mu[sh].Unlock()
	}
	return reclaimed
}

// scan loads the chunk directory into the index (refs zero, untrusted)
// — the mount scan's first pass; the manifest walk then tallies refs.
func (st *store) scan() error {
	return st.dirs.each(func(_ vfs.Handle, f vfs.DirEntry) error {
		raw, err := hex.DecodeString(f.Name)
		if err != nil || len(raw) != 32 {
			return nil
		}
		a, err := st.backing.GetAttr(f.Handle)
		if err == nil {
			st.adopt(sha(raw), f.Handle, uint32(a.Size))
		}
		return err
	})
}

// snapshotRefs copies the current refcounts (Verify support).
func (st *store) snapshotRefs() map[sha]int64 {
	out := make(map[sha]int64)
	for sh := range st.m {
		st.mu[sh].Lock()
		for sum, rec := range st.m[sh] {
			out[sum] = rec.refs
		}
		st.mu[sh].Unlock()
	}
	return out
}
