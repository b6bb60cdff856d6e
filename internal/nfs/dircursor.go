package nfs

import (
	"container/list"
	"math/rand"
	"sync"

	"discfs/internal/vfs"
)

// Directory cursors: server-side snapshots that make READDIR paging
// stable under concurrent mutation.
//
// The v2 protocol resumes a listing from an opaque cookie. Deriving the
// cookie from an entry's index over a freshly re-listed directory — what
// this server did before — corrupts the walk the moment another client
// removes or creates an entry between pages: indices shift, entries are
// duplicated or silently skipped. Instead, the first page of a walk
// captures an immutable snapshot of the listing, tagged with a verifier
// drawn from a monotonic counter, and every later page resumes from an
// index into that same snapshot. A walk therefore always sees exactly
// the entries that existed when it started (stable entries are neither
// duplicated nor dropped), and a resume whose cursor is gone — evicted,
// or replaced by a newer walk — is *detected* (stale-cookie error, the
// client restarts the listing) instead of silently producing garbage.
//
// Snapshots live in one bounded LRU per server, shared by all peers, so
// a million-entry directory streams page by page without re-listing per
// page and without unbounded memory: the store holds at most cap
// snapshots and evicts the least recently used.

// DefaultDirCursors is the snapshot-LRU capacity. Each cursor holds
// one directory listing (~40 bytes + name per entry), so the cap bounds
// worst-case memory at a few hundred concurrent walks.
const DefaultDirCursors = 256

// dirSnapshot is one immutable directory listing, captured at the first
// page of a walk.
type dirSnapshot struct {
	verf uint64 // full verifier (READDIRPLUS cookieverf)
	dir  vfs.Handle
	peer string
	ents []vfs.DirEntry
}

// legacyKey addresses a snapshot from a v2 READDIR cookie, which has
// room for only 8 bits of verifier (the check byte) next to the entry
// index; the peer and directory provide the rest of the identity.
type legacyKey struct {
	peer string
	dir  vfs.Handle
	v8   uint8
}

// dirCursors is the bounded snapshot LRU.
type dirCursors struct {
	mu     sync.Mutex
	cap    int
	next   uint64 // verifier allocator, monotonic
	lru    *list.List
	byVerf map[uint64]*list.Element
	byLeg  map[legacyKey]*list.Element
}

func newDirCursors() *dirCursors {
	return &dirCursors{
		cap: DefaultDirCursors,
		// Seed the verifier away from zero and from any previous
		// incarnation of this server, so a cookie issued before a restart
		// cannot alias a fresh cursor.
		next:   rand.Uint64() | 1,
		lru:    list.New(),
		byVerf: make(map[uint64]*list.Element),
		byLeg:  make(map[legacyKey]*list.Element),
	}
}

// count reports live snapshots (for the operations-plane gauge).
func (dc *dirCursors) count() int {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return dc.lru.Len()
}

func (dc *dirCursors) legKey(s *dirSnapshot) legacyKey {
	return legacyKey{peer: s.peer, dir: s.dir, v8: uint8(s.verf >> 24)}
}

// create captures a new snapshot for (peer, dir) and returns it. A live
// snapshot whose legacy key collides (same peer, dir and check byte) is
// replaced — its outstanding cookies will miss and report stale.
func (dc *dirCursors) create(peer string, dir vfs.Handle, ents []vfs.DirEntry) *dirSnapshot {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	s := &dirSnapshot{verf: dc.next, dir: dir, peer: peer, ents: ents}
	dc.next++
	if old, ok := dc.byLeg[dc.legKey(s)]; ok {
		dc.removeLocked(old)
	}
	el := dc.lru.PushFront(s)
	dc.byVerf[s.verf] = el
	dc.byLeg[dc.legKey(s)] = el
	dc.evictLocked()
	return s
}

// byVerifier resumes a READDIRPLUS walk: the full verifier names the
// snapshot exactly. nil when evicted or never issued.
func (dc *dirCursors) byVerifier(verf uint64) *dirSnapshot {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	el, ok := dc.byVerf[verf]
	if !ok {
		return nil
	}
	dc.lru.MoveToFront(el)
	return el.Value.(*dirSnapshot)
}

// byLegacy resumes a v2 READDIR walk from the cookie's check byte.
func (dc *dirCursors) byLegacy(peer string, dir vfs.Handle, v8 uint8) *dirSnapshot {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	el, ok := dc.byLeg[legacyKey{peer: peer, dir: dir, v8: v8}]
	if !ok {
		return nil
	}
	dc.lru.MoveToFront(el)
	return el.Value.(*dirSnapshot)
}

func (dc *dirCursors) removeLocked(el *list.Element) {
	s := el.Value.(*dirSnapshot)
	dc.lru.Remove(el)
	delete(dc.byVerf, s.verf)
	if cur, ok := dc.byLeg[dc.legKey(s)]; ok && cur == el {
		delete(dc.byLeg, dc.legKey(s))
	}
}

func (dc *dirCursors) evictLocked() {
	for dc.lru.Len() > dc.cap {
		dc.removeLocked(dc.lru.Back())
	}
}
