package nfs

import (
	"context"
	"sync"
	"time"

	"discfs/internal/vfs"
)

// CachingClient wraps a Client with attribute, name and negative-name
// caching, the way kernel NFS clients do (the acregmin/acregmax
// "actimeo" machinery plus the dentry cache). GETATTR and LOOKUP
// results — including misses — are served from cache within the TTL.
// The wrapped Commit, SetAttr and Rename keep the cache coherent
// themselves; a caller that creates or removes a name on the raw Client
// follows with InstallNew or ForgetDir. This buys the usual
// NFS trade: dramatically fewer metadata RPCs for close-to-open
// consistency instead of strict consistency — remote writers may be
// invisible for up to TTL.
//
// Invalidation discipline: every invalidation bumps a generation
// counter (the client-side analogue of the server's path epoch from the
// authorization pipeline: one cheap counter whose bump retires a whole
// class of cached state at once). Every RPC-filling path snapshots the
// generation before issuing the RPC and installs its result only if no
// invalidation ran in between — otherwise a Lookup/GetAttr that started
// before a concurrent ForgetDir/forgetHandle would re-install the stale
// result after the invalidation. A spuriously skipped install (the
// invalidation was for an unrelated entry) just costs one extra miss.
//
// The caches are bounded (maxCacheEntries): expired entries are swept
// as new ones arrive, and the name cache is indexed by directory so an
// invalidation costs what that directory holds, not what the cache
// holds.
type CachingClient struct {
	*Client
	ttl time.Duration
	now func() time.Time

	mu sync.Mutex
	// gen is the invalidation generation, bumped by every forget/purge
	// and checked at insert.
	gen   uint64
	attrs map[vfs.Handle]attrEntry
	// names is the name cache, indexed by directory so that invalidating
	// a directory touches only its own entries. One entry per name is
	// either a positive lookup or a cached miss: a name known absent
	// answers ErrNoEnt without an RPC until the TTL passes or the
	// directory is invalidated.
	names  map[vfs.Handle]map[string]nameEntry
	nNames int // entries across every directory of names
	// nextSweep is when expired entries are next dropped (see
	// makeRoomLocked).
	nextSweep time.Time

	hits, misses uint64
}

type attrEntry struct {
	attr    vfs.Attr
	expires time.Time
}

type nameEntry struct {
	attr    vfs.Attr // zero when neg
	neg     bool
	expires time.Time
}

// maxCacheEntries bounds the attribute and name caches together. A
// client that walks a tree larger than this keeps working; it just
// re-fetches what was dropped.
const maxCacheEntries = 1 << 16

// DefaultAttrTTL matches the traditional acregmin default of 3 seconds.
const DefaultAttrTTL = 3 * time.Second

// NewCachingClient wraps c; entries live DefaultAttrTTL.
func NewCachingClient(c *Client) *CachingClient {
	return &CachingClient{
		Client: c,
		ttl:    DefaultAttrTTL,
		now:    time.Now,
		attrs:  make(map[vfs.Handle]attrEntry),
		names:  make(map[vfs.Handle]map[string]nameEntry),
	}
}

// CacheStats reports cumulative hit/miss counts across the caches.
func (c *CachingClient) CacheStats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// generation snapshots the invalidation generation; take it before an
// RPC whose result will be installed with installAt.
func (c *CachingClient) generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// makeRoomLocked keeps the caches bounded; every insert calls it first.
// Expired entries are swept once per TTL and whenever the cap is
// reached; a cache still mostly full of live entries after a sweep is
// dropped whole, so the next sweep is at least a quarter of the cap
// away and inserts stay O(1) amortized.
func (c *CachingClient) makeRoomLocked(now time.Time) {
	if len(c.attrs)+c.nNames < maxCacheEntries && now.Before(c.nextSweep) {
		return
	}
	c.nextSweep = now.Add(c.ttl)
	for h, e := range c.attrs {
		if !now.Before(e.expires) {
			delete(c.attrs, h)
		}
	}
	for dir, m := range c.names {
		for name, e := range m {
			if !now.Before(e.expires) {
				delete(m, name)
				c.nNames--
			}
		}
		if len(m) == 0 {
			delete(c.names, dir)
		}
	}
	if len(c.attrs)+c.nNames > maxCacheEntries/4*3 {
		c.dropAllLocked()
	}
}

func (c *CachingClient) dropAllLocked() {
	c.attrs = make(map[vfs.Handle]attrEntry)
	c.names = make(map[vfs.Handle]map[string]nameEntry)
	c.nNames = 0
}

func (c *CachingClient) putAttrLocked(a vfs.Attr, now time.Time) {
	c.makeRoomLocked(now)
	c.attrs[a.Handle] = attrEntry{attr: a, expires: now.Add(c.ttl)}
}

// putNameLocked sets the one entry for (dir, name), replacing a cached
// miss with a hit or the reverse.
func (c *CachingClient) putNameLocked(dir vfs.Handle, name string, e nameEntry, now time.Time) {
	c.makeRoomLocked(now)
	m := c.names[dir]
	if m == nil {
		m = make(map[string]nameEntry)
		c.names[dir] = m
	}
	if _, ok := m[name]; !ok {
		c.nNames++
	}
	e.expires = now.Add(c.ttl)
	m[name] = e
}

// installAt stores attrs, but only if no invalidation ran since gen was
// snapshotted — the insert-time generation check.
func (c *CachingClient) installAt(gen uint64, a vfs.Attr) {
	c.mu.Lock()
	if c.gen == gen {
		c.putAttrLocked(a, c.now())
	}
	c.mu.Unlock()
}

// forgetHandle drops the attribute entry for h.
func (c *CachingClient) forgetHandle(h vfs.Handle) {
	c.mu.Lock()
	c.gen++
	delete(c.attrs, h)
	c.mu.Unlock()
}

// ForgetDir drops the dir's attribute entry and every lookup — positive
// and negative — under it. Callers that change a directory through a
// procedure this client does not wrap use it to keep the cache honest.
func (c *CachingClient) ForgetDir(dir vfs.Handle) {
	c.mu.Lock()
	c.forgetDirLocked(dir)
	c.mu.Unlock()
}

// forgetDirLocked reports how many name entries it dropped: exactly
// those of dir, the only ones it visits.
func (c *CachingClient) forgetDirLocked(dir vfs.Handle) int {
	c.gen++
	delete(c.attrs, dir)
	n := len(c.names[dir])
	delete(c.names, dir)
	c.nNames -= n
	return n
}

// InstallNew is the mutation-path install: in one critical section,
// invalidate the directory (the op changed it) and install the op's own
// fresh result plus its lookup entry. Folding both into one section
// keeps the op's install from racing its own invalidation.
func (c *CachingClient) InstallNew(dir vfs.Handle, name string, a vfs.Attr) {
	c.mu.Lock()
	c.forgetDirLocked(dir)
	now := c.now()
	c.putAttrLocked(a, now)
	c.putNameLocked(dir, name, nameEntry{attr: a}, now)
	c.mu.Unlock()
}

// GetAttr serves from cache within the TTL.
func (c *CachingClient) GetAttr(ctx context.Context, h vfs.Handle) (vfs.Attr, error) {
	c.mu.Lock()
	if e, ok := c.attrs[h]; ok && c.now().Before(e.expires) {
		c.hits++
		c.mu.Unlock()
		return e.attr, nil
	}
	c.misses++
	c.mu.Unlock()
	return c.Revalidate(ctx, h)
}

// Revalidate forces a fresh GETATTR for h, bypassing the TTL, and
// installs the result — the close-to-open revalidation step: callers
// compare the returned attributes (mtime, size) against their cached
// view and invalidate derived state on mismatch.
func (c *CachingClient) Revalidate(ctx context.Context, h vfs.Handle) (vfs.Attr, error) {
	gen := c.generation()
	a, err := c.Client.GetAttr(ctx, h)
	if err != nil {
		c.forgetHandle(h)
		return a, err
	}
	c.installAt(gen, a)
	return a, nil
}

// Lookup serves from cache within the TTL — including cached misses,
// which answer ErrNoEnt without an RPC. A cache miss goes to a plain
// LOOKUP, whose reply fills the child's name and attribute entries or,
// on ErrNoEnt, a negative name entry.
func (c *CachingClient) Lookup(ctx context.Context, dir vfs.Handle, name string) (vfs.Attr, error) {
	a, _, err := c.LookupCached(ctx, dir, name)
	return a, err
}

// LookupCached is Lookup that also reports whether the cache answered.
// A caller that acts on a cached answer and is then told by the server
// that it was stale knows from hit that asking again with LookupFresh
// can give a different result.
func (c *CachingClient) LookupCached(ctx context.Context, dir vfs.Handle, name string) (a vfs.Attr, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.names[dir][name]; ok && c.now().Before(e.expires) {
		c.hits++
		if e.neg {
			c.mu.Unlock()
			return vfs.Attr{}, true, &Error{Stat: ErrNoEnt}
		}
		// The name entry says which file; what is known about the file
		// is the attribute entry, which a WRITE, SETATTR or COMMIT reply
		// may have refreshed since the lookup.
		a = e.attr
		if ae, ok := c.attrs[a.Handle]; ok && c.now().Before(ae.expires) {
			a = ae.attr
		}
		c.mu.Unlock()
		return a, true, nil
	}
	c.misses++
	gen := c.gen
	c.mu.Unlock()

	a, err = c.Client.Lookup(ctx, dir, name)
	c.installLookup(gen, dir, name, a, err)
	if err != nil {
		return vfs.Attr{}, false, err
	}
	return a, false, nil
}

// CachedHandle reports the file the name cache maps name in dir to,
// without asking the server or counting a hit or a miss.
func (c *CachingClient) CachedHandle(dir vfs.Handle, name string) (vfs.Handle, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.names[dir][name]
	if !ok || e.neg || !c.now().Before(e.expires) {
		return vfs.Handle{}, false
	}
	return e.attr.Handle, true
}

// LookupFresh always asks the server, with a plain LOOKUP, and makes
// the cache agree with the answer. It is the server-checked step of a
// path operation: the reply's attributes are as good as a GETATTR
// issued at the same moment.
func (c *CachingClient) LookupFresh(ctx context.Context, dir vfs.Handle, name string) (vfs.Attr, error) {
	gen := c.generation()
	a, err := c.Client.Lookup(ctx, dir, name)
	c.installLookup(gen, dir, name, a, err)
	return a, err
}

// LookupFreshRead is LookupFresh over LOOKUPREAD, which also reads up to
// count bytes of the leaf; the lookup half is installed as LookupFresh's.
func (c *CachingClient) LookupFreshRead(ctx context.Context, dir vfs.Handle, name string, count uint32) (LookupReadResult, error) {
	gen := c.generation()
	r, err := c.Client.LookupRead(ctx, dir, name, count)
	c.installLookup(gen, dir, name, r.Attr, err)
	return r, err
}

// installLookup records the outcome of a lookup RPC issued at
// generation gen: a hit, a miss (ErrNoEnt), or — on ErrStale — that dir
// itself is gone, which retires everything cached under it. Other
// errors teach the cache nothing.
func (c *CachingClient) installLookup(gen uint64, dir vfs.Handle, name string, a vfs.Attr, err error) {
	st := StatOf(err)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case st == ErrStale:
		c.forgetDirLocked(dir)
		return
	case err != nil && st != ErrNoEnt:
		return
	case c.gen != gen:
		// An invalidation raced the RPC, so the reply may predate it:
		// do not install it, but do not keep what it contradicts either.
		if m := c.names[dir]; m != nil {
			if _, ok := m[name]; ok {
				delete(m, name)
				c.nNames--
			}
		}
		return
	}
	now := c.now()
	if err != nil {
		c.putNameLocked(dir, name, nameEntry{neg: true}, now)
		return
	}
	c.putNameLocked(dir, name, nameEntry{attr: a}, now)
	c.putAttrLocked(a, now)
}

// ReadDirPlusAll lists dir with piggybacked attributes and bulk-installs
// the results: the directory's own attributes, every carried entry's
// attributes, and the matching (dir, name) lookup entries — one call
// primes the cache for the per-file GetAttr/Lookup traffic of a tree
// walk. The whole batch is generation-checked as one install.
func (c *CachingClient) ReadDirPlusAll(ctx context.Context, dir vfs.Handle) ([]DirEntryPlus, error) {
	gen := c.generation()
	dirA, ents, err := c.Client.ReadDirPlusAll(ctx, dir)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.gen == gen {
		now := c.now()
		c.putAttrLocked(dirA, now)
		for _, e := range ents {
			if !e.HasAttr {
				continue
			}
			c.putAttrLocked(e.Attr, now)
			c.putNameLocked(dir, e.Name, nameEntry{attr: e.Attr}, now)
		}
	}
	c.mu.Unlock()
	return ents, nil
}

// Commit refreshes the cache with the post-commit attributes: the size
// and mtime that WRITEs issued on the raw client moved.
func (c *CachingClient) Commit(ctx context.Context, h vfs.Handle) (vfs.Attr, uint64, error) {
	gen := c.generation()
	a, ver, err := c.Client.Commit(ctx, h)
	if err != nil {
		c.forgetHandle(h)
		return a, ver, err
	}
	c.installAt(gen, a)
	return a, ver, nil
}

// SetAttr refreshes the cache with the returned attributes.
func (c *CachingClient) SetAttr(ctx context.Context, h vfs.Handle, sa SAttr) (vfs.Attr, error) {
	gen := c.generation()
	a, err := c.Client.SetAttr(ctx, h, sa)
	if err != nil {
		c.forgetHandle(h)
		return a, err
	}
	c.installAt(gen, a)
	return a, nil
}

// Rename invalidates both directories.
func (c *CachingClient) Rename(ctx context.Context, fromDir vfs.Handle, fromName string, toDir vfs.Handle, toName string) error {
	err := c.Client.Rename(ctx, fromDir, fromName, toDir, toName)
	c.ForgetDir(fromDir)
	c.ForgetDir(toDir)
	return err
}

// Purge drops every cached entry (e.g. after credential changes alter
// what the masked modes look like).
func (c *CachingClient) Purge() {
	c.mu.Lock()
	c.gen++
	c.dropAllLocked()
	c.mu.Unlock()
}
