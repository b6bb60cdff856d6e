package nfs

import (
	"context"
	"strconv"
	"testing"
	"time"

	"discfs/internal/vfs"
)

// cachingClientTTL is NewCachingClient with entries that live ttl, so a
// test decides when they expire.
func cachingClientTTL(c *Client, ttl time.Duration) *CachingClient {
	cc := NewCachingClient(c)
	cc.ttl = ttl
	return cc
}

func cachedStack(t *testing.T, ttl time.Duration) (*CachingClient, vfs.Handle) {
	t.Helper()
	c, _ := startStack(t)
	root := mountRoot(t, c)
	return cachingClientTTL(c, ttl), root
}

func TestAttrCacheServesRepeatedGetattr(t *testing.T) {
	ctx := context.Background()
	cc, root := cachedStack(t, time.Minute)
	attr, err := cc.Client.Create(ctx, root, "f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := cc.GetAttr(ctx, attr.Handle); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := cc.CacheStats()
	if hits < 9 {
		t.Errorf("hits = %d over 10 repeated GETATTRs, want ≥9", hits)
	}
	_ = misses
}

func TestLookupCacheServesRepeatedLookups(t *testing.T) {
	ctx := context.Background()
	cc, root := cachedStack(t, time.Minute)
	if _, err := cc.Client.Create(ctx, root, "f", 0o644); err != nil {
		t.Fatal(err)
	}
	h0, m0 := cc.CacheStats()
	for i := 0; i < 10; i++ {
		if _, err := cc.Lookup(ctx, root, "f"); err != nil {
			t.Fatal(err)
		}
	}
	h1, m1 := cc.CacheStats()
	if h1-h0 < 9 {
		t.Errorf("lookup hits = %d, want ≥9", h1-h0)
	}
	if m1-m0 > 1 {
		t.Errorf("lookup misses = %d, want ≤1", m1-m0)
	}
}

func TestMutationInvalidatesLookup(t *testing.T) {
	ctx := context.Background()
	cc, root := cachedStack(t, time.Minute)
	// Mutations go out on the raw client; the caller keeps the cache
	// coherent with InstallNew and ForgetDir, as the DisCFS client does.
	a, err := cc.Client.Create(ctx, root, "old", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	cc.InstallNew(root, "old", a)
	if _, err := cc.Lookup(ctx, root, "old"); err != nil {
		t.Fatal(err)
	}
	if err := cc.Rename(ctx, root, "old", root, "new"); err != nil {
		t.Fatal(err)
	}
	// The stale lookup entry must be gone: "old" now misses for real.
	if _, err := cc.Lookup(ctx, root, "old"); StatOf(err) != ErrNoEnt {
		t.Errorf("lookup of renamed entry = %v, want NOENT", err)
	}
	if _, err := cc.Lookup(ctx, root, "new"); err != nil {
		t.Errorf("lookup of new name: %v", err)
	}
	// Remove invalidates too.
	if err := cc.Client.Remove(ctx, root, "new"); err != nil {
		t.Fatal(err)
	}
	cc.ForgetDir(root)
	if _, err := cc.Lookup(ctx, root, "new"); StatOf(err) != ErrNoEnt {
		t.Errorf("lookup after remove = %v, want NOENT", err)
	}
}

func TestTTLExpiryRefetches(t *testing.T) {
	ctx := context.Background()
	cc, root := cachedStack(t, time.Minute)
	// Deterministic clock.
	clock := time.Date(2026, 6, 1, 12, 0, 0, 0, time.UTC)
	cc.now = func() time.Time { return clock }
	attr, _ := cc.Client.Create(ctx, root, "f", 0o644)
	cc.GetAttr(ctx, attr.Handle)
	h0, _ := cc.CacheStats()
	cc.GetAttr(ctx, attr.Handle) // within TTL: hit
	h1, _ := cc.CacheStats()
	if h1 != h0+1 {
		t.Fatalf("expected a hit within TTL")
	}
	clock = clock.Add(2 * time.Minute) // past TTL
	_, m0 := cc.CacheStats()
	cc.GetAttr(ctx, attr.Handle)
	_, m1 := cc.CacheStats()
	if m1 != m0+1 {
		t.Errorf("expected a miss after TTL expiry")
	}
}

func TestStaleWindowIsBounded(t *testing.T) {
	ctx := context.Background()
	// A second (uncached) client mutates behind the cache's back: the
	// caching client sees stale data within TTL and fresh data after
	// Purge — the NFS close-to-open trade, made explicit.
	raw, _ := startStack(t)
	root := mountRoot(t, raw)
	cc := cachingClientTTL(raw, time.Hour)
	attr, _ := cc.Client.Create(ctx, root, "f", 0o644)
	cc.Client.Write(ctx, attr.Handle, 0, []byte("v1"))
	cc.GetAttr(ctx, attr.Handle) // prime: size 2

	// Out-of-band truncate through the same underlying client (bypassing
	// the cache wrapper entirely).
	sa := NewSAttr()
	sa.Size = 0
	if _, err := raw.SetAttr(ctx, attr.Handle, sa); err != nil {
		t.Fatal(err)
	}

	got, _ := cc.GetAttr(ctx, attr.Handle)
	if got.Size != 2 {
		t.Errorf("within TTL, expected stale size 2, got %d", got.Size)
	}
	cc.Purge()
	got, _ = cc.GetAttr(ctx, attr.Handle)
	if got.Size != 0 {
		t.Errorf("after purge, size = %d, want fresh 0", got.Size)
	}
}

// fillNames installs n name entries (and their attributes) under dir,
// the way a READDIRPLUS page does.
func fillNames(cc *CachingClient, dir vfs.Handle, n int, ino *uint64) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	now := cc.now()
	for i := 0; i < n; i++ {
		*ino++
		a := vfs.Attr{Handle: vfs.Handle{Ino: *ino, Gen: 1}, Type: vfs.TypeRegular}
		cc.putAttrLocked(a, now)
		cc.putNameLocked(dir, "n"+strconv.FormatUint(*ino, 10), nameEntry{attr: a}, now)
	}
}

func (c *CachingClient) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.attrs) + c.nNames
}

// TestCacheStaysUnderCap fills far more live names than the cap allows:
// the cache must never exceed it, and must keep caching afterwards.
func TestCacheStaysUnderCap(t *testing.T) {
	cc := cachingClientTTL(nil, time.Hour)
	var ino uint64
	for d := 0; d < 100; d++ {
		dir := vfs.Handle{Ino: 1 << 40, Gen: uint32(d)}
		fillNames(cc, dir, 1000, &ino) // 100k names, 100k attributes
		if n := cc.size(); n > maxCacheEntries {
			t.Fatalf("after %d names the cache holds %d entries, cap %d", (d+1)*1000, n, maxCacheEntries)
		}
	}
	if cc.size() == 0 {
		t.Fatal("cache is empty after the fill: eviction must leave room to keep caching")
	}
	// The books balance: nNames is what the per-directory maps hold.
	total := 0
	for _, m := range cc.names {
		total += len(m)
	}
	if total != cc.nNames {
		t.Fatalf("nNames = %d, maps hold %d", cc.nNames, total)
	}
}

// TestExpiredEntriesAreSwept: a long-lived client that keeps touching
// new names does not keep the expired ones.
func TestExpiredEntriesAreSwept(t *testing.T) {
	cc := cachingClientTTL(nil, time.Minute)
	clock := time.Date(2026, 6, 1, 12, 0, 0, 0, time.UTC)
	cc.now = func() time.Time { return clock }
	var ino uint64
	dir := vfs.Handle{Ino: 1, Gen: 1}
	fillNames(cc, dir, 1000, &ino)
	clock = clock.Add(2 * time.Minute)
	fillNames(cc, vfs.Handle{Ino: 2, Gen: 1}, 1, &ino)
	if n := cc.size(); n != 2 {
		t.Fatalf("cache holds %d entries after the TTL passed and one insert, want 2", n)
	}
	if _, ok := cc.names[dir]; ok {
		t.Fatal("the emptied directory's index was kept")
	}
}

// TestForgetDirTouchesOnlyThatDirectory: invalidating a directory drops
// exactly its own names — the count it reports is the work it did — so
// n creates in one directory after a big walk are not quadratic.
func TestForgetDirTouchesOnlyThatDirectory(t *testing.T) {
	cc := cachingClientTTL(nil, time.Hour)
	var ino uint64
	small, big := vfs.Handle{Ino: 1, Gen: 1}, vfs.Handle{Ino: 2, Gen: 1}
	fillNames(cc, small, 10, &ino)
	fillNames(cc, big, 5000, &ino)
	cc.mu.Lock()
	dropped := cc.forgetDirLocked(small)
	cc.mu.Unlock()
	if dropped != 10 {
		t.Fatalf("forgetDir visited %d entries, want the directory's own 10", dropped)
	}
	if cc.nNames != 5000 || len(cc.names[big]) != 5000 {
		t.Fatalf("other directory disturbed: nNames %d, big holds %d", cc.nNames, len(cc.names[big]))
	}
	if _, ok := cc.names[small]; ok {
		t.Fatal("forgotten directory still indexed")
	}
}

// TestLookupFreshReplacesCachedAnswer: a fresh lookup always asks the
// server and leaves the cache agreeing with it, whichever way the
// cached answer was wrong.
func TestLookupFreshReplacesCachedAnswer(t *testing.T) {
	ctx := context.Background()
	raw, _ := startStack(t)
	root := mountRoot(t, raw)
	cc := cachingClientTTL(raw, time.Hour)

	if _, hit, err := cc.LookupCached(ctx, root, "f"); StatOf(err) != ErrNoEnt || hit {
		t.Fatalf("first lookup = hit %v, %v; want a miss answered by the server", hit, err)
	}
	// Created behind the cache's back: the cached miss still answers.
	created, err := raw.Create(ctx, root, "f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := cc.LookupCached(ctx, root, "f"); StatOf(err) != ErrNoEnt || !hit {
		t.Fatalf("cached miss = hit %v, %v", hit, err)
	}
	a, err := cc.LookupFresh(ctx, root, "f")
	if err != nil || a.Handle != created.Handle {
		t.Fatalf("LookupFresh = %v, %v; want the created file", a.Handle, err)
	}
	if a, hit, err := cc.LookupCached(ctx, root, "f"); err != nil || !hit || a.Handle != created.Handle {
		t.Fatalf("after LookupFresh, cached lookup = %v, hit %v, %v", a.Handle, hit, err)
	}
	if cc.nNames != 1 {
		t.Fatalf("one name holds %d entries", cc.nNames)
	}

	// And the reverse: removed behind the cache's back.
	if err := raw.Remove(ctx, root, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.LookupFresh(ctx, root, "f"); StatOf(err) != ErrNoEnt {
		t.Fatalf("LookupFresh after remove = %v, want NOENT", err)
	}
	if _, hit, err := cc.LookupCached(ctx, root, "f"); StatOf(err) != ErrNoEnt || !hit {
		t.Fatalf("after LookupFresh, cached lookup = hit %v, %v; want the cached miss", hit, err)
	}
}

// TestLookupInStaleDirectoryDropsItsNames: ErrStale from the server
// means the directory itself is gone, so nothing cached under it stays.
func TestLookupInStaleDirectoryDropsItsNames(t *testing.T) {
	ctx := context.Background()
	raw, _ := startStack(t)
	root := mountRoot(t, raw)
	cc := cachingClientTTL(raw, time.Hour)
	d, err := cc.Client.Mkdir(ctx, root, "d", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Lookup(ctx, d.Handle, "absent"); StatOf(err) != ErrNoEnt {
		t.Fatal(err)
	}
	if err := raw.Rmdir(ctx, root, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.LookupFresh(ctx, d.Handle, "other"); StatOf(err) != ErrStale {
		t.Fatalf("lookup in removed directory = %v, want STALE", err)
	}
	if _, ok := cc.names[d.Handle]; ok {
		t.Fatal("names of a stale directory were kept")
	}
}
