// Package cache provides the policy-decision cache of the DisCFS server.
//
// The paper's prototype keeps "a cache of requested operations and policy
// results" (§5) and runs its macro-benchmark with a cache of 128 policy
// results (§6). This is that cache: a bounded LRU mapping (principal,
// handle) to the compliance value the KeyNote engine computed, with
// generation- and time-based invalidation so credential submissions,
// revocations, and time-of-day policies take effect.
//
// The cache is N-way sharded by key hash so concurrent requests from
// different principals never contend on one lock: each shard is an
// independent LRU with its own mutex and hit/miss counters. Small
// capacities collapse to a single shard, which keeps eviction order
// exactly LRU where the bound is tight enough for it to matter.
package cache

import (
	"container/list"
	"hash/maphash"
	"sync"
	"time"
)

// Key identifies one cached decision: which principal asked about which
// file handle. Using a comparable struct (rather than a formatted
// string) keeps the hot path allocation-free.
type Key struct {
	Peer string // requesting principal, canonical form
	Ino  uint64 // handle inode number
	Gen  uint32 // handle generation
}

// Entry is a cached policy decision.
type Entry struct {
	// Perm is the rwx permission bitmask (0-7) the compliance check
	// yielded.
	Perm uint8
	// Gen is the policy-session generation at decision time; a differing
	// generation invalidates the entry.
	Gen uint64
	// Expires is the wall-clock expiry (time-dependent conditions are
	// re-evaluated at most this much later).
	Expires time.Time
}

// singleShardMax is the largest capacity served by one shard. Below it,
// eviction is exactly LRU; above it, the cache spreads over shards and
// eviction is LRU per shard.
const singleShardMax = 63

// defaultShards is the shard count for capacities above singleShardMax.
// Power of two, comfortably more than typical core counts.
const defaultShards = 16

// seed is the process-wide hash seed; one seed shared by every cache
// keeps shardFor cheap.
var seed = maphash.MakeSeed()

// Cache is a bounded decision cache, sharded for concurrent use.
type Cache struct {
	shards []shard
	mask   uint64
	cap    int
}

type shard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[Key]*list.Element

	hits   uint64
	misses uint64
}

type lruItem struct {
	key Key
	val Entry
}

// New creates a cache holding up to capacity decisions. The paper used
// 128. A capacity of 0 disables caching (every Get misses).
func New(capacity int) *Cache {
	n := defaultShards
	if capacity <= singleShardMax {
		n = 1
	}
	return newSharded(capacity, n)
}

// newSharded creates a cache with an explicit shard count, which is
// rounded up to a power of two. Capacity is distributed across shards.
func newSharded(capacity, shards int) *Cache {
	if capacity < 0 {
		capacity = 0
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1), cap: capacity}
	base, extra := capacity/n, capacity%n
	for i := range c.shards {
		sc := base
		if i < extra {
			sc++
		}
		c.shards[i] = shard{
			cap:   sc,
			ll:    list.New(),
			items: make(map[Key]*list.Element, sc),
		}
	}
	return c
}

// Shards returns the shard count (monitoring, tests).
func (c *Cache) Shards() int { return len(c.shards) }

// Cap returns the total capacity.
func (c *Cache) Cap() int { return c.cap }

func (c *Cache) shardFor(k Key) *shard {
	if c.mask == 0 {
		return &c.shards[0]
	}
	h := maphash.String(seed, k.Peer)
	h ^= (k.Ino + uint64(k.Gen)<<48) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return &c.shards[h&c.mask]
}

// Get looks up a decision, applying generation and expiry checks.
func (c *Cache) Get(k Key, gen uint64, now time.Time) (Entry, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		s.misses++
		return Entry{}, false
	}
	ent := el.Value.(*lruItem).val
	if ent.Gen != gen || now.After(ent.Expires) {
		s.ll.Remove(el)
		delete(s.items, k)
		s.misses++
		return Entry{}, false
	}
	if s.ll.Front() != el {
		s.ll.MoveToFront(el)
	}
	s.hits++
	return ent, true
}

// Put stores a decision, evicting the shard's least recently used entry
// if the shard is full.
func (c *Cache) Put(k Key, ent Entry) {
	if c.cap <= 0 {
		return
	}
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cap <= 0 {
		// Capacity smaller than the shard count left this shard empty;
		// hold one entry anyway so tiny sharded caches still function.
		s.cap = 1
	}
	if el, ok := s.items[k]; ok {
		el.Value.(*lruItem).val = ent
		s.ll.MoveToFront(el)
		return
	}
	el := s.ll.PushFront(&lruItem{key: k, val: ent})
	s.items[k] = el
	if s.ll.Len() > s.cap {
		oldest := s.ll.Back()
		if oldest != nil {
			s.ll.Remove(oldest)
			delete(s.items, oldest.Value.(*lruItem).key)
		}
	}
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats returns cumulative hit and miss counts, summed over shards.
func (c *Cache) Stats() (hits, misses uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}
