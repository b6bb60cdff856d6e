package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2001, 6, 15, 12, 0, 0, 0, time.UTC)

func entry(perm uint8, gen uint64) Entry {
	return Entry{Perm: perm, Gen: gen, Expires: t0.Add(time.Minute)}
}

// k builds a Key from a short name; tests address entries by peer.
func k(peer string) Key { return Key{Peer: peer} }

func TestPutGet(t *testing.T) {
	c := New(4)
	c.Put(k("a"), entry(7, 1))
	got, ok := c.Get(k("a"), 1, t0)
	if !ok || got.Perm != 7 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if _, ok := c.Get(k("missing"), 1, t0); ok {
		t.Error("missing key hit")
	}
}

func TestKeyDistinguishesHandle(t *testing.T) {
	c := New(8)
	c.Put(Key{Peer: "a", Ino: 1}, entry(7, 1))
	if _, ok := c.Get(Key{Peer: "a", Ino: 2}, 1, t0); ok {
		t.Error("different inode hit")
	}
	if _, ok := c.Get(Key{Peer: "a", Ino: 1, Gen: 1}, 1, t0); ok {
		t.Error("different handle generation hit")
	}
}

func TestGenerationInvalidates(t *testing.T) {
	c := New(4)
	c.Put(k("a"), entry(7, 1))
	if _, ok := c.Get(k("a"), 2, t0); ok {
		t.Error("stale generation hit")
	}
	// The stale entry is evicted.
	if c.Len() != 0 {
		t.Errorf("len = %d after stale hit", c.Len())
	}
}

func TestExpiryInvalidates(t *testing.T) {
	c := New(4)
	c.Put(k("a"), entry(7, 1))
	if _, ok := c.Get(k("a"), 1, t0.Add(2*time.Minute)); ok {
		t.Error("expired entry hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3)
	if c.Shards() != 1 {
		t.Fatalf("small cache has %d shards, want 1", c.Shards())
	}
	c.Put(k("a"), entry(1, 1))
	c.Put(k("b"), entry(2, 1))
	c.Put(k("c"), entry(3, 1))
	// Touch "a" so "b" is the oldest.
	c.Get(k("a"), 1, t0)
	c.Put(k("d"), entry(4, 1))
	if _, ok := c.Get(k("b"), 1, t0); ok {
		t.Error("LRU victim survived")
	}
	for _, key := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k(key), 1, t0); !ok {
			t.Errorf("%q evicted wrongly", key)
		}
	}
	if c.Len() != 3 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestUpdateExisting(t *testing.T) {
	c := New(2)
	c.Put(k("a"), entry(1, 1))
	c.Put(k("a"), entry(5, 1))
	got, _ := c.Get(k("a"), 1, t0)
	if got.Perm != 5 {
		t.Errorf("perm = %d", got.Perm)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestZeroCapacityDisables(t *testing.T) {
	c := New(0)
	c.Put(k("a"), entry(1, 1))
	if _, ok := c.Get(k("a"), 1, t0); ok {
		t.Error("zero-capacity cache stored an entry")
	}
}

func TestStatsCount(t *testing.T) {
	c := New(4)
	c.Put(k("a"), entry(1, 1))
	c.Get(k("a"), 1, t0)
	c.Get(k("a"), 1, t0)
	c.Get(k("miss"), 1, t0)
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = %d/%d, want 2/1", hits, misses)
	}
}

// ---- sharded behavior ----

func TestShardedDefaults(t *testing.T) {
	c := New(128) // the paper's capacity: sharded
	if c.Shards() != defaultShards {
		t.Fatalf("shards = %d, want %d", c.Shards(), defaultShards)
	}
	if c.Cap() != 128 {
		t.Fatalf("cap = %d", c.Cap())
	}
	// Per-shard capacities sum to the total.
	sum := 0
	for i := range c.shards {
		sum += c.shards[i].cap
	}
	if sum != 128 {
		t.Errorf("shard capacities sum to %d, want 128", sum)
	}
}

func TestShardedRoundTrip(t *testing.T) {
	// Headroom over the 200 live keys: eviction is per-shard, so the
	// bound must absorb hashing imbalance across the 8 shards.
	c := newSharded(512, 8)
	for i := 0; i < 200; i++ {
		c.Put(Key{Peer: fmt.Sprintf("peer-%d", i), Ino: uint64(i)}, entry(uint8(i%8), 1))
	}
	for i := 0; i < 200; i++ {
		got, ok := c.Get(Key{Peer: fmt.Sprintf("peer-%d", i), Ino: uint64(i)}, 1, t0)
		if !ok {
			t.Fatalf("peer-%d missing", i)
		}
		if got.Perm != uint8(i%8) {
			t.Fatalf("peer-%d perm = %d", i, got.Perm)
		}
	}
	hits, misses := c.Stats()
	if hits != 200 || misses != 0 {
		t.Errorf("stats = %d/%d, want 200/0", hits, misses)
	}
}

func TestShardedSpread(t *testing.T) {
	c := newSharded(1024, 16)
	for i := 0; i < 512; i++ {
		c.Put(Key{Peer: fmt.Sprintf("ed25519-hex:%064d", i)}, entry(1, 1))
	}
	// Hashing must actually spread keys: no shard should hold more than
	// a quarter of the population (expected ~32 of 512 per shard).
	for i := range c.shards {
		if n := c.shards[i].ll.Len(); n > 128 {
			t.Fatalf("shard %d holds %d of 512 entries; hash not spreading", i, n)
		}
	}
}

func TestTinyShardedCache(t *testing.T) {
	// Fewer capacity units than shards: every shard still admits one
	// entry rather than silently caching nothing.
	c := newSharded(2, 8)
	c.Put(k("a"), entry(3, 1))
	if _, ok := c.Get(k("a"), 1, t0); !ok {
		t.Error("tiny sharded cache dropped entry")
	}
}

func TestConcurrentSharded(t *testing.T) {
	c := New(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := Key{Peer: fmt.Sprintf("worker-%d", g), Ino: uint64(i % 64)}
				if i%3 == 0 {
					c.Put(key, entry(uint8(i%8), 1))
				} else {
					c.Get(key, 1, t0)
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses := c.Stats()
	if hits+misses == 0 {
		t.Error("no gets recorded")
	}
}

// TestAgainstModel checks the LRU against a brute-force model under a
// random workload. A single-shard cache is exactly LRU.
func TestAgainstModel(t *testing.T) {
	const capn = 8
	c := New(capn)
	type modelEnt struct {
		val  Entry
		used int
	}
	model := map[string]*modelEnt{}
	tick := 0
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 5000; step++ {
		key := fmt.Sprintf("k%d", rng.Intn(20))
		tick++
		switch rng.Intn(3) {
		case 0: // put
			e := entry(uint8(rng.Intn(8)), 1)
			c.Put(k(key), e)
			if m, ok := model[key]; ok {
				m.val, m.used = e, tick
			} else {
				if len(model) == capn {
					// evict least recently used
					var victim string
					min := 1 << 30
					for k, m := range model {
						if m.used < min {
							min, victim = m.used, k
						}
					}
					delete(model, victim)
				}
				model[key] = &modelEnt{val: e, used: tick}
			}
		case 1: // get
			got, ok := c.Get(k(key), 1, t0)
			m, mok := model[key]
			if ok != mok {
				t.Fatalf("step %d: Get(%q) ok=%v, model=%v", step, key, ok, mok)
			}
			if ok {
				if got.Perm != m.val.Perm {
					t.Fatalf("step %d: Get(%q) perm=%d, model=%d", step, key, got.Perm, m.val.Perm)
				}
				m.used = tick
			}
		case 2: // a get at a later generation misses and drops the entry
			if _, ok := c.Get(k(key), 2, t0); ok {
				t.Fatalf("step %d: Get(%q) at a stale generation hit", step, key)
			}
			delete(model, key)
		}
		if c.Len() != len(model) {
			t.Fatalf("step %d: len=%d model=%d", step, c.Len(), len(model))
		}
	}
}
