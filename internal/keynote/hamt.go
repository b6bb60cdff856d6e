package keynote

import (
	"hash/maphash"
	"math/bits"
	"slices"
)

// hamt is a persistent map from strings to V: a hash array mapped trie.
// set and delete copy the nodes on one root-to-leaf path, O(log32 n) of
// them, and share every other node with the map they started from, so
// a snapshot publishes a changed index in time proportional to the
// change while every earlier snapshot keeps reading its own version
// without a lock. The zero value is an empty map.
type hamt[V any] struct {
	root *hnode[V]
}

// hnode is one level of the trie: the slots present among the 32 that
// the next five bits of a key's hash select, in index order. Once all 64
// bits are spent a node is a plain list of keys whose hashes collide in
// full, and its bitmap is unused.
type hnode[V any] struct {
	bitmap uint32
	slots  []hslot[V]
}

// hslot is a leaf (key, hash, val) or, when sub is set, a link to the
// next level.
type hslot[V any] struct {
	sub  *hnode[V]
	key  string
	hash uint64
	val  V
}

const hamtBits = 5

var hamtSeed = maphash.MakeSeed()

func hashKey(key string) uint64 { return maphash.String(hamtSeed, key) }

func (m hamt[V]) get(key string) (V, bool) { return m.root.get(hashKey(key), key) }

// has reports whether key is bound; with V = struct{} the map is a set.
// An empty map answers without hashing the key.
func (m hamt[V]) has(key string) bool {
	if m.root == nil {
		return false
	}
	_, ok := m.get(key)
	return ok
}

// set returns the map with key bound to val.
func (m hamt[V]) set(key string, val V) hamt[V] {
	return hamt[V]{m.root.set(0, hashKey(key), key, val)}
}

// delete returns the map without key.
func (m hamt[V]) delete(key string) hamt[V] {
	root, _ := m.root.delete(0, hashKey(key), key)
	return hamt[V]{root}
}

// slot locates hash h at this level: its bitmap bit, and its index in
// slots (where it would go, when absent).
func (n *hnode[V]) slot(shift uint, h uint64) (bit uint32, i int) {
	bit = 1 << (h >> shift & 31)
	return bit, bits.OnesCount32(n.bitmap & (bit - 1))
}

func (n *hnode[V]) get(h uint64, key string) (V, bool) {
	for shift := uint(0); n != nil; shift += hamtBits {
		if shift >= 64 {
			for i := range n.slots {
				if n.slots[i].key == key {
					return n.slots[i].val, true
				}
			}
			break
		}
		bit, i := n.slot(shift, h)
		if n.bitmap&bit == 0 {
			break
		}
		s := &n.slots[i]
		if s.sub == nil {
			if s.key == key {
				return s.val, true
			}
			break
		}
		n = s.sub
	}
	var zero V
	return zero, false
}

// set returns a copy of n (nil is an empty node) with key bound to val.
func (n *hnode[V]) set(shift uint, h uint64, key string, val V) *hnode[V] {
	leaf := hslot[V]{key: key, hash: h, val: val}
	switch {
	case n == nil && shift >= 64:
		return &hnode[V]{slots: []hslot[V]{leaf}}
	case n == nil:
		return &hnode[V]{bitmap: 1 << (h >> shift & 31), slots: []hslot[V]{leaf}}
	case shift >= 64:
		for i := range n.slots {
			if n.slots[i].key == key {
				c := n.clone()
				c.slots[i] = leaf
				return c
			}
		}
		return &hnode[V]{slots: append(slices.Clip(n.slots), leaf)}
	}
	bit, i := n.slot(shift, h)
	if n.bitmap&bit == 0 {
		return &hnode[V]{bitmap: n.bitmap | bit, slots: slices.Insert(slices.Clip(n.slots), i, leaf)}
	}
	c := n.clone()
	s := &c.slots[i]
	switch {
	case s.sub != nil:
		s.sub = s.sub.set(shift+hamtBits, h, key, val)
	case s.key == key:
		s.val = val
	default: // two keys share the slot: both move one level down
		sub := (*hnode[V])(nil).set(shift+hamtBits, s.hash, s.key, s.val)
		*s = hslot[V]{sub: sub.set(shift+hamtBits, h, key, val)}
	}
	return c
}

// delete returns a copy of n without key (nil when nothing is left),
// and whether key was present; n itself when it was not.
func (n *hnode[V]) delete(shift uint, h uint64, key string) (*hnode[V], bool) {
	if n == nil {
		return nil, false
	}
	if shift >= 64 {
		for i := range n.slots {
			if n.slots[i].key == key {
				return n.without(i, 0), true
			}
		}
		return n, false
	}
	bit, i := n.slot(shift, h)
	if n.bitmap&bit == 0 {
		return n, false
	}
	s := n.slots[i]
	if s.sub == nil {
		if s.key != key {
			return n, false
		}
		return n.without(i, bit), true
	}
	sub, removed := s.sub.delete(shift+hamtBits, h, key)
	switch {
	case !removed:
		return n, false
	case sub == nil:
		return n.without(i, bit), true
	}
	c := n.clone()
	if len(sub.slots) == 1 && sub.slots[0].sub == nil {
		c.slots[i] = sub.slots[0] // a lone leaf moves up to where its hash prefix is unique
	} else {
		c.slots[i].sub = sub
	}
	return c, true
}

func (n *hnode[V]) clone() *hnode[V] {
	return &hnode[V]{bitmap: n.bitmap, slots: slices.Clone(n.slots)}
}

// without returns a copy of n lacking slot i (bitmap bit bit), or nil
// when that was the last one.
func (n *hnode[V]) without(i int, bit uint32) *hnode[V] {
	if len(n.slots) == 1 {
		return nil
	}
	return &hnode[V]{bitmap: n.bitmap &^ bit, slots: slices.Delete(slices.Clone(n.slots), i, i+1)}
}
