package keynote

import (
	"maps"
	"math/rand/v2"
	"strconv"
	"testing"
)

// TestHamtAgainstMap: random sets and deletes checked against a map
// after every step, with versions kept along the way and rechecked at
// the end — a persistent map never changes a version it handed out.
// Deleting every key leaves an empty trie.
func TestHamtAgainstMap(t *testing.T) {
	const keys = 3000
	rng := rand.New(rand.NewPCG(1, 2))
	type version struct {
		m     hamt[int]
		model map[string]int
	}
	var (
		m        hamt[int]
		model    = map[string]int{}
		versions []version
	)
	check := func(v version) {
		t.Helper()
		for k := 0; k < keys; k++ {
			key := strconv.Itoa(k)
			got, ok := v.m.get(key)
			want, wok := v.model[key]
			if ok != wok || got != want {
				t.Fatalf("get(%s) = %d,%v; model %d,%v", key, got, ok, want, wok)
			}
		}
	}
	for step := 0; step < 20000; step++ {
		key := strconv.Itoa(rng.IntN(keys))
		if rng.IntN(3) == 0 {
			m = m.delete(key)
			delete(model, key)
		} else {
			m = m.set(key, step)
			model[key] = step
		}
		if step%1000 == 0 {
			versions = append(versions, version{m, maps.Clone(model)})
			check(versions[len(versions)-1])
		}
	}
	for _, v := range versions {
		check(v)
	}
	for k := 0; k < keys; k++ {
		m = m.delete(strconv.Itoa(k))
	}
	if m.root != nil {
		t.Error("trie not empty after deleting every key")
	}
}

// TestHamtFullHashCollisions: keys whose 64-bit hashes are equal share a
// list below the last level; set, get and delete still tell them apart,
// and deleting them all leaves an empty trie.
func TestHamtFullHashCollisions(t *testing.T) {
	const h = 0xdeadbeefcafef00d
	keys := []string{"a", "b", "c", "d"}
	var root *hnode[int]
	for i, k := range keys {
		root = root.set(0, h, k, i)
	}
	root = root.set(0, h^1<<62, "near", 9)
	for i, k := range keys {
		if v, ok := root.get(h, k); !ok || v != i {
			t.Fatalf("get(%s) = %d,%v; want %d", k, v, ok, i)
		}
	}
	for i, k := range keys {
		var removed bool
		if root, removed = root.delete(0, h, k); !removed {
			t.Fatalf("delete(%s) found nothing", k)
		}
		for _, rest := range keys[i+1:] {
			if _, ok := root.get(h, rest); !ok {
				t.Fatalf("delete(%s) lost %s", k, rest)
			}
		}
	}
	if root, _ = root.delete(0, h^1<<62, "near"); root != nil {
		t.Fatal("trie not empty after deleting every key")
	}
}
