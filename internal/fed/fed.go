// Package fed implements DisCFS namespace federation: a client-side
// routing table that partitions one logical tree across several
// independent servers ("shards").
//
// Two mechanisms compose:
//
//   - Grafts: static mount-style bindings. A graft maps an absolute
//     path to a shard; resolving that path yields the shard's exported
//     root, and everything beneath it lives on that shard.
//   - Shard subtree: one configured directory whose immediate children
//     are spread across all shards by consistent hashing of the child
//     name. Every shard holds the same subtree path in its own tree;
//     a child lives on the shard its name hashes to.
//
// Routing is purely client-side. Servers are stock discfsd processes
// that know nothing about each other; authority spans them because
// KeyNote credentials are self-certifying delegation chains that each
// server evaluates locally (no shared session state). The shard a
// handle belongs to is carried in the top byte of the handle's inode
// number (see internal/nfs ShardShift/ShardOfIno), so after the first
// lookup every operation routes without consulting the table.
//
// The hash ring is keyed by shard *index*, not address: given the same
// shard count, Owner is deterministic across processes, which lets
// tooling (benchmarks, tests, operators) predict placement.
package fed

import (
	"fmt"
	"hash/fnv"
	"net"
	"path"
	"sort"
	"strings"
)

// Spec configures a federation. The zero value means "no federation".
type Spec struct {
	// Extra holds the addresses of shards 1..N-1. Shard 0 is the
	// primary server the client dials; it exports the logical root.
	Extra []string

	// Grafts maps cleaned absolute paths to shard ids. The grafted
	// path resolves to that shard's root directory.
	Grafts map[string]int

	// ShardSubtree is the absolute path of the directory whose
	// children are consistent-hashed across all shards ("" disables).
	ShardSubtree string
}

// Table is a compiled, immutable routing table.
type Table struct {
	n       int // shard count, >= 1
	grafts  map[string]int
	subtree string
	ring    ring
}

// Enabled reports whether sp describes any federation at all.
func (sp Spec) Enabled() bool {
	return len(sp.Extra) > 0 || len(sp.Grafts) > 0 || sp.ShardSubtree != ""
}

// Clean canonicalizes p as an absolute slash path ("/a/b"; "/" for the
// root).
func Clean(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// New compiles a spec into a routing table. The shard count is
// 1+len(sp.Extra); every graft target must name a valid shard, and the
// shard subtree must not sit at or under a graft (a graft would shadow
// it on the grafted shard).
func New(sp Spec) (*Table, error) {
	t := &Table{n: 1 + len(sp.Extra)}
	if len(sp.Grafts) > 0 {
		t.grafts = make(map[string]int, len(sp.Grafts))
		for p, sh := range sp.Grafts {
			cp := Clean(p)
			if cp == "/" {
				return nil, fmt.Errorf("fed: cannot graft the root")
			}
			if sh < 0 || sh >= t.n {
				return nil, fmt.Errorf("fed: graft %s: shard %d out of range [0,%d)", cp, sh, t.n)
			}
			if sh == 0 {
				// The primary already exports the logical root; grafting
				// it back in would alias the root inside itself (an
				// infinite directory cycle for any tree walk).
				return nil, fmt.Errorf("fed: graft %s: cannot graft to the primary (shard 0)", cp)
			}
			t.grafts[cp] = sh
		}
	}
	if sp.ShardSubtree != "" {
		t.subtree = Clean(sp.ShardSubtree)
		if t.subtree == "/" {
			return nil, fmt.Errorf("fed: cannot shard the root directory")
		}
		for g := range t.grafts {
			if t.subtree == g || strings.HasPrefix(t.subtree, g+"/") {
				return nil, fmt.Errorf("fed: shard subtree %s lies under graft %s", t.subtree, g)
			}
		}
	}
	t.ring = newRing(t.n)
	return t, nil
}

// NumShards returns the shard count (>= 1).
func (t *Table) NumShards() int { return t.n }

// ShardSubtree returns the cleaned sharded-directory path, or "".
func (t *Table) ShardSubtree() string { return t.subtree }

// Graft returns the shard a cleaned path is grafted to, if any.
func (t *Table) Graft(cleanPath string) (int, bool) {
	if t.grafts == nil {
		return 0, false
	}
	sh, ok := t.grafts[cleanPath]
	return sh, ok
}

// GraftsUnder returns the graft names directly inside dir (a cleaned
// path), sorted; used to surface mount points in listings and walks.
func (t *Table) GraftsUnder(dir string) []string {
	var names []string
	for g := range t.grafts {
		parent, name := path.Split(g)
		if Clean(parent) == dir {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Sharded reports whether dir (a cleaned path) is the shard subtree,
// i.e. whether its children are hashed across shards.
func (t *Table) Sharded(dir string) bool {
	return t.subtree != "" && dir == t.subtree
}

// Owner returns the shard owning a child name of the shard subtree.
func (t *Table) Owner(name string) int { return t.ring.owner(name) }

// ring is a consistent-hash ring over shard indexes with virtual
// nodes, so adding a shard moves only ~1/n of the keyspace.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

const vnodes = 64

func newRing(n int) ring {
	r := ring{points: make([]ringPoint, 0, n*vnodes)}
	for sh := 0; sh < n; sh++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64(fmt.Sprintf("shard-%d/vnode-%d", sh, v)),
				shard: sh,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

func (r ring) owner(name string) int {
	h := hash64(name)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around the ring
	}
	return r.points[i].shard
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// ParsePeers parses a comma-separated revocation-feed peer list
// ("host:port,host:port") into validated addresses. Entries are
// trimmed; empty entries and duplicates are rejected.
func ParsePeers(list string) ([]string, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	parts := strings.Split(list, ",")
	addrs := make([]string, 0, len(parts))
	for _, p := range parts {
		addrs = append(addrs, strings.TrimSpace(p))
	}
	if err := ValidatePeers(addrs); err != nil {
		return nil, err
	}
	return addrs, nil
}

// ValidatePeers checks a revocation-feed peer list: every address must
// be a non-empty host:port, and no address may repeat.
func ValidatePeers(addrs []string) error {
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if strings.TrimSpace(a) == "" {
			return fmt.Errorf("fed: empty peer address")
		}
		if _, _, err := net.SplitHostPort(a); err != nil {
			return fmt.Errorf("fed: peer %q: %v", a, err)
		}
		if seen[a] {
			return fmt.Errorf("fed: duplicate peer %q", a)
		}
		seen[a] = true
	}
	return nil
}
