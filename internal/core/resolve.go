package core

import (
	"context"
	"fmt"
	"strings"

	"discfs/internal/nfs"
	"discfs/internal/vfs"
)

// Path resolution. Every path operation resolves through one walk:
// directory components come from the owning shard's name cache
// (nfs.CachingClient: positive, negative and attribute entries, one
// TTL), federation routing applied per component, and the last
// component — the leaf — is always looked up on the server. That leaf
// reply is the operation's server-checked step: it carries the
// attributes Open revalidates its data cache against, and it is where a
// revoked key, a changed credential set or another client's
// rename/replace is seen. An operation that will read the leaf asks for
// its first bytes in the same RPC (LOOKUPREAD), which runs the file's
// read check as well. Operations that do not look the leaf up (mkdir,
// rename) make their own RPC on it instead.

// joinPath appends one component to a cleaned absolute path.
func joinPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// splitParts splits a slash path into its non-empty components.
func splitParts(path string) []string {
	parts := make([]string, 0, 8)
	for _, p := range strings.Split(path, "/") {
		if p != "" {
			parts = append(parts, p)
		}
	}
	return parts
}

// target is a resolved path: the directory holding the leaf — under
// federation, the copy on the shard that owns the leaf — and the leaf's
// name. name is "" when the path names dir itself (the logical root or
// a graft point).
type target struct {
	dir   vfs.Handle
	name  string
	attr  vfs.Attr             // the leaf's attributes, when walk.leaf looked it up
	first nfs.LookupReadResult // walk.read's reply, whose record the caller owns; zero at the root or a graft point
}

// leafRead is what a leaf lookup brings back besides the attributes.
type leafRead uint8

const (
	readNone  leafRead = iota // nothing: a plain LOOKUP
	readFirst                 // the leaf's first window: LOOKUPREAD
	// readUncached is readFirst unless this client's data cache already
	// holds that window of the file the name cache maps the leaf to: a
	// warm re-open then costs a plain LOOKUP, which revalidates the
	// window, instead of a transfer it would drop.
	readUncached
)

// walk is one pass of the resolver.
type walk struct {
	c     *Client
	fresh bool     // look every component up on the server
	hit   bool     // the name cache answered for some component
	read  leafRead // what the leaf lookup brings back
}

// resolving runs op, which resolves paths through w and then acts on
// them. If op fails with ErrStale or ErrNoEnt after the name cache
// answered for a component, the cached answer may be what was wrong —
// the directory was removed, renamed or recreated by another client —
// so op runs once more with every component looked up on the server
// (which also replaces the cached entries). A stale entry thus costs
// RPCs, never a wrong answer; a miss with nothing cached is final.
func (c *Client) resolving(op func(w *walk) error) error {
	w := walk{c: c}
	err := op(&w)
	if st := nfs.StatOf(err); !w.hit || (st != nfs.ErrStale && st != nfs.ErrNoEnt) {
		return err
	}
	return op(&walk{c: c, fresh: true})
}

// lookup resolves one directory component.
func (w *walk) lookup(ctx context.Context, dir vfs.Handle, name string) (vfs.Attr, error) {
	ac := w.c.shardOf(dir).attrc(ctx)
	if w.fresh {
		return ac.LookupFresh(ctx, dir, name)
	}
	a, hit, err := ac.LookupCached(ctx, dir, name)
	w.hit = w.hit || hit
	return a, err
}

// subtree resolves one shard's copy of the shard-subtree directory.
// Every shard must export the subtree path in its own tree; a shard
// that lacks it fails here with a routing error.
func (w *walk) subtree(ctx context.Context, shard int) (vfs.Handle, error) {
	sh := w.c.shards[shard]
	dir := sh.root(ctx)
	for _, name := range splitParts(w.c.table.ShardSubtree()) {
		a, err := w.lookup(ctx, dir, name)
		if err != nil {
			return vfs.Handle{}, fmt.Errorf("core: shard %d (%s) lacks shard subtree %s: %w",
				shard, sh.addr, w.c.table.ShardSubtree(), err)
		}
		dir = a.Handle
	}
	return dir, nil
}

// pathOf renders components as a cleaned absolute path.
func pathOf(parts []string) string { return "/" + strings.Join(parts, "/") }

// graft reports the shard the path of parts is grafted to, if any.
func (c *Client) graft(parts []string) (int, bool) {
	if c.table == nil {
		return 0, false
	}
	return c.table.Graft(pathOf(parts))
}

// holder returns the directory in which name, a child of the directory
// dir at path dirParts, is looked up or created: dir itself, or — for a
// child of the shard subtree — the copy on the shard its name hashes to.
func (w *walk) holder(ctx context.Context, dir vfs.Handle, dirParts []string, name string) (vfs.Handle, error) {
	if t := w.c.table; t != nil && t.Sharded(pathOf(dirParts)) {
		return w.subtree(ctx, t.Owner(name))
	}
	return dir, nil
}

// parent resolves every component of parts but the last. A graft point
// among them resolves to its target shard's root without an RPC.
func (w *walk) parent(ctx context.Context, parts []string) (target, error) {
	if len(parts) == 0 {
		return target{}, fmt.Errorf("core: empty path")
	}
	c := w.c
	dir := c.primary().root(ctx)
	last := len(parts) - 1
	for i, name := range parts[:last] {
		if g, ok := c.graft(parts[:i+1]); ok {
			dir = c.shards[g].root(ctx)
			continue
		}
		in, err := w.holder(ctx, dir, parts[:i], name)
		if err != nil {
			return target{}, err
		}
		a, err := w.lookup(ctx, in, name)
		if err != nil {
			return target{}, err
		}
		dir = a.Handle
	}
	dir, err := w.holder(ctx, dir, parts[:last], parts[last])
	return target{dir: dir, name: parts[last]}, err
}

// leaf resolves parts and looks the last component up on the server. On
// ErrNoEnt for the leaf itself the returned target still names where it
// would be created; a missing directory component leaves it zero.
func (w *walk) leaf(ctx context.Context, parts []string) (target, error) {
	c := w.c
	sh := c.primary()
	if len(parts) > 0 {
		t, err := w.parent(ctx, parts)
		if err != nil {
			return target{}, err
		}
		g, ok := c.graft(parts)
		if !ok {
			lsh := c.shardOf(t.dir)
			ac := lsh.attrc(ctx)
			if w.read == readFirst || w.read == readUncached && !c.holdsFirstWindow(ac, t.dir, t.name) {
				t.first, err = ac.LookupFreshRead(ctx, t.dir, t.name, lsh.xfer)
				t.attr = t.first.Attr
			} else {
				t.attr, err = ac.LookupFresh(ctx, t.dir, t.name)
			}
			return t, err
		}
		sh = c.shards[g]
	}
	root := sh.root(ctx)
	a, err := sh.attrc(ctx).Revalidate(ctx, root)
	return target{dir: root, attr: a}, err
}

// holdsFirstWindow reports whether the name cache maps name in dir to a
// file whose data cache holds window 0 — where revalidate would drop a
// LOOKUPREAD's first window.
func (c *Client) holdsFirstWindow(ac *nfs.CachingClient, dir vfs.Handle, name string) bool {
	h, ok := ac.CachedHandle(dir, name)
	if !ok {
		return false
	}
	c.dcMu.Lock()
	hc := c.dcaches[h]
	c.dcMu.Unlock()
	if hc == nil {
		return false
	}
	hc.mu.Lock()
	defer hc.mu.Unlock()
	return hc.wins[0] != nil
}

// resolveLeaf is the common case of resolving: one path, its leaf looked
// up on the server, bringing back what read asks for in the same RPC.
func (c *Client) resolveLeaf(ctx context.Context, path string, read leafRead) (t target, err error) {
	parts := splitParts(path)
	err = c.resolving(func(w *walk) error {
		w.read = read
		t, err = w.leaf(ctx, parts)
		return err
	})
	return t, err
}
