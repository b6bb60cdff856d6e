package nfs

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"discfs/internal/ffs"
	"discfs/internal/sunrpc"
	"discfs/internal/vfs"
	"discfs/internal/xdr"
)

// startStackExt is startStack plus the NFS server, for tests that poke
// protocol-level knobs (cursor capacity).
func startStackExt(t *testing.T) (*Client, *ffs.FFS, *Server) {
	t.Helper()
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 8192})
	if err != nil {
		t.Fatalf("ffs.New: %v", err)
	}
	c, srv, _ := startStackWith(t, backing)
	return c, backing, srv
}

// procCounter counts NFS-program calls by procedure.
type procCounter struct {
	mu sync.Mutex
	n  map[uint32]int
}

func (p *procCounter) get(proc uint32) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n[proc]
}

// startStackWith exports srvFS through a wire handler that counts every
// call.
func startStackWith(t *testing.T, srvFS vfs.FS) (*Client, *Server, *procCounter) {
	t.Helper()
	srv := NewServer(StaticExport{FS: srvFS})
	rpcSrv := sunrpc.NewServer()
	srv.RegisterAll(rpcSrv)
	cnt := &procCounter{n: make(map[uint32]int)}
	rpcSrv.Register(Prog, Vers, func(ctx *sunrpc.Context, proc uint32, args *xdr.Decoder, res *xdr.Encoder) (sunrpc.AcceptStat, error) {
		cnt.mu.Lock()
		cnt.n[proc]++
		cnt.mu.Unlock()
		return srv.dispatch(ctx, proc, args, res)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go rpcSrv.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c := NewClient(sunrpc.NewClient(conn))
	t.Cleanup(func() {
		c.RPC().Close()
		rpcSrv.Close()
	})
	return c, srv, cnt
}

// mkdirWithFiles populates dir/name with n files named prefix%02d.
func mkdirWithFiles(t *testing.T, fs vfs.FS, parent vfs.Handle, name, prefix string, n int) vfs.Handle {
	t.Helper()
	d, err := fs.Mkdir(parent, name, 0o755)
	if err != nil {
		t.Fatalf("Mkdir %s: %v", name, err)
	}
	for i := 0; i < n; i++ {
		if _, err := fs.Create(d.Handle, fmt.Sprintf("%s%02d", prefix, i), 0o644); err != nil {
			t.Fatalf("Create: %v", err)
		}
	}
	return d.Handle
}

// TestReadDirPagingStableUnderMutation is the tentpole regression: a
// paged READDIR walk with removes, creates and a rename landing between
// pages must return exactly the snapshot-time listing — every stable
// entry once, nothing duplicated, nothing dropped. Index cookies over a
// re-listed directory failed this.
func TestReadDirPagingStableUnderMutation(t *testing.T) {
	ctx := context.Background()
	c, backing := startStack(t)
	mountRoot(t, c)
	dir := mkdirWithFiles(t, backing, backing.Root(), "d", "f", 40)

	orig := make(map[string]bool, 40)
	for i := 0; i < 40; i++ {
		orig[fmt.Sprintf("f%02d", i)] = true
	}

	seen := make(map[string]int)
	cookie, mutated := uint32(0), false
	for {
		ents, eof, err := c.ReadDirPage(ctx, dir, cookie, 256)
		if err != nil {
			t.Fatalf("ReadDirPage: %v", err)
		}
		for _, e := range ents {
			seen[e.Name]++
		}
		if eof {
			break
		}
		if len(ents) == 0 {
			t.Fatal("empty page without eof at count 256")
		}
		cookie = ents[len(ents)-1].Cookie
		if !mutated {
			mutated = true
			// Mutations that shift a re-listed directory's indices in
			// both directions, plus a rename.
			for _, name := range []string{"f30", "f35"} {
				if err := backing.Remove(dir, name); err != nil {
					t.Fatalf("Remove %s: %v", name, err)
				}
			}
			for _, name := range []string{"aa_new", "zz_new"} {
				if _, err := backing.Create(dir, name, 0o644); err != nil {
					t.Fatalf("Create %s: %v", name, err)
				}
			}
			if err := backing.Rename(dir, "f38", dir, "f38_renamed"); err != nil {
				t.Fatalf("Rename: %v", err)
			}
		}
	}
	if !mutated {
		t.Fatal("walk finished in one page; count too large for the test")
	}
	if len(seen) != len(orig) {
		t.Errorf("walk saw %d names, want the %d snapshot names", len(seen), len(orig))
	}
	for name, n := range seen {
		if !orig[name] {
			t.Errorf("walk saw %q, not in the snapshot", name)
		}
		if n != 1 {
			t.Errorf("walk saw %q %d times", name, n)
		}
	}
	for name := range orig {
		if seen[name] == 0 {
			t.Errorf("walk dropped %q", name)
		}
	}
}

// TestReadDirPlusPagingStableUnderMutation: same stability contract for
// the batched proc; entries removed mid-walk degrade to name-only
// (attributes are fetched at page time), never corrupt the page.
func TestReadDirPlusPagingStableUnderMutation(t *testing.T) {
	ctx := context.Background()
	c, backing := startStack(t)
	mountRoot(t, c)
	dir := mkdirWithFiles(t, backing, backing.Root(), "d", "f", 30)

	seen := make(map[string]int)
	nameOnly := make(map[string]bool)
	var verf, cookie uint64
	mutated := false
	for {
		pg, err := c.ReadDirPlus(ctx, dir, verf, cookie, 1024)
		if err != nil {
			t.Fatalf("ReadDirPlus: %v", err)
		}
		verf = pg.Verf
		for _, e := range pg.Entries {
			seen[e.Name]++
			if !e.HasAttr {
				nameOnly[e.Name] = true
			}
		}
		if pg.EOF {
			break
		}
		if len(pg.Entries) == 0 {
			t.Fatal("empty page without eof at count 1024")
		}
		cookie = pg.Entries[len(pg.Entries)-1].Cookie
		if !mutated {
			mutated = true
			if err := backing.Remove(dir, "f25"); err != nil {
				t.Fatalf("Remove: %v", err)
			}
			if _, err := backing.Create(dir, "new_file", 0o644); err != nil {
				t.Fatalf("Create: %v", err)
			}
		}
	}
	if !mutated {
		t.Fatal("walk finished in one page; count too large for the test")
	}
	if len(seen) != 30 {
		t.Errorf("walk saw %d names, want 30", len(seen))
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("walk saw %q %d times", name, n)
		}
	}
	if seen["f25"] != 1 {
		t.Errorf("removed-mid-walk f25 seen %d times, want 1 (snapshot entry)", seen["f25"])
	}
	if !nameOnly["f25"] {
		t.Error("removed-mid-walk f25 still carried attributes")
	}
	for name := range seen {
		if name != "f25" && nameOnly[name] {
			t.Errorf("surviving entry %q lost its attributes", name)
		}
	}
}

// capCursors shrinks srv's directory-cursor LRU to n snapshots, so one
// walk's snapshot is evicted as soon as another walk starts.
func capCursors(srv *Server, n int) {
	dc := srv.cursors
	dc.mu.Lock()
	dc.cap = n
	dc.evictLocked()
	dc.mu.Unlock()
}

// TestReadDirCursorEvictionDetected: the cookie-verifier-mismatch
// regression. A READDIR resume whose cursor was evicted must fail with
// ErrStale — detection, not a silent walk over a re-listed directory —
// and a fresh listing must succeed.
func TestReadDirCursorEvictionDetected(t *testing.T) {
	ctx := context.Background()
	c, backing, srv := startStackExt(t)
	mountRoot(t, c)
	capCursors(srv, 1)
	dirA := mkdirWithFiles(t, backing, backing.Root(), "a", "f", 30)
	dirB := mkdirWithFiles(t, backing, backing.Root(), "b", "g", 3)

	ents, eof, err := c.ReadDirPage(ctx, dirA, 0, 256)
	if err != nil || eof || len(ents) == 0 {
		t.Fatalf("first page: %d entries, eof %v, err %v", len(ents), eof, err)
	}
	// A listing of another directory evicts A's only cursor slot.
	if _, err := c.ReadDirAll(ctx, dirB); err != nil {
		t.Fatalf("ReadDirAll(b): %v", err)
	}
	_, _, err = c.ReadDirPage(ctx, dirA, ents[len(ents)-1].Cookie, 256)
	if StatOf(err) != ErrStale {
		t.Fatalf("resume after eviction: err %v, want ErrStale", err)
	}
	// The client restarts transparently: a fresh bulk listing works.
	all, err := c.ReadDirAll(ctx, dirA)
	if err != nil {
		t.Fatalf("ReadDirAll(a) after eviction: %v", err)
	}
	if len(all) != 30 {
		t.Errorf("restarted listing: %d entries, want 30", len(all))
	}
	if n := srv.DirCursorCount(); n != 1 {
		t.Errorf("DirCursorCount = %d, want 1 (capacity)", n)
	}
}

// TestReadDirPlusBadCookie: a READDIRPLUS resume with an evicted
// verifier or an out-of-range cookie fails with ErrBadCookie, and the
// bulk listing recovers by restarting.
func TestReadDirPlusBadCookie(t *testing.T) {
	ctx := context.Background()
	c, backing, srv := startStackExt(t)
	mountRoot(t, c)
	capCursors(srv, 1)
	dirA := mkdirWithFiles(t, backing, backing.Root(), "a", "f", 30)
	dirB := mkdirWithFiles(t, backing, backing.Root(), "b", "g", 3)

	pg, err := c.ReadDirPlus(ctx, dirA, 0, 0, 512)
	if err != nil || pg.EOF || len(pg.Entries) == 0 {
		t.Fatalf("first page: %d entries, eof %v, err %v", len(pg.Entries), pg.EOF, err)
	}
	// Out-of-range cookie against the live cursor.
	if _, err := c.ReadDirPlus(ctx, dirA, pg.Verf, 9999, 512); StatOf(err) != ErrBadCookie {
		t.Errorf("out-of-range cookie: err %v, want ErrBadCookie", err)
	}
	// Evict the cursor, then resume with the old verifier.
	if _, _, err := c.ReadDirPlusAll(ctx, dirB); err != nil {
		t.Fatalf("ReadDirPlusAll(b): %v", err)
	}
	last := pg.Entries[len(pg.Entries)-1].Cookie
	if _, err := c.ReadDirPlus(ctx, dirA, pg.Verf, last, 512); StatOf(err) != ErrBadCookie {
		t.Errorf("resume after eviction: err %v, want ErrBadCookie", err)
	}
	_, ents, err := c.ReadDirPlusAll(ctx, dirA)
	if err != nil {
		t.Fatalf("ReadDirPlusAll(a): %v", err)
	}
	if len(ents) != 30 {
		t.Errorf("restarted listing: %d entries, want 30", len(ents))
	}
}

// TestReadDirEmptyPageRetry: an empty non-eof page (count budget below
// the next entry's size) must not end the listing — ReadDirAll grows
// the count and returns everything. Treating it as eof was the silent
// truncation bug.
func TestReadDirEmptyPageRetry(t *testing.T) {
	ctx := context.Background()
	c, backing := startStack(t)
	mountRoot(t, c)
	dir := mkdirWithFiles(t, backing, backing.Root(), "d", "longname_", 5)

	ents, eof, err := c.ReadDirPage(ctx, dir, 0, 20)
	if err != nil {
		t.Fatalf("ReadDirPage: %v", err)
	}
	if len(ents) != 0 || eof {
		t.Fatalf("tiny count: %d entries, eof %v; want an empty non-eof page", len(ents), eof)
	}
	all, err := c.readDirAll(ctx, dir, 20)
	if err != nil {
		t.Fatalf("readDirAll from tiny count: %v", err)
	}
	if len(all) != 5 {
		t.Errorf("listing from tiny count: %d entries, want 5 (silent truncation?)", len(all))
	}
}

// TestReadDirPageBudget: every page's encoded entry list — including
// XDR string padding — must fit the requested count. The old estimate
// skipped the padding, overshooting the client's budget on names whose
// length is not a multiple of 4.
func TestReadDirPageBudget(t *testing.T) {
	ctx := context.Background()
	c, backing := startStack(t)
	mountRoot(t, c)
	d, err := backing.Mkdir(backing.Root(), "d", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	// Name lengths 1..12 cover every padding residue.
	total := 0
	for i := 1; i <= 12; i++ {
		name := fmt.Sprintf("%0*d", i, i)
		if _, err := backing.Create(d.Handle, name, 0o644); err != nil {
			t.Fatal(err)
		}
		total++
	}
	for _, count := range []uint32{40, 64, 100} {
		cookie, got := uint32(0), 0
		for {
			ents, eof, err := c.ReadDirPage(ctx, d.Handle, cookie, count)
			if err != nil {
				t.Fatalf("ReadDirPage(count=%d): %v", count, err)
			}
			wire := 8 // entry-list terminator + eof
			for _, e := range ents {
				wire += 4 + 4 + 4 + len(e.Name) + (4-len(e.Name)%4)%4 + 4
			}
			if wire > int(count) {
				t.Errorf("count %d: page encodes %d entry bytes, over budget", count, wire)
			}
			got += len(ents)
			if eof {
				break
			}
			if len(ents) == 0 {
				t.Fatalf("count %d: empty page without eof", count)
			}
			cookie = ents[len(ents)-1].Cookie
		}
		if got != total {
			t.Errorf("count %d: walked %d entries, want %d", count, got, total)
		}
	}
}

// TestReadDirPlusAllMatches: the batched listing returns the same names
// as READDIR and piggybacks attributes matching the backing store.
func TestReadDirPlusAllMatches(t *testing.T) {
	ctx := context.Background()
	c, backing := startStack(t)
	root := mountRoot(t, c)
	for i := 0; i < 10; i++ {
		a, err := backing.Create(backing.Root(), fmt.Sprintf("f%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := backing.Write(a.Handle, 0, make([]byte, 100*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := backing.Mkdir(backing.Root(), "sub", 0o755); err != nil {
		t.Fatal(err)
	}

	plain, err := c.ReadDirAll(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	dirA, ents, err := c.ReadDirPlusAll(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	if dirA.Handle != root || dirA.Type != vfs.TypeDir {
		t.Errorf("dir attr: handle %v type %v", dirA.Handle, dirA.Type)
	}
	if len(ents) != len(plain) {
		t.Fatalf("READDIRPLUS %d entries, READDIR %d", len(ents), len(plain))
	}
	for i, e := range ents {
		if e.Name != plain[i].Name {
			t.Errorf("entry %d: name %q vs READDIR %q", i, e.Name, plain[i].Name)
		}
		if !e.HasAttr {
			t.Errorf("entry %q: no attributes", e.Name)
			continue
		}
		want, err := backing.GetAttr(e.Handle)
		if err != nil {
			t.Fatalf("backing GetAttr(%q): %v", e.Name, err)
		}
		if e.Attr.Handle != want.Handle || e.Attr.Size != want.Size || e.Attr.Type != want.Type {
			t.Errorf("entry %q: attr %+v, backing %+v", e.Name, e.Attr, want)
		}
	}
}

// walkStats is what a tree walk that stats every entry tallies.
type walkStats struct {
	files, dirs int
	bytes       int64
}

// walkRun is one walk of the fixed tree: what it saw and the RPCs it
// issued, by procedure.
type walkRun struct {
	seen walkStats
	rpcs map[uint32]int
}

// walkFixedTree builds a fixed tree and walks it twice over the wire:
// the per-name walk (READDIR, then one LOOKUP per entry) and the
// READDIRPLUS walk. It returns both runs, the tree's true totals and
// the entry count of every directory.
func walkFixedTree(t *testing.T) (slow, fast walkRun, want walkStats, listings map[string]int) {
	t.Helper()
	ctx := context.Background()
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 8192})
	if err != nil {
		t.Fatal(err)
	}
	c, _, cnt := startStackWith(t, backing)
	root, err := c.Mount(ctx, "/export")
	if err != nil {
		t.Fatal(err)
	}
	// Three directories of 150 files, the first with a nested directory
	// of 10 more. Every name pads to 4 bytes, so every READDIRPLUS entry
	// is the same size on the wire.
	const perDir = 150
	listings = map[string]int{"": 3} // entries per directory
	var wantBytes int64
	for d := 0; d < 3; d++ {
		name := fmt.Sprintf("d%02d", d)
		dh := mkdirWithFiles(t, backing, root, name, "f", perDir)
		listings[name] = perDir
		for i := 0; i < perDir; i++ {
			a, err := backing.Lookup(dh, fmt.Sprintf("f%02d", i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := backing.Write(a.Handle, 0, make([]byte, i)); err != nil {
				t.Fatal(err)
			}
			wantBytes += int64(i)
		}
	}
	d0, err := backing.Lookup(root, "d00")
	if err != nil {
		t.Fatal(err)
	}
	mkdirWithFiles(t, backing, d0.Handle, "sub", "g", 10)
	listings["d00"]++
	listings["d00/sub"] = 10
	want = walkStats{files: 3*perDir + 10, dirs: 4, bytes: wantBytes}

	procs := []uint32{ProcLookup, ProcGetattr, ProcReaddir, ProcReaddirPlus}
	run := func(walk func(vfs.Handle, *walkStats)) walkRun {
		before := make(map[uint32]int)
		for _, p := range procs {
			before[p] = cnt.get(p)
		}
		r := walkRun{rpcs: make(map[uint32]int)}
		walk(root, &r.seen)
		for _, p := range procs {
			r.rpcs[p] = cnt.get(p) - before[p]
		}
		return r
	}

	var perName func(dir vfs.Handle, st *walkStats)
	perName = func(dir vfs.Handle, st *walkStats) {
		ents, err := c.ReadDirAll(ctx, dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			a, err := c.Lookup(ctx, dir, e.Name)
			if err != nil {
				t.Fatal(err)
			}
			if a.Type == vfs.TypeDir {
				st.dirs++
				perName(a.Handle, st)
				continue
			}
			st.files++
			st.bytes += int64(a.Size)
		}
	}
	cc := cachingClientTTL(c, time.Minute)
	var plus func(dir vfs.Handle, st *walkStats)
	plus = func(dir vfs.Handle, st *walkStats) {
		ents, err := cc.ReadDirPlusAll(ctx, dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			a := e.Attr
			if !e.HasAttr {
				// The server could not piggyback attributes: one
				// lookup, which the counts below forbid.
				if a, err = cc.Lookup(ctx, dir, e.Name); err != nil {
					t.Fatal(err)
				}
			}
			if a.Type == vfs.TypeDir {
				st.dirs++
				plus(a.Handle, st)
				continue
			}
			st.files++
			st.bytes += int64(a.Size)
		}
	}

	return run(perName), run(plus), want, listings
}

// TestWalksAgree: the per-name walk and the READDIRPLUS walk of a fixed
// tree see the same files, dirs and bytes, and both see the whole tree.
func TestWalksAgree(t *testing.T) {
	slow, fast, want, _ := walkFixedTree(t)
	if slow.seen != want || fast.seen != want {
		t.Fatalf("per-name walk saw %+v, READDIRPLUS walk %+v; the tree is %+v", slow.seen, fast.seen, want)
	}
}

// TestWalkRPCCounts pins what batching buys a tree walk that stats
// every entry, on a fixed tree: the per-name walk pays one LOOKUP per
// entry, the READDIRPLUS walk ⌈entries/page⌉ listing RPCs per directory
// and not one LOOKUP or GETATTR.
func TestWalkRPCCounts(t *testing.T) {
	slow, fast, _, listings := walkFixedTree(t)
	entries := 0
	for _, n := range listings {
		entries += n
	}
	if n := slow.rpcs[ProcLookup]; n != entries {
		t.Errorf("per-name walk: %d LOOKUPs, want one per entry (%d)", n, entries)
	}
	// One entry: more, fileid, name (4-byte length + 4 bytes), cookie,
	// has_fh, fh, has_attr, fattr.
	const entryLen = 4 + 4 + 4 + 4 + 8 + 4 + FHSize + 4 + fattrEncodedSize
	perPage := pageBudget(MaxData) / entryLen
	pages := 0
	for _, n := range listings {
		pages += max(1, (n+perPage-1)/perPage)
	}
	if n := fast.rpcs[ProcReaddirPlus]; n != pages {
		t.Errorf("READDIRPLUS walk: %d listing RPCs, want %d (%d per page)", n, pages, perPage)
	}
	for _, p := range []uint32{ProcLookup, ProcGetattr, ProcReaddir} {
		if n := fast.rpcs[p]; n != 0 {
			t.Errorf("READDIRPLUS walk: %d %s calls, want 0", n, ProcName(p))
		}
	}
}

// TestCachingLookup: a cold lookup, hit or miss, costs exactly one
// plain LOOKUP; the miss's negative entry then answers with no RPC; and
// procedure 21 (the deleted LOOKUPPLUS) answers PROC_UNAVAIL like any
// procedure the server does not define.
func TestCachingLookup(t *testing.T) {
	ctx := context.Background()
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 8192})
	if err != nil {
		t.Fatal(err)
	}
	c, _, cnt := startStackWith(t, backing)
	root := mountRoot(t, c)
	x, err := backing.Create(backing.Root(), "x.txt", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	cc := cachingClientTTL(c, time.Minute)
	calls := func() (lookups, all int) {
		cnt.mu.Lock()
		defer cnt.mu.Unlock()
		for _, n := range cnt.n {
			all += n
		}
		return cnt.n[ProcLookup], all
	}
	expect := func(step string, wantLookups int, do func()) {
		t.Helper()
		l0, a0 := calls()
		do()
		l1, a1 := calls()
		if l1-l0 != wantLookups || a1-a0 != wantLookups {
			t.Errorf("%s: %d LOOKUPs of %d RPCs, want %d of %d", step, l1-l0, a1-a0, wantLookups, wantLookups)
		}
	}

	expect("cold hit", 1, func() {
		a, hit, err := cc.LookupCached(ctx, root, "x.txt")
		if err != nil || hit || a.Handle != x.Handle {
			t.Errorf("cold hit: handle %v hit %v err %v, want %v from the server", a.Handle, hit, err, x.Handle)
		}
	})
	expect("cold miss", 1, func() {
		if _, hit, err := cc.LookupCached(ctx, root, "ghost"); StatOf(err) != ErrNoEnt || hit {
			t.Errorf("cold miss: hit %v err %v, want ErrNoEnt from the server", hit, err)
		}
	})
	expect("cached miss", 0, func() {
		if _, hit, err := cc.LookupCached(ctx, root, "ghost"); StatOf(err) != ErrNoEnt || !hit {
			t.Errorf("cached miss: hit %v err %v, want ErrNoEnt from the negative entry", hit, err)
		}
	})

	fh, err := c.WireFH(root)
	if err != nil {
		t.Fatal(err)
	}
	e := xdr.NewEncoder()
	e.OpaqueFixed(fh[:])
	e.String("x.txt")
	_, err = c.RPC().Call(ctx, Prog, Vers, 21, e.Bytes())
	var re *sunrpc.RPCError
	if !errors.As(err, &re) || re.Stat != sunrpc.ProcUnavail {
		t.Errorf("procedure 21: err %v, want PROC_UNAVAIL", err)
	}
}

// gatedFS wraps a backing FS with a switchable AccessChecker, to model
// credential revocation between pages.
type gatedFS struct {
	vfs.FS
	allow atomic.Bool
}

func (g *gatedFS) Access(vfs.Handle) (uint32, error) {
	if g.allow.Load() {
		return AccessRead | AccessWrite | AccessExec, nil
	}
	return 0, nil
}

// gatedDir exports a 30-file directory through a gate that starts open.
func gatedDir(t *testing.T) (*Client, *gatedFS, vfs.Handle) {
	t.Helper()
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 8192})
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedFS{FS: backing}
	g.allow.Store(true)
	c, _, _ := startStackWith(t, g)
	return c, g, mkdirWithFiles(t, backing, mountRoot(t, c), "d", "f", 30)
}

// TestReadDirPlusRevocationMidWalk: resumed pages re-run the read gate,
// so access revoked after the first page stops the walk instead of
// streaming the rest of the snapshot.
func TestReadDirPlusRevocationMidWalk(t *testing.T) {
	ctx := context.Background()
	c, g, dir := gatedDir(t)
	pg, err := c.ReadDirPlus(ctx, dir, 0, 0, 512)
	if err != nil || pg.EOF {
		t.Fatalf("first page: eof %v, err %v", pg.EOF, err)
	}
	g.allow.Store(false)
	_, err = c.ReadDirPlus(ctx, dir, pg.Verf, pg.Entries[len(pg.Entries)-1].Cookie, 512)
	if StatOf(err) != ErrAcces {
		t.Errorf("resume after revocation: err %v, want ErrAcces", err)
	}
}

// TestReadDirRevocationMidWalk: READDIR's cookie path resumes through
// the same gate (it used to serve the rest of the snapshot ungated).
func TestReadDirRevocationMidWalk(t *testing.T) {
	ctx := context.Background()
	c, g, dir := gatedDir(t)
	ents, eof, err := c.ReadDirPage(ctx, dir, 0, 256)
	if err != nil || eof || len(ents) == 0 {
		t.Fatalf("first page: %d entries, eof %v, err %v", len(ents), eof, err)
	}
	g.allow.Store(false)
	_, _, err = c.ReadDirPage(ctx, dir, ents[len(ents)-1].Cookie, 256)
	if StatOf(err) != ErrAcces {
		t.Errorf("resume after revocation: err %v, want ErrAcces", err)
	}
}

// TestCachingNegativeLookup: a lookup miss is cached — the second miss
// answers from the negative cache without an RPC — and InstallNew after
// a raw CREATE of the name clears it.
func TestCachingNegativeLookup(t *testing.T) {
	ctx := context.Background()
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 8192})
	if err != nil {
		t.Fatal(err)
	}
	c, _, cnt := startStackWith(t, backing)
	root, err := c.Mount(ctx, "/export")
	if err != nil {
		t.Fatal(err)
	}
	cc := cachingClientTTL(c, time.Minute)

	for i := 0; i < 3; i++ {
		if _, err := cc.Lookup(ctx, root, "ghost"); StatOf(err) != ErrNoEnt {
			t.Fatalf("lookup %d: err %v, want ErrNoEnt", i, err)
		}
	}
	if n := cnt.get(ProcLookup); n != 1 {
		t.Errorf("3 misses cost %d lookup RPCs, want 1 (negative cache)", n)
	}

	a, err := c.Create(ctx, root, "ghost", 0o644)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	cc.InstallNew(root, "ghost", a)
	if _, err := cc.Lookup(ctx, root, "ghost"); err != nil {
		t.Errorf("lookup after create: %v (stale negative entry?)", err)
	}
}

// TestCachingBulkInstall: one ReadDirPlusAll primes the attribute and
// name caches — the following per-entry GetAttr and Lookup calls cost
// zero RPCs.
func TestCachingBulkInstall(t *testing.T) {
	ctx := context.Background()
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 8192})
	if err != nil {
		t.Fatal(err)
	}
	c, _, cnt := startStackWith(t, backing)
	root, err := c.Mount(ctx, "/export")
	if err != nil {
		t.Fatal(err)
	}
	dir := mkdirWithFiles(t, backing, root, "d", "f", 12)
	cc := cachingClientTTL(c, time.Minute)

	ents, err := cc.ReadDirPlusAll(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 12 {
		t.Fatalf("%d entries, want 12", len(ents))
	}
	getattrs, lookups := cnt.get(ProcGetattr), cnt.get(ProcLookup)
	for _, e := range ents {
		if _, err := cc.GetAttr(ctx, e.Attr.Handle); err != nil {
			t.Fatal(err)
		}
		if _, err := cc.Lookup(ctx, dir, e.Name); err != nil {
			t.Fatal(err)
		}
	}
	if n := cnt.get(ProcGetattr); n != getattrs {
		t.Errorf("GetAttr after bulk install cost %d RPCs, want 0", n-getattrs)
	}
	if n := cnt.get(ProcLookup); n != lookups {
		t.Errorf("Lookup after bulk install cost %d RPCs, want 0", n-lookups)
	}
}

// TestCachingInstallGenerationCheck is the reinstall-race regression: a
// result fetched before an invalidation must not be installed after it.
// (The race itself — RPC in flight while forgetHandle runs — is not
// schedulable deterministically, so the gate is asserted directly.)
func TestCachingInstallGenerationCheck(t *testing.T) {
	ctx := context.Background()
	c, backing := startStack(t)
	mountRoot(t, c)
	a, err := backing.Create(backing.Root(), "x", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	cc := cachingClientTTL(c, time.Minute)

	// The losing interleaving: snapshot, fetch, invalidate, install.
	gen := cc.generation()
	attr, err := cc.Client.GetAttr(ctx, a.Handle)
	if err != nil {
		t.Fatal(err)
	}
	cc.forgetHandle(a.Handle)
	cc.installAt(gen, attr)
	cc.mu.Lock()
	_, resurrected := cc.attrs[a.Handle]
	cc.mu.Unlock()
	if resurrected {
		t.Error("stale result installed after invalidation (generation check missing)")
	}

	// The clean interleaving still installs.
	cc.installAt(cc.generation(), attr)
	cc.mu.Lock()
	_, ok := cc.attrs[a.Handle]
	cc.mu.Unlock()
	if !ok {
		t.Error("install with current generation was dropped")
	}
}

// TestReadDirConcurrentMutationStress races paged listings against
// directory churn and cursor eviction (capacity 1). Every listing that
// succeeds must contain each of the 50 stable names exactly once; a
// listing may only fail with the stale-cursor error ReadDirAll could
// not outrun. Run with -race.
func TestReadDirConcurrentMutationStress(t *testing.T) {
	ctx := context.Background()
	c, backing, srv := startStackExt(t)
	mountRoot(t, c)
	capCursors(srv, 1)
	dir := mkdirWithFiles(t, backing, backing.Root(), "d", "stable", 50)
	other := mkdirWithFiles(t, backing, backing.Root(), "other", "g", 10)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // churn the listed directory's contents
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("churn%d", i%7)
			if _, err := backing.Create(dir, name, 0o644); err == nil {
				_ = backing.Remove(dir, name)
			}
		}
	}()
	go func() { // churn the single cursor slot with competing listings
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = c.ReadDirAll(ctx, other)
		}
	}()

	for i := 0; i < 15; i++ {
		ents, err := c.ReadDirAll(ctx, dir)
		if err != nil {
			// The only acceptable failure: restarts could not outrun
			// cursor eviction. Silent truncation or corruption is not.
			if StatOf(err) != ErrStale {
				t.Fatalf("listing %d: %v", i, err)
			}
			continue
		}
		seen := make(map[string]int, len(ents))
		for _, e := range ents {
			seen[e.Name]++
			if seen[e.Name] > 1 {
				t.Fatalf("listing %d: %q duplicated", i, e.Name)
			}
		}
		for j := 0; j < 50; j++ {
			if name := fmt.Sprintf("stable%02d", j); seen[name] != 1 {
				t.Fatalf("listing %d: stable entry %q seen %d times", i, name, seen[name])
			}
		}
	}
	close(stop)
	wg.Wait()
}
