package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"discfs/internal/fed"
	"discfs/internal/ffs"
	"discfs/internal/keynote"
	"discfs/internal/nfs"
	"discfs/internal/vfs"
)

// fedCluster starts n independent servers sharing one administrator key
// (the shared trust anchor that lets delegation chains span servers)
// and pre-creates the /data shard subtree on each, as discfsd
// -fed-subtree would.
func fedCluster(t *testing.T, n int) ([]*Server, []string) {
	t.Helper()
	admin := keynote.DeterministicKey("fed-admin")
	srvs := make([]*Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 16384})
		if err != nil {
			t.Fatalf("ffs.New: %v", err)
		}
		if _, err := backing.Mkdir(backing.Root(), "data", 0o755); err != nil {
			t.Fatalf("mkdir /data on shard %d: %v", i, err)
		}
		srvs[i], addrs[i] = testServer(t, ServerConfig{ServerKey: admin, Backing: backing})
	}
	return srvs, addrs
}

// grantAll issues holder an RWX credential on every shard's root and
// returns the concatenated credential text — the chain a federated
// user submits once, to all shards.
func grantAll(t *testing.T, srvs []*Server, holder keynote.Principal) string {
	t.Helper()
	text := ""
	for i, srv := range srvs {
		cred, err := srv.IssueCredential(holder, srv.backing.Root().Ino, "RWX", fmt.Sprintf("shard %d root", i))
		if err != nil {
			t.Fatalf("IssueCredential shard %d: %v", i, err)
		}
		text += cred.Source + "\n\n"
	}
	return text
}

// fedDial connects a federated client: addrs[0] is the primary, the
// rest are shards, /data is the sharded subtree.
func fedDial(t *testing.T, addrs []string, seed string, opts ...ClientOption) *Client {
	t.Helper()
	opts = append([]ClientOption{WithServers(addrs[1:]...), WithShardSubtree("/data")}, opts...)
	return dialAsWith(t, addrs[0], seed, opts...)
}

// shardHolding reports which server's /data directory holds name,
// checked in the backing stores directly (ground truth, no client
// routing involved).
func shardHolding(t *testing.T, srvs []*Server, name string) int {
	t.Helper()
	found := -1
	for i, srv := range srvs {
		d, err := srv.backing.Lookup(srv.backing.Root(), "data")
		if err != nil {
			t.Fatalf("shard %d: lookup /data: %v", i, err)
		}
		if _, err := srv.backing.Lookup(d.Handle, name); err == nil {
			if found >= 0 {
				t.Fatalf("%s present on shards %d and %d", name, found, i)
			}
			found = i
		}
	}
	return found
}

// TestFedRoutingPlacesFilesOnOwningShard writes files into the sharded
// subtree through a federated client and verifies — against the
// backing stores directly — that each landed on exactly the shard the
// ring owns it to, and that reads route back to the same place.
func TestFedRoutingPlacesFilesOnOwningShard(t *testing.T) {
	ctx := context.Background()
	srvs, addrs := fedCluster(t, 3)
	chain := grantAll(t, srvs, keynote.DeterministicKey("bob").Principal)

	c := fedDial(t, addrs, "bob")
	if _, err := c.SubmitCredentialText(ctx, chain); err != nil {
		t.Fatalf("SubmitCredentialText: %v", err)
	}

	spread := make(map[int]int)
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("file-%02d.dat", i)
		body := []byte(fmt.Sprintf("payload %d", i))
		if _, _, err := c.WriteFile(ctx, "/data/"+name, body); err != nil {
			t.Fatalf("WriteFile %s: %v", name, err)
		}
		want := c.table.Owner(name)
		if got := shardHolding(t, srvs, name); got != want {
			t.Fatalf("%s landed on shard %d, ring owns it to %d", name, got, want)
		}
		spread[want]++
		back, err := c.ReadFile(ctx, "/data/"+name)
		if err != nil {
			t.Fatalf("ReadFile %s: %v", name, err)
		}
		if string(back) != string(body) {
			t.Fatalf("%s read back %q, want %q", name, back, body)
		}
	}
	if len(spread) < 2 {
		t.Fatalf("all 12 files on one shard (%v): sharding inert", spread)
	}

	// The merged listing shows every file exactly once.
	ents, err := c.List(ctx, "/data")
	if err != nil {
		t.Fatalf("List /data: %v", err)
	}
	if len(ents) != 12 {
		t.Fatalf("List /data returned %d entries, want 12", len(ents))
	}

	// Handle tags match the owning shard, so subsequent handle-based
	// ops route without lookups.
	for _, e := range ents {
		name := e.Name
		attr, err := c.ResolvePath(ctx, "/data/"+name)
		if err != nil {
			t.Fatalf("ResolvePath %s: %v", name, err)
		}
		if got, want := nfs.ShardOfIno(attr.Handle.Ino), c.table.Owner(name); got != want {
			t.Fatalf("%s handle tagged shard %d, want %d", name, got, want)
		}
	}
}

// spreadNames returns n names picked so that name i hashes to shard
// i%shards on a ring built apart from the client's.
func spreadNames(t *testing.T, n, shards int) []string {
	t.Helper()
	table, err := fed.New(fed.Spec{Extra: make([]string, shards-1), ShardSubtree: "/data"})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, n)
	for i, next := 0, 0; i < n; next++ {
		if cand := fmt.Sprintf("w-%04d.dat", next); table.Owner(cand) == i%shards {
			names[i] = cand
			i++
		}
	}
	return names
}

// fedBob starts a 3-shard cluster and a federated client holding RWX
// on every shard.
func fedBob(t *testing.T) ([]*Server, *Client) {
	t.Helper()
	srvs, addrs := fedCluster(t, 3)
	chain := grantAll(t, srvs, keynote.DeterministicKey("bob").Principal)
	c := fedDial(t, addrs, "bob")
	if _, err := c.SubmitCredentialText(context.Background(), chain); err != nil {
		t.Fatalf("SubmitCredentialText: %v", err)
	}
	return srvs, c
}

// TestFedSpreadNames pins placement against a ring built apart from the
// client's: names picked so that name i hashes to shard i%3 land on
// that shard.
func TestFedSpreadNames(t *testing.T) {
	ctx := context.Background()
	srvs, c := fedBob(t)
	for i, name := range spreadNames(t, 9, len(srvs)) {
		if _, _, err := c.WriteFile(ctx, "/data/"+name, []byte("x")); err != nil {
			t.Fatalf("WriteFile %s: %v", name, err)
		}
		if got := shardHolding(t, srvs, name); got != i%len(srvs) {
			t.Fatalf("%s landed on shard %d, want %d", name, got, i%len(srvs))
		}
	}
}

// TestFedShardWriteCounts: each shard serves exactly one WRITE per name
// routed to it, so disjoint working sets split the data traffic evenly
// and no shard relays another's writes.
func TestFedShardWriteCounts(t *testing.T) {
	ctx := context.Background()
	srvs, c := fedBob(t)
	names := spreadNames(t, 9, len(srvs))
	writes := func(shard int) uint64 {
		lat := srvs[shard].met.procLatency
		return lat.With("write").Count() + lat.With("writeextents").Count()
	}
	before := make([]uint64, len(srvs))
	for i := range srvs {
		before[i] = writes(i)
	}
	for _, name := range names {
		if _, _, err := c.WriteFile(ctx, "/data/"+name, []byte("x")); err != nil {
			t.Fatalf("WriteFile %s: %v", name, err)
		}
	}
	for i := range srvs {
		if n, want := writes(i)-before[i], uint64(len(names)/len(srvs)); n != want {
			t.Errorf("shard %d served %d WRITEs, want %d: one per name routed to it", i, n, want)
		}
	}
}

// TestFedCrossShardRename pins the EXDEV contract: renaming between two
// shards fails with ErrXDev, while a same-shard rename succeeds.
func TestFedCrossShardRename(t *testing.T) {
	ctx := context.Background()
	srvs, addrs := fedCluster(t, 3)
	chain := grantAll(t, srvs, keynote.DeterministicKey("bob").Principal)
	c := fedDial(t, addrs, "bob")
	if _, err := c.SubmitCredentialText(ctx, chain); err != nil {
		t.Fatalf("SubmitCredentialText: %v", err)
	}

	// Probe the ring for a cross-shard pair and a same-shard pair.
	var from, toCross, toSame string
	for i := 0; from == "" || toCross == "" || toSame == ""; i++ {
		name := fmt.Sprintf("probe-%03d", i)
		switch {
		case from == "":
			from = name
		case c.table.Owner(name) != c.table.Owner(from):
			if toCross == "" {
				toCross = name
			}
		case toSame == "" && name != from:
			toSame = name
		}
	}

	if _, _, err := c.WriteFile(ctx, "/data/"+from, []byte("x")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	err := c.Rename(ctx, "/data/"+from, "/data/"+toCross)
	if !errors.Is(err, ErrXDev) {
		t.Fatalf("cross-shard rename = %v, want ErrXDev", err)
	}
	if err := c.Rename(ctx, "/data/"+from, "/data/"+toSame); err != nil {
		t.Fatalf("same-shard rename: %v", err)
	}
	if got := shardHolding(t, srvs, toSame); got != c.table.Owner(from) {
		t.Fatalf("renamed file on shard %d, want %d", got, c.table.Owner(from))
	}

	// Defense in depth below the path API: handing one shard's handle
	// to another shard's NFS client is refused client-side before any
	// bytes hit the wire.
	attr, err := c.ResolvePath(ctx, "/data/"+toSame)
	if err != nil {
		t.Fatalf("ResolvePath: %v", err)
	}
	other := c.shards[(nfs.ShardOfIno(attr.Handle.Ino)+1)%3]
	if _, err := other.nfsc(ctx).GetAttr(ctx, attr.Handle); nfs.StatOf(err) != nfs.ErrXDev {
		t.Fatalf("foreign-shard handle = %v, want ErrXDev", err)
	}
}

// TestFedWalkRevokeMidWalk revokes a principal on one shard while that
// principal is mid-walk: the revoked shard's children vanish from the
// merged subtree (its listing denial drops it from the union) while
// the other shards' files keep streaming.
func TestFedWalkRevokeMidWalk(t *testing.T) {
	ctx := context.Background()
	srvs, addrs := fedCluster(t, 3)
	bob := keynote.DeterministicKey("bob")
	chain := grantAll(t, srvs, bob.Principal)
	c := fedDial(t, addrs, "bob")
	if _, err := c.SubmitCredentialText(ctx, chain); err != nil {
		t.Fatalf("SubmitCredentialText: %v", err)
	}

	perShard := make(map[int][]string)
	for i := 0; i < 15; i++ {
		name := fmt.Sprintf("walk-%02d", i)
		if _, _, err := c.WriteFile(ctx, "/data/"+name, []byte("w")); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		own := c.table.Owner(name)
		perShard[own] = append(perShard[own], name)
	}
	var victim int
	for sh, names := range perShard {
		if len(names) > 0 {
			victim = sh
			break
		}
	}

	// The admin revokes bob on the victim shard only (a single-server
	// admin client revokes exactly where it is attached).
	admin := dialAs(t, addrs[victim], "fed-admin")
	if _, err := admin.RevokeKey(ctx, bob.Principal); err != nil {
		t.Fatalf("RevokeKey: %v", err)
	}
	// Revocation also cut bob's secure channel to that shard; walks must
	// survive the dead connection, not just the policy denial.

	seen := make(map[string]bool)
	if err := c.Walk(ctx, func(path string, attr vfs.Attr) error {
		seen[path] = true
		return nil
	}); err != nil {
		t.Fatalf("Walk after revocation: %v", err)
	}
	for sh, names := range perShard {
		for _, n := range names {
			if sh == victim && seen["/data/"+n] {
				t.Fatalf("revoked shard %d still contributed %s to the walk", sh, n)
			}
			if sh != victim && !seen["/data/"+n] {
				t.Fatalf("healthy shard %d lost %s from the walk", sh, n)
			}
		}
	}

	// Direct access to the revoked shard's files is denied outright.
	if name := perShard[victim][0]; true {
		if _, err := c.ReadFile(ctx, "/data/"+name); err == nil {
			t.Fatalf("ReadFile %s succeeded after revocation on its shard", name)
		}
	}
}

// TestFedSingleServerRouting runs a federation-configured client against a
// single stock server: shard 0's handle tag is the identity, so
// nothing federation-specific leaks onto the wire and every operation
// behaves exactly as a classic client.
func TestFedSingleServerRouting(t *testing.T) {
	ctx := context.Background()
	srvs, addrs := fedCluster(t, 1)
	chain := grantAll(t, srvs, keynote.DeterministicKey("bob").Principal)

	c := dialAsWith(t, addrs[0], "bob", WithShardSubtree("/data"))
	if c.table == nil || c.table.NumShards() != 1 {
		t.Fatalf("expected a 1-shard routing table")
	}
	if _, err := c.SubmitCredentialText(ctx, chain); err != nil {
		t.Fatalf("SubmitCredentialText: %v", err)
	}
	if _, _, err := c.WriteFile(ctx, "/data/solo.dat", []byte("solo")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	attr, err := c.ResolvePath(ctx, "/data/solo.dat")
	if err != nil {
		t.Fatalf("ResolvePath: %v", err)
	}
	// No handle-prefix leak: the ino the client holds is exactly the
	// server's (top byte zero), and the server accepts it untagged.
	if attr.Handle.Ino>>nfs.ShardShift != 0 {
		t.Fatalf("single-server handle carries shard tag: ino %#x", attr.Handle.Ino)
	}
	if _, err := srvs[0].backing.GetAttr(vfs.Handle{Ino: attr.Handle.Ino, Gen: attr.Handle.Gen}); err != nil {
		t.Fatalf("server does not recognize the client's ino: %v", err)
	}
	got, err := c.ReadFile(ctx, "/data/solo.dat")
	if err != nil || string(got) != "solo" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	ents, err := c.List(ctx, "/data")
	if err != nil || len(ents) != 1 {
		t.Fatalf("List = %v, %v", ents, err)
	}
}

// TestFedRedial cuts a shard's connection mid-session and checks
// the next operation transparently re-establishes it (counted in
// discfs_redials_total), with no credential resubmission — server
// sessions are keyed by principal, not connection.
func TestFedRedial(t *testing.T) {
	ctx := context.Background()
	srvs, addrs := fedCluster(t, 2)
	chain := grantAll(t, srvs, keynote.DeterministicKey("bob").Principal)
	c := fedDial(t, addrs, "bob")
	if _, err := c.SubmitCredentialText(ctx, chain); err != nil {
		t.Fatalf("SubmitCredentialText: %v", err)
	}
	if _, _, err := c.WriteFile(ctx, "/data/redial.dat", []byte("before")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	attr, err := c.ResolvePath(ctx, "/data/redial.dat")
	if err != nil {
		t.Fatalf("ResolvePath: %v", err)
	}
	sh := c.shardOf(attr.Handle)

	before := RedialsTotal()
	cut := sh.link.Load().rpc
	cut.Close() // sever the shard's link under it
	for !cut.Broken() {
		// The link counts as lost once its read loop has seen the close;
		// a call issued before that fails with the transport error.
		time.Sleep(time.Millisecond)
	}
	got, err := c.ReadFile(ctx, "/data/redial.dat")
	if err != nil || string(got) != "before" {
		t.Fatalf("ReadFile across redial = %q, %v", got, err)
	}
	if RedialsTotal() == before {
		t.Fatalf("redial not counted: RedialsTotal still %d", before)
	}
	// And writes, through write-behind on the redialed link, work too.
	if _, _, err := c.WriteFile(ctx, "/data/redial.dat", []byte("after")); err != nil {
		t.Fatalf("WriteFile after redial: %v", err)
	}
}

// TestFedDelegationSpansServers is the paper's sharing flow stretched
// across the federation: bob delegates a file he owns on some shard to
// alice; alice presents the full chain (admin→bob on every shard plus
// bob→alice) to her federated client and reads the file, wherever it
// lives — no server-to-server coordination, just the self-certifying
// chain evaluated locally by the owning shard.
func TestFedDelegationSpansServers(t *testing.T) {
	ctx := context.Background()
	srvs, addrs := fedCluster(t, 3)
	bob := keynote.DeterministicKey("bob")
	alice := keynote.DeterministicKey("alice")
	bobChain := grantAll(t, srvs, bob.Principal)

	bc := fedDial(t, addrs, "bob")
	if _, err := bc.SubmitCredentialText(ctx, bobChain); err != nil {
		t.Fatalf("bob SubmitCredentialText: %v", err)
	}
	attr, _, err := bc.WriteFile(ctx, "/data/shared.dat", []byte("for alice"))
	if err != nil {
		t.Fatalf("bob WriteFile: %v", err)
	}
	// Delegating from the federated (tagged) file ino must strip the
	// shard tag: credentials speak the owning server's inode numbers.
	tagged, err := bc.Delegate(ctx, alice.Principal, attr.Handle.Ino, "R", "tag check")
	if err != nil {
		t.Fatalf("Delegate(tagged ino): %v", err)
	}
	serverIno := nfs.UntagIno(attr.Handle.Ino)
	if serverIno == attr.Handle.Ino {
		t.Fatalf("test needs a tagged handle; got untagged ino %#x", attr.Handle.Ino)
	}
	if want := fmt.Sprintf("%q", fmt.Sprint(serverIno)); !strings.Contains(tagged.Source, want) {
		t.Fatalf("delegation conditions lack the untagged ino %s:\n%s", want, tagged.Source)
	}
	if stray := fmt.Sprintf("%q", fmt.Sprint(attr.Handle.Ino)); strings.Contains(tagged.Source, stray) {
		t.Fatalf("delegation conditions leak the tagged ino %s:\n%s", stray, tagged.Source)
	}
	// As in the paper's Figure 1, grants on a directory carry the search
	// bit so files beneath stay reachable: bob shares read+lookup on the
	// tree (the root ino is the same on every freshly provisioned
	// shard, so one credential covers the path on each server).
	cred, err := bc.Delegate(ctx, alice.Principal, srvs[0].backing.Root().Ino, "RX", "bob shares with alice")
	if err != nil {
		t.Fatalf("Delegate: %v", err)
	}

	ac := fedDial(t, addrs, "alice")
	if _, err := ac.SubmitCredentialText(ctx, bobChain+cred.Source+"\n"); err != nil {
		t.Fatalf("alice SubmitCredentialText: %v", err)
	}
	got, err := ac.ReadFile(ctx, "/data/shared.dat")
	if err != nil || string(got) != "for alice" {
		t.Fatalf("alice ReadFile = %q, %v", got, err)
	}
	// Read-only: the chain ends in "R".
	if _, _, err := ac.WriteFile(ctx, "/data/shared.dat", []byte("overwrite")); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("alice write = %v, want ErrAccessDenied", err)
	}
}

// TestFedGrafts exercises the static mount-style bindings: a path
// grafted to shard 1 resolves to that shard's root, files beneath it
// live there, and the graft surfaces in walks.
func TestFedGrafts(t *testing.T) {
	ctx := context.Background()
	srvs, addrs := fedCluster(t, 2)
	chain := grantAll(t, srvs, keynote.DeterministicKey("bob").Principal)

	c := dialAsWith(t, addrs[0], "bob", WithServers(addrs[1]), WithGraft("/archive", 1))
	if _, err := c.SubmitCredentialText(ctx, chain); err != nil {
		t.Fatalf("SubmitCredentialText: %v", err)
	}
	if _, _, err := c.WriteFile(ctx, "/archive/old.dat", []byte("kept")); err != nil {
		t.Fatalf("WriteFile under graft: %v", err)
	}
	// Ground truth: the file exists at shard 1's root, not on shard 0.
	if _, err := srvs[1].backing.Lookup(srvs[1].backing.Root(), "old.dat"); err != nil {
		t.Fatalf("grafted file missing on shard 1: %v", err)
	}
	if _, err := srvs[0].backing.Lookup(srvs[0].backing.Root(), "old.dat"); err == nil {
		t.Fatalf("grafted file leaked onto shard 0")
	}
	var paths []string
	if err := c.Walk(ctx, func(p string, _ vfs.Attr) error {
		paths = append(paths, p)
		return nil
	}); err != nil {
		t.Fatalf("Walk: %v", err)
	}
	found := false
	for _, p := range paths {
		if p == "/archive/old.dat" {
			found = true
		}
	}
	if !found {
		t.Fatalf("walk missed the grafted file: %v", paths)
	}
}

// TestFedListShowsGraftPoint: List reads a directory as Walk does, so a
// graft point shows in its parent's listing whether or not the parent
// holds an entry of that name, and listing it lists the target shard's
// root.
func TestFedListShowsGraftPoint(t *testing.T) {
	ctx := context.Background()
	srvs, addrs := fedCluster(t, 2)
	chain := grantAll(t, srvs, keynote.DeterministicKey("bob").Principal)
	c := dialAsWith(t, addrs[0], "bob", WithServers(addrs[1]), WithGraft("/archive", 1))
	if _, err := c.SubmitCredentialText(ctx, chain); err != nil {
		t.Fatalf("SubmitCredentialText: %v", err)
	}
	for _, p := range []string{"/top.dat", "/archive/old.dat"} {
		if _, _, err := c.WriteFile(ctx, p, []byte("kept")); err != nil {
			t.Fatalf("WriteFile %s: %v", p, err)
		}
	}
	names := func(path string) []string {
		ents, err := c.List(ctx, path)
		if err != nil {
			t.Fatalf("List %s: %v", path, err)
		}
		var out []string
		for _, e := range ents {
			out = append(out, e.Name)
		}
		return out
	}
	if got := names("/"); !slices.Contains(got, "archive") || !slices.Contains(got, "top.dat") {
		t.Errorf("List(/) = %v, want the graft point archive beside top.dat", got)
	}
	if got := names("/archive"); !slices.Contains(got, "old.dat") {
		t.Errorf("List(/archive) = %v, want old.dat, from shard 1's root", got)
	}
}
