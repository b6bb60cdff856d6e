package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"discfs/internal/audit"
	"discfs/internal/cfs"
	"discfs/internal/ffs"
	"discfs/internal/keynote"
	"discfs/internal/nfs"
	"discfs/internal/secchan"
	"discfs/internal/sunrpc"
	"discfs/internal/vfs"
	"discfs/internal/xdr"
)

// testServer builds the full paper stack: FFS → CFS-NE → DisCFS server,
// served over the secure channel on a loopback port.
func testServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	if cfg.Backing == nil {
		backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 16384})
		if err != nil {
			t.Fatalf("ffs.New: %v", err)
		}
		ne, err := cfs.New(backing, "", false) // CFS-NE, as in the prototype
		if err != nil {
			t.Fatalf("cfs.New: %v", err)
		}
		cfg.Backing = ne
	}
	if cfg.ServerKey == nil {
		cfg.ServerKey = keynote.DeterministicKey("test-admin")
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func dialAs(t *testing.T, addr, seed string) *Client {
	t.Helper()
	return dialAsWith(t, addr, seed)
}

func dialAsWith(t *testing.T, addr, seed string, opts ...ClientOption) *Client {
	ctx := context.Background()
	t.Helper()
	c, err := Dial(ctx, addr, keynote.DeterministicKey(seed), opts...)
	if err != nil {
		t.Fatalf("Dial(%s): %v", seed, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// runAtGrant makes c run every shard at a transfer size of n bytes (at
// most what the shard granted), as if each server had granted n at
// attach; call it before c opens a file, whose cache takes its cluster
// window from the grant. A server accepts any size up to its own bound,
// whatever a connection negotiated, so this stands in for a server that
// grants less than the client proposes.
func runAtGrant(c *Client, n int) {
	for _, sh := range c.shards {
		sh.xfer = min(nfs.ClampTransfer(n), sh.xfer)
		sh.link.Load().nfs.SetMaxData(sh.xfer)
	}
}

// TestAttachRefusesServerWithoutExtensions: a peer that authenticates
// and mounts but answers FSINFO with PROC_UNAVAIL speaks none of the
// extensions the client issues unconditionally (COMMIT, READDIRPLUS,
// LOOKUPPLUS). Dial fails, typed, instead of attaching at 8 KiB and
// failing later in the middle of some operation.
func TestAttachRefusesServerWithoutExtensions(t *testing.T) {
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 1024})
	if err != nil {
		t.Fatal(err)
	}
	rpcSrv := sunrpc.NewServer()
	nfs.NewServer(nfs.StaticExport{FS: backing}).RegisterAll(rpcSrv) // MOUNT works
	rpcSrv.Register(nfs.Prog, nfs.Vers, func(*sunrpc.Context, uint32, *xdr.Decoder, *xdr.Encoder) (sunrpc.AcceptStat, error) {
		return sunrpc.ProcUnavail, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rpcSrv.Serve(secchan.NewListener(ln, secchan.Config{Identity: keynote.DeterministicKey("old-server")}))
	defer rpcSrv.Close()

	c, err := Dial(context.Background(), ln.Addr().String(), keynote.DeterministicKey("bob"))
	if err == nil {
		c.Close()
		t.Fatal("Dial attached to a server that refuses FSINFO")
	}
	if !errors.Is(err, ErrUnsupportedServer) {
		t.Errorf("Dial error %v does not match ErrUnsupportedServer", err)
	}
	var re *sunrpc.RPCError
	if !errors.As(err, &re) || re.Stat != sunrpc.ProcUnavail {
		t.Errorf("Dial error %v lost the RPC-level cause", err)
	}
}

func TestAttachShowsMode000WithoutCredentials(t *testing.T) {
	ctx := context.Background()
	_, addr := testServer(t, ServerConfig{})
	c := dialAs(t, addr, "stranger")
	attr, err := c.NFS().GetAttr(ctx, c.Root())
	if err != nil {
		t.Fatalf("GetAttr(root): %v", err)
	}
	if attr.Mode != 0 {
		t.Errorf("uncredentialed root mode = %o, want 000", attr.Mode)
	}
	// Every operation is denied.
	if _, err := c.NFS().Lookup(ctx, c.Root(), "anything"); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("lookup = %v, want EACCES", err)
	}
	if _, err := c.NFS().Create(ctx, c.Root(), "f", 0o644); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("create = %v, want EACCES", err)
	}
	if _, err := c.NFS().ReadDirAll(ctx, c.Root()); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("readdir = %v, want EACCES", err)
	}
}

// TestPaperFigure1Flow is the paper's running example end to end:
// the administrator delegates the root to Bob; Bob stores a paper and
// issues Alice a read-only credential; Alice reads the file with the
// full chain and is denied writes and denied everything without the
// chain.
func TestPaperFigure1Flow(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})

	bobKey := keynote.DeterministicKey("bob")
	aliceKey := keynote.DeterministicKey("alice")

	// 1st certificate: administrator → Bob (RWX on the whole tree).
	rootIno := srv.backing.Root().Ino
	adminToBob, err := srv.IssueCredential(bobKey.Principal, rootIno, "RWX", "admin delegates tree to bob")
	if err != nil {
		t.Fatalf("IssueCredential: %v", err)
	}

	// Bob attaches and stores the paper.
	bob := dialAs(t, addr, "bob")
	if _, err := bob.SubmitCredentials(ctx, adminToBob); err != nil {
		t.Fatalf("bob submit: %v", err)
	}
	paper := []byte("DisCFS: credentials identify files, users, and conditions")
	attr, _, err := bob.WriteFile(ctx, "/paper.txt", paper)
	if err != nil {
		t.Fatalf("bob write: %v", err)
	}
	// Root now shows Bob's permissions.
	rootAttr, _ := bob.NFS().GetAttr(ctx, bob.Root())
	if rootAttr.Mode&0o700 != 0o700 {
		t.Errorf("bob's root mode = %o, want rwx for user bits", rootAttr.Mode)
	}

	// 2nd certificate: Bob → Alice, read+search on the tree holding the
	// paper (the paper's Figure 5 grants on a directory; reading files
	// beneath it needs the search bit for lookups, as in Unix).
	bobToAlice, err := bob.Delegate(ctx, aliceKey.Principal, rootIno, "RX", "bob lets alice read the paper")
	if err != nil {
		t.Fatalf("Delegate: %v", err)
	}

	// Alice without any credentials: denied.
	alice := dialAs(t, addr, "alice")
	if _, err := alice.ReadFile(ctx, "/paper.txt"); nfs.StatOf(err) != nfs.ErrAcces {
		t.Fatalf("alice without creds = %v, want EACCES", err)
	}

	// Alice submits Bob's credential. The admin→Bob link is already in
	// the server's persistent session (it was issued there), matching
	// the paper's credential-caching observation; the strict
	// two-credential requirement is covered by
	// TestAliceNeedsBothCredentials.
	if _, err := alice.SubmitCredentials(ctx, bobToAlice); err != nil {
		t.Fatalf("alice submit: %v", err)
	}
	got, err := alice.ReadFile(ctx, "/paper.txt")
	if err != nil {
		t.Fatalf("alice read: %v", err)
	}
	if !bytes.Equal(got, paper) {
		t.Errorf("alice read %q", got)
	}
	// Alice cannot write: her compliance value is RX, no W bit.
	if _, err := alice.NFS().Write(ctx, attr.Handle, 0, []byte("defaced")); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("alice write = %v, want EACCES", err)
	}
	// Alice cannot delete.
	if err := alice.NFS().Remove(ctx, alice.Root(), "paper.txt"); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("alice remove = %v, want EACCES", err)
	}
}

// TestAliceNeedsBothCredentials uses two servers to show the chain
// requirement strictly: a server that never saw the admin→bob credential
// denies Alice even with bob→alice submitted.
func TestAliceNeedsBothCredentials(t *testing.T) {
	ctx := context.Background()
	adminKey := keynote.DeterministicKey("chain-admin")
	bobKey := keynote.DeterministicKey("chain-bob")
	aliceKey := keynote.DeterministicKey("chain-alice")

	srv, addr := testServer(t, ServerConfig{ServerKey: adminKey})
	rootIno := srv.backing.Root().Ino

	// Credentials signed out of band (never stored server-side).
	adminToBob, err := keynote.Sign(adminKey, keynote.AssertionSpec{
		Licensees:  keynote.LicenseesOr(bobKey.Principal),
		Conditions: SubtreeConditions(rootIno, "RWX", true, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	bobToAlice, err := keynote.Sign(bobKey, keynote.AssertionSpec{
		Licensees:  keynote.LicenseesOr(aliceKey.Principal),
		Conditions: SubtreeConditions(rootIno, "R", true, ""),
	})
	if err != nil {
		t.Fatal(err)
	}

	alice := dialAs(t, addr, "chain-alice")
	// Only her own credential: no chain to POLICY.
	if _, err := alice.SubmitCredentials(ctx, bobToAlice); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.NFS().ReadDirAll(ctx, alice.Root()); nfs.StatOf(err) != nfs.ErrAcces {
		t.Fatalf("partial chain = %v, want EACCES", err)
	}
	// Submit the missing link: now the chain closes.
	if _, err := alice.SubmitCredentials(ctx, adminToBob); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.NFS().ReadDirAll(ctx, alice.Root()); err != nil {
		t.Errorf("full chain readdir: %v", err)
	}
}

func TestCreateIssuesCredential(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})
	bobKey := keynote.DeterministicKey("bob")
	srv.IssueCredential(bobKey.Principal, srv.backing.Root().Ino, "RWX", "bob full access")

	bob := dialAs(t, addr, "bob")
	attr, credText, err := bob.CreateWithCredential(ctx, bob.Root(), "mine.txt", 0o644)
	if err != nil {
		t.Fatalf("CreateWithCredential: %v", err)
	}
	if credText == "" {
		t.Fatal("no credential returned")
	}
	cred, err := keynote.ParseAssertion(credText)
	if err != nil {
		t.Fatalf("returned credential does not parse: %v", err)
	}
	if err := cred.Verify(); err != nil {
		t.Fatalf("returned credential does not verify: %v", err)
	}
	if cred.Authorizer != srv.Principal() {
		t.Errorf("credential authorizer = %s, want server", cred.Authorizer.Short())
	}
	lics := cred.Licensees()
	if len(lics) != 1 || lics[0] != bobKey.Principal {
		t.Errorf("licensees = %v, want bob", lics)
	}
	if !strings.Contains(cred.Source, `HANDLE == "`+itoa(attr.Handle.Ino)+`"`) {
		t.Errorf("credential does not name the handle: %s", cred.Source)
	}
	// The creator can use the new file immediately.
	if _, err := bob.NFS().Write(ctx, attr.Handle, 0, []byte("x")); err != nil {
		t.Errorf("creator write: %v", err)
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestSubtreeScopedDelegation(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})
	bobKey := keynote.DeterministicKey("bob")
	srv.IssueCredential(bobKey.Principal, srv.backing.Root().Ino, "RWX", "")

	bob := dialAs(t, addr, "bob")
	share, _, err := bob.MkdirPath(ctx, "/share")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bob.WriteFile(ctx, "/share/inside.txt", []byte("in")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bob.WriteFile(ctx, "/private.txt", []byte("out")); err != nil {
		t.Fatal(err)
	}

	carolKey := keynote.DeterministicKey("carol")
	// Bob grants Carol read on /share subtree plus search on the root so
	// she can walk the path (two credentials, as a real user would).
	credShare, err := bob.Delegate(ctx, carolKey.Principal, share.Handle.Ino, "R", "carol reads share")
	if err != nil {
		t.Fatal(err)
	}
	credWalk, err := bob.Delegate(ctx, carolKey.Principal, srv.backing.Root().Ino, "X", "carol walks root")
	if err != nil {
		t.Fatal(err)
	}
	// But wait: subtree X on root would give X everywhere; scope it to
	// the root handle only (no subtree) for a tight grant.
	credWalkTight, err := keynote.Sign(bob.Identity(), keynote.AssertionSpec{
		Licensees:  keynote.LicenseesOr(carolKey.Principal),
		Conditions: SubtreeConditions(srv.backing.Root().Ino, "X", false, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = credWalk

	carol := dialAs(t, addr, "carol")
	if _, err := carol.SubmitCredentials(ctx, credShare, credWalkTight); err != nil {
		t.Fatal(err)
	}
	// Carol reads inside the share. Lookup of "share" needs X on root
	// (granted), lookup of "inside.txt" needs X on share: the R-subtree
	// credential gives R only… the share credential value is "R" which
	// has no X bit, so path lookup inside share fails. Grant RX instead:
	credShareRX, err := bob.Delegate(ctx, carolKey.Principal, share.Handle.Ino, "RX", "carol reads+searches share")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := carol.SubmitCredentials(ctx, credShareRX); err != nil {
		t.Fatal(err)
	}
	got, err := carol.ReadFile(ctx, "/share/inside.txt")
	if err != nil {
		t.Fatalf("carol read inside: %v", err)
	}
	if string(got) != "in" {
		t.Errorf("carol read %q", got)
	}
	// Outside the subtree: denied.
	if _, err := carol.ReadFile(ctx, "/private.txt"); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("carol read private = %v, want EACCES", err)
	}
	// Carol cannot write inside the share either.
	if _, _, err := carol.WriteFile(ctx, "/share/new.txt", []byte("no")); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("carol write in share = %v, want EACCES", err)
	}
}

func TestRevocationMidSession(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})
	bobKey := keynote.DeterministicKey("bob")
	srv.IssueCredential(bobKey.Principal, srv.backing.Root().Ino, "RWX", "")

	bob := dialAs(t, addr, "bob")
	if _, _, err := bob.WriteFile(ctx, "/doc.txt", []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// Admin attaches and revokes Bob's key.
	admin := dialAs(t, addr, "test-admin")
	if _, err := admin.RevokeKey(ctx, bobKey.Principal); err != nil {
		t.Fatalf("RevokeKey: %v", err)
	}

	// Bob's existing connection is cut by the fence and the transparent
	// redial is refused at the handshake. The call racing the cut may
	// die with the connection's transport error; the next one reports
	// the revocation off the poisoned link.
	_, err := bob.ReadFile(ctx, "/doc.txt")
	if err == nil {
		t.Fatal("revoked bob read succeeded")
	}
	if !errors.Is(err, ErrRevoked) {
		if _, err = bob.ReadFile(ctx, "/doc.txt"); !errors.Is(err, ErrRevoked) {
			t.Errorf("revoked bob read = %v, want ErrRevoked", err)
		}
	}
	// New connections from Bob are rejected at the handshake.
	if _, err := Dial(ctx, addr, bobKey); err == nil {
		t.Error("revoked bob reconnected")
	}
	// Non-admins cannot revoke.
	mallory := dialAs(t, addr, "mallory")
	if _, err := mallory.RevokeKey(ctx, keynote.DeterministicKey("victim").Principal); !errors.Is(err, ErrNotAdmin) {
		t.Errorf("mallory revoke = %v, want ErrNotAdmin", err)
	}
}

func TestRevokeSingleCredential(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})
	bobKey := keynote.DeterministicKey("bob")
	cred, err := srv.IssueCredential(bobKey.Principal, srv.backing.Root().Ino, "RWX", "")
	if err != nil {
		t.Fatal(err)
	}
	bob := dialAs(t, addr, "bob")
	if _, _, err := bob.WriteFile(ctx, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	admin := dialAs(t, addr, "test-admin")
	found, err := admin.RevokeCredential(ctx, cred.SignatureValue)
	if err != nil || !found {
		t.Fatalf("RevokeCredential = %v, %v", found, err)
	}
	// Bob keeps the per-file credential issued at create, but loses the
	// tree-wide grant: reading the root directory is now denied.
	if _, err := bob.NFS().ReadDirAll(ctx, bob.Root()); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("after cred revocation, readdir = %v, want EACCES", err)
	}
}

func TestWhoAmIAndListCreds(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})
	bobKey := keynote.DeterministicKey("bob")
	bob := dialAs(t, addr, "bob")
	p, err := bob.WhoAmI(ctx)
	if err != nil {
		t.Fatalf("WhoAmI: %v", err)
	}
	if p != bobKey.Principal {
		t.Errorf("WhoAmI = %s, want bob", p.Short())
	}
	// ListCredentials is admin-only.
	if _, err := bob.ListCredentials(ctx); !errors.Is(err, ErrNotAdmin) {
		t.Errorf("bob list = %v, want ErrNotAdmin", err)
	}
	srv.IssueCredential(bobKey.Principal, srv.backing.Root().Ino, "R", "")
	admin := dialAs(t, addr, "test-admin")
	creds, err := admin.ListCredentials(ctx)
	if err != nil {
		t.Fatalf("admin list: %v", err)
	}
	if len(creds) != 1 {
		t.Errorf("%d credentials listed, want 1", len(creds))
	}
}

func TestAdminHasImplicitFullAccess(t *testing.T) {
	ctx := context.Background()
	_, addr := testServer(t, ServerConfig{})
	admin := dialAs(t, addr, "test-admin")
	// The admin key is trusted by policy directly — no credentials needed.
	if _, _, err := admin.WriteFile(ctx, "/admin.txt", []byte("root of trust")); err != nil {
		t.Fatalf("admin write: %v", err)
	}
	got, err := admin.ReadFile(ctx, "/admin.txt")
	if err != nil || string(got) != "root of trust" {
		t.Errorf("admin read = %q, %v", got, err)
	}
}

func TestTimeOfDayCredential(t *testing.T) {
	ctx := context.Background()
	// Server clock injected: first noon, then evening.
	clock := time.Date(2001, 6, 15, 12, 0, 0, 0, time.UTC)
	srv, addr := testServer(t, ServerConfig{
		Now:       func() time.Time { return clock },
		CacheSize: -1, // disable caching so clock changes act immediately
	})
	bobKey := keynote.DeterministicKey("bob")
	srv.IssueCredential(bobKey.Principal, srv.backing.Root().Ino, "RWX", "")
	bob := dialAs(t, addr, "bob")
	leisure, _, err := bob.WriteFile(ctx, "/leisure.txt", []byte("fun"))
	if err != nil {
		t.Fatal(err)
	}

	// Bob grants Dave off-hours read access (paper §3.1: leisure files
	// unavailable during office hours).
	daveKey := keynote.DeterministicKey("dave")
	cred, err := bob.DelegateWithConditions(ctx, daveKey.Principal, leisure.Handle.Ino,
		"R", `@hour < 9 || @hour >= 17`, "off-hours only")
	if err != nil {
		t.Fatal(err)
	}
	dave := dialAs(t, addr, "dave")
	if _, err := dave.SubmitCredentials(ctx, cred); err != nil {
		t.Fatal(err)
	}
	// Noon: denied.
	if _, _, err := dave.NFS().Read(ctx, leisure.Handle, 0, 10); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("noon read = %v, want EACCES", err)
	}
	// Evening: allowed.
	clock = time.Date(2001, 6, 15, 19, 0, 0, 0, time.UTC)
	data, _, err := dave.NFS().Read(ctx, leisure.Handle, 0, 10)
	if err != nil || string(data) != "fun" {
		t.Errorf("evening read = %q, %v", data, err)
	}
}

func TestPolicyCacheCountsHits(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{CacheSize: 128})
	bobKey := keynote.DeterministicKey("bob")
	srv.IssueCredential(bobKey.Principal, srv.backing.Root().Ino, "RWX", "")
	bob := dialAs(t, addr, "bob")
	attr, _, err := bob.WriteFile(ctx, "/hot.txt", bytes.Repeat([]byte("d"), 64))
	if err != nil {
		t.Fatal(err)
	}
	before, _ := bob.ServerStats(ctx)
	for i := 0; i < 50; i++ {
		if _, _, err := bob.NFS().Read(ctx, attr.Handle, 0, 64); err != nil {
			t.Fatal(err)
		}
	}
	after, err := bob.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	newQueries := after.Queries - before.Queries
	newHits := after.CacheHits - before.CacheHits
	if newHits < 45 {
		t.Errorf("cache hits = %d over 50 repeated reads, want ≥45", newHits)
	}
	if newQueries > 5 {
		t.Errorf("full queries = %d over 50 repeated reads, want ≤5", newQueries)
	}
}

func TestCredentialSubmissionInvalidatesCache(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})
	bobKey := keynote.DeterministicKey("bob")
	bob := dialAs(t, addr, "bob")
	// Denied, and the denial is cached.
	if _, err := bob.NFS().ReadDirAll(ctx, bob.Root()); nfs.StatOf(err) != nfs.ErrAcces {
		t.Fatal("expected initial denial")
	}
	// Grant arrives (session generation bumps, cache entries die).
	srv.IssueCredential(bobKey.Principal, srv.backing.Root().Ino, "RWX", "")
	if _, err := bob.NFS().ReadDirAll(ctx, bob.Root()); err != nil {
		t.Errorf("post-grant readdir still denied: %v", err)
	}
}

func TestAuditTrail(t *testing.T) {
	ctx := context.Background()
	log := audit.New(64, nil)
	srv, addr := testServer(t, ServerConfig{Audit: log})
	bobKey := keynote.DeterministicKey("bob")
	srv.IssueCredential(bobKey.Principal, srv.backing.Root().Ino, "RWX", "")
	bob := dialAs(t, addr, "bob")
	bob.WriteFile(ctx, "/audited.txt", []byte("x"))
	mallory := dialAs(t, addr, "mallory")
	mallory.ReadFile(ctx, "/audited.txt") // denied

	recent := log.Recent(64)
	if len(recent) == 0 {
		t.Fatal("no audit records")
	}
	var sawBobAllow, sawMalloryDeny bool
	for _, r := range recent {
		if r.Peer == string(bobKey.Principal) && r.Allowed {
			sawBobAllow = true
		}
		if r.Peer == string(keynote.DeterministicKey("mallory").Principal) && !r.Allowed {
			sawMalloryDeny = true
		}
	}
	if !sawBobAllow {
		t.Error("no allowed record for bob")
	}
	if !sawMalloryDeny {
		t.Error("no denied record for mallory")
	}
	total, denied := log.Totals()
	if total == 0 || denied == 0 {
		t.Errorf("totals = %d/%d", total, denied)
	}
}

func TestExtraPolicyText(t *testing.T) {
	ctx := context.Background()
	// A site policy granting a named key read access to everything, with
	// no credentials at all (the paper's "default policy" requirement).
	guestKey := keynote.DeterministicKey("guest")
	policy := "Authorizer: \"POLICY\"\n" +
		"Licensees: \"" + string(guestKey.Principal) + "\"\n" +
		"Conditions: app_domain == \"DisCFS\" -> \"RX\";\n"
	srv, addr := testServer(t, ServerConfig{PolicyText: policy})
	srv.IssueCredential(keynote.DeterministicKey("bob").Principal, srv.backing.Root().Ino, "RWX", "")
	bob := dialAs(t, addr, "bob")
	bob.WriteFile(ctx, "/public.txt", []byte("hello"))

	guest := dialAs(t, addr, "guest")
	got, err := guest.ReadFile(ctx, "/public.txt")
	if err != nil || string(got) != "hello" {
		t.Errorf("guest read = %q, %v", got, err)
	}
	if _, _, err := guest.WriteFile(ctx, "/evil.txt", []byte("w")); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("guest write = %v, want EACCES", err)
	}
}

func TestStatFSPassesThrough(t *testing.T) {
	ctx := context.Background()
	_, addr := testServer(t, ServerConfig{})
	c := dialAs(t, addr, "anyone")
	st, err := c.NFS().StatFS(ctx, c.Root())
	if err != nil {
		t.Fatalf("StatFS: %v", err)
	}
	if st.BSize == 0 || st.Blocks == 0 {
		t.Errorf("statfs = %+v", st)
	}
}

func TestDelegationChainThreeLevels(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})
	bobKey := keynote.DeterministicKey("bob")
	srv.IssueCredential(bobKey.Principal, srv.backing.Root().Ino, "RWX", "")
	bob := dialAs(t, addr, "bob")
	attr, _, err := bob.WriteFile(ctx, "/chain.txt", []byte("deep"))
	if err != nil {
		t.Fatal(err)
	}
	// bob → carol (RW) → dave (R): dave presents the whole chain.
	carolKey := keynote.DeterministicKey("carol")
	daveKey := keynote.DeterministicKey("dave")
	bobToCarol, err := bob.Delegate(ctx, carolKey.Principal, attr.Handle.Ino, "RW", "")
	if err != nil {
		t.Fatal(err)
	}
	carolToDave, err := keynote.Sign(keynote.DeterministicKey("carol"), keynote.AssertionSpec{
		Licensees:  keynote.LicenseesOr(daveKey.Principal),
		Conditions: SubtreeConditions(attr.Handle.Ino, "R", true, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	dave := dialAs(t, addr, "dave")
	if _, err := dave.SubmitCredentials(ctx, bobToCarol, carolToDave); err != nil {
		t.Fatal(err)
	}
	data, _, err := dave.NFS().Read(ctx, attr.Handle, 0, 16)
	if err != nil || string(data) != "deep" {
		t.Errorf("dave read = %q, %v", data, err)
	}
	// Dave's R does not include W even though carol had RW.
	if _, err := dave.NFS().Write(ctx, attr.Handle, 0, []byte("no")); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("dave write = %v, want EACCES", err)
	}
}

// TestAnonymousWWWAccess exercises the paper's §7 future-work scenario:
// untrusted Web-style users fetching public files without registration or
// even a key. The server additionally listens on plain TCP; such peers
// are the "anonymous" principal and receive what policy grants it.
func TestAnonymousWWWAccess(t *testing.T) {
	ctx := context.Background()
	policy := "Authorizer: \"POLICY\"\n" +
		"Licensees: \"anonymous\"\n" +
		"Conditions: app_domain == \"DisCFS\" -> \"RX\";\n"
	srv, addr := testServer(t, ServerConfig{PolicyText: policy})

	// Publish a file as the admin over the secure channel.
	admin := dialAs(t, addr, "test-admin")
	if _, _, err := admin.WriteFile(ctx, "/index.html", []byte("<h1>hello</h1>")); err != nil {
		t.Fatal(err)
	}

	// Anonymous side: plain TCP, no handshake, no identity.
	plainLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServePlain(plainLn)
	defer plainLn.Close()
	conn, err := net.Dial("tcp", plainLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc := nfs.NewClient(sunrpc.NewClient(conn))
	defer nc.RPC().Close()
	root, err := nc.Mount(ctx, "/discfs")
	if err != nil {
		t.Fatalf("anonymous mount: %v", err)
	}
	attr, err := nc.Lookup(ctx, root, "index.html")
	if err != nil {
		t.Fatalf("anonymous lookup: %v", err)
	}
	data, _, err := nc.Read(ctx, attr.Handle, 0, 100)
	if err != nil || string(data) != "<h1>hello</h1>" {
		t.Errorf("anonymous read = %q, %v", data, err)
	}
	// Anonymous users cannot write — RX only.
	if _, err := nc.Create(ctx, root, "evil", 0o644); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("anonymous create = %v, want EACCES", err)
	}
	if _, err := nc.Write(ctx, attr.Handle, 0, []byte("defaced")); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("anonymous write = %v, want EACCES", err)
	}
}

// TestAnonymousDeniedByDefault: without a policy grant the anonymous
// principal gets nothing.
func TestAnonymousDeniedByDefault(t *testing.T) {
	ctx := context.Background()
	srv, _ := testServer(t, ServerConfig{})
	plainLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServePlain(plainLn)
	defer plainLn.Close()
	conn, err := net.Dial("tcp", plainLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc := nfs.NewClient(sunrpc.NewClient(conn))
	defer nc.RPC().Close()
	root, err := nc.Mount(ctx, "/discfs")
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	if _, err := nc.ReadDirAll(ctx, root); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("anonymous readdir = %v, want EACCES", err)
	}
	a, err := nc.GetAttr(ctx, root)
	if err != nil {
		t.Fatalf("GetAttr: %v", err)
	}
	if a.Mode != 0 {
		t.Errorf("anonymous root mode = %o, want 000", a.Mode)
	}
}

// TestConcurrentClients hammers one server with several authenticated
// clients doing mixed operations — delegation, IO, credential
// submission, stats — concurrently.
func TestConcurrentClients(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})
	rootIno := srv.backing.Root().Ino

	const nClients = 6
	errc := make(chan error, nClients)
	for g := 0; g < nClients; g++ {
		go func(g int) {
			seed := fmt.Sprintf("conc-%d", g)
			key := keynote.DeterministicKey(seed)
			if _, err := srv.IssueCredential(key.Principal, rootIno, "RWX", seed); err != nil {
				errc <- err
				return
			}
			c, err := Dial(ctx, addr, key)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			dir := fmt.Sprintf("/home-%d", g)
			if _, _, err := c.MkdirPath(ctx, dir); err != nil {
				errc <- fmt.Errorf("mkdir: %w", err)
				return
			}
			for i := 0; i < 20; i++ {
				path := fmt.Sprintf("%s/f%d", dir, i)
				content := []byte(fmt.Sprintf("client %d file %d", g, i))
				if _, _, err := c.WriteFile(ctx, path, content); err != nil {
					errc <- fmt.Errorf("write %s: %w", path, err)
					return
				}
				got, err := c.ReadFile(ctx, path)
				if err != nil || string(got) != string(content) {
					errc <- fmt.Errorf("read %s = %q, %v", path, got, err)
					return
				}
				if i%5 == 0 {
					if _, err := c.ServerStats(ctx); err != nil {
						errc <- err
						return
					}
				}
			}
			// Delegate to a friend and have the friend read.
			friendKey := keynote.DeterministicKey(seed + "-friend")
			cred, err := c.Delegate(ctx, friendKey.Principal, rootIno, "RX", "")
			if err != nil {
				errc <- err
				return
			}
			friend, err := DialWithCredentials(ctx, addr, friendKey, cred)
			if err != nil {
				errc <- err
				return
			}
			defer friend.Close()
			if _, err := friend.ReadFile(ctx, dir+"/f0"); err != nil {
				errc <- fmt.Errorf("friend read: %w", err)
				return
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < nClients; g++ {
		if err := <-errc; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
}

// TestDistributedServers exercises the paper's §4.3 requirement: "the
// entire scheme works with both monolithic and distributed servers.
// Since the servers do not need to share information about users, there
// is no synchronization overhead." Two DisCFS servers share nothing but
// the administrator's public key in their policies; one user, one key,
// per-server credentials, no user database anywhere.
func TestDistributedServers(t *testing.T) {
	ctx := context.Background()
	adminKey := keynote.DeterministicKey("dist-admin")
	srvA, addrA := testServer(t, ServerConfig{ServerKey: adminKey})
	srvB, addrB := testServer(t, ServerConfig{ServerKey: adminKey})

	userKey := keynote.DeterministicKey("dist-user")
	// The admin issues one credential per repository, as each holds a
	// different part of the distributed filesystem.
	credA, err := keynote.Sign(adminKey, keynote.AssertionSpec{
		Licensees:  keynote.LicenseesOr(userKey.Principal),
		Conditions: SubtreeConditions(srvA.backing.Root().Ino, "RWX", true, ""),
		Comment:    "user on repository A",
	})
	if err != nil {
		t.Fatal(err)
	}
	credB, err := keynote.Sign(adminKey, keynote.AssertionSpec{
		Licensees:  keynote.LicenseesOr(userKey.Principal),
		Conditions: SubtreeConditions(srvB.backing.Root().Ino, "RX", true, ""),
		Comment:    "user on repository B, read-only",
	})
	if err != nil {
		t.Fatal(err)
	}

	cA, err := DialWithCredentials(ctx, addrA, userKey, credA)
	if err != nil {
		t.Fatal(err)
	}
	defer cA.Close()
	cB, err := DialWithCredentials(ctx, addrB, userKey, credB)
	if err != nil {
		t.Fatal(err)
	}
	defer cB.Close()

	// Full access on A.
	if _, _, err := cA.WriteFile(ctx, "/on-a.txt", []byte("written to A")); err != nil {
		t.Fatalf("write on A: %v", err)
	}
	// Read-only on B: listing works, writing does not.
	if _, err := cB.NFS().ReadDirAll(ctx, cB.Root()); err != nil {
		t.Fatalf("readdir on B: %v", err)
	}
	if _, _, err := cB.WriteFile(ctx, "/on-b.txt", []byte("no")); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("write on B = %v, want EACCES", err)
	}
	// Revocation is per-server state: revoking the user on B leaves A
	// untouched — no synchronization, as the paper promises.
	srvB.Session().RevokeKey(userKey.Principal)
	if _, err := cB.NFS().ReadDirAll(ctx, cB.Root()); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("B after revocation = %v, want EACCES", err)
	}
	if _, err := cA.ReadFile(ctx, "/on-a.txt"); err != nil {
		t.Errorf("A after B's revocation: %v", err)
	}
}

// TestEncryptedBackingStore runs the full DisCFS stack over a CFS layer
// with encryption ON — the paper notes "CFS-like encryption mechanisms
// may still be used on top of DisCFS" (§3.1); here they are used under
// it, the other composition the layering allows.
func TestEncryptedBackingStore(t *testing.T) {
	ctx := context.Background()
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 8192})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := cfs.New(backing, "server side secret", true)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := testServer(t, ServerConfig{Backing: enc})
	bobKey := keynote.DeterministicKey("bob")
	srv.IssueCredential(bobKey.Principal, enc.Root().Ino, "RWX", "")
	bob := dialAs(t, addr, "bob")
	secret := []byte("credentials above, ciphertext below")
	if _, _, err := bob.WriteFile(ctx, "/layered.txt", secret); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := bob.ReadFile(ctx, "/layered.txt")
	if err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("read = %q, %v", got, err)
	}
	// The raw FFS under the CFS layer holds only ciphertext.
	ents, err := backing.ReadDir(backing.Root())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name, "layered") {
			t.Errorf("raw store leaks name %q", e.Name)
		}
	}
}

// TestSymlinkAndLinkThroughPolicy drives the remaining NFS procedures
// through the credential layer: symlink targets need R to read, link
// needs W on both directory and target.
func TestSymlinkAndLinkThroughPolicy(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})
	bobKey := keynote.DeterministicKey("bob")
	srv.IssueCredential(bobKey.Principal, srv.backing.Root().Ino, "RWX", "")
	bob := dialAs(t, addr, "bob")
	root := bob.Root()

	if err := bob.NFS().Symlink(ctx, root, "ln", "/pointed/at", 0o777); err != nil {
		t.Fatalf("symlink: %v", err)
	}
	la, err := bob.NFS().Lookup(ctx, root, "ln")
	if err != nil {
		t.Fatal(err)
	}
	target, err := bob.NFS().Readlink(ctx, la.Handle)
	if err != nil || target != "/pointed/at" {
		t.Errorf("readlink = %q, %v", target, err)
	}

	f, _, err := bob.WriteFile(ctx, "/orig.txt", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := bob.NFS().Link(ctx, f.Handle, root, "alias.txt"); err != nil {
		t.Fatalf("link: %v", err)
	}

	// A read-only peer can readlink but not symlink/link.
	roKey := keynote.DeterministicKey("ro")
	cred, _ := bob.Delegate(ctx, roKey.Principal, srv.backing.Root().Ino, "RX", "")
	ro, err := DialWithCredentials(ctx, addr, roKey, cred)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, err := ro.NFS().Readlink(ctx, la.Handle); err != nil {
		t.Errorf("ro readlink: %v", err)
	}
	if err := ro.NFS().Symlink(ctx, root, "evil", "/x", 0o777); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("ro symlink = %v, want EACCES", err)
	}
	if err := ro.NFS().Link(ctx, f.Handle, root, "evil2"); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("ro link = %v, want EACCES", err)
	}
	// Rename denied for read-only peers too.
	if err := ro.NFS().Rename(ctx, root, "orig.txt", root, "stolen.txt"); nfs.StatOf(err) != nfs.ErrAcces {
		t.Errorf("ro rename = %v, want EACCES", err)
	}
}

// TestPolicySubmittedAsCredentialIsRefused: an assertion authorized by
// POLICY needs no signature, so a client that submits one naming itself
// is refused, and gains nothing by it.
func TestPolicySubmittedAsCredentialIsRefused(t *testing.T) {
	ctx := context.Background()
	_, addr := testServer(t, ServerConfig{})
	admin := dialAs(t, addr, "test-admin")
	if _, _, err := admin.WriteFile(ctx, "/secret.txt", []byte("secret")); err != nil {
		t.Fatal(err)
	}
	mallory := dialAs(t, addr, "mallory")
	self := keynote.DeterministicKey("mallory").Principal
	text := "KeyNote-Version: 2\nAuthorizer: \"POLICY\"\nLicensees: \"" + string(self) + "\"\n"
	if _, err := mallory.SubmitCredentialText(ctx, text); err == nil {
		t.Error("a policy assertion was accepted as a credential")
	}
	if got, err := mallory.ReadFile(ctx, "/secret.txt"); err == nil {
		t.Errorf("mallory read %q after submitting a policy", got)
	}
}

// TestExtensionProcedureEdgeCases: malformed and unusual extension
// calls fail cleanly.
func TestExtensionProcedureEdgeCases(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})
	bobKey := keynote.DeterministicKey("bob")
	srv.IssueCredential(bobKey.Principal, srv.backing.Root().Ino, "RWX", "")
	bob := dialAs(t, addr, "bob")

	// Submitting junk text is an error, not a crash.
	if _, err := bob.SubmitCredentialText(ctx, "this is not keynote"); err == nil {
		t.Error("junk credential accepted")
	}
	// Submitting an unsigned assertion is rejected.
	unsigned := "Authorizer: " + string(bobKey.Principal) + "\nLicensees: \"x\"\n"
	if _, err := bob.SubmitCredentialText(ctx, unsigned); err == nil {
		t.Error("unsigned credential accepted")
	}
	// CreateWithCredential into a stale directory handle.
	stale := srv.backing.Root()
	stale.Gen += 99
	if _, _, err := bob.CreateWithCredential(ctx, stale, "f", 0o644); nfs.StatOf(err) != nfs.ErrStale {
		t.Errorf("create in stale dir = %v, want STALE", err)
	}
	// Duplicate create through the extension path.
	if _, _, err := bob.CreateWithCredential(ctx, bob.Root(), "dup", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bob.CreateWithCredential(ctx, bob.Root(), "dup", 0o644); nfs.StatOf(err) != nfs.ErrExist {
		t.Errorf("duplicate createcred = %v, want EXIST", err)
	}
	// RevokeCredential of an unknown signature reports not-found.
	admin := dialAs(t, addr, "test-admin")
	found, err := admin.RevokeCredential(ctx, "sig-ed25519-hex:00ff")
	if err != nil || found {
		t.Errorf("revoke unknown = %v, %v", found, err)
	}
}

// TestClientWalk traverses a small tree and respects per-subtree
// permissions: entries the peer cannot search are skipped, not fatal.
func TestClientWalk(t *testing.T) {
	ctx := context.Background()
	srv, addr := testServer(t, ServerConfig{})
	bobKey := keynote.DeterministicKey("bob")
	srv.IssueCredential(bobKey.Principal, srv.backing.Root().Ino, "RWX", "")
	bob := dialAs(t, addr, "bob")
	bob.MkdirPath(ctx, "/docs")
	bob.WriteFile(ctx, "/docs/a.txt", []byte("a"))
	bob.WriteFile(ctx, "/docs/b.txt", []byte("b"))
	bob.MkdirPath(ctx, "/private")
	bob.WriteFile(ctx, "/private/secret.txt", []byte("s"))

	var seen []string
	err := bob.Walk(ctx, func(path string, attr vfs.Attr) error {
		seen = append(seen, path)
		return nil
	})
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	want := map[string]bool{
		"/docs": true, "/docs/a.txt": true, "/docs/b.txt": true,
		"/private": true, "/private/secret.txt": true,
	}
	if len(seen) != len(want) {
		t.Fatalf("walk saw %v", seen)
	}
	for _, p := range seen {
		if !want[p] {
			t.Errorf("unexpected path %q", p)
		}
	}

	// A peer with access to /docs only (plus root search) walks what it
	// can see and silently skips the rest.
	docs, err := bob.ResolvePath(ctx, "/docs")
	if err != nil {
		t.Fatal(err)
	}
	carolKey := keynote.DeterministicKey("carol")
	credDocs, _ := bob.Delegate(ctx, carolKey.Principal, docs.Handle.Ino, "RX", "")
	credRoot, err := keynote.Sign(bob.Identity(), keynote.AssertionSpec{
		Licensees:  keynote.LicenseesOr(carolKey.Principal),
		Conditions: SubtreeConditions(srv.backing.Root().Ino, "RX", false, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	carol, err := DialWithCredentials(ctx, addr, carolKey, credDocs, credRoot)
	if err != nil {
		t.Fatal(err)
	}
	defer carol.Close()
	seen = nil
	if err := carol.Walk(ctx, func(path string, attr vfs.Attr) error {
		seen = append(seen, path)
		return nil
	}); err != nil {
		t.Fatalf("carol Walk: %v", err)
	}
	for _, p := range seen {
		if p == "/private/secret.txt" {
			t.Error("carol's walk reached the private subtree")
		}
	}
	var sawDocsFile bool
	for _, p := range seen {
		if p == "/docs/a.txt" {
			sawDocsFile = true
		}
	}
	if !sawDocsFile {
		t.Errorf("carol's walk missed /docs/a.txt: %v", seen)
	}
}

// TestDedupDuplicateHeavyStream: three clients stream 10 MiB each
// through the server into the content-addressed store, and
// nine of every ten 1 MiB segments come from a pool all of them share.
// The store keeps less than half the logical bytes.
func TestDedupDuplicateHeavyStream(t *testing.T) {
	const writers, segs, segment = 3, 10, 1 << 20
	// Room for every logical byte, so a store that stopped sharing
	// chunks fails the assertion below rather than running out of space.
	backing, err := ffs.New(ffs.Config{BlockSize: 8192, NumBlocks: 8192})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := testServer(t, ServerConfig{Backing: backing, Dedup: true})
	ctx := context.Background()
	shared := make([][]byte, 2)
	for i := range shared {
		shared[i] = make([]byte, segment)
		fillSeeded(shared[i], uint64(0xD0D0+i))
	}
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := range errs {
		c := dialAs(t, addr, "test-admin")
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := c.Open(ctx, fmt.Sprintf("/dedup-w%d.dat", i), os.O_CREATE|os.O_WRONLY)
			if err != nil {
				errs[i] = err
				return
			}
			unique := make([]byte, segment)
			for s := 0; s < segs && err == nil; s++ {
				seg := shared[s%len(shared)]
				if s == 0 {
					fillSeeded(unique, uint64(i))
					seg = unique
				}
				_, err = f.Write(seg)
			}
			errs[i] = errors.Join(err, f.Sync(), f.Close())
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	t.Logf("stored %d of %d logical bytes in %d chunks, %d hits",
		st.DedupBytesStored, st.DedupBytesLogical, st.DedupChunks, st.DedupHits)
	if st.DedupBytesLogical != writers*segs*segment {
		t.Fatalf("store addresses %d logical bytes, want %d", st.DedupBytesLogical, writers*segs*segment)
	}
	if st.DedupBytesStored >= st.DedupBytesLogical/2 {
		t.Fatalf("stored %d bytes for %d logical: the duplicate stream did not deduplicate",
			st.DedupBytesStored, st.DedupBytesLogical)
	}
}
