package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"maps"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"discfs/internal/ffs"
	"discfs/internal/keynote"
	"discfs/internal/sunrpc"
	"discfs/internal/xdr"
)

// revProxy is a TCP relay with a stable listen address across
// partition/heal cycles, so a "server" can be cut from the network and
// rejoin at the same place — the failure the revocation feed's
// anti-entropy exists for.
type revProxy struct {
	t      *testing.T
	target string
	addr   string

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]bool
	down  bool
}

func newRevProxy(t *testing.T, target string) *revProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("revProxy listen: %v", err)
	}
	p := &revProxy{t: t, target: target, addr: ln.Addr().String(), ln: ln, conns: make(map[net.Conn]bool)}
	go p.accept(ln)
	t.Cleanup(p.partition)
	return p
}

func (p *revProxy) accept(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.down {
			p.mu.Unlock()
			c.Close()
			continue
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			p.mu.Unlock()
			c.Close()
			continue
		}
		p.conns[c] = true
		p.conns[up] = true
		p.mu.Unlock()
		pipe := func(dst, src net.Conn) {
			io.Copy(dst, src)
			dst.Close()
			src.Close()
		}
		go pipe(up, c)
		go pipe(c, up)
	}
}

// partition closes the listener and every relayed connection. Idempotent.
func (p *revProxy) partition() {
	p.mu.Lock()
	p.down = true
	ln := p.ln
	p.ln = nil
	conns := p.conns
	p.conns = make(map[net.Conn]bool)
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for c := range conns {
		c.Close()
	}
}

// heal re-listens on the original address. The listener is bound before
// heal returns, so a dial issued afterwards is never refused.
func (p *revProxy) heal() {
	p.t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.down {
		return
	}
	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		p.t.Fatalf("revProxy heal %s: %v", p.addr, err)
	}
	p.down = false
	p.ln = ln
	go p.accept(ln)
}

// revCluster is a full revocation-feed mesh of n servers in which every
// network path — client traffic and each directed peer link — runs
// through its own proxy, so partition(i) isolates server i completely:
// clients cannot reach it, it cannot push to or pull from anyone, and
// no one can push to it.
type revCluster struct {
	srvs   []*Server
	fronts []*revProxy   // client traffic to server i
	links  [][]*revProxy // links[i][j]: server i's feed connection to server j
}

func newRevCluster(t *testing.T, n int) *revCluster {
	t.Helper()
	return newRevClusterPeers(t, n, func(i, j int) bool { return true })
}

// newRevClusterPeers is newRevCluster with server i's feed peers limited
// to the servers j that peered(i, j) names. Every link proxy exists
// either way, so partition and heal work the same.
func newRevClusterPeers(t *testing.T, n int, peered func(i, j int) bool) *revCluster {
	t.Helper()
	admin := keynote.DeterministicKey("fed-admin")
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	cl := &revCluster{links: make([][]*revProxy, n)}
	for i := 0; i < n; i++ {
		cl.fronts = append(cl.fronts, newRevProxy(t, addrs[i]))
		cl.links[i] = make([]*revProxy, n)
		for j := 0; j < n; j++ {
			if j != i {
				cl.links[i][j] = newRevProxy(t, addrs[j])
			}
		}
	}
	for i := 0; i < n; i++ {
		backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 16384})
		if err != nil {
			t.Fatalf("ffs.New: %v", err)
		}
		if _, err := backing.Mkdir(backing.Root(), "data", 0o755); err != nil {
			t.Fatalf("mkdir /data on shard %d: %v", i, err)
		}
		var peers []string
		for j := 0; j < n; j++ {
			if j != i && peered(i, j) {
				peers = append(peers, cl.links[i][j].addr)
			}
		}
		srv, err := NewServer(ServerConfig{
			ServerKey: admin,
			Backing:   backing,
			Peers:     peers,
		})
		if err != nil {
			t.Fatalf("NewServer %d: %v", i, err)
		}
		go srv.Serve(lns[i])
		t.Cleanup(func() { srv.Close() })
		cl.srvs = append(cl.srvs, srv)
	}
	return cl
}

func (cl *revCluster) frontAddrs() []string {
	out := make([]string, len(cl.fronts))
	for i, p := range cl.fronts {
		out[i] = p.addr
	}
	return out
}

func (cl *revCluster) partition(i int) {
	cl.fronts[i].partition()
	for j := range cl.srvs {
		if j == i {
			continue
		}
		cl.links[i][j].partition()
		cl.links[j][i].partition()
	}
}

func (cl *revCluster) heal(i int) {
	cl.fronts[i].heal()
	for j := range cl.srvs {
		if j == i {
			continue
		}
		cl.links[i][j].heal()
		cl.links[j][i].heal()
	}
}

// untilRevoked retries op until it reports ErrRevoked, failing the test
// if it has not within 10 seconds. Returns the terminal error.
func untilRevoked(t *testing.T, what string, op func() error) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := op()
		if errors.Is(err, ErrRevoked) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: still not fenced, last error: %v", what, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFedRevFeedPartitionConvergence is the tentpole scenario: three
// federated servers with a full feed mesh, one partitioned away during
// the admin's RevokeKey. The fan-out must name the unreachable shard in
// a typed partial-fence error, the reachable shards must fence the
// victim immediately, and — the part the feed exists for — the
// partitioned server must converge through anti-entropy after the
// partition heals and refuse the victim before serving a single
// operation.
func TestFedRevFeedPartitionConvergence(t *testing.T) {
	ctx := context.Background()
	cl := newRevCluster(t, 3)
	addrs := cl.frontAddrs()
	victim := keynote.DeterministicKey("victim")
	grantAll(t, cl.srvs, victim.Principal)

	// The victim works everywhere while the network is whole: a fan-out
	// client on the primary, and a direct session on each of the other
	// two servers (one will stay reachable, one will be partitioned).
	vc := dialAs(t, addrs[0], "victim")
	if _, _, err := vc.WriteFile(ctx, "/doc.txt", []byte("v1")); err != nil {
		t.Fatalf("victim write: %v", err)
	}
	vc1 := dialAs(t, addrs[1], "victim")
	if _, _, err := vc1.WriteFile(ctx, "/s1.txt", []byte("v1")); err != nil {
		t.Fatalf("victim write shard 1: %v", err)
	}
	admin := fedDial(t, addrs, "fed-admin")

	cl.partition(2)

	_, err := admin.RevokeKey(ctx, victim.Principal)
	if !errors.Is(err, ErrPartialFence) {
		t.Fatalf("RevokeKey with a partitioned shard = %v, want ErrPartialFence", err)
	}
	var pf *PartialFenceError
	if !errors.As(err, &pf) {
		t.Fatalf("RevokeKey error %T does not carry *PartialFenceError", err)
	}
	if len(pf.Unfenced) != 1 || pf.Unfenced[0] != addrs[2] {
		t.Fatalf("Unfenced = %v, want exactly the partitioned shard %s", pf.Unfenced, addrs[2])
	}
	if len(pf.Fenced) != 2 {
		t.Fatalf("Fenced = %v, want the two reachable shards", pf.Fenced)
	}

	// Reachable shards refuse immediately: live sessions are cut and the
	// transparent redial is refused at the handshake.
	untilRevoked(t, "victim on shard 0", func() error {
		_, err := vc.ReadFile(ctx, "/doc.txt")
		return err
	})
	untilRevoked(t, "victim on shard 1", func() error {
		_, err := vc1.ReadFile(ctx, "/s1.txt")
		return err
	})

	// The partitioned server still considers the victim valid — it never
	// heard the revocation.
	if cl.srvs[2].session.Revoked(victim.Principal) {
		t.Fatal("partitioned server learned the revocation through the partition")
	}

	cl.heal(2)

	// After the heal the rejoined server must refuse the victim BEFORE
	// serving any operation: the handshake gate syncs the feed first, so
	// a successful attach here is a fence failure, not a race.
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := Dial(ctx, addrs[2], victim)
		if err == nil {
			c.Close()
			t.Fatal("revoked victim attached to the rejoined shard")
		}
		if errors.Is(err, ErrRevoked) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejoined shard never refused the victim: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !cl.srvs[2].session.Revoked(victim.Principal) {
		t.Fatal("rejoined server refused the victim without recording the revocation")
	}

	// With the mesh whole again the feed drains: no server owes any peer
	// entries.
	deadline = time.Now().Add(10 * time.Second)
	for {
		lag := uint64(0)
		for _, srv := range cl.srvs {
			l, _, _ := srv.RevocationFeed()
			lag += l
		}
		if lag == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("feed lag never drained: %d", lag)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFedRevFeedCutsLaggingLiveSession: a victim holds a live session
// on one server while the admin revokes its key on the *other* — the
// feed must carry the entry across and cut the live session, without
// any client-side fan-out touching the victim's server.
func TestFedRevFeedCutsLaggingLiveSession(t *testing.T) {
	ctx := context.Background()
	cl := newRevCluster(t, 2)
	addrs := cl.frontAddrs()
	victim := keynote.DeterministicKey("victim")
	grantAll(t, cl.srvs, victim.Principal)

	vc := dialAs(t, addrs[1], "victim")
	if _, _, err := vc.WriteFile(ctx, "/doc.txt", []byte("v1")); err != nil {
		t.Fatalf("victim write: %v", err)
	}

	// Single-server admin client: only server 0 hears the revocation
	// directly.
	admin := dialAs(t, addrs[0], "fed-admin")
	if _, err := admin.RevokeKey(ctx, victim.Principal); err != nil {
		t.Fatalf("RevokeKey: %v", err)
	}

	untilRevoked(t, "victim live session on the lagging server", func() error {
		_, err := vc.ReadFile(ctx, "/doc.txt")
		return err
	})
	if !cl.srvs[1].session.Revoked(victim.Principal) {
		t.Fatal("feed cut the session without recording the revocation")
	}
	if _, propagated, _ := cl.srvs[0].RevocationFeed(); propagated == 0 {
		t.Error("origin server reports no propagated entries")
	}
	if _, _, applied := cl.srvs[1].RevocationFeed(); applied == 0 {
		t.Error("receiving server reports no applied entries")
	}
}

// TestFedRevokePartialFenceNamesShard: without any feed peers, the
// client fan-out alone must visit every shard, aggregate what it could
// fence, and name what it could not — never abort on the first error.
func TestFedRevokePartialFenceNamesShard(t *testing.T) {
	ctx := context.Background()
	srvs, addrs := fedCluster(t, 3)
	victim := keynote.DeterministicKey("victim")
	grantAll(t, srvs, victim.Principal)
	admin := fedDial(t, addrs, "fed-admin")

	srvs[2].Close()

	_, err := admin.RevokeKey(ctx, victim.Principal)
	if !errors.Is(err, ErrPartialFence) {
		t.Fatalf("RevokeKey = %v, want ErrPartialFence", err)
	}
	var pf *PartialFenceError
	if !errors.As(err, &pf) {
		t.Fatalf("error %T does not carry *PartialFenceError", err)
	}
	if len(pf.Unfenced) != 1 || pf.Unfenced[0] != addrs[2] {
		t.Errorf("Unfenced = %v, want [%s]", pf.Unfenced, addrs[2])
	}
	if len(pf.Fenced) != 2 {
		t.Errorf("Fenced = %v, want both live shards", pf.Fenced)
	}
	if len(pf.Errs) != 1 {
		t.Errorf("Errs = %v, want one per unfenced shard", pf.Errs)
	}
	// Both live shards must have applied the revocation despite the dead
	// one: the fan-out never aborts early.
	for i := 0; i < 2; i++ {
		if !srvs[i].session.Revoked(victim.Principal) {
			t.Errorf("live shard %d did not apply the revocation", i)
		}
	}

	// Non-admins still get a plain ErrNotAdmin, not a partial fence.
	mallory := fedDial(t, addrs[:2], "mallory")
	if _, err := mallory.RevokeKey(ctx, victim.Principal); !errors.Is(err, ErrNotAdmin) {
		t.Errorf("mallory RevokeKey = %v, want ErrNotAdmin", err)
	}
	if _, err := mallory.RevokeCredential(ctx, "sig-ed25519-hex:nope"); !errors.Is(err, ErrNotAdmin) {
		t.Errorf("mallory RevokeCredential = %v, want ErrNotAdmin", err)
	}
}

// TestFedListCredentialsMergesShards: the admin's federation-wide audit
// view merges every shard's session, deduplicated by credential
// signature, while the per-shard listing preserves each server's local
// view.
func TestFedListCredentialsMergesShards(t *testing.T) {
	ctx := context.Background()
	srvs, addrs := fedCluster(t, 3)
	bob := keynote.DeterministicKey("bob").Principal

	// One distinct credential per shard session...
	grantAll(t, srvs, bob)
	// ...plus one credential present on every shard (the deduplication
	// case: submitted everywhere, listed once).
	shared, err := srvs[0].IssueCredential(keynote.DeterministicKey("carol").Principal,
		srvs[0].backing.Root().Ino, "R", "shared across shards")
	if err != nil {
		t.Fatalf("IssueCredential: %v", err)
	}
	for _, srv := range srvs[1:] {
		if _, err := srv.Session().AddCredentialText(shared.Source); err != nil {
			t.Fatalf("AddCredentialText: %v", err)
		}
	}

	admin := fedDial(t, addrs, "fed-admin")
	merged, err := admin.ListCredentials(ctx)
	if err != nil {
		t.Fatalf("ListCredentials: %v", err)
	}
	if len(merged) != 4 {
		t.Errorf("merged listing = %d credentials, want 4 (3 per-shard + 1 shared deduped)", len(merged))
	}
	for i := range srvs {
		per, err := admin.ListCredentialsOn(ctx, i)
		if err != nil {
			t.Fatalf("ListCredentialsOn(%d): %v", i, err)
		}
		if len(per) != 2 {
			t.Errorf("shard %d listing = %d credentials, want 2", i, len(per))
		}
	}
	if _, err := admin.ListCredentialsOn(ctx, 7); err == nil {
		t.Error("ListCredentialsOn(out of range) succeeded")
	}
}

// TestFedRevFeedRingForwards: three servers, each with only the next as
// its feed peer, so an entry reaches the server behind its origin only
// by being forwarded. Revocations land at all three servers at once;
// after the feed settles every session holds each entry exactly once and
// no feed owes anything. Forwarding stops where applying an entry is no
// longer new: an admin re-revoking a known key appends nothing anywhere.
func TestFedRevFeedRingForwards(t *testing.T) {
	ctx := context.Background()
	const n = 3
	cl := newRevClusterPeers(t, n, func(i, j int) bool { return j == (i+1)%n })
	addrs := cl.frontAddrs()
	cred, err := cl.srvs[2].IssueCredential(keynote.DeterministicKey("carol").Principal, cl.srvs[2].backing.Root().Ino, "R", "revoked at server 2")
	if err != nil {
		t.Fatalf("IssueCredential: %v", err)
	}
	admins := make([]*Client, n)
	for i := range admins {
		admins[i] = dialAs(t, addrs[i], "fed-admin")
	}
	k0 := keynote.CanonicalPrincipal(keynote.DeterministicKey("victim-0").Principal)
	k1 := keynote.CanonicalPrincipal(keynote.DeterministicKey("victim-1").Principal)
	revokes := []func() error{
		func() error { _, err := admins[0].RevokeKey(ctx, k0); return err },
		func() error { _, err := admins[1].RevokeKey(ctx, k1); return err },
		func() error { _, err := admins[2].RevokeCredential(ctx, cred.SignatureValue); return err },
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, revoke := range revokes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = revoke()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("revocation at server %d: %v", i, err)
		}
	}

	type entry struct {
		kind   keynote.RevocationKind
		target string
	}
	want := map[entry]int{
		{keynote.RevokedKey, string(k0)}:                 1,
		{keynote.RevokedKey, string(k1)}:                 1,
		{keynote.RevokedCredential, cred.SignatureValue}: 1,
	}
	held := func(srv *Server) map[entry]int {
		got := make(map[entry]int)
		for _, r := range srv.session.Revocations(0) {
			got[entry{r.Kind, r.Target}]++
		}
		return got
	}
	settled := func() bool {
		for _, srv := range cl.srvs {
			if lag, _, _ := srv.RevocationFeed(); lag != 0 || len(held(srv)) < len(want) {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(10 * time.Second)
	for !settled() {
		if time.Now().After(deadline) {
			for i, srv := range cl.srvs {
				lag, _, _ := srv.RevocationFeed()
				t.Logf("server %d: lag %d, log %v", i, lag, srv.session.Revocations(0))
			}
			t.Fatal("the ring never settled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, srv := range cl.srvs {
		if got := held(srv); !maps.Equal(got, want) {
			t.Errorf("server %d holds %v, want each of %v exactly once", i, got, want)
		}
	}

	seqs := func() []uint64 {
		out := make([]uint64, n)
		for i, srv := range cl.srvs {
			out[i] = srv.session.RevocationSeq()
		}
		return out
	}
	before := seqs()
	if _, err := admins[1].RevokeKey(ctx, k0); err != nil {
		t.Fatalf("re-revoking a known key: %v", err)
	}
	// An entry that did appear would reach the other servers by the
	// pushers' next idle tick at the latest.
	time.Sleep(2 * feedTick)
	if after := seqs(); !slices.Equal(after, before) {
		t.Errorf("re-revoking a known key moved the logs from %v to %v", before, after)
	}
	for i, srv := range cl.srvs {
		if lag, _, _ := srv.RevocationFeed(); lag != 0 {
			t.Errorf("server %d: feed lag %d after the re-revocation", i, lag)
		}
	}
}

// callExt runs one extension procedure as peer ("" is ServePlain's
// anonymous peer) and returns its accept status and result bytes.
func callExt(t testing.TB, srv *Server, peer keynote.Principal, proc uint32, args []byte) (sunrpc.AcceptStat, []byte) {
	res := xdr.NewEncoder()
	stat, err := srv.dispatchExt(&sunrpc.Context{Peer: string(peer)}, proc, xdr.NewDecoder(args), res)
	if err != nil {
		t.Fatalf("dispatchExt(%d): %v", proc, err)
	}
	return stat, res.Bytes()
}

// TestRevPushDecodesNothingUnbacked: an ExtRevPush whose entry list
// claims 65,536 entries and carries none allocates nothing of that
// size. A peer that is not an admin, ServePlain's anonymous peer
// included, is refused before the list is decoded; an admin's list
// grows only as entries decode. The argument repeats the claim at
// offset 8, so a decoder that reads a 64-bit field before the list
// meets it too.
func TestRevPushDecodesNothingUnbacked(t *testing.T) {
	srv, _ := testServer(t, ServerConfig{})
	admin := srv.key.Principal
	e := xdr.NewEncoder()
	e.Uint32(1 << 16)
	e.Uint32(0)
	e.Uint32(1 << 16)
	args := e.Bytes()
	for _, tc := range []struct {
		name   string
		peer   keynote.Principal
		stat   sunrpc.AcceptStat
		status uint32 // with stat Success
	}{
		{"anonymous", "", sunrpc.Success, extNotAdmin},
		{"non-admin", keynote.DeterministicKey("mallory").Principal, sunrpc.Success, extNotAdmin},
		{"admin", admin, sunrpc.GarbageArgs, 0},
	} {
		const calls = 100
		var stat sunrpc.AcceptStat
		var res []byte
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < calls; i++ {
			stat, res = callExt(t, srv, tc.peer, ExtRevPush, args)
		}
		runtime.ReadMemStats(&m1)
		if per := (m1.TotalAlloc - m0.TotalAlloc) / calls; per >= 64<<10 {
			t.Errorf("%s: %d bytes allocated per call, want under 64 KiB", tc.name, per)
		}
		if stat != tc.stat {
			t.Errorf("%s: accept status %d, want %d", tc.name, stat, tc.stat)
		} else if got := xdr.NewDecoder(res).Uint32(); stat == sunrpc.Success && got != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.status)
		}
	}
}

// FuzzFeedEntries drives ExtRevPush and ExtRevPull argument bytes
// through dispatchExt, as the admin and as the anonymous peer. No input
// may panic, the anonymous peer is always refused, and every entry list
// that decodes — an argument or a pull reply — re-encodes to the bytes
// it came from.
func FuzzFeedEntries(f *testing.F) {
	srv, _ := testServer(f, ServerConfig{})
	admin := srv.key.Principal
	seed := xdr.NewEncoder()
	encodeRevocations(seed, []keynote.Revocation{
		{Kind: keynote.RevokedKey, Target: string(keynote.DeterministicKey("victim").Principal)},
		{Kind: keynote.RevokedCredential, Target: "sig-ed25519-hex:00"},
		{Kind: keynote.RevokedKey, Target: "opaque"},
	})
	f.Add(seed.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, args []byte) {
		// The round trip, on the decoder the push procedure uses.
		d := xdr.NewDecoder(args)
		if revs, ok := decodeRevocations(d); ok && d.Err() == nil {
			e := xdr.NewEncoder()
			encodeRevocations(e, revs)
			if read := args[:len(args)-d.Remaining()]; !bytes.Equal(e.Bytes(), read) {
				t.Fatalf("list re-encodes to %x, decoded from %x", e.Bytes(), read)
			}
		}
		for _, proc := range []uint32{ExtRevPush, ExtRevPull} {
			if stat, res := callExt(t, srv, "", proc, args); stat != sunrpc.Success || xdr.NewDecoder(res).Uint32() != extNotAdmin {
				t.Fatalf("anonymous proc %d: accept status %d, result %x", proc, stat, res)
			}
			stat, res := callExt(t, srv, admin, proc, args)
			if proc != ExtRevPull || stat != sunrpc.Success {
				continue
			}
			rd := xdr.NewDecoder(res)
			if rd.Uint32() != extOK {
				t.Fatalf("admin pull refused: %x", res)
			}
			revs, ok := decodeRevocations(rd)
			if !ok || rd.Err() != nil || rd.Remaining() != 0 {
				t.Fatalf("admin pull reply does not decode: %x", res)
			}
			e := xdr.NewEncoder()
			encodeRevocations(e, revs)
			if !bytes.Equal(e.Bytes(), res[4:]) {
				t.Fatalf("pull reply list re-encodes to %x, sent as %x", e.Bytes(), res[4:])
			}
		}
	})
}
