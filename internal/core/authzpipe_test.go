package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"discfs/internal/ffs"
	"discfs/internal/keynote"
	"discfs/internal/vfs"
)

// Tests for the server's authorization pipeline itself — decision cache
// clamping, revocation vs. caching races, and the handle→path cache —
// exercised directly against the Server with no RPC in the way.

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Set(t time.Time) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

func pipeServer(t *testing.T, cfg ServerConfig) (*Server, vfs.Handle) {
	t.Helper()
	backing, err := ffs.New(ffs.Config{BlockSize: 4096, NumBlocks: 4096})
	if err != nil {
		t.Fatalf("ffs.New: %v", err)
	}
	cfg.Backing = backing
	if cfg.ServerKey == nil {
		cfg.ServerKey = keynote.DeterministicKey("pipe-admin")
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, backing.Root()
}

// TestTimeDependentCacheClamp: with an hour-gated policy, a decision
// cached at 12:59 must not be served at 13:00, though the decision TTL
// has not run out.
func TestTimeDependentCacheClamp(t *testing.T) {
	clk := &fakeClock{t: time.Date(2001, 6, 15, 12, 59, 30, 0, time.UTC)}
	bob := keynote.DeterministicKey("clamp-bob").Principal
	srv, root := pipeServer(t, ServerConfig{
		Now: clk.Now,
		PolicyText: "Authorizer: \"POLICY\"\nLicensees: \"" + string(bob) +
			"\"\nConditions: app_domain == \"DisCFS\" && hour == \"12\" -> \"RWX\";\n",
	})
	if err := srv.Check(bob, root, PermR, "read"); err != nil {
		t.Fatalf("in-hours check: %v", err)
	}
	if q := srv.Stats().Queries; q != 1 {
		t.Fatalf("queries = %d, want 1", q)
	}

	// Still 12:59: the cached decision serves.
	clk.Set(time.Date(2001, 6, 15, 12, 59, 45, 0, time.UTC))
	if err := srv.Check(bob, root, PermR, "read"); err != nil {
		t.Fatalf("in-hours cached check: %v", err)
	}
	st := srv.Stats()
	if st.Queries != 1 || st.CacheHits == 0 {
		t.Fatalf("queries/hits = %d/%d, want 1/≥1 (second check should hit)", st.Queries, st.CacheHits)
	}

	// 13:00:01 — within the decision TTL, but across the minute (and
	// hour) boundary: the clamp forces re-evaluation, which denies.
	clk.Set(time.Date(2001, 6, 15, 13, 0, 1, 0, time.UTC))
	if err := srv.Check(bob, root, PermR, "read"); err != vfs.ErrPerm {
		t.Fatalf("out-of-hours check = %v, want ErrPerm (stale grant served across the boundary)", err)
	}
	if q := srv.Stats().Queries; q != 2 {
		t.Errorf("queries = %d, want 2 (boundary crossing must re-evaluate)", q)
	}
}

// TestNonVolatileSessionKeepsTTL: without time-dependent assertions the
// clamp must not fire — decisions stay cached across minute boundaries
// for the full decision TTL.
func TestNonVolatileSessionKeepsTTL(t *testing.T) {
	clk := &fakeClock{t: time.Date(2001, 6, 15, 12, 59, 30, 0, time.UTC)}
	bob := keynote.DeterministicKey("ttl-bob").Principal
	srv, root := pipeServer(t, ServerConfig{
		Now: clk.Now,
		PolicyText: "Authorizer: \"POLICY\"\nLicensees: \"" + string(bob) +
			"\"\nConditions: app_domain == \"DisCFS\" -> \"RWX\";\n",
	})
	if err := srv.Check(bob, root, PermR, "read"); err != nil {
		t.Fatalf("check: %v", err)
	}
	clk.Set(time.Date(2001, 6, 15, 13, 0, 25, 0, time.UTC)) // past the minute, within decisionTTL
	if err := srv.Check(bob, root, PermR, "read"); err != nil {
		t.Fatalf("later check: %v", err)
	}
	if q := srv.Stats().Queries; q != 1 {
		t.Errorf("queries = %d, want 1 (non-volatile session must keep the cached decision)", q)
	}
}

// TestRevocationNeverServedFromCache hammers the check path while keys
// are revoked mid-flight: the moment RevokeKey returns, no check for
// that principal may succeed — a stale cache entry stamped with a
// pre-revocation validity must never satisfy a post-revocation lookup.
// Run with -race.
func TestRevocationNeverServedFromCache(t *testing.T) {
	srv, root := pipeServer(t, ServerConfig{})
	for round := 0; round < 20; round++ {
		peer := keynote.DeterministicKey(fmt.Sprintf("revoke-race-%d", round)).Principal
		if _, err := srv.IssueCredential(peer, root.Ino, "RWX", "race round"); err != nil {
			t.Fatalf("issue: %v", err)
		}
		if err := srv.Check(peer, root, PermR, "read"); err != nil {
			t.Fatalf("pre-revocation check: %v", err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var postRevokeAllows atomic.Uint64
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						srv.Check(peer, root, PermR, "read")
					}
				}
			}()
		}
		srv.Session().RevokeKey(peer)
		// From here on, every check must deny.
		for i := 0; i < 50; i++ {
			if err := srv.Check(peer, root, PermR, "read"); err == nil {
				postRevokeAllows.Add(1)
			}
		}
		close(stop)
		wg.Wait()
		if n := postRevokeAllows.Load(); n != 0 {
			t.Fatalf("round %d: %d checks allowed after RevokeKey returned", round, n)
		}
	}
}

// TestPathCacheInvalidation: pathOf caches rendered ancestry and a
// remap (rename) or drop (remove) invalidates it.
func TestPathCacheInvalidation(t *testing.T) {
	srv, root := pipeServer(t, ServerConfig{})
	dirA := vfs.Handle{Ino: 100}
	dirB := vfs.Handle{Ino: 200}
	file := vfs.Handle{Ino: 300}
	srv.noteParent(dirA, root)
	srv.noteParent(dirB, root)
	srv.noteParent(file, dirA)

	p1 := srv.pathOf(file)
	if !strings.Contains(p1, "/100/300/") {
		t.Fatalf("path = %q, want …/100/300/", p1)
	}
	misses0 := srv.Stats().PathCacheMisses
	if p2 := srv.pathOf(file); p2 != p1 {
		t.Fatalf("repeat path = %q, want %q", p2, p1)
	}
	st := srv.Stats()
	if st.PathCacheHits == 0 || st.PathCacheMisses != misses0 {
		t.Fatalf("hits/misses = %d/%d: repeat resolution did not hit the cache", st.PathCacheHits, st.PathCacheMisses)
	}

	// Rename: the file moves from a to b. The cached path must not be
	// served afterward.
	srv.noteParent(file, dirB)
	if p3 := srv.pathOf(file); !strings.Contains(p3, "/200/300/") || strings.Contains(p3, "100") {
		t.Fatalf("post-rename path = %q, want …/200/300/", p3)
	}

	// Remove: ancestry is forgotten; only the file's own inode remains.
	srv.dropParent(file)
	if p4 := srv.pathOf(file); p4 != "/300/" {
		t.Fatalf("post-remove path = %q, want /300/", p4)
	}
}

// TestRenameRevokesSubtreeGrant is the end-to-end consequence: a
// credential scoped to directory a's subtree must stop authorizing a
// file once the file is renamed out of a — even though the decision was
// cached — because the path epoch participates in cache validity.
func TestRenameRevokesSubtreeGrant(t *testing.T) {
	srv, root := pipeServer(t, ServerConfig{})
	admin := srv.Principal()
	adminView := &view{s: srv, peer: admin}
	a, err := adminView.Mkdir(root, "a", 0o755)
	if err != nil {
		t.Fatalf("mkdir a: %v", err)
	}
	b, err := adminView.Mkdir(root, "b", 0o755)
	if err != nil {
		t.Fatalf("mkdir b: %v", err)
	}
	f, err := adminView.Create(a.Handle, "f", 0o644)
	if err != nil {
		t.Fatalf("create a/f: %v", err)
	}

	bob := keynote.DeterministicKey("subtree-bob").Principal
	if _, err := srv.IssueCredential(bob, a.Handle.Ino, "R", "a subtree"); err != nil {
		t.Fatalf("issue: %v", err)
	}
	if err := srv.Check(bob, f.Handle, PermR, "read"); err != nil {
		t.Fatalf("read under a/: %v", err)
	}
	// Decision for (bob, f) is now cached. Move f out of the granted
	// subtree.
	if err := adminView.Rename(a.Handle, "f", b.Handle, "f"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if err := srv.Check(bob, f.Handle, PermR, "read"); err != vfs.ErrPerm {
		t.Fatalf("read after rename = %v, want ErrPerm (cached subtree grant survived the move)", err)
	}
}

// TestStatsGauges: the extended Stats fields move.
func TestStatsGauges(t *testing.T) {
	srv, root := pipeServer(t, ServerConfig{})
	bob := keynote.DeterministicKey("gauge-bob").Principal
	if _, err := srv.IssueCredential(bob, root.Ino, "RWX", "gauges"); err != nil {
		t.Fatal(err)
	}
	srv.Check(bob, root, PermR, "read")
	srv.Check(bob, root, PermR, "read")
	st := srv.Stats()
	if st.Generation == 0 {
		t.Error("Generation = 0 after credential issuance")
	}
	if st.Decisions != 2 || st.CacheHits == 0 {
		t.Errorf("decisions/hits = %d/%d", st.Decisions, st.CacheHits)
	}
	if st.AuditDropped != 0 {
		t.Errorf("AuditDropped = %d", st.AuditDropped)
	}
}
