package core

// The operations-plane soak. It runs a server with admission control
// and the metrics registry live, then churns many short-lived
// secure-channel sessions through mixed read/write/authorization
// traffic while injecting the failures the subsystem
// exists to absorb — a hot principal hammering past its token bucket, a
// key revoked mid-run, connections cut without goodbye — and drains the
// server gracefully. Two further phases follow inside the same leak
// window: revocation churn across a three-server feed mesh, and
// overwrite/truncate/unlink churn against the dedup store. The test then
// asserts the leak and convergence gates: nothing dropped, leaked or
// left unacknowledged, and every injected fault actually exercised.
//
// CI repeats it (go test -count=10 -run '^TestSoak$' ./internal/core)
// for ten independent churn-and-drain cycles.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"discfs/internal/bufpool"
	"discfs/internal/cfs"
	"discfs/internal/dedup"
	"discfs/internal/ffs"
	"discfs/internal/keynote"
	"discfs/internal/metrics"
)

func TestSoak(t *testing.T) {
	const (
		duration = 5 * time.Second
		// Each worker dials, performs a burst of mixed operations and
		// disconnects, so the sessions established are a large multiple
		// of this.
		workers = 32
		// Every principal gets the same admission budget of rps. The
		// hot workers share one principal and fan a batch of GETATTRs
		// out hotFanOut ways: the soak's noisy neighbor. Even one such
		// batch keeps more requests waiting for tokens than the 250 ms
		// a request may be shaped covers (rps/4), so the hot principal
		// is refused, while any other principal's one worker stays well
		// inside that.
		hotWorkers = 4
		hotFanOut  = 128
		rps        = 400
		// Every cutEvery-th session per worker ends in an abrupt cut
		// (abort) instead of an orderly close.
		cutEvery = 7
	)
	bufBase := bufpool.Outstanding()

	backing, err := ffs.New(ffs.Config{BlockSize: 8192, NumBlocks: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	ne, err := cfs.New(backing, "", false)
	if err != nil {
		t.Fatal(err)
	}
	adminKey := keynote.DeterministicKey("soak-admin")
	hotKey := keynote.DeterministicKey("soak-hot")
	victimKey := keynote.DeterministicKey("soak-victim")
	srv, addr := testServer(t, ServerConfig{
		Backing:   ne,
		ServerKey: adminKey,
		Limits:    Limits{RPS: rps},
	})
	keys := make([]*keynote.KeyPair, workers)
	for i := range keys {
		switch {
		case i < hotWorkers:
			keys[i] = hotKey
		case i == hotWorkers:
			keys[i] = victimKey
		default:
			keys[i] = keynote.DeterministicKey(fmt.Sprintf("soak-user-%d", i))
		}
	}
	issued := map[keynote.Principal]bool{}
	for _, k := range keys {
		if issued[k.Principal] {
			continue
		}
		issued[k.Principal] = true
		if _, err := srv.IssueCredential(k.Principal, ne.Root().Ino, "RWX", "soak user"); err != nil {
			t.Fatal(err)
		}
	}
	msrv, err := metrics.Serve("127.0.0.1:0", srv.Metrics(), func() error {
		if srv.Draining() {
			return fmt.Errorf("draining")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer msrv.Close()

	var (
		ops, errs, throttled, sessions atomic.Uint64
		revokedErrs, cuts              atomic.Uint64
		errSample                      atomic.Value // first unexpected error, for the log
	)
	unexpected := func(err error) {
		errs.Add(1)
		errSample.CompareAndSwap(nil, err.Error())
	}
	deadline := time.Now().Add(duration)
	revokeAt := time.Now().Add(duration / 2)
	var revoked atomic.Bool

	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int, key *keynote.KeyPair) {
			defer wg.Done()
			hot := key == hotKey
			victim := key == victimKey
			payload := []byte(strings.Repeat("soak-data ", 256)) // ~2.5 KiB
			for iter := 0; time.Now().Before(deadline); iter++ {
				c, err := Dial(ctx, addr, key)
				if err != nil {
					// Once revoked, any dial failure is expected: usually
					// ErrRevoked from the handshake, but a fence that cuts
					// the connection mid-negotiate surfaces as a bare
					// transport error.
					if victim && revoked.Load() {
						revokedErrs.Add(1)
						time.Sleep(10 * time.Millisecond)
						continue
					}
					unexpected(err)
					time.Sleep(time.Millisecond)
					continue
				}
				sessions.Add(1)
				path := fmt.Sprintf("/soak-w%d", id)
				tally := func(err error) {
					switch {
					case err == nil:
						ops.Add(1)
					case errors.Is(err, ErrThrottled):
						throttled.Add(1)
						time.Sleep(5 * time.Millisecond) // back off, as the taxonomy asks
					case victim && revoked.Load():
						revokedErrs.Add(1)
					case hot && errors.Is(err, ErrNotExist):
						// Cascade from a throttled WriteFile: the file was
						// never created, so the follow-up read misses. The
						// throttle itself is already counted above.
						throttled.Add(1)
					default:
						unexpected(err)
					}
				}
				for j := 0; j < 4 && time.Now().Before(deadline); j++ {
					switch j % 4 {
					case 0:
						_, _, err := c.WriteFile(ctx, path, payload)
						tally(err)
					case 1:
						_, err := c.ReadFile(ctx, path)
						tally(err)
					case 2:
						_, err := c.List(ctx, "/")
						tally(err)
					case 3:
						if !hot {
							_, err := c.ResolvePath(ctx, path)
							tally(err)
							continue
						}
						// GETATTRs straight on the wire: the name cache
						// would answer a ResolvePath without an RPC.
						var fan sync.WaitGroup
						for k := 0; k < hotFanOut; k++ {
							fan.Add(1)
							go func() {
								defer fan.Done()
								_, err := c.NFS().GetAttr(ctx, c.Root())
								tally(c.wireError(err))
							}()
						}
						fan.Wait()
					}
				}
				if iter%cutEvery == cutEvery-1 {
					cuts.Add(1)
					abort(c)
				} else {
					c.Close()
				}
			}
		}(i, keys[i])
	}

	// Mid-run fault injection and observability checks, off the workers'
	// backs: revoke the victim's key through the admin RPC path (the
	// real revocation machinery, decision-cache purge included), then
	// scrape /metrics the way a collector would.
	var scrapeLen int
	var scrapeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(revokeAt))
		admin, err := Dial(ctx, addr, adminKey)
		if err != nil {
			scrapeErr = fmt.Errorf("admin dial: %w", err)
			return
		}
		if _, err := admin.RevokeKey(ctx, victimKey.Principal); err != nil {
			scrapeErr = fmt.Errorf("revoke: %w", err)
		}
		revoked.Store(true)
		admin.Close()
		resp, err := http.Get("http://" + msrv.Addr() + "/metrics")
		if err != nil {
			scrapeErr = fmt.Errorf("scrape: %w", err)
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		scrapeLen = len(body)
		if !strings.Contains(string(body), "discfs_nfs_latency_seconds_bucket") {
			scrapeErr = fmt.Errorf("scrape missing latency histogram (%d bytes)", scrapeLen)
		}
	}()

	wg.Wait()

	// Read the histograms before teardown, then drain gracefully.
	lat := srv.NFSLatency()
	rate, conc := srv.Throttled()
	st := srv.Stats()
	shCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	if err := srv.Shutdown(shCtx); err != nil {
		t.Errorf("drain: %v", err)
	}
	cancel()
	if scrapeErr != nil {
		t.Errorf("mid-run revocation and scrape: %v", scrapeErr)
	}
	sample, _ := errSample.Load().(string)
	t.Logf("soak: %d sessions, %d ops (%.0f/s), %d unexpected errors %q, %d throttled (server: %d rate, %d concurrency), %d revoked, %d cuts, server p50 %.2f ms p99 %.2f ms",
		sessions.Load(), ops.Load(), float64(ops.Load())/duration.Seconds(), errs.Load(), sample,
		throttled.Load(), rate, conc, revokedErrs.Load(), cuts.Load(),
		lat.Quantile(0.50)*1000, lat.Quantile(0.99)*1000)

	// Both churn phases run after the single-server drain but before the
	// bufpool gate is sampled, so a leak in either fails it too: the
	// chunker borrows pooled buffers.
	fed, err := fedRevocationChurn(t)
	if err != nil {
		t.Error(err)
	}
	ded, err := dedupChurn(t)
	if err != nil {
		t.Error(err)
	}

	for _, g := range []struct {
		name string
		v    int64
	}{
		{"audit_dropped", int64(st.AuditDropped)},
		{"bufpool_outstanding", bufpool.Outstanding() - bufBase},
		{"feed_lag", int64(fed.lag)},
		{"dedup_ref_leaks", int64(ded.refLeaks)},
	} {
		if g.v != 0 {
			t.Errorf("%s = %d, must be 0 after a full churn-and-drain cycle", g.name, g.v)
		}
	}
	if throttled.Load() == 0 {
		t.Error("hot principal was never throttled")
	}
	if scrapeLen == 0 {
		t.Error("mid-run /metrics scrape returned nothing")
	}
	if fed.propagated == 0 {
		t.Error("revocation feed pushed nothing to peers during the fed churn phase")
	}
	if ded.hits == 0 {
		t.Error("dedup churn phase absorbed no duplicate writes")
	}
}

// abort cuts c's connections without the orderly cache shutdown —
// in-flight calls fail where they stand, as if the network dropped —
// so the soak exercises the server's handling of peers that vanish
// mid-operation.
func abort(c *Client) {
	c.closed.Store(true)
	for _, sh := range c.shards {
		sh.closePool()
		sh.mu.Lock()
		sh.link.Load().rpc.Close()
		sh.mu.Unlock()
	}
}

// fedChurnStats is what the federated revocation phase reports back.
type fedChurnStats struct {
	revoked    int    // victims fenced on every server
	propagated uint64 // feed entries pushed to peers, summed across servers
	lag        uint64 // unacked feed entries at the end, summed
}

// fedRevocationChurn exercises the server-to-server revocation feed
// under load: three servers in a full feed mesh, a dozen victim
// principals churning sessions against servers 1 and 2, and an admin
// connected only to server 0 revoking every victim. The revocations
// must ride the feed to the other two servers, cut the victims there,
// and leave the feed fully acknowledged (lag 0) — the soak's
// convergence gate.
func fedRevocationChurn(t *testing.T) (fedChurnStats, error) {
	const (
		nServers = 3
		nVictims = 12
		deadline = 15 * time.Second
	)
	var stats fedChurnStats
	ctx := context.Background()

	// Pre-listen so every server knows its peers' addresses up front.
	lns := make([]net.Listener, nServers)
	addrs := make([]string, nServers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return stats, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}

	// One shared server key: each server automatically accepts its
	// peers' feed connections as admin, the same deployment shape the
	// -fed-peers flag documents.
	adminKey := keynote.DeterministicKey("soak-fed-admin")
	srvs := make([]*Server, 0, nServers)
	defer func() {
		for _, s := range srvs {
			s.Close()
		}
	}()
	victims := make([]*keynote.KeyPair, nVictims)
	for i := range victims {
		victims[i] = keynote.DeterministicKey(fmt.Sprintf("soak-fed-victim-%d", i))
	}
	for i := 0; i < nServers; i++ {
		backing, err := ffs.New(ffs.Config{BlockSize: 8192, NumBlocks: 1 << 14})
		if err != nil {
			return stats, err
		}
		ne, err := cfs.New(backing, "", false)
		if err != nil {
			return stats, err
		}
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		srv, err := NewServer(ServerConfig{
			Backing:   ne,
			ServerKey: adminKey,
			Peers:     peers,
		})
		if err != nil {
			return stats, err
		}
		srvs = append(srvs, srv)
		for _, v := range victims {
			if _, err := srv.IssueCredential(v.Principal, ne.Root().Ino, "RWX", "fed soak victim"); err != nil {
				return stats, err
			}
		}
		go srv.Serve(lns[i])
	}

	// Victims churn sessions against the servers that will only learn
	// of their revocation through the feed. A goroutine exits once its
	// server refuses it with ErrRevoked.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var churnErrs atomic.Uint64
	for _, v := range victims {
		for _, si := range []int{1, 2} {
			wg.Add(1)
			go func(key *keynote.KeyPair, addr string) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					c, err := Dial(ctx, addr, key)
					if err != nil {
						if errors.Is(err, ErrRevoked) {
							return // fenced: done
						}
						churnErrs.Add(1)
						time.Sleep(5 * time.Millisecond)
						continue
					}
					for {
						if _, err := c.List(ctx, "/"); err != nil {
							break // cut or revoked: redial decides which
						}
						select {
						case <-stop:
							c.Close()
							return
						default:
						}
						time.Sleep(time.Millisecond)
					}
					c.Close()
				}
			}(v, addrs[si])
		}
	}

	// The admin talks to server 0 only; everything else is the feed's
	// problem.
	revokeAll := func() error {
		admin, err := Dial(ctx, addrs[0], adminKey)
		if err != nil {
			return fmt.Errorf("fed churn: admin dial: %w", err)
		}
		defer admin.Close()
		for _, v := range victims {
			if _, err := admin.RevokeKey(ctx, v.Principal); err != nil {
				return fmt.Errorf("fed churn: revoke %s: %w", v.Principal, err)
			}
		}
		return nil
	}
	err := revokeAll()

	if err == nil {
		// Convergence: every server must fence every victim, then the
		// feed must drain to zero unacknowledged entries.
		limit := time.Now().Add(deadline)
		for time.Now().Before(limit) {
			n := 0
			for _, v := range victims {
				all := true
				for _, srv := range srvs {
					if !srv.Session().Revoked(v.Principal) {
						all = false
						break
					}
				}
				if all {
					n++
				}
			}
			stats.revoked = n
			if n == nVictims {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if stats.revoked != nVictims {
			err = fmt.Errorf("fed churn: only %d/%d victims fenced on every server within %v",
				stats.revoked, nVictims, deadline)
		}
		for time.Now().Before(limit) {
			var lag uint64
			for _, srv := range srvs {
				l, _, _ := srv.RevocationFeed()
				lag += l
			}
			stats.lag = lag
			if lag == 0 {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err == nil && stats.lag != 0 {
			err = fmt.Errorf("fed churn: feed lag still %d after %v", stats.lag, deadline)
		}
	}

	close(stop)
	wg.Wait()
	for _, srv := range srvs {
		_, p, _ := srv.RevocationFeed()
		stats.propagated += p
	}
	t.Logf("soak: fed churn: %d/%d victims fenced, %d feed entries propagated, lag %d, %d transient churn errors",
		stats.revoked, nVictims, stats.propagated, stats.lag, churnErrs.Load())
	return stats, err
}

// dedupChurnStats is what the dedup churn phase reports back.
type dedupChurnStats struct {
	hits     uint64 // writes absorbed as pure index mutations
	refLeaks int    // fsck mismatches + post-sweep orphans: must be 0
}

// dedupChurn exercises the content-addressed store's refcount machinery
// under the kind of churn the steady-state server sees: several clients
// rewriting, truncating and unlinking duplicate-heavy files through the
// full server stack while the background sweeper races them on a
// short interval. After a graceful drain (which closes the dedup layer,
// final sweep included) it recomputes every chunk's reference count
// from the on-disk manifests and compares with the live index — any
// disagreement, missing chunk, or chunk the sweeper should have
// reclaimed counts as a leak.
func dedupChurn(t *testing.T) (dedupChurnStats, error) {
	const (
		nWorkers    = 6
		nIters      = 10
		segment     = 64 << 10
		segsPerFile = 6
	)
	var stats dedupChurnStats
	ctx := context.Background()

	backing, err := ffs.New(ffs.Config{BlockSize: 8192, NumBlocks: 1 << 15})
	if err != nil {
		return stats, err
	}
	dd, err := dedup.Wrap(backing,
		dedup.WithAvgChunkSize(32<<10),
		// Aggressive sweeping on purpose: the GC's quiesce handshake
		// must hold up with writers constantly in flight.
		dedup.WithSweepInterval(25*time.Millisecond))
	if err != nil {
		return stats, err
	}
	adminKey := keynote.DeterministicKey("soak-dedup-admin")
	srv, err := NewServer(ServerConfig{
		Backing:   dd,
		ServerKey: adminKey,
		Dedup:     true,
	})
	if err != nil {
		return stats, err
	}
	defer srv.Close()
	addr, err := srv.Start()
	if err != nil {
		return stats, err
	}

	// The shared pool: segments every worker rewrites, so cross-file
	// refcounts climb well past one and every unlink is a decref, not
	// a delete.
	shared := make([][]byte, 3)
	for i := range shared {
		shared[i] = make([]byte, segment)
		fillSeeded(shared[i], uint64(0xC0FFEE+i))
	}

	var ops atomic.Uint64
	errs := make([]error, nWorkers)
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(ctx, addr, adminKey)
			if err != nil {
				errs[w] = fmt.Errorf("dedup churn: dial: %w", err)
				return
			}
			defer c.Close()
			unique := make([]byte, segment)
			fail := func(step string, err error) {
				errs[w] = fmt.Errorf("dedup churn worker %d: %s: %w", w, step, err)
			}
			for iter := 0; iter < nIters; iter++ {
				// Three filenames per worker, cycled, so every generation
				// overwrites a live manifest rather than starting fresh.
				name := fmt.Sprintf("dedup-churn-w%d-%d", w, iter%3)
				f, err := c.Open(ctx, "/"+name, os.O_CREATE|os.O_RDWR|os.O_TRUNC)
				if err != nil {
					fail("open", err)
					return
				}
				for s := 0; s < segsPerFile; s++ {
					seg := shared[(w+s)%len(shared)]
					if s%3 == 2 { // one unique segment in three
						fillSeeded(unique, uint64(w)<<40|uint64(iter)<<20|uint64(s))
						seg = unique
					}
					if _, err := f.Write(seg); err != nil {
						fail("write", err)
						f.Close()
						return
					}
				}
				if err := f.Sync(); err != nil {
					fail("sync", err)
					f.Close()
					return
				}
				switch iter % 3 {
				case 1: // shrink: every truncated-away chunk is a decref
					if err := f.Truncate(2 * segment); err != nil {
						fail("truncate", err)
						f.Close()
						return
					}
				case 2: // unaligned overwrite: shifts chunk boundaries mid-file
					if _, err := f.WriteAt(shared[w%len(shared)], segment/2); err != nil {
						fail("overwrite", err)
						f.Close()
						return
					}
				}
				if err := f.Sync(); err != nil {
					fail("resync", err)
					f.Close()
					return
				}
				if err := f.Close(); err != nil {
					fail("close", err)
					return
				}
				if iter%4 == 3 { // unlink: the file's chunk refs must drop and GC
					if err := c.NFS().Remove(ctx, c.Root(), name); err != nil {
						fail("remove", err)
						return
					}
				}
				ops.Add(1)
			}
		}(w)
	}
	wg.Wait()
	err = errors.Join(errs...)

	// Graceful drain: Shutdown closes the dedup layer, whose shutdown
	// path flushes every manifest and runs a final unlinking sweep.
	shCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	if derr := srv.Shutdown(shCtx); derr != nil && err == nil {
		err = fmt.Errorf("dedup churn: drain: %w", derr)
	}
	cancel()

	// The fsck: recompute every refcount from the on-disk manifests and
	// compare with the live index. After the shutdown sweep there must
	// be no orphans either — a zero-ref chunk still on disk means the
	// sweeper lost track of it.
	v, verr := dd.Verify()
	if verr != nil && err == nil {
		err = fmt.Errorf("dedup churn: verify: %w", verr)
	}
	st := dd.Stats()
	stats.hits = st.Hits
	stats.refLeaks = v.RefMismatch + v.MissingChunk + v.Orphans
	t.Logf("soak: dedup churn: %d ops, %d chunks live, %d hits, %d reclaimed, %d ref leaks",
		ops.Load(), st.Chunks, st.Hits, st.GCChunks, stats.refLeaks)
	return stats, err
}

// fillSeeded fills buf with bytes derived from seed (a cheap splitmix64
// stream — incompressible enough that no two seeds share a chunk).
func fillSeeded(buf []byte, seed uint64) {
	x := seed
	for i := 0; i+8 <= len(buf); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		binary.LittleEndian.PutUint64(buf[i:], z)
	}
}
