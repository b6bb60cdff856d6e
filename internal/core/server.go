// Package core implements DisCFS itself: the credential-checked file
// server (the paper's contribution) and its client library.
//
// The server wraps any vfs.FS backing store (the prototype used the CFS
// daemon with encryption off) and enforces, on every NFS operation, a
// KeyNote compliance check binding the requesting principal — learned
// from the secure channel at attach time — to the file handle being
// accessed. Compliance values are the eight rwx permission combinations;
// their index is exactly the octal permission bitmask (§5 of the paper).
//
// As in the prototype, an attached filesystem appears with mode 000
// until credentials are submitted over RPC into a persistent KeyNote
// session; creating a file or directory issues the creator a credential
// with full access to the new object, which the owner can then delegate.
package core

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"discfs/internal/audit"
	"discfs/internal/bufpool"
	"discfs/internal/cache"
	"discfs/internal/dedup"
	"discfs/internal/keynote"
	"discfs/internal/limiter"
	"discfs/internal/metrics"
	"discfs/internal/nfs"
	"discfs/internal/secchan"
	"discfs/internal/sunrpc"
	"discfs/internal/vfs"
)

// Values is the ordered compliance value set of DisCFS: the paper's
// partial order of 8 permission combinations. The index of a value in
// this list equals its rwx bitmask (X=1, W=2, R=4).
var Values = []string{"false", "X", "W", "WX", "R", "RX", "RW", "RWX"}

// Permission bits (octal rwx).
const (
	PermX uint8 = 1
	PermW uint8 = 2
	PermR uint8 = 4
)

// PermString renders a bitmask as its compliance value name.
func PermString(perm uint8) string { return Values[perm&7] }

// AppDomain is the KeyNote application domain of DisCFS queries.
const AppDomain = "DisCFS"

// anonymousPrincipal is used for peers with no authenticated identity
// (plain TCP transports); policy can grant it nothing or limited access.
const anonymousPrincipal = keynote.Principal("anonymous")

// ServerConfig parameterizes a DisCFS server.
type ServerConfig struct {
	// Backing is the filesystem to export (typically cfs over ffs).
	Backing vfs.FS
	// ServerKey is the administrator identity: it anchors the delegation
	// graph, signs credentials issued on create/mkdir, and authenticates
	// the secure channel. Required.
	ServerKey *keynote.KeyPair
	// PolicyText, if non-empty, is additional KeyNote policy installed
	// verbatim (Authorizer: "POLICY" assertions). The policy delegating
	// _MAX_TRUST to ServerKey is always installed; per the paper, "the
	// server would trust only the administrator's key".
	PolicyText string
	// Admins may invoke revocation and credential-listing procedures in
	// addition to ServerKey itself.
	Admins []keynote.Principal
	// CacheSize bounds the policy decision cache; the paper used 128.
	// Negative disables caching; 0 means 128. Cached decisions live
	// decisionTTL.
	CacheSize int
	// Audit receives access decisions; nil allocates an in-memory log.
	Audit *audit.Log
	// Now injects a clock (tests, benchmarks); nil means an internal
	// coarse clock (~0.5 ms granularity) that makes per-operation
	// timestamping free of a syscall-path time.Now per check.
	Now func() time.Time

	// Dedup wraps Backing in the content-addressed deduplicating store
	// layer (internal/dedup): file data is split into content-defined
	// chunks indexed by SHA-256 and each unique chunk is written to the
	// backing store exactly once. A WRITE lands raw in the file's hidden
	// suffix file, in any order; the layer's sweeper chunks committed,
	// idle files, so duplicate data becomes index mutations off the
	// write path. The average chunk size is an eighth of the transfer
	// size (nfs.DefaultMaxTransfer/8). If Backing is already a
	// *dedup.FS (a caller that wrapped its store with its own
	// parameters), that layer is adopted instead of double-wrapping.
	// Off by default.
	Dedup bool

	// Limits applies per-principal admission control to every
	// data-plane NFS request: each authenticated secure-channel
	// principal gets its own token-bucket rate and in-flight cap of
	// this size. The zero value disables limiting. Throttled requests
	// fail with ErrThrottled on the client, which should back off and
	// retry.
	Limits Limits

	// Peers lists the other servers of a federation ("host:port") for
	// the server-to-server revocation feed: revocations applied here
	// are pushed to every peer (capped exponential backoff,
	// anti-entropy replay on reconnect), so one admin action fences the
	// whole federation even when the admin's client cannot reach every
	// shard. The peers must accept this server's key as an admin
	// (federations typically share the admin key; otherwise
	// cross-register keys via Admins / discfsd -admins). Validated with
	// fed.ValidatePeers. Empty disables pushing — entries pushed BY
	// peers are always accepted.
	Peers []string
}

// Limits configures the admission budget each principal gets (rate +
// in-flight cap); the zero value is unlimited.
type Limits = limiter.Limits

// decisionTTL bounds how long a cached policy decision is served;
// decisions under time-dependent policies are clamped further, to the
// next minute boundary.
const decisionTTL = time.Minute

// coarseClock publishes wall-clock nanoseconds from a ticker goroutine;
// reading it is one atomic load. Audit timestamps are second-granular
// and cache TTLs minute-granular, so sub-millisecond staleness is
// harmless (the minute-boundary clamp in decideAt leaves a 1 ms guard
// band for it).
//
// An idle server's clock parks. A tick publishes the time with the low
// bit clear, and the first read after it sets the bit with one CAS. A
// tick that finds the bit still clear publishes 0 and parks the ticker;
// a read of 0 publishes time.Now itself and wakes the ticker.
type coarseClock struct {
	ns    atomic.Int64
	ticks atomic.Uint64 // ticks taken, parked or not
	wake  chan struct{} // 1 slot: a read found the clock parked
	done  chan struct{}
	once  sync.Once
}

func newCoarseClock(step time.Duration) *coarseClock {
	c := &coarseClock{wake: make(chan struct{}, 1), done: make(chan struct{})}
	c.ns.Store(time.Now().UnixNano() | 1)
	go func() {
		t := time.NewTicker(step)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				c.ticks.Add(1)
				if v := c.ns.Load(); v&1 != 0 || !c.ns.CompareAndSwap(v, 0) {
					c.ns.Store(now.UnixNano() &^ 1)
					continue
				}
				t.Stop()
				select {
				case <-c.wake:
					t.Reset(step)
				case <-c.done:
					return
				}
			case <-c.done:
				return
			}
		}
	}()
	return c
}

func (c *coarseClock) Now() time.Time {
	v := c.ns.Load()
	switch {
	case v == 0:
		v = time.Now().UnixNano() | 1
		c.ns.Store(v)
		select {
		case c.wake <- struct{}{}:
		default:
		}
	case v&1 == 0:
		c.ns.CompareAndSwap(v, v|1)
	}
	return time.Unix(0, v)
}

func (c *coarseClock) Stop() { c.once.Do(func() { close(c.done) }) }

// ancShards is the shard count of the ancestry and path-cache maps;
// power of two so a handle hash indexes with the top ancShardBits bits.
const (
	ancShardBits = 4
	ancShards    = 1 << ancShardBits
)

// ancShard is one slice of the namespace-ancestry state: the
// child→parent map that backs the PATH action attribute, plus cached
// rendered paths (validated against the server's path epoch).
type ancShard struct {
	mu     sync.RWMutex
	parent map[vfs.Handle]vfs.Handle
	path   map[vfs.Handle]pathEntry
}

// pathEntry is a rendered inode path stamped with the epoch it was
// computed under; rename/remove bump the epoch, invalidating every
// cached path at once.
type pathEntry struct {
	path  string
	epoch uint64
}

// Server is a DisCFS server.
type Server struct {
	backing vfs.FS
	// dedup is the content-addressed store layer (non-nil when the
	// server enabled it or adopted a pre-wrapped backing). Teardown
	// closes it — Close is idempotent, so an owner that also closes a
	// layer it supplied via WithBacking is harmless.
	dedup    *dedup.FS
	key      *keynote.KeyPair
	session  *keynote.Session
	cache    *cache.Cache
	audit    *audit.Log
	ownAudit bool // the server allocated the log and closes it
	now      func() time.Time
	clock    *coarseClock // non-nil when the server owns its clock
	admins   map[keynote.Principal]bool

	// verifier is the boot verifier every COMMIT returns: drawn once per
	// server, never zero. A client that sees it move between two COMMITs
	// replays the writes it has not seen committed, which a restart may
	// have lost. commits counts the COMMITs served.
	verifier atomic.Uint64
	commits  atomic.Uint64

	// ancestry maps a handle to its containing directory, learned from
	// namespace traffic; it backs the PATH action attribute that gives
	// credentials subtree scope. Sharded by handle hash so namespace
	// traffic from different principals never contends on one lock.
	anc       [ancShards]ancShard
	pathEpoch atomic.Uint64 // bumped on rename/remove; validates path cache

	rpc *sunrpc.Server
	// ns is the NFS protocol engine (kept for the directory-cursor
	// gauge).
	ns *nfs.Server

	// reg is the operations-plane metrics registry every layer reports
	// through; met holds the hot-path handles into it (the former
	// ad-hoc Stats counters live here now, in exactly one place).
	reg *metrics.Registry
	met serverMetrics

	// lim is per-principal admission control; nil when unconfigured.
	lim *limiter.Limiter

	// feed is the server-to-server revocation feed. Always non-nil: a
	// server with no configured peers still accepts pushed entries, it
	// just pushes to nobody.
	feed *revFeed

	draining  atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// serverMetrics are the registry handles the request path touches.
type serverMetrics struct {
	queries     *metrics.Counter      // full KeyNote evaluations
	pathHits    *metrics.Counter      // handle→path renders served from cache
	pathMisses  *metrics.Counter      // handle→path renders walked
	procLatency *metrics.HistogramVec // NFS call latency by procedure
	procErrors  *metrics.CounterVec   // non-OK NFS replies by procedure
}

// NewServer builds a server from cfg.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Backing == nil {
		return nil, fmt.Errorf("core: no backing filesystem")
	}
	if cfg.ServerKey == nil {
		return nil, fmt.Errorf("core: no server key")
	}
	session, err := keynote.NewSession(Values)
	if err != nil {
		return nil, err
	}
	// The time attributes change between queries without a session
	// mutation; snapshots track whether any assertion depends on them so
	// decide can clamp cached-decision lifetimes to the minute boundary.
	session.SetVolatileAttributes("hour", "minute", "weekday", "now")
	// Root of trust: POLICY delegates everything to the administrator
	// key (the paper's Figure 1, top edge).
	rootPolicy, err := keynote.NewPolicy(keynote.AssertionSpec{
		Licensees:  keynote.LicenseesOr(cfg.ServerKey.Principal),
		Conditions: `app_domain == "` + AppDomain + `" -> _MAX_TRUST;`,
		Comment:    "root of trust: the administrator key",
	})
	if err != nil {
		return nil, err
	}
	if err := session.AddPolicy(rootPolicy); err != nil {
		return nil, err
	}
	if cfg.PolicyText != "" {
		if err := session.AddPolicyText(cfg.PolicyText); err != nil {
			return nil, err
		}
	}
	size := cfg.CacheSize
	if size == 0 {
		size = 128 // the paper's configuration
	}
	if size < 0 {
		size = 0
	}
	log := cfg.Audit
	if log == nil {
		log = audit.New(1024, nil)
	}
	now := cfg.Now
	var clk *coarseClock
	if now == nil {
		clk = newCoarseClock(500 * time.Microsecond)
		now = clk.Now
	}
	admins := make(map[keynote.Principal]bool, len(cfg.Admins)+1)
	admins[cfg.ServerKey.Principal] = true
	for _, a := range cfg.Admins {
		admins[a] = true
	}
	backing := cfg.Backing
	dedupFS, _ := backing.(*dedup.FS)
	if cfg.Dedup && dedupFS == nil {
		var derr error
		dedupFS, derr = dedup.Wrap(backing,
			dedup.WithAvgChunkSize(nfs.DefaultMaxTransfer/8))
		if derr != nil {
			return nil, fmt.Errorf("core: dedup layer: %w", derr)
		}
		backing = dedupFS
	}
	s := &Server{
		backing:  backing,
		dedup:    dedupFS,
		key:      cfg.ServerKey,
		session:  session,
		cache:    cache.New(size),
		audit:    log,
		ownAudit: cfg.Audit == nil,
		now:      now,
		clock:    clk,
		admins:   admins,
		rpc:      sunrpc.NewServer(),
	}
	s.reboot()
	for i := range s.anc {
		s.anc[i].parent = make(map[vfs.Handle]vfs.Handle)
		s.anc[i].path = make(map[vfs.Handle]pathEntry)
	}
	s.lim = limiter.New(cfg.Limits)
	feed, err := newRevFeed(s, cfg.Peers)
	if err != nil {
		return nil, err
	}
	s.feed = feed
	ns := nfs.NewServer(s)
	s.ns = ns
	ns.SetObserver(s.observeNFS)
	if s.lim != nil {
		ns.SetAdmit(s.admitNFS)
	}
	s.initMetrics()
	ns.RegisterAll(s.rpc)
	s.registerExt(s.rpc)
	s.feed.start()
	return s, nil
}

// reboot draws a fresh boot verifier, as a restarted server would.
func (s *Server) reboot() {
	var b [8]byte
	v := uint64(time.Now().UnixNano())
	if _, err := rand.Read(b[:]); err == nil {
		v = binary.BigEndian.Uint64(b[:])
	}
	s.verifier.Store(max(v, 1))
}

// initMetrics builds the operations-plane registry: the request path
// writes its own counters and histograms directly, while every existing
// component counter (decision cache, audit ring, dedup store,
// buffer pool, secure channel, RPC transport, limiter) is bridged in as
// a sampled-at-scrape func metric, so instrumenting them costs the hot
// path nothing.
func (s *Server) initMetrics() {
	r := metrics.NewRegistry()
	s.reg = r
	s.met = serverMetrics{
		queries:    r.Counter("discfs_policy_queries_total", "Full KeyNote compliance evaluations (decision-cache misses)."),
		pathHits:   r.Counter("discfs_path_cache_hits_total", "Handle-to-path renders served from the path cache."),
		pathMisses: r.Counter("discfs_path_cache_misses_total", "Handle-to-path renders that walked the ancestry map."),
		procLatency: r.HistogramVec("discfs_nfs_latency_seconds",
			"NFS call service latency by procedure.", "proc", metrics.DefLatencyBuckets),
		procErrors: r.CounterVec("discfs_nfs_errors_total",
			"Non-OK NFS replies by procedure (throttled replies count here as trylater).", "proc"),
	}
	r.CounterFunc("discfs_decision_cache_hits_total", "Policy decisions served from the sharded LRU.", func() uint64 {
		h, _ := s.cache.Stats()
		return h
	})
	r.CounterFunc("discfs_decision_cache_misses_total", "Policy decisions that missed the LRU.", func() uint64 {
		_, m := s.cache.Stats()
		return m
	})
	r.CounterFunc("discfs_decisions_total", "Access decisions appended to the audit log.", func() uint64 {
		t, _ := s.audit.Totals()
		return t
	})
	r.CounterFunc("discfs_denials_total", "Access decisions that denied the operation.", func() uint64 {
		_, d := s.audit.Totals()
		return d
	})
	r.GaugeFunc("discfs_audit_pending", "Audit mirror lines queued, not yet written.", func() float64 {
		return float64(s.audit.Pending())
	})
	r.CounterFunc("discfs_audit_dropped_total", "Audit mirror lines dropped at saturation.", func() uint64 {
		return s.audit.Dropped()
	})
	r.GaugeFunc("discfs_dir_cursors", "Live directory-listing cursors (paged READDIR walks in flight).", func() float64 {
		return float64(s.ns.DirCursorCount())
	})
	r.GaugeFunc("discfs_credentials", "Credentials loaded in the policy session.", func() float64 {
		return float64(s.session.Snapshot().NumCredentials())
	})
	r.GaugeFunc("discfs_policy_generation", "Policy-session generation (mutation count).", func() float64 {
		return float64(s.session.Snapshot().Generation())
	})
	if s.dedup != nil {
		r.GaugeFunc("discfs_dedup_chunks", "Unique chunks held by the content-addressed store.", func() float64 {
			return float64(s.dedup.Stats().Chunks)
		})
		r.GaugeFunc("discfs_dedup_bytes_logical", "Bytes addressable through dedup manifests.", func() float64 {
			return float64(s.dedup.Stats().BytesLogical)
		})
		r.GaugeFunc("discfs_dedup_bytes_stored", "Bytes physically held in chunk files.", func() float64 {
			return float64(s.dedup.Stats().BytesStored)
		})
		r.CounterFunc("discfs_dedup_hits_total", "Chunk stores absorbed as pure index mutations (no data written).", func() uint64 {
			return s.dedup.Stats().Hits
		})
		r.CounterFunc("discfs_dedup_gc_reclaimed_total", "Zero-reference chunks reclaimed by the sweeper.", func() uint64 {
			return s.dedup.Stats().GCChunks
		})
	}
	r.GaugeFunc("discfs_bufpool_outstanding", "Pooled buffers currently checked out (gets minus puts, process-wide).", func() float64 {
		return float64(bufpool.Outstanding())
	})
	r.CounterFunc("discfs_secchan_handshakes_total", "Responder secure-channel handshakes attempted (process-wide).", func() uint64 {
		return secchan.ReadStats().Handshakes
	})
	r.CounterFunc("discfs_secchan_failures_total", "Secure-channel handshakes failed before authentication (process-wide).", func() uint64 {
		return secchan.ReadStats().Failures
	})
	r.CounterFunc("discfs_secchan_rejected_total", "Authenticated peers refused by authorization, including revoked keys (process-wide).", func() uint64 {
		return secchan.ReadStats().Rejected
	})
	r.GaugeFunc("discfs_secchan_active_sessions", "Established secure-channel sessions now open (process-wide).", func() float64 {
		return float64(secchan.ReadStats().Active)
	})
	r.CounterFunc("discfs_datacache_hits_total", "Client data-cache block reads served locally (process-wide).", func() uint64 {
		return dcHits.Load()
	})
	r.CounterFunc("discfs_datacache_misses_total", "Client data-cache block reads fetched from a server (process-wide).", func() uint64 {
		return dcMisses.Load()
	})
	r.CounterFunc("discfs_redials_total", "Lost client shard connections transparently re-established (process-wide).", RedialsTotal)
	r.CounterFunc("discfs_rpc_requests_total", "RPC records received for dispatch.", func() uint64 {
		return s.rpc.Stats().Requests
	})
	r.CounterFunc("discfs_rpc_queue_full_total", "RPC records that found the in-flight cap saturated.", func() uint64 {
		return s.rpc.Stats().QueueFull
	})
	r.CounterFunc("discfs_rpc_busy_total", "RPC records refused with ServerBusy (saturation or drain).", func() uint64 {
		return s.rpc.Stats().Busy
	})
	r.GaugeFunc("discfs_rpc_inflight", "RPC handlers executing right now.", func() float64 {
		return float64(s.rpc.Stats().InFlight)
	})
	if s.lim != nil {
		r.CounterFunc("discfs_throttled_rate_total", "Requests rejected by a principal's token bucket.", func() uint64 {
			return s.lim.Stats().ThrottledRate
		})
		r.CounterFunc("discfs_throttled_concurrency_total", "Requests rejected by a principal's in-flight cap.", func() uint64 {
			return s.lim.Stats().ThrottledConcurrency
		})
		r.GaugeFunc("discfs_limited_principals", "Principals with live admission-control state.", func() float64 {
			return float64(s.lim.Principals())
		})
	}
	r.GaugeFunc("discfs_revocation_feed_lag", "Revocation log entries not yet acknowledged by the slowest feed peer (unsynced peers owe the whole log).", func() float64 {
		return float64(s.feed.Lag())
	})
	r.CounterFunc("discfs_revocations_propagated_total", "Revocation feed entries delivered to peer servers.", func() uint64 {
		return s.feed.propagated.Load()
	})
	r.CounterFunc("discfs_revocations_applied_total", "Revocation feed entries received from peer servers and applied.", func() uint64 {
		return s.feed.applied.Load()
	})
	r.GaugeFunc("discfs_draining", "1 while the server is draining (refusing new work), else 0.", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
}

// Metrics exposes the server's registry (scrape endpoint, tests).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// observeNFS is the nfs-layer observer: one histogram sample and, for
// non-OK replies, one error count per call, labeled by procedure.
func (s *Server) observeNFS(proc uint32, st nfs.Stat, d time.Duration) {
	name := nfs.ProcName(proc)
	s.met.procLatency.With(name).Observe(d.Seconds())
	if st != nfs.OK {
		s.met.procErrors.With(name).Inc()
	}
}

// admitNFS is the nfs-layer admission hook: the authenticated peer
// buys a slot from its limiter bucket or the call is refused (the nfs
// layer replies ErrTryLater, which clients surface as ErrThrottled).
func (s *Server) admitNFS(peer string, proc uint32) (func(), error) {
	if peer == "" {
		peer = string(anonymousPrincipal)
	}
	return s.lim.Acquire(peer)
}

// NFSLatency returns the merged (all procedures) NFS latency snapshot;
// quantiles come from its Quantile method (soak harness, monitoring).
func (s *Server) NFSLatency() metrics.HistogramSnapshot {
	return s.met.procLatency.Merged()
}

// Throttled returns how many requests admission control rejected,
// split by axis (token-bucket rate, in-flight cap). Zero when limiting
// is unconfigured.
func (s *Server) Throttled() (rate, concurrency uint64) {
	if s.lim == nil {
		return 0, 0
	}
	st := s.lim.Stats()
	return st.ThrottledRate, st.ThrottledConcurrency
}

// Session exposes the server's KeyNote session (tests, local tooling).
func (s *Server) Session() *keynote.Session { return s.session }

// Audit exposes the audit log.
func (s *Server) Audit() *audit.Log { return s.audit }

// Principal returns the server's administrator principal.
func (s *Server) Principal() keynote.Principal { return s.key.Principal }

// View implements nfs.Exporter: each peer sees the backing store through
// a policy-enforcing filter bound to its authenticated principal.
func (s *Server) View(peer string) (vfs.FS, error) {
	p := keynote.Principal(peer)
	if peer == "" {
		p = anonymousPrincipal
	}
	return &view{s: s, peer: p}, nil
}

// ---- ancestry tracking (PATH attribute) ----

// ancShard selects the shard holding h's ancestry entry.
func (s *Server) ancShard(h vfs.Handle) *ancShard {
	// Fibonacci hashing; the top bits index the shard array.
	return &s.anc[(h.Ino+uint64(h.Gen)<<40)*0x9e3779b97f4a7c15>>(64-ancShardBits)]
}

// invalidatePaths bumps the path epoch, invalidating every cached path
// and (because the epoch participates in decision validity) every
// cached decision. Only operations that actually change an existing
// object's path call it — rename, and rmdir as defense in depth — so
// read traffic and leaf-file removal never flush the caches.
func (s *Server) invalidatePaths() { s.pathEpoch.Add(1) }

// noteParent records that child lives in dir. Namespace reads (lookup,
// readdir) call this on every entry, so the already-known case takes
// only a shard read lock. A remap — a different parent observed, which
// a rename's own epoch bump already accounts for, or a hard link seen
// through another directory — updates the map and drops the child's
// cached path (last observation wins, as with the prototype's PATH
// attribute) without touching the global epoch.
func (s *Server) noteParent(child, dir vfs.Handle) {
	sh := s.ancShard(child)
	sh.mu.RLock()
	cur, ok := sh.parent[child]
	sh.mu.RUnlock()
	if ok && cur == dir {
		return
	}
	sh.mu.Lock()
	sh.parent[child] = dir
	delete(sh.path, child)
	sh.mu.Unlock()
}

// dropParent forgets a mapping (after remove/rmdir). Shard-local: a
// leaf's disappearance cannot change any other handle's path, so no
// global invalidation happens here.
func (s *Server) dropParent(child vfs.Handle) {
	sh := s.ancShard(child)
	sh.mu.Lock()
	delete(sh.parent, child)
	delete(sh.path, child)
	sh.mu.Unlock()
}

// pathOf renders the inode ancestry of h as "/ino1/ino2/.../inoN/" with
// h's own inode last. Unknown ancestry yields just "/ino/". Rendered
// paths whose chain reaches the root are cached per handle and reused
// until a rename or remove bumps the path epoch; incomplete chains (the
// parent is not yet known) are not cached, so learning more ancestry
// takes effect on the very next query.
func (s *Server) pathOf(h vfs.Handle) string {
	epoch := s.pathEpoch.Load()
	hsh := s.ancShard(h)
	hsh.mu.RLock()
	pe, ok := hsh.path[h]
	hsh.mu.RUnlock()
	if ok && pe.epoch == epoch {
		s.met.pathHits.Inc()
		return pe.path
	}
	s.met.pathMisses.Inc()
	const maxDepth = 64
	chain := make([]uint64, 0, 8)
	chain = append(chain, h.Ino)
	root := s.backing.Root()
	cur := h
	complete := cur == root
	for i := 0; i < maxDepth && !complete; i++ {
		sh := s.ancShard(cur)
		sh.mu.RLock()
		parent, ok := sh.parent[cur]
		sh.mu.RUnlock()
		if !ok {
			break
		}
		chain = append(chain, parent.Ino)
		cur = parent
		complete = cur == root
	}
	// chain is leaf→root; render root→leaf.
	var b []byte
	b = append(b, '/')
	for i := len(chain) - 1; i >= 0; i-- {
		b = strconv.AppendUint(b, chain[i], 10)
		b = append(b, '/')
	}
	path := string(b)
	if complete {
		hsh.mu.Lock()
		hsh.path[h] = pathEntry{path: path, epoch: epoch}
		hsh.mu.Unlock()
	}
	return path
}

// ---- policy decisions ----

// decide computes (with caching) the permission bits granted to peer on
// handle h.
func (s *Server) decide(peer keynote.Principal, h vfs.Handle) (perm uint8, cached bool) {
	return s.decideAt(peer, h, s.now())
}

// decideAt is decide with the caller's clock reading. The whole decision
// runs against one immutable session snapshot: the compliance query
// takes no lock, and the cache entry is stamped with the validity
// (generation + path epoch) read before the query ran — a revocation or
// rename landing mid-decision bumps the live validity past it, so the
// entry can never satisfy a post-revocation lookup.
func (s *Server) decideAt(peer keynote.Principal, h vfs.Handle, now time.Time) (perm uint8, cached bool) {
	snap := s.session.Snapshot()
	// Cached decisions are valid for one (session generation, path
	// epoch) pair: credential changes AND namespace changes (a rename
	// can move a file out of a subtree-scoped grant) both invalidate.
	// Both counters are monotonic, so their sum is too.
	validity := snap.Generation() + s.pathEpoch.Load()
	key := cache.Key{Peer: string(peer), Ino: h.Ino, Gen: h.Gen}
	if e, ok := s.cache.Get(key, validity, now); ok {
		return e.Perm, true
	}
	attrs := map[string]string{
		"app_domain": AppDomain,
		"HANDLE":     strconv.FormatUint(h.Ino, 10),
		"GENERATION": strconv.FormatUint(uint64(h.Gen), 10),
		"PATH":       s.pathOf(h),
		"peer":       string(peer),
		"hour":       strconv.Itoa(now.Hour()),
		"minute":     strconv.Itoa(now.Minute()),
		"weekday":    now.Weekday().String(),
		"now":        now.UTC().Format(time.RFC3339),
	}
	res, err := snap.Query(attrs, peer)
	if err != nil {
		// Fail closed on evaluation errors.
		res = keynote.Result{Value: Values[0], Index: 0}
	}
	s.met.queries.Inc()
	perm = uint8(res.Index) & 7
	expires := now.Add(decisionTTL)
	if snap.Volatile() {
		// Some assertion tests hour/minute/weekday/now: a grant valid at
		// 11:59 must not be served from cache at 12:00, however long the
		// TTL. Clamp to just short of the next minute boundary (the
		// granularity of the time attributes) so the first decision in
		// the new minute re-evaluates; the 1 ms guard band covers the
		// coarse clock's staleness.
		if boundary := now.Truncate(time.Minute).Add(time.Minute - time.Millisecond); boundary.Before(expires) {
			expires = boundary
		}
	}
	// Stamp with the validity computed before the query: if a revocation
	// or rename landed mid-decision, the live validity has moved past
	// this value and the entry can never satisfy a later Get.
	s.cache.Put(key, cache.Entry{Perm: perm, Gen: validity, Expires: expires})
	return perm, false
}

// check requires the given permission bits on h, appending to the audit
// log, and returns vfs.ErrPerm when denied. The audit append is
// asynchronous — the check path never blocks on log I/O.
func (s *Server) check(peer keynote.Principal, h vfs.Handle, need uint8, op, name string) error {
	now := s.now()
	perm, cached := s.decideAt(peer, h, now)
	allowed := perm&need == need
	s.audit.Append(audit.Record{
		Time: now, Peer: string(peer), Op: op,
		Ino: h.Ino, Gen: h.Gen, Name: name,
		Value: PermString(perm), Allowed: allowed, Cached: cached,
	})
	if !allowed {
		return vfs.ErrPerm
	}
	return nil
}

// Check runs the full per-operation authorization path — cached decision
// plus audit record — requiring the given permission bits on h. It is
// the entry point the per-peer views use, exported for benchmarks and
// local tooling that exercise the server's check path without RPC.
func (s *Server) Check(peer keynote.Principal, h vfs.Handle, need uint8, op string) error {
	return s.check(peer, h, need, op, "")
}

// ---- credential issuance ----

// SubtreeConditions builds a Conditions body granting value on the object
// with inode ino and (when subtree) everything beneath it. extra, if
// non-empty, is ANDed in (e.g. a time bound).
func SubtreeConditions(ino uint64, value string, subtree bool, extra string) string {
	inoStr := strconv.FormatUint(ino, 10)
	target := `HANDLE == "` + inoStr + `"`
	if subtree {
		target = "(" + target + ` || PATH ~= "/` + inoStr + `/")`
	}
	cond := `app_domain == "` + AppDomain + `" && ` + target
	if extra != "" {
		cond += " && (" + extra + ")"
	}
	return cond + ` -> "` + value + `";`
}

// IssueCredential signs, with the server (administrator) key, a
// credential granting holder the given compliance value on ino
// (subtree-scoped), as the paper's create/mkdir procedures do.
func (s *Server) IssueCredential(holder keynote.Principal, ino uint64, value, comment string) (*keynote.Assertion, error) {
	cred, err := keynote.Sign(s.key, keynote.AssertionSpec{
		Licensees:  keynote.LicenseesOr(holder),
		Conditions: SubtreeConditions(ino, value, true, ""),
		Comment:    comment,
	})
	if err != nil {
		return nil, err
	}
	// The issued credential joins the server's persistent session so the
	// holder can operate immediately.
	if err := s.session.AddCredential(cred); err != nil {
		return nil, err
	}
	return cred, nil
}

// ---- serving ----

// Authorize rejects connections from revoked keys at handshake time. The
// secchan sentinel tells the transport to report the revocation to the
// peer, where Dial surfaces it as ErrRevoked. Every other peer gets its
// attach state (nfs.EncodeWelcome), so its Dial sends no MOUNT or FSINFO.
//
// When the revocation feed is stale — a peer server is reachable but
// this server has not yet pulled its log, the state a server is in just
// after rejoining a partition — non-admin handshakes first wait (up to
// peerSyncWait) for anti-entropy, so a principal revoked while this
// server was down is refused before its first post-reconnect session
// rather than after. Admins skip the gate: peer servers pushing feed
// entries authenticate as admins, and gating them would deadlock the
// very sync the gate waits for.
func (s *Server) Authorize(peer keynote.Principal) ([]byte, error) {
	if !s.admins[peer] {
		s.feed.waitFresh()
	}
	if s.session.Revoked(peer) {
		return nil, secchan.ErrKeyRevoked
	}
	view, _ := s.View(string(peer))
	return nfs.EncodeWelcome(view.Root(), s.verifier.Load()), nil
}

// RevocationFeed reports the feed's replication counters: lag (log
// entries the slowest peer has not acknowledged), propagated (entries
// delivered to peers), applied (entries received from peers).
func (s *Server) RevocationFeed() (lag, propagated, applied uint64) {
	return s.feed.Lag(), s.feed.propagated.Load(), s.feed.applied.Load()
}

// Serve accepts secure-channel connections on ln until Close.
func (s *Server) Serve(ln net.Listener) error {
	secl := secchan.NewListener(ln, secchan.Config{
		Identity:  s.key,
		Authorize: s.Authorize,
	})
	return s.rpc.Serve(secl)
}

// ServePlain accepts unauthenticated plain-TCP connections on ln. Peers
// are the distinguished "anonymous" principal: they hold no key, cannot
// submit credentials usefully, and receive exactly what local policy
// grants the anonymous principal — the paper's future-work scenario of
// "untrusted users characteristic of the WWW" (§7), where browsers fetch
// public files without prior registration.
func (s *Server) ServePlain(ln net.Listener) error {
	return s.rpc.Serve(ln)
}

// AnonymousPrincipal is the principal assigned to unauthenticated peers;
// grant it access in PolicyText to publish files to the world.
const AnonymousPrincipal = anonymousPrincipal

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Start listens on a loopback port and serves in the background,
// returning the address (tests, examples).
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go s.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the server: every listener is closed (the RPC layer owns
// them once Serve is called), in-flight connections drain, and the
// audit log's writer queue is drained (closed when the server allocated
// the log, flushed when the caller supplied it).
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.teardown(s.rpc.Close())
	})
	return s.closeErr
}

// DefaultDrainTimeout bounds Shutdown when its context has no deadline.
const DefaultDrainTimeout = 10 * time.Second

// Shutdown drains the server gracefully: listeners close and new RPCs
// are fenced off (refused with ServerBusy so clients see backpressure,
// not a hang), in-flight calls run to completion and deliver their
// replies, then buffered unstable writes flush to the backing store and
// the audit queue drains. The context deadline bounds the in-flight
// wait; past it, remaining connections are cut and Shutdown returns the
// drain error — but buffered writes and audit records still flush, so a
// forced drain loses no acknowledged write.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		timeout := DefaultDrainTimeout
		if dl, ok := ctx.Deadline(); ok {
			timeout = time.Until(dl)
		}
		s.closeErr = s.teardown(s.rpc.Drain(timeout))
	})
	return s.closeErr
}

// Draining reports whether Shutdown has begun; the health endpoint uses
// it to fail readiness while the server winds down.
func (s *Server) Draining() bool { return s.draining.Load() }

// teardown releases everything behind the RPC layer, after new traffic
// is fenced off: the revocation feed, the coarse clock, the store
// (synced, and the dedup layer closed) and the audit ring.
func (s *Server) teardown(err error) error {
	if s.feed != nil {
		s.feed.Close()
	}
	if s.clock != nil {
		s.clock.Stop()
	}
	// After the RPC fence, so no WRITE lands behind it: every
	// acknowledged WRITE becomes durable even if its COMMIT never came,
	// then dedup's final sweep compacts the chunk namespace.
	if serr := s.backing.Sync(); serr != nil && err == nil {
		err = serr
	}
	if s.dedup != nil {
		if derr := s.dedup.Close(); derr != nil && err == nil {
			err = derr
		}
	}
	var aerr error
	if s.ownAudit {
		aerr = s.audit.Close()
	} else {
		aerr = s.audit.Flush()
	}
	if err == nil {
		err = aerr
	}
	return err
}

// Stats summarizes the policy engine's work, for monitoring and the
// micro-benchmarks.
type Stats struct {
	Queries     uint64 // full KeyNote evaluations (cache misses)
	CacheHits   uint64
	CacheMisses uint64
	Credentials int
	Decisions   uint64
	Denials     uint64

	Generation      uint64 // policy-session generation (mutation count)
	AuditPending    int    // audit mirror lines queued, not yet written
	AuditDropped    uint64 // audit mirror lines dropped at saturation
	PathCacheHits   uint64 // handle→path resolutions served from cache
	PathCacheMisses uint64 // handle→path resolutions walked

	// Commits counts the COMMIT durability barriers served.
	Commits uint64
	// WritesGathered and BackendWrites are always zero; they remain
	// because benchmark/counters.go reads them.
	WritesGathered uint64
	BackendWrites  uint64

	// Content-addressed store (zero when ServerConfig.Dedup is off).
	DedupChunks       int64  // unique chunks held
	DedupBytesLogical int64  // bytes addressable through manifests
	DedupBytesStored  int64  // bytes physically stored in chunk files
	DedupHits         uint64 // chunk stores absorbed as index mutations
	DedupGCReclaimed  uint64 // zero-reference chunks swept
}

// Stats returns a snapshot.
func (s *Server) Stats() Stats {
	snap := s.session.Snapshot()
	hits, misses := s.cache.Stats()
	total, denied := s.audit.Totals()
	var dst dedup.Stats
	if s.dedup != nil {
		dst = s.dedup.Stats()
	}
	return Stats{
		Commits: s.commits.Load(),

		DedupChunks:       dst.Chunks,
		DedupBytesLogical: dst.BytesLogical,
		DedupBytesStored:  dst.BytesStored,
		DedupHits:         dst.Hits,
		DedupGCReclaimed:  dst.GCChunks,

		Queries:         s.met.queries.Value(),
		CacheHits:       hits,
		CacheMisses:     misses,
		Credentials:     snap.NumCredentials(),
		Decisions:       total,
		Denials:         denied,
		Generation:      snap.Generation(),
		AuditPending:    s.audit.Pending(),
		AuditDropped:    s.audit.Dropped(),
		PathCacheHits:   s.met.pathHits.Value(),
		PathCacheMisses: s.met.pathMisses.Value(),
	}
}
