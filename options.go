package discfs

import (
	"fmt"
	"time"

	"discfs/internal/core"
	"discfs/internal/nfs"
)

// A ServerOption configures NewServer.
type ServerOption func(*core.ServerConfig)

// WithBacking exports fs instead of a freshly built default store. Use
// OpenBackend or NewMemStore to construct one, or supply any vfs.FS
// implementation.
func WithBacking(fs FS) ServerOption {
	return func(c *core.ServerConfig) { c.Backing = fs }
}

// WithPolicyText installs additional KeyNote policy verbatim
// (Authorizer: "POLICY" assertions) next to the root-of-trust policy.
func WithPolicyText(text string) ServerOption {
	return func(c *core.ServerConfig) { c.PolicyText = text }
}

// WithAdmins grants the given principals the administrative procedures
// (revocation, credential listing) in addition to the server key itself.
func WithAdmins(admins ...Principal) ServerOption {
	return func(c *core.ServerConfig) { c.Admins = append(c.Admins, admins...) }
}

// WithCacheSize bounds the policy decision cache; the paper used 128
// (the default). Negative disables caching.
func WithCacheSize(n int) ServerOption {
	return func(c *core.ServerConfig) { c.CacheSize = n }
}

// WithAudit routes access decisions to log instead of a fresh in-memory
// audit log.
func WithAudit(log *AuditLog) ServerOption {
	return func(c *core.ServerConfig) { c.Audit = log }
}

// WithServerWriteBehind has no effect: every server already answers
// WRITE unstably and makes it durable at COMMIT, with a boot verifier
// so clients detect a restart and replay what it may have lost. The
// option remains because benchmark/stack.go calls it.
func WithServerWriteBehind(queueBlocks, committers int) ServerOption {
	return func(*core.ServerConfig) {}
}

// WithServerDedup stacks the content-addressed deduplicating store
// over the backing filesystem: file data is split into content-defined
// chunks (FastCDC rolling hash), indexed by SHA-256, and each unique
// chunk is stored exactly once. Chunking stays off the write path: a
// WRITE lands raw in a hidden per-file suffix file, in whatever order
// WRITEs arrive, and a background sweeper chunks each file once it is
// committed and idle (every 2 s; closing the store chunks the rest),
// turning chunks already stored into index mutations. The sweeper also
// reclaims chunks once no file references them. The average chunk size
// is an eighth of the transfer size. A store the caller already wrapped in the dedup
// layer is adopted as is.
func WithServerDedup() ServerOption {
	return func(c *core.ServerConfig) { c.Dedup = true }
}

// WithClock injects a clock for tests and benchmarks.
func WithClock(now func() time.Time) ServerOption {
	return func(c *core.ServerConfig) { c.Now = now }
}

// WithServerLimits applies per-principal admission control to every
// data-plane NFS request, keyed by the authenticated secure-channel
// principal: each principal gets its own token bucket (rps sustained,
// holding one second of it) and in-flight cap; 0 leaves that axis
// unlimited. Requests over budget wait up to 250 ms, then fail with
// ErrThrottled — one hot client is pinned to its budget instead of
// starving the rest.
func WithServerLimits(rps float64, inflight int) ServerOption {
	return func(c *core.ServerConfig) {
		c.Limits = core.Limits{RPS: rps, InFlight: inflight}
	}
}

// WithServerPeers joins this server to a federation revocation feed:
// every revocation applied here (locally by an admin, or learned from
// a peer) is pushed to each listed peer server, with anti-entropy on
// (re)connect so a peer that was down during the admin action converges
// before serving its next authenticated session. Each peer must accept
// this server's key as an administrator (federations either share the
// server key or cross-register keys with WithAdmins). An empty list
// disables pushing; pushes from peers are always accepted (admin-gated).
func WithServerPeers(addrs ...string) ServerOption {
	return func(c *core.ServerConfig) { c.Peers = append(c.Peers, addrs...) }
}

// NewServer constructs a DisCFS server anchored on the administrator key
// serverKey, configured by functional options. With no options the
// server exports a fresh in-memory store (the "mem" backend):
//
//	srv, err := discfs.NewServer(adminKey,
//		discfs.WithBacking(store),
//		discfs.WithCacheSize(128),
//	)
func NewServer(serverKey *KeyPair, opts ...ServerOption) (*Server, error) {
	if serverKey == nil {
		return nil, fmt.Errorf("discfs: no server key")
	}
	cfg := core.ServerConfig{ServerKey: serverKey}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Backing == nil {
		backing, err := NewMemStore()
		if err != nil {
			return nil, err
		}
		cfg.Backing = backing
	}
	return core.NewServer(cfg)
}

// A ClientOption configures Dial's client-side data cache.
type ClientOption = core.ClientOption

// WithNoDataCache disables the client-side data cache: every File read
// and write becomes one synchronous NFS RPC and errors surface on the
// call that hit them. Use it for workloads that need strict read
// consistency with concurrent remote writers mid-open.
func WithNoDataCache() ClientOption { return core.WithNoDataCache() }

// WithServers federates the namespace across additional servers: the
// dialed address is shard 0 (the primary, exporting the logical root)
// and each address here becomes the next shard. Partition the
// namespace with WithShardSubtree and WithGraft. The same identity and
// credential chain are presented to every shard — KeyNote credentials
// are self-certifying, so authority (and revocation) spans servers
// with no shared session state between them.
func WithServers(addrs ...string) ClientOption { return core.WithServers(addrs...) }

// WithShardSubtree spreads the children of one directory across all
// shards by consistent hashing of the child name. Every shard must
// export the same directory path; a child lives on the shard its name
// hashes to, and listing the directory merges all shards. With a
// single server this is the identity configuration and changes nothing
// on the wire.
func WithShardSubtree(path string) ClientOption { return core.WithShardSubtree(path) }

// WithGraft statically binds an absolute path to a shard, mount-style:
// the path resolves to that shard's exported root and everything
// beneath it lives there. The shard index counts the primary as 0 and
// the WithServers addresses as 1..N; grafting to 0 is rejected.
func WithGraft(path string, shard int) ClientOption { return core.WithGraft(path, shard) }

// DefaultMaxTransfer is the negotiated READ/WRITE transfer size (bytes):
// what a client proposes at attach and the most a server grants.
const DefaultMaxTransfer = nfs.DefaultMaxTransfer

// A StoreOption configures the storage substrates built by NewMemStore,
// OpenBackend and LoadStore.
type StoreOption func(*StoreConfig)

// WithBlockSize sets the FFS block size (default 8192).
func WithBlockSize(n int) StoreOption {
	return func(c *StoreConfig) { c.BlockSize = n }
}

// WithNumBlocks sets the device capacity in blocks (default 1<<18).
func WithNumBlocks(n uint32) StoreOption {
	return func(c *StoreConfig) { c.NumBlocks = n }
}

// WithEncryption stacks CFS content/name encryption over the store,
// keyed by passphrase. Without it the CFS-NE layer is still stacked (the
// paper's configuration) so the code path matches the prototype.
func WithEncryption(passphrase string) StoreOption {
	return func(c *StoreConfig) { c.Encrypt = true; c.Passphrase = passphrase }
}

// storeConfig folds opts into a zero StoreConfig.
func storeConfig(opts []StoreOption) StoreConfig {
	var cfg StoreConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}
