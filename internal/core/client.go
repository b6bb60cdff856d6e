package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"discfs/internal/fed"
	"discfs/internal/keynote"
	"discfs/internal/metrics"
	"discfs/internal/nfs"
	"discfs/internal/vfs"
	"discfs/internal/xdr"
)

// Client is the DisCFS client: the cattach-equivalent. Dialing a server
// establishes the secure channel (the paper's IPsec tunnel), mounts the
// remote filesystem, and exposes file operations plus the credential
// procedures.
//
// With federation options (WithServers, WithShardSubtree, WithGraft)
// the client connects to every shard and routes each operation to the
// owning server; without them it is the classic single-server client
// (one shard, identity handle tagging, no routing).
type Client struct {
	shards   []*shard
	table    *fed.Table // nil unless federation is configured
	identity *keynote.KeyPair
	closed   atomic.Bool

	// Data-cache state (see datacache.go): per-handle page caches with
	// readahead and write-behind, shared by the Files opened on each
	// handle. Handles are shard-tagged, so one map spans all shards.
	dataCache dataCacheConfig
	dcMu      sync.Mutex
	dcaches   map[vfs.Handle]*handleCache
	// dcIdle lists the caches of handles no File has open, in the order
	// their last File closed (under dcMu); dcIdlePages counts the pages
	// they hold, which together stay within idleCacheBytes.
	dcIdle      []*handleCache
	dcIdlePages atomic.Int64
	// flushClock ticks on every flush completion of any handle cache.
	// Open reads it before the RPC whose attributes it revalidates
	// against: the handle, and so its cache, is not known until that
	// RPC returns, and one clock orders it against every cache's flushes.
	flushClock atomic.Uint64

	// credsPresented records whether this client successfully submitted
	// credentials (even ones the server already held); it distinguishes
	// "denied with no credentials presented" from a plain policy denial
	// in the error taxonomy.
	credsPresented atomic.Bool

	// Per-shard request/latency metrics, fed by an observer on every
	// RPC connection (main links and pool slots).
	reg       *metrics.Registry
	shardReqs *metrics.CounterVec
	shardLat  *metrics.HistogramVec
}

// A ClientOption configures Dial.
type ClientOption func(*dataCacheConfig)

// WithNoDataCache disables the client-side data cache entirely: every
// File read and write becomes one synchronous NFS RPC, as in v1. Errors
// then surface on the call that hit them rather than at Sync/Close.
func WithNoDataCache() ClientOption {
	return func(cfg *dataCacheConfig) { cfg.disabled = true }
}

// WithServers federates the namespace across additional servers: the
// dialed address is shard 0 (the primary, exporting the logical root)
// and each addr here becomes the next shard. Partitioning is
// configured with WithShardSubtree and WithGraft; the same identity
// and credential chain are presented to every shard, each of which
// evaluates authority locally (KeyNote credentials are self-certifying
// — no shared session state exists between servers).
func WithServers(addrs ...string) ClientOption {
	return func(cfg *dataCacheConfig) {
		cfg.fedServers = append(cfg.fedServers, addrs...)
	}
}

// WithShardSubtree spreads the children of one directory across all
// shards by consistent hashing of the child name. Every shard must
// export the same directory path; a child lives on (and is created at)
// the shard its name hashes to, and listing the directory merges all
// shards. With a single server this is the identity configuration and
// changes nothing on the wire.
func WithShardSubtree(path string) ClientOption {
	return func(cfg *dataCacheConfig) { cfg.fedSubtree = path }
}

// WithGraft statically binds an absolute path to a shard, mount-style:
// resolving the path yields that shard's exported root, and everything
// beneath it lives there. The shard must not be 0 — the primary
// already exports the logical root.
func WithGraft(path string, shard int) ClientOption {
	return func(cfg *dataCacheConfig) {
		if cfg.fedGrafts == nil {
			cfg.fedGrafts = make(map[string]int)
		}
		cfg.fedGrafts[path] = shard
	}
}

// Dial connects to a DisCFS server at addr, authenticating as identity,
// and mounts the export. The returned client carries no credentials: per
// the paper, the attached directory appears with mode 000 until
// credentials are submitted. ctx bounds connection establishment, the
// secure-channel handshake and the mount; it does not outlive Dial.
//
// A server that has revoked identity's key refuses the attach with an
// error matching ErrRevoked.
//
// Options turn the client-side data cache off (WithNoDataCache) and,
// for federated deployments, configure the shard set and routing
// (WithServers, WithShardSubtree, WithGraft). The client always
// proposes nfs.DefaultMaxTransfer at attach and runs at whatever each
// server grants.
func Dial(ctx context.Context, addr string, identity *keynote.KeyPair, opts ...ClientOption) (*Client, error) {
	var cfg dataCacheConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	c := &Client{
		identity:  identity,
		dataCache: cfg,
		dcaches:   make(map[vfs.Handle]*handleCache),
	}
	spec := fed.Spec{Extra: cfg.fedServers, Grafts: cfg.fedGrafts, ShardSubtree: cfg.fedSubtree}
	if spec.Enabled() {
		table, err := fed.New(spec)
		if err != nil {
			return nil, err
		}
		c.table = table
	}
	c.reg = metrics.NewRegistry()
	c.shardReqs = c.reg.CounterVec("discfs_client_shard_requests_total",
		"RPCs issued, by federation shard", "shard")
	c.shardLat = c.reg.HistogramVec("discfs_client_shard_latency_seconds",
		"RPC latency, by federation shard", "shard", metrics.DefLatencyBuckets)
	c.reg.CounterFunc("discfs_redials_total",
		"lost connections transparently re-established (process-wide)", RedialsTotal)

	addrs := append([]string{addr}, cfg.fedServers...)
	for id, a := range addrs {
		sh, err := dialShard(ctx, c, id, a)
		if err != nil {
			for _, prev := range c.shards {
				prev.closePool()
				prev.link.Load().rpc.Close()
			}
			return nil, err
		}
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

// MaxTransfer reports the negotiated per-RPC transfer size of the
// primary connection (per-shard sizes may differ under federation).
func (c *Client) MaxTransfer() int { return int(c.shards[0].xfer) }

// Metrics exposes the client's registry: per-shard request and latency
// vectors plus the process-wide redial counter.
func (c *Client) Metrics() *metrics.Registry { return c.reg }

// primary returns shard 0: the server whose root is the logical root.
func (c *Client) primary() *shard { return c.shards[0] }

// shardOf routes a shard-tagged handle to its owning shard. Handles
// are only minted by this client's connections, so an out-of-range tag
// cannot normally occur; the primary absorbs it rather than panicking.
func (c *Client) shardOf(h vfs.Handle) *shard {
	id := nfs.ShardOfIno(h.Ino)
	if id <= 0 || id >= len(c.shards) {
		return c.shards[0]
	}
	return c.shards[id]
}

// Close tears down the connections. Unflushed write-behind data is
// abandoned (its flushes fail against the closed connection); call
// File.Close or File.Sync first for the error barrier.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.shutdownCaches()
	var first error
	for _, sh := range c.shards {
		sh.closePool()
		sh.mu.Lock()
		err := sh.link.Load().rpc.Close()
		sh.mu.Unlock()
		if first == nil {
			first = err
		}
	}
	return first
}

// NFS exposes the primary shard's NFS client for direct protocol
// access.
func (c *Client) NFS() *nfs.Client { return c.primary().nfsc(context.Background()) }

// Root returns the mounted root handle (the primary's root).
func (c *Client) Root() vfs.Handle { return c.primary().link.Load().root }

// Principal returns the client's own principal.
func (c *Client) Principal() keynote.Principal { return c.identity.Principal }

// ServerPrincipal returns the authenticated identity of the primary
// server.
func (c *Client) ServerPrincipal() keynote.Principal { return c.primary().server }

// Identity returns the client's key pair (for issuing delegations).
func (c *Client) Identity() *keynote.KeyPair { return c.identity }

// ---- extension procedures ----

// SubmitCredentialText submits credential assertion text (one or more
// assertions) to the server's persistent KeyNote session. Under
// federation the same chain is presented to every shard — that is the
// whole cross-server authority mechanism: each server evaluates the
// self-certifying chain locally. Returns the number of credentials
// newly accepted by the primary.
func (c *Client) SubmitCredentialText(ctx context.Context, text string) (int, error) {
	n := 0
	for i, sh := range c.shards {
		m, err := c.submitCredentialTo(ctx, sh, text)
		if err != nil {
			return n, err
		}
		if i == 0 {
			n = m
		}
	}
	c.credsPresented.Store(true)
	return n, nil
}

func (c *Client) submitCredentialTo(ctx context.Context, sh *shard, text string) (int, error) {
	e := xdr.NewEncoder()
	e.String(text)
	d, err := sh.live(ctx).rpc.Call(ctx, ExtProg, ExtVers, ExtSubmitCred, e.Bytes())
	if err != nil {
		return 0, err
	}
	defer nfs.RecycleReply(d)
	status := d.Uint32()
	n := d.Uint32()
	msg := d.String(4096)
	if err := d.Err(); err != nil {
		return 0, err
	}
	if status != extOK {
		return int(n), fmt.Errorf("%w: %s", ErrCredentialRejected, msg)
	}
	// What this principal may see just changed, and cached attributes
	// carry modes masked by the old credential set.
	sh.attrc(ctx).Purge()
	return int(n), nil
}

// SubmitCredentials submits parsed credentials.
func (c *Client) SubmitCredentials(ctx context.Context, creds ...*keynote.Assertion) (int, error) {
	var b strings.Builder
	for _, cr := range creds {
		b.WriteString(cr.Source)
		if !strings.HasSuffix(cr.Source, "\n") {
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	return c.SubmitCredentialText(ctx, b.String())
}

// WhoAmI asks the primary server which principal this connection
// authenticated.
func (c *Client) WhoAmI(ctx context.Context) (keynote.Principal, error) {
	d, err := c.primary().live(ctx).rpc.Call(ctx, ExtProg, ExtVers, ExtWhoAmI, nil)
	if err != nil {
		return "", err
	}
	defer nfs.RecycleReply(d)
	p := d.String(4096)
	return keynote.Principal(p), d.Err()
}

// createLike runs CREATECRED or MKDIRCRED on the shard owning dir and
// keeps that shard's name cache honest: the directory changed, and on
// success the new entry is known.
func (c *Client) createLike(ctx context.Context, proc uint32, dir vfs.Handle, name string, mode uint32) (attr vfs.Attr, cred string, err error) {
	ln := c.shardOf(dir).live(ctx)
	defer func() {
		if err != nil {
			ln.attrs.ForgetDir(dir)
		} else {
			ln.attrs.InstallNew(dir, name, attr)
		}
	}()
	e := xdr.NewEncoder()
	fh, err := ln.nfs.WireFH(dir)
	if err != nil {
		return vfs.Attr{}, "", c.wireError(err)
	}
	e.OpaqueFixed(fh[:])
	e.String(name)
	sa := nfs.NewSAttr()
	sa.Mode = mode
	sa.Encode(e)
	d, err := ln.rpc.Call(ctx, ExtProg, ExtVers, proc, e.Bytes())
	if err != nil {
		return vfs.Attr{}, "", err
	}
	defer nfs.RecycleReply(d) // DecodeWireFH copies the only alias
	if st := nfs.Stat(d.Uint32()); st != nfs.OK {
		return vfs.Attr{}, "", c.wireError(&nfs.Error{Stat: st})
	}
	raw := d.OpaqueFixed(nfs.FHSize)
	if err := d.Err(); err != nil {
		return vfs.Attr{}, "", err
	}
	h, err := ln.nfs.DecodeWireFH(raw)
	if err != nil {
		return vfs.Attr{}, "", err
	}
	fa := nfs.DecodeFAttr(d)
	cred = d.String(maxCredText)
	if err := d.Err(); err != nil {
		return vfs.Attr{}, "", err
	}
	attr = vfs.Attr{
		Handle: h,
		Mode:   fa.Mode & 0o7777,
		Size:   uint64(fa.Size),
		Nlink:  fa.Nlink,
		UID:    fa.UID,
		GID:    fa.GID,
		Atime:  fa.Atime,
		Mtime:  fa.Mtime,
		Ctime:  fa.Ctime,
	}
	switch fa.Type {
	case 1:
		attr.Type = vfs.TypeRegular
	case 2:
		attr.Type = vfs.TypeDir
	case 5:
		attr.Type = vfs.TypeSymlink
	}
	return attr, cred, nil
}

// CreateWithCredential creates a file and returns the server-issued
// credential granting the creator full access — the paper's added
// procedure.
func (c *Client) CreateWithCredential(ctx context.Context, dir vfs.Handle, name string, mode uint32) (vfs.Attr, string, error) {
	return c.createLike(ctx, ExtCreateCred, dir, name, mode)
}

// MkdirWithCredential creates a directory and returns the creator's
// credential.
func (c *Client) MkdirWithCredential(ctx context.Context, dir vfs.Handle, name string, mode uint32) (vfs.Attr, string, error) {
	return c.createLike(ctx, ExtMkdirCred, dir, name, mode)
}

// revokeOn runs one shard's leg of a revocation fan-out and returns the
// count/found word of its reply.
func (c *Client) revokeOn(ctx context.Context, sh *shard, proc uint32, arg string) (uint32, error) {
	e := xdr.NewEncoder()
	e.String(arg)
	d, err := sh.live(ctx).rpc.Call(ctx, ExtProg, ExtVers, proc, e.Bytes())
	if err != nil {
		return 0, c.wireError(err)
	}
	status := d.Uint32()
	n := d.Uint32()
	err = d.Err()
	nfs.RecycleReply(d)
	if err != nil {
		return 0, err
	}
	if status == extNotAdmin {
		return 0, ErrNotAdmin
	}
	sh.attrc(ctx).Purge() // the revocation may have narrowed this client's own view
	return n, nil
}

// fenceFanout visits every shard with a revocation procedure —
// continuing past per-shard errors, never aborting early — and
// aggregates the replies. When any shard could not confirm, it returns
// a *PartialFenceError naming the unfenced shard addresses (unless
// every shard refused with ErrNotAdmin, which is reported as plain
// ErrNotAdmin). The fan-out is a hint for latency: servers configured
// with revocation-feed peers replicate the entry to the shards this
// client could not reach.
func (c *Client) fenceFanout(ctx context.Context, proc uint32, arg string) (uint32, error) {
	var agg uint32
	var pf PartialFenceError
	notAdmin := 0
	for _, sh := range c.shards {
		n, err := c.revokeOn(ctx, sh, proc, arg)
		if err != nil {
			if errors.Is(err, ErrNotAdmin) {
				notAdmin++
			}
			pf.Unfenced = append(pf.Unfenced, sh.addr)
			pf.Errs = append(pf.Errs, fmt.Errorf("shard %d (%s): %w", sh.id, sh.addr, err))
			continue
		}
		pf.Fenced = append(pf.Fenced, sh.addr)
		agg += n
	}
	if len(pf.Errs) == 0 {
		return agg, nil
	}
	if notAdmin == len(c.shards) {
		return agg, ErrNotAdmin
	}
	return agg, &pf
}

// RevokeKey asks every shard to revoke a principal (administrators
// only) — revocation, like authority, must span the federation. Every
// shard is visited even when some fail; the total number of credentials
// dropped on the shards that confirmed is returned alongside a
// *PartialFenceError (errors.Is(err, ErrPartialFence)) naming any shard
// that did not. Unfenced shards converge through the server-to-server
// revocation feed when the federation is configured with peers, but
// until then the admin must treat them as open.
func (c *Client) RevokeKey(ctx context.Context, target keynote.Principal) (int, error) {
	n, err := c.fenceFanout(ctx, ExtRevokeKey, string(target))
	return int(n), err
}

// RevokeCredential revokes one credential by its signature value on
// every shard (administrators only). It reports whether any confirming
// shard held the credential; per-shard failures aggregate into a
// *PartialFenceError exactly as with RevokeKey.
func (c *Client) RevokeCredential(ctx context.Context, signatureValue string) (bool, error) {
	n, err := c.fenceFanout(ctx, ExtRevokeCred, signatureValue)
	return n != 0, err
}

// ListCredentials returns the text of every credential in the
// federation, merged across all shards and deduplicated by signature
// value (administrators only) — the view an admin audits to see what
// the revocation feed actually converged. Any unreachable shard fails
// the listing, wrapped with the shard address, so a partial audit is
// never mistaken for a complete one.
func (c *Client) ListCredentials(ctx context.Context) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	for _, sh := range c.shards {
		texts, err := c.listCredentialsOn(ctx, sh)
		if err != nil {
			if errors.Is(err, ErrNotAdmin) {
				return nil, err
			}
			return nil, fmt.Errorf("shard %d (%s): %w", sh.id, sh.addr, err)
		}
		for _, text := range texts {
			key := text
			if as, perr := keynote.ParseAssertions(text); perr == nil && len(as) == 1 && as[0].SignatureValue != "" {
				key = as[0].SignatureValue
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, text)
		}
	}
	return out, nil
}

// ListCredentialsOn lists one shard's session credentials by shard
// index (administrators only) — the per-shard view for auditing how a
// specific server's session differs from the federation's merged set.
func (c *Client) ListCredentialsOn(ctx context.Context, shard int) ([]string, error) {
	if shard < 0 || shard >= len(c.shards) {
		return nil, fmt.Errorf("discfs: no shard %d", shard)
	}
	return c.listCredentialsOn(ctx, c.shards[shard])
}

func (c *Client) listCredentialsOn(ctx context.Context, sh *shard) ([]string, error) {
	d, err := sh.live(ctx).rpc.Call(ctx, ExtProg, ExtVers, ExtListCreds, nil)
	if err != nil {
		return nil, c.wireError(err)
	}
	defer nfs.RecycleReply(d)
	status := d.Uint32()
	if status == extNotAdmin {
		return nil, ErrNotAdmin
	}
	n := d.Count(1 << 16)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.String(maxCredText))
	}
	return out, d.Err()
}

// ServerStats fetches the primary server's policy-engine statistics.
func (c *Client) ServerStats(ctx context.Context) (Stats, error) {
	d, err := c.primary().live(ctx).rpc.Call(ctx, ExtProg, ExtVers, ExtStats, nil)
	if err != nil {
		return Stats{}, err
	}
	defer nfs.RecycleReply(d)
	_ = d.Uint32() // status, always OK
	st := Stats{
		Queries:     d.Uint64(),
		CacheHits:   d.Uint64(),
		CacheMisses: d.Uint64(),
		Credentials: int(d.Uint32()),
		Decisions:   d.Uint64(),
		Denials:     d.Uint64(),
		Commits:     d.Uint64(),
	}
	return st, d.Err()
}

// ---- delegation ----

// Delegate signs, with this client's key, a credential granting holder
// the given compliance value (e.g. "R", "RW") on the object with inode
// ino and everything beneath it — the paper's user-to-user sharing step
// (Bob issues Alice a credential, Figure 1). The credential is returned
// for transmission to the holder (e.g. via email); whoever holds it
// submits it before access. A shard-tagged ino (from a federated
// handle) is untagged: credentials speak the owning server's inode
// numbers, and remain valid when presented to every shard because only
// the owning shard's tree contains that ino.
func (c *Client) Delegate(ctx context.Context, holder keynote.Principal, ino uint64, value, comment string) (*keynote.Assertion, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return keynote.Sign(c.identity, keynote.AssertionSpec{
		Licensees:  keynote.LicenseesOr(holder),
		Conditions: SubtreeConditions(nfs.UntagIno(ino), value, true, ""),
		Comment:    comment,
	})
}

// DelegateWithConditions is Delegate with an extra conditions clause
// ANDed in (e.g. `@hour >= 17 || @hour < 9` or an expiry bound on now).
func (c *Client) DelegateWithConditions(ctx context.Context, holder keynote.Principal, ino uint64, value, extra, comment string) (*keynote.Assertion, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return keynote.Sign(c.identity, keynote.AssertionSpec{
		Licensees:  keynote.LicenseesOr(holder),
		Conditions: SubtreeConditions(nfs.UntagIno(ino), value, true, extra),
		Comment:    comment,
	})
}

// ---- path convenience API ----

// ResolvePath resolves a slash-separated path from the root and returns
// the attributes the server reports for it now.
func (c *Client) ResolvePath(ctx context.Context, path string) (vfs.Attr, error) {
	t, err := c.resolveLeaf(ctx, path)
	return t.attr, c.wireError(err)
}

// ReadFile reads a whole file by path.
func (c *Client) ReadFile(ctx context.Context, path string) ([]byte, error) {
	attr, err := c.ResolvePath(ctx, path)
	if err != nil {
		return nil, err
	}
	data, err := c.shardOf(attr.Handle).nfsc(ctx).ReadAll(ctx, attr.Handle)
	return data, c.wireError(err)
}

// WriteFile creates (or truncates) a file by path and writes data. It
// returns the file's attributes and, when the file was newly created,
// the creator credential text.
func (c *Client) WriteFile(ctx context.Context, path string, data []byte) (vfs.Attr, string, error) {
	t, err := c.resolveLeaf(ctx, path)
	sh := c.shardOf(t.dir)
	attr, cred := t.attr, ""
	switch {
	case err == nil:
		sa := nfs.NewSAttr()
		sa.Size = 0
		if _, err := sh.attrc(ctx).SetAttr(ctx, attr.Handle, sa); err != nil {
			return vfs.Attr{}, "", c.wireError(err)
		}
	case nfs.StatOf(err) == nfs.ErrNoEnt && t.name != "":
		attr, cred, err = c.CreateWithCredential(ctx, t.dir, t.name, 0o644)
		if err != nil {
			return vfs.Attr{}, "", err
		}
	default:
		// A missing directory, or a throttled or otherwise-failed lookup,
		// is not a missing file: racing into CREATE would turn a
		// transient refusal into EEXIST.
		return vfs.Attr{}, "", c.wireError(err)
	}
	if err := sh.nfsc(ctx).WriteAll(ctx, attr.Handle, data); err != nil {
		return vfs.Attr{}, "", c.wireError(err)
	}
	// Durability barrier: against a write-behind server the WRITEs above
	// are unstable until committed (WriteFile promises written-on-return,
	// like the File Close barrier does). Its reply carries the file's
	// attributes as written, which are the ones to return and to cache.
	attr, _, err = sh.attrc(ctx).Commit(ctx, attr.Handle)
	if err != nil {
		return vfs.Attr{}, "", c.wireError(err)
	}
	return attr, cred, nil
}

// MkdirPath creates one directory by path, returning the credential.
func (c *Client) MkdirPath(ctx context.Context, path string) (attr vfs.Attr, cred string, err error) {
	parts := splitParts(path)
	err = c.resolving(func(w *walk) error {
		t, err := w.parent(ctx, parts)
		if err != nil {
			return c.wireError(err)
		}
		attr, cred, err = c.MkdirWithCredential(ctx, t.dir, t.name, 0o755)
		return err
	})
	return attr, cred, err
}

// Rename renames fromPath to toPath. Under federation both must live
// on the same shard: two independent servers cannot rename atomically,
// so a cross-shard rename fails with ErrXDev — the classic EXDEV
// contract at a mount boundary; callers fall back to copy-and-delete.
func (c *Client) Rename(ctx context.Context, fromPath, toPath string) error {
	fromParts, toParts := splitParts(fromPath), splitParts(toPath)
	return c.wireError(c.resolving(func(w *walk) error {
		from, err := w.parent(ctx, fromParts)
		if err != nil {
			return err
		}
		to, err := w.parent(ctx, toParts)
		if err != nil {
			return err
		}
		sh := c.shardOf(from.dir)
		if sh != c.shardOf(to.dir) {
			return fmt.Errorf("core: rename %s -> %s: %w", fromPath, toPath, ErrXDev)
		}
		return sh.attrc(ctx).Rename(ctx, from.dir, from.name, to.dir, to.name)
	}))
}

// List returns the directory entries at path. Listing the shard
// subtree merges every shard's children (deduplicated by name, sorted).
func (c *Client) List(ctx context.Context, path string) ([]nfs.DirEntry, error) {
	if c.table != nil && c.table.Sharded(fed.Clean(path)) {
		return c.listSharded(ctx)
	}
	attr, err := c.ResolvePath(ctx, path)
	if err != nil {
		return nil, err
	}
	ents, err := c.shardOf(attr.Handle).nfsc(ctx).ReadDirAll(ctx, attr.Handle)
	return ents, c.wireError(err)
}

func (c *Client) listSharded(ctx context.Context) ([]nfs.DirEntry, error) {
	seen := make(map[string]bool)
	var out []nfs.DirEntry
	for id, sh := range c.shards {
		var ents []nfs.DirEntry
		err := c.resolving(func(w *walk) error {
			sdir, err := w.subtree(ctx, id)
			if err != nil {
				return err
			}
			ents, err = sh.nfsc(ctx).ReadDirAll(ctx, sdir)
			return err
		})
		if err != nil {
			return nil, c.wireError(err)
		}
		for _, e := range ents {
			if seen[e.Name] {
				continue
			}
			seen[e.Name] = true
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// DialWithCredentials attaches and immediately submits the given
// credentials — the wallet pattern: a user keeps received credentials
// locally and presents them at every attach, as the paper's clients
// resubmit (or rely on server-side caching of) their chains.
// Clients needing both credentials and cache options can Dial with the
// options and call SubmitCredentials themselves.
func DialWithCredentials(ctx context.Context, addr string, identity *keynote.KeyPair, creds ...*keynote.Assertion) (*Client, error) {
	c, err := Dial(ctx, addr, identity)
	if err != nil {
		return nil, err
	}
	if len(creds) > 0 {
		if _, err := c.SubmitCredentials(ctx, creds...); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// WalkFunc is called by Walk for every visited entry with its
// slash-separated path from the mount root.
type WalkFunc func(path string, attr vfs.Attr) error

// Walk traverses the mounted tree depth-first, calling fn for every
// entry the client's credentials allow it to see. Permission errors on
// individual subtrees are skipped (the walk visits what the caller may
// see, like ls -R under Unix permissions); other errors abort. Under
// federation the walk spans shards: the shard subtree is the merged,
// name-sorted union of every shard's children (a shard that denies
// access — e.g. after a revocation there — simply drops out of the
// merge), and graft points are descended into on their target shard.
func (c *Client) Walk(ctx context.Context, fn WalkFunc) error {
	return c.walkDir(ctx, c.primary().root(ctx), "", fn)
}

// walkEnt is one directory entry paired with the shard and parent
// directory it came from, so attribute fallback lookups address the
// right server.
type walkEnt struct {
	ent    nfs.DirEntryPlus
	sh     *shard
	parent vfs.Handle
}

// shardDenied reports errors on which a merged walk drops the shard's
// contribution instead of failing: the shard denied access, or this
// identity has been revoked there (the server cuts a revoked
// principal's connections, and the redial's poisoned link surfaces
// ErrRevoked). err may be raw or already classified by wireError.
func shardDenied(err error) bool {
	return nfs.StatOf(err) == nfs.ErrAcces || errors.Is(err, ErrAccessDenied) || errors.Is(err, ErrRevoked)
}

// readDirRetry lists dir on sh, retrying once when the shard's link
// died mid-call — a revocation landing on the server cuts the
// connection under the walk's feet. The retry goes through the redial
// path, which either restores the link or (when the server refuses the
// handshake for a revoked identity) poisons it with ErrRevoked, the
// error the walk's drop conditions understand.
func (c *Client) readDirRetry(ctx context.Context, sh *shard, dir vfs.Handle) ([]nfs.DirEntryPlus, error) {
	ents, err := sh.attrc(ctx).ReadDirPlusAll(ctx, dir)
	if err != nil && ctx.Err() == nil && sh.link.Load().rpc.Broken() {
		ents, err = sh.attrc(ctx).ReadDirPlusAll(ctx, dir)
	}
	return ents, err
}

func (c *Client) walkDir(ctx context.Context, dir vfs.Handle, prefix string, fn WalkFunc) error {
	ents, err := c.walkList(ctx, dir, prefix)
	if err != nil {
		return err
	}
	for _, we := range ents {
		e := we.ent
		attr := e.Attr
		if !e.HasAttr {
			var err error
			attr, err = we.sh.attrc(ctx).Lookup(ctx, we.parent, e.Name)
			if err != nil {
				werr := c.wireError(err)
				if st := nfs.StatOf(err); st == nfs.ErrAcces || st == nfs.ErrNoEnt || errors.Is(werr, ErrRevoked) {
					continue
				}
				return werr
			}
		}
		path := prefix + "/" + e.Name
		if err := fn(path, attr); err != nil {
			return err
		}
		if attr.Type == vfs.TypeDir {
			if err := c.walkDir(ctx, attr.Handle, path, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// walkList lists one directory for Walk, applying federation routing.
// One batched listing carries the names and (usually) the attributes;
// entries whose attributes the server could not piggyback fall back to
// individual cached lookups. Against servers without READDIRPLUS the
// call itself degrades to READDIR plus per-name LOOKUP.
func (c *Client) walkList(ctx context.Context, dir vfs.Handle, prefix string) ([]walkEnt, error) {
	dirPath := prefix
	if dirPath == "" {
		dirPath = "/"
	}
	var out []walkEnt
	if c.table != nil && c.table.Sharded(dirPath) {
		// The shard subtree is the union of every shard's copy; a shard
		// that refuses the listing (revoked or never authorized there)
		// contributes nothing rather than cutting the whole walk.
		seen := make(map[string]bool)
		for id, sh := range c.shards {
			var sdir vfs.Handle
			var ents []nfs.DirEntryPlus
			err := c.resolving(func(w *walk) (err error) {
				if sdir, err = w.subtree(ctx, id); err != nil {
					return err
				}
				ents, err = c.readDirRetry(ctx, sh, sdir)
				return err
			})
			if err != nil {
				if err = c.wireError(err); shardDenied(err) {
					continue
				}
				return nil, err
			}
			for _, e := range ents {
				if seen[e.Name] {
					continue
				}
				seen[e.Name] = true
				out = append(out, walkEnt{e, sh, sdir})
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ent.Name < out[j].ent.Name })
		return out, nil
	}
	sh := c.shardOf(dir)
	ents, err := c.readDirRetry(ctx, sh, dir)
	if err != nil {
		if shardDenied(err) {
			return nil, nil
		}
		return nil, c.wireError(err)
	}
	for _, e := range ents {
		out = append(out, walkEnt{e, sh, dir})
	}
	if c.table != nil {
		// Graft points surface as entries of the target shard's root,
		// whether or not the parent holds a placeholder of the same name.
		for _, name := range c.table.GraftsUnder(dirPath) {
			g, _ := c.table.Graft(joinPath(dirPath, name))
			gsh := c.shards[g]
			groot := gsh.root(ctx)
			a, err := gsh.attrc(ctx).GetAttr(ctx, groot)
			if err != nil {
				if shardDenied(err) {
					continue
				}
				return nil, c.wireError(err)
			}
			ge := walkEnt{nfs.DirEntryPlus{Name: name, Handle: a.Handle, Attr: a, HasAttr: true}, gsh, groot}
			replaced := false
			for i := range out {
				if out[i].ent.Name == name {
					out[i], replaced = ge, true
					break
				}
			}
			if !replaced {
				out = append(out, ge)
			}
		}
	}
	return out, nil
}
