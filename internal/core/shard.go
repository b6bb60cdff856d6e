package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"discfs/internal/keynote"
	"discfs/internal/nfs"
	"discfs/internal/secchan"
	"discfs/internal/sunrpc"
	"discfs/internal/vfs"
)

// redialsTotal counts transparent re-establishments of lost shard
// links, process-wide.
// Bridged into the metrics registries as discfs_redials_total.
var redialsTotal atomic.Uint64

// RedialsTotal reports how many lost connections clients in this
// process have transparently re-established.
func RedialsTotal() uint64 { return redialsTotal.Load() }

// Redial backoff bounds: the first re-attempt is immediate (a lost
// connection usually means one failed server restarting), then failed
// attempts back off exponentially up to the cap.
const (
	redialBase = 50 * time.Millisecond
	redialCap  = 5 * time.Second
)

// backoff tracks capped exponential backoff for one shard's redials.
// Guarded by the shard's mutex.
type backoff struct {
	fails int
	next  time.Time
}

func (b *backoff) due(now time.Time) bool { return !now.Before(b.next) }

func (b *backoff) fail(now time.Time) {
	d := redialBase << b.fails
	if d > redialCap || d <= 0 {
		d = redialCap
	} else {
		b.fails++
	}
	b.next = now.Add(d)
}

func (b *backoff) reset() { *b = backoff{} }

// shard is the client's connection state for one federated server: the
// one secure channel with its RPC/NFS clients and attribute cache, the
// granted transfer size and the server's boot verifier. Every RPC to the
// server, data and metadata alike, travels over that channel. A
// single-server client is one shard.
type shard struct {
	c    *Client
	id   int
	addr string

	// mu serializes redials; link is lock-free on the read path so
	// every operation pays one atomic load, not a mutex.
	mu     sync.Mutex
	redial backoff
	link   atomic.Pointer[shardLink]

	// xfer is this shard's granted per-RPC transfer size: the most one
	// READ/WRITE carries and the cluster window of its data caches.
	// Each shard's server grants its own.
	xfer   uint32
	server keynote.Principal
	// ver is the server's boot verifier as last seen: set by every
	// attach and advanced by every COMMIT reply a data cache gets. A new
	// data cache takes it as its COMMIT baseline.
	ver atomic.Uint64
}

// shardLink is one generation of a shard's connection. Replaced
// wholesale on redial so in-flight users of the old generation fail
// with the dead connection's sticky error rather than observing a
// half-swapped link.
type shardLink struct {
	conn  *secchan.Conn
	rpc   *sunrpc.Client
	nfs   *nfs.Client
	attrs *nfs.CachingClient
	root  vfs.Handle // mount root, shard-tagged
}

// dialShard brings up the initial connection to one server.
func dialShard(ctx context.Context, c *Client, id int, addr string) (*shard, error) {
	sh := &shard{c: c, id: id, addr: addr}
	ln, err := sh.connect(ctx)
	if err != nil {
		return nil, err
	}
	sh.xfer = ln.nfs.MaxData()
	sh.server = ln.conn.Peer()
	sh.link.Store(ln)
	return sh, nil
}

// connect dials the shard's server and brings up a complete link:
// secure channel, RPC and NFS clients (stamped with the shard id for
// handle tagging), attribute cache. The attach sends no RPC: the
// handshake's accept record carries the root handle, transfer grant and
// boot verifier (kept in sh.ver). A server that sends no such welcome
// lacks the extensions the client issues unconditionally, so the
// attach fails here, typed, rather than midway through a later call.
func (sh *shard) connect(ctx context.Context) (*shardLink, error) {
	conn, err := secchan.DialContext(ctx, sh.addr, secchan.Config{Identity: sh.c.identity})
	if err != nil {
		if errors.Is(err, secchan.ErrKeyRevoked) {
			return nil, fmt.Errorf("%w: %w", ErrRevoked, err)
		}
		return nil, err
	}
	rpc := sunrpc.NewClient(conn)
	nc := nfs.NewClient(rpc)
	nc.SetShard(sh.id)
	root, ver, err := nc.Attach(conn.Welcome())
	if err != nil {
		rpc.Close()
		return nil, fmt.Errorf("%w: %s: %w", ErrUnsupportedServer, sh.addr, err)
	}
	sh.c.observeRPC(sh.id, rpc)
	sh.ver.Store(ver)
	return &shardLink{
		conn:  conn,
		rpc:   rpc,
		nfs:   nc,
		attrs: nfs.NewCachingClient(nc),
		root:  root,
	}, nil
}

// live returns the shard's current link, transparently redialing one
// whose connection has died. While an attempt is backing off (or
// fails), the dead link is returned and calls on it fail fast with the
// sticky transport error — the next caller after the backoff window
// retries. Server sessions are keyed by principal, not connection, so
// a redial needs no credential replay.
func (sh *shard) live(ctx context.Context) *shardLink {
	ln := sh.link.Load()
	if !ln.rpc.Broken() {
		return ln
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ln = sh.link.Load()
	if !ln.rpc.Broken() || sh.c.closed.Load() {
		return ln
	}
	if !sh.redial.due(time.Now()) {
		return ln
	}
	nl, err := sh.connect(ctx)
	if err != nil {
		sh.redial.fail(time.Now())
		if errors.Is(err, ErrRevoked) {
			// The server refused the handshake because this identity is
			// revoked: the link can never come back, so poison it — every
			// call on the shard now surfaces the revocation instead of
			// the stale transport error of the cut connection.
			ln.rpc.Fail(err)
		}
		return ln
	}
	// Keep the original grant: the server-side bound is global, and the
	// data caches already run at the old granule.
	nl.nfs.SetMaxData(sh.xfer)
	sh.redial.reset()
	redialsTotal.Add(1)
	ln.rpc.Close()
	sh.link.Store(nl)
	return nl
}

func (sh *shard) nfsc(ctx context.Context) *nfs.Client         { return sh.live(ctx).nfs }
func (sh *shard) attrc(ctx context.Context) *nfs.CachingClient { return sh.live(ctx).attrs }
func (sh *shard) root(ctx context.Context) vfs.Handle          { return sh.live(ctx).root }

// observeRPC wires per-shard request-count and latency metrics into
// one RPC connection.
func (c *Client) observeRPC(id int, rpc *sunrpc.Client) {
	if c.shardReqs == nil {
		return
	}
	label := strconv.Itoa(id)
	cnt := c.shardReqs.With(label)
	hist := c.shardLat.With(label)
	rpc.SetObserver(func(d time.Duration, err error) {
		cnt.Inc()
		hist.Observe(d.Seconds())
	})
}
