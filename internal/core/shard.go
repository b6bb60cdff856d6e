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

// redialsTotal counts transparent re-establishments of lost client
// connections — main shard links and data-pool slots — process-wide.
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

// backoff tracks capped exponential backoff for one connection slot.
// Guarded by the slot's mutex.
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
// main secure channel with its RPC/NFS clients and attribute cache,
// the negotiated transfer size, and the lazily dialed data-connection
// pool. A single-server client is one shard.
type shard struct {
	c    *Client
	id   int
	addr string

	// mu serializes main-link redials; link is lock-free on the read
	// path so every operation pays one atomic load, not a mutex.
	mu     sync.Mutex
	redial backoff
	link   atomic.Pointer[shardLink]

	// xfer is this shard's negotiated per-RPC transfer size: the most
	// one READ/WRITE carries and the cluster window of its data caches.
	// Shards negotiate independently.
	xfer   uint32
	server keynote.Principal

	poolClosed atomic.Bool
	pool       []ioConn
}

// shardLink is one generation of a shard's main connection. Replaced
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
	sh := &shard{c: c, id: id, addr: addr, pool: make([]ioConn, ioPoolSize)}
	ln, xfer, err := sh.connect(ctx, nfs.DefaultMaxTransfer)
	if err != nil {
		return nil, err
	}
	sh.xfer = xfer
	sh.server = ln.conn.Peer()
	sh.link.Store(ln)
	return sh, nil
}

// connect dials the shard's server and brings up a complete link:
// secure channel, RPC and NFS clients (stamped with the shard id for
// handle tagging), mount, transfer-size negotiation, attribute cache.
func (sh *shard) connect(ctx context.Context, propose uint32) (*shardLink, uint32, error) {
	conn, err := secchan.DialContext(ctx, sh.addr, secchan.Config{Identity: sh.c.identity})
	if err != nil {
		if errors.Is(err, secchan.ErrKeyRevoked) {
			return nil, 0, fmt.Errorf("%w: %w", ErrRevoked, err)
		}
		return nil, 0, err
	}
	rpc := sunrpc.NewClient(conn)
	sh.c.observeRPC(sh.id, rpc)
	nc := nfs.NewClient(rpc)
	nc.SetShard(sh.id)
	root, err := nc.Mount(ctx, "/discfs")
	if err != nil {
		rpc.Close()
		return nil, 0, fmt.Errorf("core: mount %s: %w", sh.addr, err)
	}
	// Negotiate the connection's transfer size (FSINFO-style): the
	// client proposes, the server clamps. FSINFO is also the one place
	// the client checks that the server speaks this protocol at all: a
	// server that refuses the procedure has none of the extensions
	// (COMMIT, READDIRPLUS, LOOKUPPLUS) the client issues unconditionally
	// afterwards, so the attach fails here, typed, rather than midway
	// through some later operation.
	xfer, err := nc.Negotiate(ctx, propose)
	if err != nil {
		rpc.Close()
		var re *sunrpc.RPCError
		if errors.As(err, &re) && (re.Stat == sunrpc.ProcUnavail || re.Stat == sunrpc.ProgMismatch) {
			return nil, 0, fmt.Errorf("%w: %s: %w", ErrUnsupportedServer, sh.addr, err)
		}
		return nil, 0, fmt.Errorf("core: negotiate transfer size: %w", err)
	}
	return &shardLink{
		conn:  conn,
		rpc:   rpc,
		nfs:   nc,
		attrs: nfs.NewCachingClient(nc),
		root:  root,
	}, xfer, nil
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
	nl, _, err := sh.connect(ctx, sh.xfer)
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

// ioPoolSize is the number of extra data-path connections a shard may
// open (in addition to its main connection).
const ioPoolSize = 8

// ioConn is one lazily dialed data-path connection slot. The per-slot
// mutex keeps a slow dial from serializing the rest of the pool.
type ioConn struct {
	mu     sync.Mutex
	redial backoff
	// lost marks that a previously working connection died, so the
	// next successful dial counts as a redial rather than first use.
	lost bool
	rpc  *sunrpc.Client
	nfs  *nfs.Client
}

// dataConn returns an NFS client for bulk data transfer number i,
// dialing the pool slot on first use. A slot whose connection died
// mid-session is redialed under capped exponential backoff; while the
// slot is down (and on any dial failure) the main connection serves.
func (sh *shard) dataConn(ctx context.Context, i int64) *nfs.Client {
	if len(sh.pool) == 0 || sh.poolClosed.Load() {
		return sh.nfsc(ctx)
	}
	s := &sh.pool[int(i)%len(sh.pool)]
	s.mu.Lock()
	if s.nfs != nil && s.rpc.Broken() {
		// The connection dropped mid-session: retire it and fall
		// through to the redial path (first re-attempt immediate).
		s.rpc.Close()
		s.rpc, s.nfs = nil, nil
		s.lost = true
	}
	if s.nfs == nil && s.redial.due(time.Now()) {
		conn, err := secchan.DialContext(ctx, sh.addr, secchan.Config{Identity: sh.c.identity})
		switch {
		case err == nil && sh.poolClosed.Load():
			// A Close that raced this dial wins: abandon the connection
			// rather than leak it past closePool.
			conn.Close()
		case err == nil:
			s.rpc = sunrpc.NewClient(conn)
			sh.c.observeRPC(sh.id, s.rpc)
			s.nfs = nfs.NewClient(s.rpc)
			s.nfs.SetShard(sh.id)
			// Same server, same grant: adopt the negotiated size without
			// a second FSINFO round trip (the server-side bound is
			// global, not per-connection).
			s.nfs.SetMaxData(sh.xfer)
			if s.lost {
				s.lost = false
				redialsTotal.Add(1)
			}
			s.redial.reset()
		case ctx.Err() != nil:
			// The triggering operation's context expired mid-dial; that
			// says nothing about the server, so let a later caller retry
			// without a backoff penalty.
		default:
			s.redial.fail(time.Now())
		}
	}
	nc := s.nfs
	s.mu.Unlock()
	if nc == nil {
		return sh.nfsc(ctx)
	}
	return nc
}

// closePool tears down the data-path connections and stops new dials.
func (sh *shard) closePool() {
	sh.poolClosed.Store(true)
	for i := range sh.pool {
		s := &sh.pool[i]
		s.mu.Lock()
		if s.rpc != nil {
			s.rpc.Close()
			s.rpc, s.nfs = nil, nil
		}
		s.mu.Unlock()
	}
}

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
