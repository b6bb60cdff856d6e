package sunrpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"discfs/internal/bufpool"
	"discfs/internal/xdr"
)

// Client is a concurrent ONC RPC client over a single connection.
// Multiple goroutines may issue calls; replies are matched by xid.
type Client struct {
	conn io.ReadWriteCloser

	wmu  sync.Mutex // serializes record writes
	mu   sync.Mutex // guards xid, pending, err, obs
	xid  uint32
	pend map[uint32]chan clientReply
	err  error // sticky connection failure
	obs  func(d time.Duration, err error)
}

type clientReply struct {
	data []byte
	err  error
}

// NewClient wraps an established connection (plain TCP or a secure
// channel) and starts the reply reader.
func NewClient(conn io.ReadWriteCloser) *Client {
	c := &Client{
		conn: conn,
		xid:  1,
		pend: make(map[uint32]chan clientReply),
	}
	go c.readLoop()
	return c
}

// Close tears down the connection; outstanding calls fail.
func (c *Client) Close() error { return c.conn.Close() }

// Broken reports whether the connection has failed: once the read loop
// or a write poisons the client, every further call returns the sticky
// error, so the owner should redial rather than retry.
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// Fail poisons the client: the connection is closed and every current
// and future call fails with err. Owners use it when a redial learns
// the link can never come back (the server refused the handshake for a
// revoked identity), so callers see the cause rather than the stale
// transport error of the cut connection. Unlike internal poisoning,
// Fail overrides an earlier sticky error.
func (c *Client) Fail(err error) {
	c.mu.Lock()
	c.err = err
	for xid, ch := range c.pend {
		delete(c.pend, xid)
		ch <- clientReply{err: err}
	}
	c.mu.Unlock()
	c.conn.Close()
}

// SetObserver installs a per-call hook invoked with each call's
// duration and outcome (nil on success). Used for per-connection
// request/latency metrics; pass nil to disable.
func (c *Client) SetObserver(obs func(d time.Duration, err error)) {
	c.mu.Lock()
	c.obs = obs
	c.mu.Unlock()
}

func (c *Client) observe(start time.Time, err error) {
	c.mu.Lock()
	obs := c.obs
	c.mu.Unlock()
	if obs != nil {
		obs(time.Since(start), err)
	}
}

func (c *Client) readLoop() {
	mr := newMsgReader(c.conn)
	defer mr.release()
	for {
		rec, err := mr.next()
		if err != nil {
			c.failAll(err)
			return
		}
		d := xdr.NewDecoder(rec[headerRoom:])
		xid := d.Uint32()
		c.mu.Lock()
		ch, ok := c.pend[xid]
		if ok {
			delete(c.pend, xid)
		}
		c.mu.Unlock()
		if ok {
			// Ownership of the pooled record passes to the caller with
			// the reply (see Call).
			ch <- clientReply{data: rec}
		} else {
			bufpool.Put(rec) // late reply for an abandoned call
		}
	}
}

func (c *Client) failAll(err error) {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		// First failure wins: a Fail-installed cause is not clobbered by
		// the read loop observing the connection it just closed.
		c.err = err
	}
	for xid, ch := range c.pend {
		delete(c.pend, xid)
		ch <- clientReply{err: c.err}
	}
}

// Call invokes (prog, vers, proc) with pre-encoded args and returns a
// decoder positioned at the start of the results.
//
// The decoder's backing buffer is a pooled record whose ownership
// passes to the caller; data obtained from it (Opaque aliases) stays
// valid for as long as the caller keeps it.
//
// Call honors ctx: a canceled or expired context abandons the in-flight
// call immediately and returns ctx.Err(). The request may still execute
// on the server — cancellation releases the caller, it does not undo
// side effects already dispatched.
func (c *Client) Call(ctx context.Context, prog, vers, proc uint32, args []byte) (*xdr.Decoder, error) {
	return c.CallAppend(ctx, prog, vers, proc, len(args), func(e *xdr.Encoder) {
		e.OpaqueFixed(args)
	})
}

// CallAppend is Call with the procedure arguments encoded directly into
// the outgoing record by encodeArgs — the append-free path for bulk
// payloads (a WRITE's data is copied exactly once, into the wire
// record). sizeHint presizes the record buffer (0 is fine).
func (c *Client) CallAppend(ctx context.Context, prog, vers, proc uint32, sizeHint int, encodeArgs func(*xdr.Encoder)) (*xdr.Decoder, error) {
	start := time.Now()
	d, err := c.callAppend(ctx, prog, vers, proc, sizeHint, encodeArgs)
	c.observe(start, err)
	return d, err
}

func (c *Client) callAppend(ctx context.Context, prog, vers, proc uint32, sizeHint int, encodeArgs func(*xdr.Encoder)) (*xdr.Decoder, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	xid := c.xid
	c.xid++
	ch := make(chan clientReply, 1)
	c.pend[xid] = ch
	c.mu.Unlock()

	e := xdr.NewEncoderWith(bufpool.Get(headerRoom + 64 + sizeHint))
	e.Reserve(headerRoom) // record-marking header, patched by writeFramed
	encodeCall(e, callHeader{
		Xid:  xid,
		Prog: prog,
		Vers: vers,
		Proc: proc,
		Cred: OpaqueAuth{Flavor: AuthNone},
		Verf: OpaqueAuth{Flavor: AuthNone},
	})
	encodeArgs(e)

	msg := e.Bytes()
	err := c.writeCancelable(ctx, msg)
	bufpool.Put(msg)
	if err != nil {
		c.mu.Lock()
		delete(c.pend, xid)
		c.mu.Unlock()
		return nil, err
	}

	select {
	case rep := <-ch:
		if rep.err != nil {
			return nil, rep.err
		}
		d, err := decodeReply(rep.data)
		if err != nil {
			bufpool.Put(rep.data) // envelope-level failure: nothing aliases it
		}
		return d, err
	case <-ctx.Done():
		// Unregister so a late reply is dropped; the buffered channel
		// keeps the reader from blocking if it already claimed the entry.
		c.mu.Lock()
		delete(c.pend, xid)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// writeDeadliner is satisfied by transports whose blocked writes can be
// interrupted (net.Conn, secchan.Conn).
type writeDeadliner interface {
	SetWriteDeadline(t time.Time) error
}

// writeCancelable sends one framed record (headerRoom-prefixed) under
// wmu. When the transport supports write deadlines, a context that
// expires mid-write forces the blocked write to fail instead of wedging
// the caller (and everyone queued on wmu) forever; the interrupted
// record leaves the connection mid-frame, so the resulting transport
// error poisons it for all callers — the correct outcome for an
// undeliverable request.
func (c *Client) writeCancelable(ctx context.Context, rec []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	wd, ok := c.conn.(writeDeadliner)
	if ok && ctx.Done() != nil {
		// context.AfterFunc avoids a goroutine per call; the poisoned
		// channel joins a callback that already started, so a late poison
		// cannot land on the shared connection after the deadline reset.
		poisoned := make(chan struct{})
		stop := context.AfterFunc(ctx, func() {
			_ = wd.SetWriteDeadline(time.Unix(1, 0))
			close(poisoned)
		})
		defer func() {
			if !stop() {
				<-poisoned
			}
			_ = wd.SetWriteDeadline(time.Time{})
		}()
	}
	err := writeFramed(c.conn, rec)
	if err != nil && ctx.Err() != nil {
		// The record may be half-sent; close so the read loop fails every
		// pending call instead of desynchronizing on the next frame.
		c.conn.Close()
		return ctx.Err()
	}
	return err
}

// decodeReply validates the RPC reply envelope of a headerRoom-prefixed
// record and returns a decoder over the procedure results. The decoder
// is built over the whole record, so its Buffer is what goes back to
// the pool.
func decodeReply(rec []byte) (*xdr.Decoder, error) {
	d := xdr.NewDecoder(rec)
	_ = d.OpaqueFixed(headerRoom) // record mark
	_ = d.Uint32()                // xid, already matched
	if mt := d.Uint32(); mt != msgTypeReply {
		return nil, fmt.Errorf("sunrpc: message type %d is not a reply", mt)
	}
	switch stat := d.Uint32(); stat {
	case replyStatAccepted:
		_ = decodeAuth(d) // verf
		astat := AcceptStat(d.Uint32())
		if d.Err() != nil {
			return nil, d.Err()
		}
		if astat != Success {
			return nil, &RPCError{Stat: astat}
		}
		return d, nil
	case replyStatDenied:
		reason := d.Uint32()
		if d.Err() != nil {
			return nil, d.Err()
		}
		switch reason {
		case rejectRPCMismatch:
			return nil, fmt.Errorf("%w: rpc version mismatch", ErrDenied)
		case rejectAuthError:
			return nil, fmt.Errorf("%w: authentication error", ErrDenied)
		}
		return nil, fmt.Errorf("%w: reason %d", ErrDenied, reason)
	default:
		return nil, errors.New("sunrpc: bad reply status")
	}
}
