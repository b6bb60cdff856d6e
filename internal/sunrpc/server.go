package sunrpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"discfs/internal/bufpool"
	"discfs/internal/xdr"
)

// PeerIdentifier is implemented by transports that authenticate the
// remote end (the secure channel). When a server connection implements
// it, handlers receive the peer identity in the call Context.
type PeerIdentifier interface {
	PeerID() string
}

// Context carries per-call transport information to procedure handlers.
type Context struct {
	// Peer is the authenticated identity of the caller ("" over plain
	// TCP). For DisCFS this is the client's canonical principal.
	Peer string
	// RemoteAddr is the transport address of the caller.
	RemoteAddr net.Addr
}

// Handler executes one procedure. It decodes arguments from args and
// encodes results into res. Returning a non-Success status discards res
// and reports the status to the caller; returning an error produces
// SystemErr.
//
// Buffer contract: the args decoder's backing record is pooled and
// recycled as soon as the handler returns — a handler that retains any
// decoded bytes (an Opaque alias) past its return must copy them. res
// writes directly into the reply record, so results are encoded exactly
// once.
type Handler func(ctx *Context, proc uint32, args *xdr.Decoder, res *xdr.Encoder) (AcceptStat, error)

// progVers keys the dispatch table.
type progVers struct {
	prog, vers uint32
}

// Server is an ONC RPC server multiplexing any number of programs over
// one listener.
type Server struct {
	mu       sync.RWMutex
	handlers map[progVers]Handler
	versions map[uint32][2]uint32 // prog -> [low, high] for ProgMismatch replies

	// sem bounds concurrently executing procedure calls across all
	// connections (maxInFlight slots).
	sem chan struct{}

	wg        sync.WaitGroup
	lnMu      sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	closed    bool

	// drainMu/draining fence dispatch during graceful drain: once set,
	// new records are answered ServerBusy without executing while
	// in-flight handlers (tracked by hwg) run to completion.
	drainMu  sync.Mutex
	draining bool
	hwg      sync.WaitGroup

	requests  atomic.Uint64
	queueFull atomic.Uint64
	busy      atomic.Uint64
	inflight  atomic.Int64
}

// Stats are cumulative server-side RPC transport counters.
type Stats struct {
	// Requests counts records received for dispatch.
	Requests uint64
	// QueueFull counts records that found the in-flight cap saturated
	// and had to wait for a slot (the backpressure signal).
	QueueFull uint64
	// Busy counts records refused with ServerBusy (saturation beyond
	// the bounded wait, or drain).
	Busy uint64
	// InFlight is the number of handlers executing right now.
	InFlight int64
}

// Stats samples the transport counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:  s.requests.Load(),
		QueueFull: s.queueFull.Load(),
		Busy:      s.busy.Load(),
		InFlight:  s.inflight.Load(),
	}
}

// maxInFlight bounds concurrently executing procedure calls across
// all connections; a record that finds every slot taken waits up to
// queueWait for one. Pipelined clients occupy a handler goroutine per
// call in flight; without a bound a flood of calls (or a stress test)
// can exhaust memory with waiting handler goroutines. A slot is held only while the
// handler runs — not across the reply write — so a stalled reader
// cannot starve other connections.
const maxInFlight = 1024

// maxPerConnPipeline bounds the records a single connection may have in
// flight (executing or awaiting their reply write). It keeps one client
// that stops reading replies from parking unbounded goroutines, without
// letting it pin the server-wide execution semaphore.
const maxPerConnPipeline = 256

// maxIdleHandlers bounds the handler goroutines a connection keeps
// parked between records. A parked handler's stack has already grown to
// what dispatch needs, so reusing it spares the next record the stack
// growth a fresh goroutine pays; past the bound, a handler that finishes
// exits, so the goroutines a burst started return to this many.
const maxIdleHandlers = 4

// queueWait is the bounded wait for an execution slot at saturation;
// beyond it the record is refused with ServerBusy so callers can tell
// backpressure from a hung server.
const queueWait = time.Second

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		handlers: make(map[progVers]Handler),
		versions: make(map[uint32][2]uint32),
		sem:      make(chan struct{}, maxInFlight),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Register installs a handler for (prog, vers).
func (s *Server) Register(prog, vers uint32, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[progVers{prog, vers}] = h
	lo, hi := vers, vers
	if v, ok := s.versions[prog]; ok {
		lo, hi = v[0], v[1]
		if vers < lo {
			lo = vers
		}
		if vers > hi {
			hi = vers
		}
	}
	s.versions[prog] = [2]uint32{lo, hi}
}

// Serve accepts connections from ln until Close. It blocks. A server
// may serve several listeners concurrently (e.g. a secure channel and a
// plain TCP endpoint). Close waits for Serve to return, and every
// wg.Add is taken under lnMu after the closed check, so none can race a
// Close already waiting on wg.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		ln.Close()
		return errors.New("sunrpc: server closed")
	}
	s.listeners = append(s.listeners, ln)
	s.wg.Add(1)
	s.lnMu.Unlock()
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		s.lnMu.Lock()
		closed := s.closed
		if err == nil && !closed {
			s.wg.Add(1)
		}
		s.lnMu.Unlock()
		switch {
		case closed:
			if err == nil {
				conn.Close()
			}
			return nil
		case err != nil:
			return err
		}
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// Close stops every listener, cuts live connections, and waits for
// their handlers to wind down. It is the hard stop — connections are
// not drained (that is Drain's job), so a federated server whose peers
// hold long-lived feed connections into it still terminates.
func (s *Server) Close() error {
	s.lnMu.Lock()
	s.closed = true
	lns := s.listeners
	s.listeners = nil
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.lnMu.Unlock()
	var err error
	for _, ln := range lns {
		if e := ln.Close(); e != nil && err == nil {
			err = e
		}
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// ClosePeer closes every live connection whose transport identifies its
// peer (PeerIdentifier) as id, and returns how many it closed. The
// authorization layer uses it to cut a revoked principal's sessions the
// moment the revocation is applied, instead of waiting for the next
// call to fail its credential check.
func (s *Server) ClosePeer(id string) int {
	s.lnMu.Lock()
	var victims []net.Conn
	for conn := range s.conns {
		if pi, ok := conn.(PeerIdentifier); ok && pi.PeerID() == id {
			victims = append(victims, conn)
		}
	}
	s.lnMu.Unlock()
	for _, conn := range victims {
		conn.Close()
	}
	return len(victims)
}

// ServeConn processes RPC calls from a single connection until EOF.
// Exported so transports that perform their own accept loop (the secure
// channel listener) can hand connections to the RPC layer.
func (s *Server) ServeConn(conn net.Conn) {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		conn.Close()
		return
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	s.lnMu.Unlock()
	defer func() {
		s.lnMu.Lock()
		delete(s.conns, conn)
		s.lnMu.Unlock()
		conn.Close()
	}()
	ctx := &Context{RemoteAddr: conn.RemoteAddr()}
	if pi, ok := conn.(PeerIdentifier); ok {
		ctx.Peer = pi.PeerID()
	}
	mr := newMsgReader(conn)
	defer mr.release()
	var wmu sync.Mutex // replies may be written from concurrent handlers
	connSem := make(chan struct{}, maxPerConnPipeline)
	// NFS clients pipeline requests; each call runs on a handler
	// goroutine of this connection so a slow operation does not stall
	// the connection. A handler that has answered its record parks for
	// the next one, unless maxIdleHandlers are parked already; a record
	// that finds no handler parked starts a new one. The per-connection
	// pipeline cap bounds this read loop (so a client that stops reading
	// replies parks a bounded number of goroutines); the server-wide
	// execution semaphore is acquired by the handler with a bounded
	// wait — a record that cannot get a slot within queueWait is refused
	// with ServerBusy instead of silently wedging the connection at
	// saturation.
	work := make(chan []byte)
	defer close(work) // parked handlers exit with the connection
	var idle atomic.Int32
	handle := func(rec []byte) {
		defer s.wg.Done()
		for {
			s.serveRecord(ctx, conn, &wmu, rec)
			<-connSem
			if idle.Add(1) > maxIdleHandlers {
				idle.Add(-1)
				return
			}
			var ok bool
			rec, ok = <-work
			idle.Add(-1)
			if !ok {
				return
			}
		}
	}
	for {
		rec, err := mr.next()
		if err != nil {
			return
		}
		connSem <- struct{}{}
		select {
		case work <- rec:
		default:
			s.wg.Add(1)
			go handle(rec)
		}
	}
}

// serveRecord executes one call record (headerRoom-prefixed, as
// readRecord returns it): admission through the in-flight semaphore and
// the drain fence, dispatch, reply write. It owns rec.
func (s *Server) serveRecord(ctx *Context, conn net.Conn, wmu *sync.Mutex, rec []byte) {
	s.requests.Add(1)
	select {
	case s.sem <- struct{}{}:
	default:
		// Saturated: count the event, then wait a bounded time for a
		// slot before refusing the call.
		s.queueFull.Add(1)
		t := time.NewTimer(queueWait)
		select {
		case s.sem <- struct{}{}:
			t.Stop()
		case <-t.C:
			s.refuseBusy(conn, wmu, rec)
			return
		}
	}
	// The drain fence: in-flight handlers (hwg) run to completion and
	// deliver their replies; records arriving after the fence are
	// refused without executing.
	s.drainMu.Lock()
	if s.draining {
		s.drainMu.Unlock()
		<-s.sem
		s.refuseBusy(conn, wmu, rec)
		return
	}
	s.hwg.Add(1)
	s.drainMu.Unlock()

	s.inflight.Add(1)
	reply, err := s.dispatch(ctx, rec[headerRoom:])
	s.inflight.Add(-1)
	bufpool.Put(rec) // handlers must not retain args past dispatch
	<-s.sem          // before the reply write, which may block
	if err != nil {
		s.hwg.Done()
		return // undecodable call: drop it
	}
	wmu.Lock()
	_ = writeFramed(conn, reply) // nobody to tell: the failure is the caller's connection
	wmu.Unlock()
	bufpool.Put(reply)
	s.hwg.Done() // after the reply write: drain waits for delivery too
}

// refuseBusy answers rec with an accepted reply carrying ServerBusy,
// consuming rec.
func (s *Server) refuseBusy(conn net.Conn, wmu *sync.Mutex, rec []byte) {
	s.busy.Add(1)
	msg := rec[headerRoom:]
	if len(msg) < 8 || binary.BigEndian.Uint32(msg[4:8]) != msgTypeCall {
		bufpool.Put(rec)
		return // not a call: nothing sensible to answer
	}
	xid := binary.BigEndian.Uint32(msg[:4])
	bufpool.Put(rec)
	e := xdr.NewEncoderWith(bufpool.Get(64))
	e.Reserve(headerRoom)
	e.Uint32(xid)
	e.Uint32(msgTypeReply)
	e.Uint32(replyStatAccepted)
	OpaqueAuth{Flavor: AuthNone}.encode(e)
	e.Uint32(uint32(ServerBusy))
	reply := e.Bytes()
	wmu.Lock()
	_ = writeFramed(conn, reply) // nobody to tell: the failure is the caller's connection
	wmu.Unlock()
	bufpool.Put(reply)
}

// Drain gracefully shuts the server down: listeners close (no new
// connections), new records are refused with ServerBusy, and in-flight
// handlers run to completion — including their reply writes — before
// remaining connections are torn down. If the in-flight calls do not
// finish within timeout, connections are cut anyway and an error is
// returned; handler goroutines still running are abandoned (the caller
// is exiting).
func (s *Server) Drain(timeout time.Duration) error {
	s.lnMu.Lock()
	s.closed = true
	lns := s.listeners
	s.listeners = nil
	s.lnMu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}

	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.hwg.Wait()
		close(done)
	}()
	var forced bool
	select {
	case <-done:
	case <-time.After(timeout):
		forced = true
	}

	s.lnMu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.lnMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	if forced {
		return fmt.Errorf("sunrpc: drain deadline (%v) exceeded with %d calls in flight", timeout, s.inflight.Load())
	}
	s.wg.Wait()
	return nil
}

// dispatch decodes one call message and produces the encoded reply
// record: a pooled, headerRoom-prefixed buffer ready for writeFramed,
// with the procedure results encoded in place (no copy from a side
// encoder). Ownership of the reply buffer passes to the caller.
func (s *Server) dispatch(ctx *Context, msg []byte) ([]byte, error) {
	d := xdr.NewDecoder(msg)
	xid := d.Uint32()
	mtype := d.Uint32()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if mtype != msgTypeCall {
		return nil, errors.New("not a call message")
	}
	rpcvers := d.Uint32()
	prog := d.Uint32()
	vers := d.Uint32()
	proc := d.Uint32()
	_ = decodeAuth(d) // cred: transport handles authentication
	_ = decodeAuth(d) // verf
	if d.Err() != nil {
		return nil, d.Err()
	}

	e := xdr.NewEncoderWith(bufpool.Get(512))
	e.Reserve(headerRoom) // record-marking header, patched by writeFramed
	e.Uint32(xid)
	e.Uint32(msgTypeReply)
	if rpcvers != rpcVersion {
		e.Uint32(replyStatDenied)
		e.Uint32(rejectRPCMismatch)
		e.Uint32(rpcVersion) // low
		e.Uint32(rpcVersion) // high
		return e.Bytes(), nil
	}
	e.Uint32(replyStatAccepted)
	OpaqueAuth{Flavor: AuthNone}.encode(e)

	s.mu.RLock()
	h, ok := s.handlers[progVers{prog, vers}]
	verRange, progKnown := s.versions[prog]
	s.mu.RUnlock()

	switch {
	case !progKnown:
		e.Uint32(uint32(ProgUnavail))
	case !ok:
		e.Uint32(uint32(ProgMismatch))
		e.Uint32(verRange[0])
		e.Uint32(verRange[1])
	default:
		// The accept stat precedes the results on the wire but is known
		// only after the handler runs: reserve it, let the handler encode
		// results in place, and patch it — rolling the body back if the
		// handler failed.
		statOff := e.Reserve(4)
		bodyOff := e.Len()
		stat, err := func() (stat AcceptStat, err error) {
			defer func() {
				if r := recover(); r != nil {
					log.Printf("sunrpc: handler panic: prog=%d proc=%d: %v", prog, proc, r)
					stat, err = SystemErr, nil
				}
			}()
			return h(ctx, proc, d, e)
		}()
		if err != nil {
			stat = SystemErr
		}
		if stat != Success {
			e.Truncate(bodyOff) // discard any partial results
		}
		e.PatchUint32(statOff, uint32(stat))
	}
	return e.Bytes(), nil
}
