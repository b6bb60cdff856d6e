package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"discfs/internal/fed"
	"discfs/internal/keynote"
	"discfs/internal/nfs"
	"discfs/internal/secchan"
	"discfs/internal/sunrpc"
	"discfs/internal/xdr"
)

// The server-to-server revocation feed.
//
// A federation spreads the namespace over independent servers, and an
// admin client's revocation fan-out leaves whichever shards it cannot
// reach open to the revoked principal. The feed closes that hole on the
// server side. The KeyNote session's revocation log is the one
// record of what this server has revoked, whether an admin revoked it
// here or a peer delivered it; servers configured with a peer list push
// the log past each peer's acknowledged sequence number to that peer,
// with capped exponential backoff, and on every (re)connect first pull
// the peer's whole log — anti-entropy, so a server that was down during
// the admin action converges as soon as it can reach any fenced peer.
//
// An entry on the wire is (kind, target). Revocations are idempotent and
// permanent, and re-applying a known key or signature appends nothing to
// the session log, so replay, re-push and forwarding loops all converge:
// an entry is forwarded by a server only when applying it there was new.

// feedTick bounds how long a peer connection sits idle before the
// pusher re-checks for new log entries and connection death; kicks
// (local revocations, handshake gates) bypass it.
const feedTick = 250 * time.Millisecond

// feedDialTimeout bounds one peer dial + handshake attempt.
const feedDialTimeout = 5 * time.Second

// peerSyncWait bounds the handshake-time anti-entropy gate: a server
// whose feed is stale (a peer is reachable but not yet pulled from)
// makes a new non-admin session wait up to this long for the sync
// before evaluating the peer's revocation status, so a server
// rejoining after a partition converges before serving its next
// session. When every peer is unreachable the gate releases after one
// failed dial attempt — the server stays available under partition.
// See Server.Authorize.
const peerSyncWait = 2 * time.Second

// revPeer is the replication state for one configured peer.
type revPeer struct {
	addr string
	// kick wakes the peer's pusher goroutine out of its idle tick or
	// backoff sleep (buffered so kicking is never blocking).
	kick chan struct{}
	// pulled reports that anti-entropy completed on the current
	// connection; with a live connection it makes the peer "fresh".
	pulled atomic.Bool
	rpc    atomic.Pointer[sunrpc.Client]
	// acked is the session revocation sequence number the peer has
	// acknowledged on the current connection (reset on reconnect;
	// re-applying what it already holds changes nothing).
	acked atomic.Uint64
	// attempts counts concluded sync cycles, success or failure. The
	// handshake gate uses it to stop waiting for an unreachable peer:
	// a cycle that concluded after the gate began means the peer was
	// tried and could not be synced.
	attempts atomic.Uint64
}

// fresh reports whether the peer is connected and anti-entropy has run
// on that connection — the state in which everything the peer knew at
// connect time has been absorbed and new entries arrive by push.
func (p *revPeer) fresh() bool {
	rpc := p.rpc.Load()
	return p.pulled.Load() && rpc != nil && !rpc.Broken()
}

// revFeed is one server's half of the replication mesh.
type revFeed struct {
	s     *Server
	peers []*revPeer

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	propagated atomic.Uint64 // entries delivered to peers
	applied    atomic.Uint64 // entries received from peers and applied
}

func newRevFeed(s *Server, peers []string) (*revFeed, error) {
	if err := fed.ValidatePeers(peers); err != nil {
		return nil, err
	}
	f := &revFeed{s: s, stop: make(chan struct{})}
	for _, addr := range peers {
		f.peers = append(f.peers, &revPeer{addr: addr, kick: make(chan struct{}, 1)})
	}
	return f, nil
}

// start launches one pusher goroutine per configured peer.
func (f *revFeed) start() {
	for _, p := range f.peers {
		f.wg.Add(1)
		go f.runPeer(p)
	}
}

// Close stops replication and waits for the pushers to exit.
func (f *revFeed) Close() {
	f.closeOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
}

func (f *revFeed) stopped() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

func (f *revFeed) kickAll() {
	for _, p := range f.peers {
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
}

// revoke runs mutate, which revokes through the session, and then does
// what the log entries that appeared meanwhile call for: it cuts the
// live connections of every newly revoked key, so the revocation holds
// on live sessions now rather than at their next failed check, and
// wakes the pushers to forward the entries. It returns how many entries
// appeared. Cached decisions need nothing: each is stamped with the
// session generation it was made at, and a revocation moves it.
func (s *Server) revoke(mutate func()) int {
	before := s.session.RevocationSeq()
	mutate()
	fresh := s.session.Revocations(before)
	for _, r := range fresh {
		if r.Kind == keynote.RevokedKey {
			s.rpc.ClosePeer(r.Target)
		}
	}
	if len(fresh) > 0 {
		s.feed.kickAll()
	}
	return len(fresh)
}

// absorb applies entries received from a peer (push or pull reply) and
// returns how many were new here.
func (f *revFeed) absorb(entries []keynote.Revocation) int {
	n := f.s.revoke(func() {
		for _, r := range entries {
			switch r.Kind {
			case keynote.RevokedKey:
				f.s.session.RevokeKey(keynote.Principal(r.Target))
			case keynote.RevokedCredential:
				f.s.session.RevokeCredential(r.Target)
			}
		}
	})
	f.applied.Add(uint64(n))
	return n
}

// Lag is the feed's replication debt: the largest number of session
// log entries any configured peer has not acknowledged. A peer that is
// unreachable or not yet synced owes the whole log.
func (f *revFeed) Lag() uint64 {
	seq := f.s.session.RevocationSeq()
	var worst uint64
	for _, p := range f.peers {
		lag := seq
		if p.fresh() {
			lag -= min(p.acked.Load(), seq)
		}
		worst = max(worst, lag)
	}
	return worst
}

// allFresh reports whether every peer is connected and synced.
func (f *revFeed) allFresh() bool {
	for _, p := range f.peers {
		if !p.fresh() {
			return false
		}
	}
	return true
}

// waitFresh is the handshake-time anti-entropy gate. It kicks the
// pushers and waits — at most peerSyncWait — until every peer is either
// fresh (connected, pulled from) or has concluded a sync attempt since
// the wait began (meaning it was tried and is unreachable right now).
// It returns whether every peer ended up fresh.
//
// The distinction matters for availability: a server rejoining after a
// partition blocks new sessions only as long as one reconnect + pull
// takes, while a server whose peer is genuinely down releases sessions
// as soon as the dial fails — staying available under partition is the
// documented trade-off, matching the paper's autonomous-server model.
func (f *revFeed) waitFresh() bool {
	if len(f.peers) == 0 {
		return true
	}
	if f.allFresh() {
		return true
	}
	start := make([]uint64, len(f.peers))
	for i, p := range f.peers {
		start[i] = p.attempts.Load()
	}
	deadline := time.Now().Add(peerSyncWait)
	for {
		f.kickAll()
		settled := true
		for i, p := range f.peers {
			if !p.fresh() && p.attempts.Load() == start[i] {
				settled = false
				break
			}
		}
		if settled {
			return f.allFresh()
		}
		if f.stopped() || !time.Now().Before(deadline) {
			return f.allFresh()
		}
		select {
		case <-f.stop:
			return f.allFresh()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// runPeer is one peer's pusher goroutine: dial, pull (anti-entropy),
// then push new entries until the connection breaks; reconnect under
// capped exponential backoff, interruptible by kicks.
func (f *revFeed) runPeer(p *revPeer) {
	defer f.wg.Done()
	var bo backoff
	for {
		if f.stopped() {
			return
		}
		rpc, err := f.dialPeer(p.addr)
		if err == nil {
			p.rpc.Store(rpc)
			if err = f.pull(rpc); err == nil {
				bo.reset()
				p.acked.Store(0)
				p.pulled.Store(true)
				err = f.pushLoop(p, rpc)
			} else {
				// Reached the peer but could not sync: a concluded attempt.
				p.attempts.Add(1)
			}
			p.pulled.Store(false)
			p.rpc.Store(nil)
			rpc.Close()
		} else {
			// Unreachable. Only dial/pull failures count as concluded
			// attempts for the handshake gate — a push loop ending because
			// an old connection died says nothing about reachability NOW,
			// and counting it would fail the gate open in exactly the
			// heal-then-handshake window the gate exists for (the retry
			// that follows immediately is the attempt that should count).
			p.attempts.Add(1)
		}
		if f.stopped() {
			return
		}
		_ = err
		bo.fail(time.Now())
		select {
		case <-time.After(time.Until(bo.next)):
		case <-p.kick:
		case <-f.stop:
			return
		}
	}
}

func (f *revFeed) dialPeer(addr string) (*sunrpc.Client, error) {
	ctx, cancel := context.WithTimeout(context.Background(), feedDialTimeout)
	defer cancel()
	conn, err := secchan.DialContext(ctx, addr, secchan.Config{Identity: f.s.key})
	if err != nil {
		return nil, err
	}
	return sunrpc.NewClient(conn), nil
}

// pull fetches the peer's whole log and absorbs it. Revocations are
// rare and idempotent, so a full replay per reconnect stays cheap and
// needs no durable cursor.
func (f *revFeed) pull(rpc *sunrpc.Client) error {
	ctx, cancel := context.WithTimeout(context.Background(), feedDialTimeout)
	defer cancel()
	e := xdr.NewEncoder()
	e.Uint64(0)
	d, err := rpc.Call(ctx, ExtProg, ExtVers, ExtRevPull, e.Bytes())
	if err != nil {
		return err
	}
	status := d.Uint32()
	entries, ok := decodeRevocations(d)
	derr := d.Err()
	nfs.RecycleReply(d)
	if derr != nil {
		return derr
	}
	if !ok {
		return errors.New("revfeed: malformed pull reply")
	}
	if status != extOK {
		return fmt.Errorf("revfeed: pull refused (status %d; is this server's key an admin of the peer?)", status)
	}
	f.absorb(entries)
	return nil
}

// push delivers one batch of entries to the peer.
func (f *revFeed) push(rpc *sunrpc.Client, batch []keynote.Revocation) error {
	ctx, cancel := context.WithTimeout(context.Background(), feedDialTimeout)
	defer cancel()
	e := xdr.NewEncoder()
	encodeRevocations(e, batch)
	d, err := rpc.Call(ctx, ExtProg, ExtVers, ExtRevPush, e.Bytes())
	if err != nil {
		return err
	}
	status := d.Uint32()
	_ = d.Uint32() // entries newly applied by the peer
	derr := d.Err()
	nfs.RecycleReply(d)
	if derr != nil {
		return derr
	}
	if status != extOK {
		return fmt.Errorf("revfeed: push refused (status %d; is this server's key an admin of the peer?)", status)
	}
	return nil
}

// pushLoop streams the session log past the peer's acknowledged
// sequence number until the connection breaks
// or the feed closes.
func (f *revFeed) pushLoop(p *revPeer, rpc *sunrpc.Client) error {
	for {
		// Checked every iteration, not just on the idle tick: while the
		// handshake gate is kicking (a session waiting on anti-entropy),
		// the kick always wins the select below, and a pusher that never
		// noticed its connection died during a partition would pin the
		// peer un-fresh until the gate gave up.
		if rpc.Broken() {
			return errors.New("revfeed: peer connection broken")
		}
		snap := f.s.session.Snapshot()
		if batch := snap.Revocations(p.acked.Load()); len(batch) > 0 {
			if err := f.push(rpc, batch); err != nil {
				return err
			}
			p.acked.Store(snap.RevocationSeq())
			f.propagated.Add(uint64(len(batch)))
		}
		select {
		case <-p.kick:
		case <-time.After(feedTick):
		case <-f.stop:
			return nil
		}
	}
}

// ---- wire encoding (shared by push and pull) ----

// encodeRevocations writes a list of (kind, target) entries.
func encodeRevocations(e *xdr.Encoder, revs []keynote.Revocation) {
	e.Uint32(uint32(len(revs)))
	for _, r := range revs {
		e.Uint32(uint32(r.Kind))
		e.String(r.Target)
	}
}

// decodeRevocations reads a list written by encodeRevocations, and only
// that encoding — known kinds, zero padding — so a list that decodes
// re-encodes to the bytes it came from. The list grows as entries
// decode: a count the bytes do not back allocates nothing.
func decodeRevocations(d *xdr.Decoder) ([]keynote.Revocation, bool) {
	n := d.Count(1 << 16)
	var revs []keynote.Revocation
	for i := 0; i < n; i++ {
		kind := d.Uint32()
		target := d.Opaque(maxCredText)
		read := d.Buffer()[:len(d.Buffer())-d.Remaining()]
		padding := read[len(read)-(4-len(target)%4)%4:]
		if d.Err() != nil || (kind != uint32(keynote.RevokedKey) && kind != uint32(keynote.RevokedCredential)) ||
			slices.ContainsFunc(padding, func(b byte) bool { return b != 0 }) {
			return nil, false
		}
		revs = append(revs, keynote.Revocation{Kind: keynote.RevocationKind(kind), Target: string(target)})
	}
	return revs, true
}
