package core

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
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
// PR 8 made the namespace span independent servers but left revocation
// a client-side fan-out: whichever shards the admin's client could not
// reach stayed open to the revoked principal. The feed closes that hole
// on the server side. Every server keeps an ordered log of the
// revocations its KeyNote session has applied (exported by
// internal/keynote as the session revocation log); servers configured
// with a peer list push new entries to every peer with capped
// exponential backoff, and on every (re)connect first pull the peer's
// full log — anti-entropy, so a server that was down during the admin
// action converges as soon as it can reach any fenced peer.
//
// Entries are content-addressed by (kind, target) and revocations are
// idempotent and permanent, so replay, re-push, and forwarding loops
// all converge: applying an entry twice changes nothing, and a server
// forwards only entries it had never seen. Epoch and sequence numbers
// ride along for observability (which boot originated an entry, and
// where it sits in that server's log).

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

// feedEntry is one wire/log entry of the feed. Origin is the feed epoch
// (a per-boot random id) of the server whose admin action created the
// entry and Seq its position in that server's log; both are for
// observability — identity on the wire is (kind, target).
type feedEntry struct {
	kind   keynote.RevocationKind
	target string
	origin uint64
	seq    uint64
}

func (en feedEntry) key() string {
	return fmt.Sprintf("%d|%s", en.kind, en.target)
}

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
	// acked is how many log entries the peer has acknowledged on the
	// current connection (reset on reconnect; the receiver dedupes).
	acked atomic.Int64
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
	epoch uint64

	mu sync.Mutex
	// log is every feed entry this server knows, local and remote, in
	// application order. Pushers stream suffixes of it to peers.
	log []feedEntry
	// seen holds the content key of every log entry; it is the loop
	// breaker — an entry is forwarded at most once per server.
	seen map[string]bool
	// sessSeq is the collect cursor into the session's revocation log.
	sessSeq uint64

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
	var eb [8]byte
	if _, err := rand.Read(eb[:]); err != nil {
		return nil, err
	}
	f := &revFeed{
		s:     s,
		epoch: binary.BigEndian.Uint64(eb[:]),
		seen:  make(map[string]bool),
		stop:  make(chan struct{}),
	}
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

// noteLocal folds new session revocations (an admin action that just
// ran locally) into the log and wakes the pushers.
func (f *revFeed) noteLocal() {
	f.mu.Lock()
	f.collectLocked()
	f.mu.Unlock()
	f.kickAll()
}

// collectLocked imports session revocation-log entries past the cursor.
// Entries whose content the feed has already seen — every entry the
// feed itself applied from a peer — advance the cursor without being
// re-originated, which is what keeps the mesh loop-free.
func (f *revFeed) collectLocked() {
	snap := f.s.session.Snapshot()
	for _, r := range snap.Revocations(f.sessSeq) {
		f.sessSeq = r.Seq
		k := fmt.Sprintf("%d|%s", r.Kind, r.Target)
		if f.seen[k] {
			continue
		}
		f.seen[k] = true
		f.log = append(f.log, feedEntry{
			kind:   r.Kind,
			target: r.Target,
			origin: f.epoch,
			seq:    uint64(len(f.log)) + 1,
		})
	}
}

// absorb applies entries received from a peer (push or pull reply) and
// returns how many were new. New key revocations cut the target's live
// connections, and the pushers are kicked so unseen entries forward to
// the rest of the mesh.
func (f *revFeed) absorb(entries []feedEntry) int {
	f.mu.Lock()
	f.collectLocked()
	var fresh []feedEntry
	for _, en := range entries {
		k := en.key()
		if f.seen[k] {
			continue
		}
		f.seen[k] = true
		f.log = append(f.log, en)
		fresh = append(fresh, en)
	}
	f.mu.Unlock()
	if len(fresh) == 0 {
		return 0
	}
	for _, en := range fresh {
		switch en.kind {
		case keynote.RevokedKey:
			f.s.session.RevokeKey(keynote.Principal(en.target))
		case keynote.RevokedCredential:
			f.s.session.RevokeCredential(en.target)
		}
	}
	f.s.cache.Purge()
	for _, en := range fresh {
		if en.kind == keynote.RevokedKey {
			f.s.fencePeerConns(keynote.Principal(en.target))
		}
	}
	// The session entries the applications above appended are already in
	// seen; advance the cursor past them so they are not re-originated.
	f.mu.Lock()
	f.collectLocked()
	f.mu.Unlock()
	f.applied.Add(uint64(len(fresh)))
	f.kickAll()
	return len(fresh)
}

// snapshotLog returns the feed epoch and a copy of the log past since
// (a peer's pull cursor; 0 for everything).
func (f *revFeed) snapshotLog(since uint64) (uint64, []feedEntry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.collectLocked()
	if since >= uint64(len(f.log)) {
		return f.epoch, nil
	}
	return f.epoch, append([]feedEntry(nil), f.log[since:]...)
}

// unacked returns the entries the peer has not acknowledged and the
// current log length (the ack cursor a successful push advances to).
func (f *revFeed) unacked(p *revPeer) ([]feedEntry, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.collectLocked()
	acked := int(p.acked.Load())
	if acked > len(f.log) {
		acked = len(f.log)
	}
	return append([]feedEntry(nil), f.log[acked:]...), len(f.log)
}

// Lag is the feed's replication debt: the largest number of log entries
// any configured peer has not acknowledged. A peer that is unreachable
// or not yet synced owes the whole log.
func (f *revFeed) Lag() uint64 {
	f.mu.Lock()
	f.collectLocked()
	n := len(f.log)
	f.mu.Unlock()
	max := 0
	for _, p := range f.peers {
		lag := n
		if p.fresh() {
			lag = n - int(p.acked.Load())
			if lag < 0 {
				lag = 0
			}
		}
		if lag > max {
			max = lag
		}
	}
	return uint64(max)
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
// rare and content-deduped, so a full replay per reconnect stays cheap
// and needs no durable cursor.
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
	_ = d.Uint64() // peer's feed epoch (observability)
	entries, ok := decodeFeedEntries(d)
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
func (f *revFeed) push(rpc *sunrpc.Client, batch []feedEntry) error {
	ctx, cancel := context.WithTimeout(context.Background(), feedDialTimeout)
	defer cancel()
	e := xdr.NewEncoder()
	e.Uint64(f.epoch)
	encodeFeedEntries(e, batch)
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

// pushLoop streams unacknowledged entries until the connection breaks
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
		batch, total := f.unacked(p)
		if len(batch) > 0 {
			if err := f.push(rpc, batch); err != nil {
				return err
			}
			p.acked.Store(int64(total))
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

// fencePeerConns cuts every live connection authenticated as the
// (canonicalized) principal, so a revocation takes effect on live
// sessions immediately instead of at their next failed check.
func (s *Server) fencePeerConns(target keynote.Principal) {
	s.rpc.ClosePeer(string(keynote.CanonicalPrincipal(target)))
}

// ---- wire encoding (shared by push and pull) ----

func encodeFeedEntries(e *xdr.Encoder, entries []feedEntry) {
	e.Uint32(uint32(len(entries)))
	for _, en := range entries {
		e.Uint32(uint32(en.kind))
		e.Uint64(en.origin)
		e.Uint64(en.seq)
		e.String(en.target)
	}
}

func decodeFeedEntries(d *xdr.Decoder) ([]feedEntry, bool) {
	n := d.Count(1 << 16)
	entries := make([]feedEntry, 0, n)
	for i := 0; i < n; i++ {
		en := feedEntry{
			kind:   keynote.RevocationKind(d.Uint32()),
			origin: d.Uint64(),
			seq:    d.Uint64(),
			target: d.String(maxCredText),
		}
		if d.Err() != nil {
			return nil, false
		}
		if en.kind != keynote.RevokedKey && en.kind != keynote.RevokedCredential {
			return nil, false
		}
		entries = append(entries, en)
	}
	return entries, true
}
