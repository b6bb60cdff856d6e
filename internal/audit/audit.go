// Package audit implements the DisCFS access log. The paper (§4.2): "the
// system may not know that Alice is trying to get at a file, but it can
// log that key A was used and that key B authorized the operation" — the
// log records the requesting key, the operation, the handle, and the
// policy outcome.
//
// The log is built so the server's per-operation check never blocks on
// it: the in-memory ring uses per-slot locks (appends from different
// cores touch different slots), and the optional io.Writer mirror is
// fed through a bounded queue drained by a background goroutine that
// batches writes. When the queue saturates, mirror lines are dropped
// (and counted) rather than stalling the data path; the ring always
// records.
package audit

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one access-control decision.
type Record struct {
	Time    time.Time
	Peer    string // requesting principal (canonical form)
	Op      string // operation class, e.g. "read", "write", "lookup"
	Ino     uint64
	Gen     uint32
	Name    string // entry name for directory operations
	Value   string // compliance value, e.g. "RWX" or "false"
	Allowed bool
	Cached  bool // decision came from the policy cache
}

// defaultQueueDepth bounds the writer-mirror queue when the caller does
// not choose one.
const defaultQueueDepth = 4096

// batchMax bounds how many records the background writer folds into one
// io.Writer call.
const batchMax = 256

// slot is one ring position with its own lock. The global sequence
// counter assigns every record a unique slot, so concurrent appends
// lock different slots and never contend (a collision needs one
// appender to lap the whole ring mid-append of another); this is what
// lets eight cores log decisions without serializing on a shared ring
// mutex.
type slot struct {
	mu  sync.Mutex
	seq uint64 // 0: never written
	rec Record
}

// Log is a bounded in-memory ring of records, optionally mirrored to an
// io.Writer as text lines. Safe for concurrent use; Append never blocks
// on the mirror's I/O.
type Log struct {
	w io.Writer

	seq    atomic.Uint64 // total records appended (== Totals total)
	denied atomic.Uint64

	ring []slot

	// Writer mirror (nil w: all of this stays nil/idle).
	ch        chan Record
	flushCh   chan chan error
	quit      chan struct{}
	done      chan struct{}
	closed    atomic.Bool
	dropped   atomic.Uint64
	closeOnce sync.Once

	emu  sync.Mutex
	werr error // first mirror write error
}

// New creates a log retaining the most recent capacity records; w may be
// nil. With a writer, mirror lines are written asynchronously with a
// default queue depth; call Close to drain before process exit.
func New(capacity int, w io.Writer) *Log {
	return newLog(capacity, w, defaultQueueDepth)
}

// newLog is New with an explicit writer-queue depth. Appends beyond the
// queue's capacity while the writer is behind drop the mirror line and
// increment Dropped; the in-memory ring is unaffected.
func newLog(capacity int, w io.Writer, queueDepth int) *Log {
	if capacity <= 0 {
		capacity = 1024
	}
	l := &Log{w: w, ring: make([]slot, capacity)}
	if w != nil {
		l.ch = make(chan Record, queueDepth)
		l.flushCh = make(chan chan error)
		l.quit = make(chan struct{})
		l.done = make(chan struct{})
		go l.writer()
	}
	return l
}

// Append records one decision. It never blocks: the ring insert locks
// only the record's own slot and the mirror enqueue is non-blocking.
func (l *Log) Append(r Record) {
	seq := l.seq.Add(1)
	if !r.Allowed {
		l.denied.Add(1)
	}
	sl := &l.ring[(seq-1)%uint64(len(l.ring))]
	sl.mu.Lock()
	if seq > sl.seq { // don't let a lapped straggler overwrite newer data
		sl.seq, sl.rec = seq, r
	}
	sl.mu.Unlock()
	if l.ch != nil && !l.closed.Load() {
		select {
		case l.ch <- r:
		default:
			l.dropped.Add(1)
		}
	}
}

// writer is the background goroutine that drains the mirror queue.
func (l *Log) writer() {
	defer close(l.done)
	batch := make([]Record, 0, batchMax)
	for {
		select {
		case r := <-l.ch:
			batch = append(batch[:0], r)
		drain:
			for len(batch) < batchMax {
				select {
				case r2 := <-l.ch:
					batch = append(batch, r2)
				default:
					break drain
				}
			}
			l.writeBatch(batch)
		case ack := <-l.flushCh:
			l.drainAll(&batch)
			ack <- l.writeErr()
		case <-l.quit:
			l.drainAll(&batch)
			return
		}
	}
}

// drainAll empties the queue, writing in batches.
func (l *Log) drainAll(batch *[]Record) {
	for {
		b := (*batch)[:0]
		for len(b) < batchMax {
			select {
			case r := <-l.ch:
				b = append(b, r)
			default:
				if len(b) > 0 {
					l.writeBatch(b)
				}
				*batch = b
				return
			}
		}
		l.writeBatch(b)
		*batch = b
	}
}

// writeBatch formats records into one buffer and issues a single Write.
func (l *Log) writeBatch(batch []Record) {
	if len(batch) == 0 {
		return
	}
	var buf bytes.Buffer
	for _, r := range batch {
		verdict := "DENY"
		if r.Allowed {
			verdict = "ALLOW"
		}
		cached := ""
		if r.Cached {
			cached = " (cached)"
		}
		fmt.Fprintf(&buf, "%s %s %s ino=%d gen=%d name=%q value=%s%s peer=%s\n",
			r.Time.Format(time.RFC3339), verdict, r.Op, r.Ino, r.Gen, r.Name,
			r.Value, cached, shorten(r.Peer))
	}
	if _, err := l.w.Write(buf.Bytes()); err != nil {
		l.emu.Lock()
		if l.werr == nil {
			l.werr = err
		}
		l.emu.Unlock()
	}
}

func (l *Log) writeErr() error {
	l.emu.Lock()
	defer l.emu.Unlock()
	return l.werr
}

// Flush blocks until every mirror line enqueued before the call has been
// written, returning the first write error seen so far. It is a no-op
// without a writer.
func (l *Log) Flush() error {
	if l.ch == nil {
		return nil
	}
	ack := make(chan error, 1)
	select {
	case l.flushCh <- ack:
		return <-ack
	case <-l.done:
		return l.writeErr()
	}
}

// Close drains the mirror queue, stops the background writer, and
// returns the first write error. Further Appends still land in the ring
// but are not mirrored. Close is idempotent.
func (l *Log) Close() error {
	if l.ch == nil {
		return nil
	}
	l.closeOnce.Do(func() {
		l.closed.Store(true)
		close(l.quit)
	})
	<-l.done
	return l.writeErr()
}

// Dropped reports how many mirror lines were discarded because the
// writer queue was full.
func (l *Log) Dropped() uint64 { return l.dropped.Load() }

// Pending reports how many mirror lines are queued but not yet written.
func (l *Log) Pending() int {
	if l.ch == nil {
		return 0
	}
	return len(l.ch)
}

// shorten abbreviates principals for readable log lines.
func shorten(p string) string {
	if len(p) > 28 {
		return p[:28] + "…"
	}
	return p
}

// Recent returns up to n of the most recent records, newest first.
func (l *Log) Recent(n int) []Record {
	type seqRecord struct {
		rec Record
		seq uint64
	}
	all := make([]seqRecord, 0, len(l.ring))
	for i := range l.ring {
		sl := &l.ring[i]
		sl.mu.Lock()
		if sl.seq > 0 {
			all = append(all, seqRecord{rec: sl.rec, seq: sl.seq})
		}
		sl.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq > all[j].seq })
	if n > len(all) {
		n = len(all)
	}
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, all[i].rec)
	}
	return out
}

// Totals reports cumulative decision counts.
func (l *Log) Totals() (total, denied uint64) {
	return l.seq.Load(), l.denied.Load()
}
