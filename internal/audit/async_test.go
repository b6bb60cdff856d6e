package audit

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// countingWriter counts lines written; optionally blocks each Write
// until released, to simulate a slow sink.
type countingWriter struct {
	mu      sync.Mutex
	lines   int
	started chan struct{} // signaled once on first Write
	release chan struct{} // nil: never block
	once    sync.Once
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		if w.started != nil {
			close(w.started)
		}
	})
	if w.release != nil {
		<-w.release
	}
	w.mu.Lock()
	w.lines += strings.Count(string(p), "\n")
	w.mu.Unlock()
	return len(p), nil
}

func (w *countingWriter) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lines
}

// TestCloseDrains: every record appended before Close appears in the
// mirror output — nothing is lost in the queue.
func TestCloseDrains(t *testing.T) {
	w := &countingWriter{}
	l := New(64, w)
	const n = 500
	for i := 0; i < n; i++ {
		l.Append(rec("k", true))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := w.count(); got != n {
		t.Errorf("mirror wrote %d lines, want %d", got, n)
	}
	if d := l.Dropped(); d != 0 {
		t.Errorf("dropped = %d, want 0", d)
	}
	// Idempotent.
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestDropCounter saturates a tiny queue against a blocked writer and
// checks the drop accounting: written + dropped == appended.
func TestDropCounter(t *testing.T) {
	w := &countingWriter{
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	l := newLog(64, w, 4)
	// First record: the worker picks it up and blocks inside Write.
	l.Append(rec("k", true))
	<-w.started
	// Fill the queue (depth 4), then overflow it.
	const overflow = 7
	for i := 0; i < 4+overflow; i++ {
		l.Append(rec("k", true))
	}
	if d := l.Dropped(); d != overflow {
		t.Errorf("dropped = %d, want %d", d, overflow)
	}
	close(w.release)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := w.count(); got != 1+4 {
		t.Errorf("mirror wrote %d lines, want 5", got)
	}
	// The ring saw everything, drops or not.
	total, _ := l.Totals()
	if total != 1+4+overflow {
		t.Errorf("total = %d, want %d", total, 1+4+overflow)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

// TestWriteErrorSurfaces: Flush and Close report the first mirror write
// error.
func TestWriteErrorSurfaces(t *testing.T) {
	l := New(16, failWriter{})
	l.Append(rec("k", true))
	if err := l.Flush(); err == nil {
		t.Error("Flush returned nil after write failure")
	}
	if err := l.Close(); err == nil {
		t.Error("Close returned nil after write failure")
	}
}

// TestAppendAfterClose: the ring still records, the mirror does not, and
// nothing panics.
func TestAppendAfterClose(t *testing.T) {
	w := &countingWriter{}
	l := New(64, w)
	l.Append(rec("k", true))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l.Append(rec("k", false))
	total, denied := l.Totals()
	if total != 2 || denied != 1 {
		t.Errorf("totals = %d/%d, want 2/1", total, denied)
	}
	if got := w.count(); got != 1 {
		t.Errorf("mirror wrote %d lines after close, want 1", got)
	}
}

// TestShardedRecentOrder: with per-slot locking, Recent still returns
// the newest records first, globally ordered.
func TestShardedRecentOrder(t *testing.T) {
	l := New(32, nil)
	for i := 0; i < 100; i++ {
		r := rec("k", true)
		r.Ino = uint64(i)
		l.Append(r)
	}
	got := l.Recent(10)
	if len(got) != 10 {
		t.Fatalf("Recent = %d records", len(got))
	}
	for i, r := range got {
		if want := uint64(99 - i); r.Ino != want {
			t.Errorf("recent[%d].Ino = %d, want %d", i, r.Ino, want)
		}
	}
	if full := l.Recent(1000); len(full) != 32 {
		t.Errorf("retained %d records, want 32", len(full))
	}
}

// TestConcurrentAppendWithWriter hammers Append from many goroutines
// against a live mirror, for the race detector.
func TestConcurrentAppendWithWriter(t *testing.T) {
	w := &countingWriter{}
	l := New(256, w)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r := rec(fmt.Sprintf("worker-%d", g), i%4 != 0)
				l.Append(r)
				if i%50 == 0 {
					l.Recent(8)
					l.Totals()
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	total, _ := l.Totals()
	if total != 1600 {
		t.Errorf("total = %d, want 1600", total)
	}
	if got := uint64(w.count()) + l.Dropped(); got != 1600 {
		t.Errorf("written+dropped = %d, want 1600", got)
	}
}
