package limiter

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTokenBucketRate drives the bucket with an injected clock: at
// 2 req/s the bucket holds two tokens, and a request that finds it
// empty would wait 500 ms — past maxWait — so it is rejected at once.
// A principal admits exactly its budget: the two up front, then one
// per 500 ms step however much it over-offers.
func TestTokenBucketRate(t *testing.T) {
	now := time.Unix(0, 0)
	l := New(Limits{RPS: 2})
	if l == nil {
		t.Fatal("New returned nil for a limited config")
	}
	l.now = func() time.Time { return now }

	admitted, rejected := 0, 0
	admit := func(n int) {
		for i := 0; i < n; i++ {
			rel, err := l.Acquire("hot")
			if err != nil {
				if !errors.Is(err, ErrLimited) {
					t.Fatalf("rejection does not wrap ErrLimited: %v", err)
				}
				rejected++
				continue
			}
			rel()
			admitted++
		}
	}

	admit(30) // burst: 2 admitted, 28 rejected
	if admitted != 2 {
		t.Fatalf("burst admitted %d, want 2", admitted)
	}
	for step := 0; step < 20; step++ { // 10 s in 500 ms steps = 20 tokens
		now = now.Add(500 * time.Millisecond)
		admit(3) // over-offered: 1 per step fits the budget
	}
	if admitted != 22 {
		t.Errorf("admitted %d over burst+10s, want 22 (burst 2 + 2 rps)", admitted)
	}
	if st := l.Stats(); st.ThrottledRate != uint64(rejected) {
		t.Errorf("Stats().ThrottledRate = %d, want %d", st.ThrottledRate, rejected)
	}
	if rel, err := l.Acquire("cold"); err != nil {
		t.Errorf("another principal throttled by hot's spent budget: %v", err)
	} else {
		rel()
	}
}

// TestInFlightCap exercises the concurrency axis: with InFlight 2 the
// third concurrent request waits out maxWait and is refused; once a
// slot is released the next one is admitted.
func TestInFlightCap(t *testing.T) {
	l := New(Limits{InFlight: 2})
	r1, err := l.Acquire("p")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := l.Acquire("p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Acquire("p"); !errors.Is(err, ErrLimited) {
		t.Fatalf("third acquire = %v, want ErrLimited", err)
	}
	r1()
	r3, err := l.Acquire("p")
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	r3()
	r2()
	if st := l.Stats(); st.ThrottledConcurrency != 1 {
		t.Errorf("ThrottledConcurrency = %d, want 1", st.ThrottledConcurrency)
	}
}

// TestFairnessUnderContention is the noisy-neighbor property under the
// race detector: every principal gets the same budget, 32 goroutines
// hammer it as one hot principal while 4 others each stay within their
// burst. The hot principal must be capped near its budget while every
// cold request is admitted.
func TestFairnessUnderContention(t *testing.T) {
	const (
		rps      = 50.0
		duration = 300 * time.Millisecond
		hotN     = 32 // more waiters than maxWait*rps tokens of debt
		coldN    = 40 // per cold principal, within the 50-token burst
	)
	l := New(Limits{RPS: rps})

	var hotAdmitted, hotRejected, coldAdmitted atomic.Uint64
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for g := 0; g < hotN; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				rel, err := l.Acquire("hot")
				if err != nil {
					hotRejected.Add(1)
					continue
				}
				rel()
				hotAdmitted.Add(1)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := []string{"alice", "bob", "carol", "dave"}[id]
			for i := 0; i < coldN; i++ {
				rel, err := l.Acquire(key)
				if err != nil {
					t.Errorf("cold principal %s throttled: %v", key, err)
					return
				}
				rel()
				coldAdmitted.Add(1)
			}
		}(g)
	}
	wg.Wait()

	// Budget: the burst plus refill over the window plus the debt
	// shaping may run up, with headroom for scheduling jitter.
	budget := rps + rps*duration.Seconds() + rps*maxWait.Seconds()
	if got := hotAdmitted.Load(); float64(got) > budget*1.5 {
		t.Errorf("hot admitted %d, want <= ~%.0f (rate cap leaking)", got, budget)
	}
	if hotRejected.Load() == 0 {
		t.Errorf("hot principal was never throttled under %d-goroutine hammering", hotN)
	}
	if got := coldAdmitted.Load(); got != 4*coldN {
		t.Errorf("cold admitted %d of %d offered: principals within budget degraded", got, 4*coldN)
	}
	if got := l.Principals(); got != 5 {
		t.Errorf("Principals() = %d, want 5", got)
	}
}

// TestIdleFullBucketsAreForgotten: a bucket no request holds and whose
// tokens have refilled admits exactly what a fresh one would, so it is
// forgotten. A thousand principals that made one call each leave at most
// the next caller's bucket one refill period (one second at 2 req/s)
// later, while a principal still holding a slot keeps its bucket.
func TestIdleFullBucketsAreForgotten(t *testing.T) {
	now := time.Unix(0, 0)
	l := New(Limits{RPS: 2, InFlight: 4})
	l.now = func() time.Time { return now }
	call := func(p string) {
		t.Helper()
		rel, err := l.Acquire(p)
		if err != nil {
			t.Fatalf("Acquire(%s): %v", p, err)
		}
		rel()
	}
	for i := range 1000 {
		call(fmt.Sprintf("fresh-%d", i))
	}
	now = now.Add(time.Second)
	call("next")
	if got := l.Principals(); got > 1 {
		t.Fatalf("Principals() = %d a refill period after 1000 one-call principals, want <= 1", got)
	}

	held, err := l.Acquire("holder")
	if err != nil {
		t.Fatal(err)
	}
	defer held()
	now = now.Add(time.Second)
	call("other")
	l.mu.Lock()
	_, kept := l.buckets["holder"]
	l.mu.Unlock()
	if !kept {
		t.Error("the bucket of a principal holding a slot was forgotten")
	}
}

// TestSweepKeepsInFlightCap runs the sweep against concurrent requests:
// the clock moves a sweep period at a time while eight goroutines take
// and release slots of four principals. A bucket forgotten while a
// request still held it would let a principal's next request start on a
// fresh one, so more than InFlight requests would run at once.
func TestSweepKeepsInFlightCap(t *testing.T) {
	const inFlight = 2
	var clock atomic.Int64
	l := New(Limits{RPS: 1e6, InFlight: inFlight})
	l.now = func() time.Time { return time.Unix(0, clock.Load()) }
	var running [4]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := (g + i) % len(running)
				rel, err := l.Acquire(fmt.Sprintf("p%d", p))
				if err != nil {
					continue // a full cap waits out maxWait: allowed, just not exceeded
				}
				if n := running[p].Add(1); n > inFlight {
					t.Errorf("principal p%d has %d requests running, cap %d", p, n, inFlight)
				}
				clock.Add(int64(sweepEvery))
				time.Sleep(100 * time.Microsecond) // hold the slot while others sweep
				running[p].Add(-1)
				rel()
			}
		}(g)
	}
	wg.Wait()
	if got := l.Principals(); got > len(running) {
		t.Errorf("Principals() = %d, want at most %d", got, len(running))
	}
}
