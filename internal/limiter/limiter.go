// Package limiter implements per-principal admission control for the
// server request path: a token-bucket rate limit plus a concurrency cap
// keyed by the authenticated secure-channel principal. The paper's
// threat model has many mutually-untrusting principals sharing one
// server; the limiter keeps a single hot principal from starving the
// rest while leaving everyone else at full speed.
//
// Acquire blocks for at most maxWait (250 ms): a request that would
// have to wait longer is rejected with ErrLimited immediately, so
// callers can distinguish shaping (back off and retry) from a hung
// server (no reply at all).
package limiter

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrLimited is the sentinel all limiter rejections wrap.
var ErrLimited = errors.New("limiter: principal over limit")

// Limits is the admission budget every principal gets. Zero values
// mean unlimited on that axis.
type Limits struct {
	// RPS is the sustained request rate (tokens per second). The bucket
	// holds one second of it (at least one token), so a principal may
	// burst that far above the rate after a quiet spell.
	RPS float64
	// InFlight caps concurrently executing requests.
	InFlight int
}

// maxWait bounds how long Acquire shapes a request before rejecting it.
const maxWait = 250 * time.Millisecond

// Stats are cumulative limiter rejection counts.
type Stats struct {
	// ThrottledRate counts rejections by the token bucket.
	ThrottledRate uint64
	// ThrottledConcurrency counts rejections by the in-flight cap.
	ThrottledConcurrency uint64
}

// A Limiter admits requests per principal.
type Limiter struct {
	limits Limits
	burst  float64
	// now is the clock token refill reads; shaping sleeps use the real
	// one.
	now func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
	swept   time.Time // when bucketFor last ran sweepLocked

	throttledRate atomic.Uint64
	throttledConc atomic.Uint64
}

// bucket is one principal's admission state.
type bucket struct {
	slots chan struct{} // concurrency cap; nil means unlimited
	// users counts the Acquire calls holding the bucket, from bucketFor
	// to release or rejection; it only rises under Limiter.mu.
	users atomic.Int32

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// New builds a limiter that gives every principal its own budget of
// limits; it returns nil when limits constrain nothing (callers may skip
// the admission hook entirely).
func New(limits Limits) *Limiter {
	if limits.RPS <= 0 && limits.InFlight <= 0 {
		return nil
	}
	return &Limiter{
		limits:  limits,
		burst:   max(1, limits.RPS),
		now:     time.Now,
		buckets: make(map[string]*bucket),
	}
}

// bucketFor returns (creating on first use) the principal's bucket,
// counting the caller as one of its users.
func (l *Limiter) bucketFor(principal string) *bucket {
	l.mu.Lock()
	defer l.mu.Unlock()
	if now := l.now(); now.Sub(l.swept) >= sweepEvery {
		l.swept = now
		l.sweepLocked(now)
	}
	b, ok := l.buckets[principal]
	if !ok {
		b = &bucket{tokens: l.burst, last: l.now()}
		if l.limits.InFlight > 0 {
			b.slots = make(chan struct{}, l.limits.InFlight)
		}
		l.buckets[principal] = b
	}
	b.users.Add(1)
	return b
}

// sweepEvery is how often bucketFor sweeps: the time a bucket takes to
// refill from empty when RPS is at least 1.
const sweepEvery = time.Second

// sweepLocked forgets every bucket no request holds whose tokens have
// refilled to burst. Such a bucket admits exactly what the fresh one
// bucketFor would make in its place, so admission does not change, and
// the map holds the recently active principals, not all ever seen.
func (l *Limiter) sweepLocked(now time.Time) {
	for p, b := range l.buckets {
		if b.users.Load() != 0 {
			continue
		}
		b.mu.Lock()
		full := b.tokens+now.Sub(b.last).Seconds()*l.limits.RPS >= l.burst
		b.mu.Unlock()
		if full {
			delete(l.buckets, p)
		}
	}
}

// Principals reports how many principals have admission state.
func (l *Limiter) Principals() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}

// Stats reports cumulative rejection counts.
func (l *Limiter) Stats() Stats {
	return Stats{
		ThrottledRate:        l.throttledRate.Load(),
		ThrottledConcurrency: l.throttledConc.Load(),
	}
}

// Acquire admits one request for principal, blocking up to maxWait
// while shaping. On success it returns a release function the caller
// must invoke when the request finishes; on rejection it returns an
// error wrapping ErrLimited.
func (l *Limiter) Acquire(principal string) (func(), error) {
	b := l.bucketFor(principal)
	release := func() { b.users.Add(-1) }

	if b.slots != nil {
		select {
		case b.slots <- struct{}{}:
		default:
			t := time.NewTimer(maxWait)
			select {
			case b.slots <- struct{}{}:
				t.Stop()
			case <-t.C:
				release()
				l.throttledConc.Add(1)
				return nil, fmt.Errorf("%w: %d requests in flight", ErrLimited, l.limits.InFlight)
			}
		}
		release = func() {
			<-b.slots
			b.users.Add(-1)
		}
	}

	if rps := l.limits.RPS; rps > 0 {
		b.mu.Lock()
		now := l.now()
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens = min(b.tokens+dt*rps, l.burst)
			b.last = now
		}
		var wait time.Duration
		if b.tokens < 1 {
			// Reserve the token and sleep out the deficit outside the
			// lock — arrivals queue FIFO-ish by growing the deficit.
			wait = time.Duration((1 - b.tokens) / rps * float64(time.Second))
			if wait > maxWait {
				b.mu.Unlock()
				release()
				l.throttledRate.Add(1)
				return nil, fmt.Errorf("%w: rate %g req/s exceeded", ErrLimited, rps)
			}
		}
		b.tokens--
		b.mu.Unlock()
		if wait > 0 {
			time.Sleep(wait)
		}
	}

	return release, nil
}
