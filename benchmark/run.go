package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"discfs"
)

var ctx = context.Background()

// scale sizes every workload. "full" is what BENCHMARK.json runs;
// "tiny" is the smoke-test size (seconds, not a measurement).
type scale struct {
	streamFile, streamIters, streamWarm int // bytes; timed and warm-up iterations a round
	dedupFile, dedupFiles               int // bytes; files written (and kept) a round
	smallFile, smallHot                 int // bytes
	smallBlock, smallIters              int // ops an iteration; iterations a round
	treeDirs, treePerDir, treeMean      int
	searchIters                         int
	shareBatch, shareBatches            int // sessions an iteration; iterations a round
	probeCreds                          int // size of the probes' large KeyNote session
}

const (
	kib = 1 << 10
	mib = 1 << 20
)

var scales = map[string]scale{
	"full": {
		streamFile: 64 * mib, streamIters: 12, streamWarm: 2,
		dedupFile: 32 * mib, dedupFiles: 8,
		smallFile: 64 * mib, smallHot: 8 * mib, smallBlock: 1024, smallIters: 16,
		treeDirs: 24, treePerDir: 64, treeMean: 12 * kib, searchIters: 12,
		shareBatch: 100, shareBatches: 6, probeCreds: 6000,
	},
	"tiny": {
		streamFile: 3 * mib, streamIters: 2, streamWarm: 1,
		dedupFile: 3 * mib, dedupFiles: 3,
		smallFile: 2 * mib, smallHot: 512 * kib, smallBlock: 512, smallIters: 2,
		treeDirs: 3, treePerDir: 8, treeMean: 2 * kib, searchIters: 2,
		shareBatch: 10, shareBatches: 2, probeCreds: 200,
	},
}

// A workload is run in rounds. Each round builds a fresh server, so
// that server-side state (credentials, chunks, allocator position) grows
// the same way in every round and on both sides of an A/B, and so that
// set-up is sampled several times a run.
type workload interface {
	// setup brings up the server, generates keys, populates and warms
	// up; its duration is one setup_s sample.
	setup(r *run, round int) error
	// iterations is the number of timed iterations in a round.
	iterations() int
	// iterate runs one timed iteration (a fixed number of ops) and
	// records one throughput sample and one latency sample per op.
	iterate(r *run, i int) error
	// finish runs the end-of-round oracles and tears the round down.
	finish(r *run) error
}

func newWorkload(name string, sc scale) (workload, error) {
	switch name {
	case "stream":
		return &streamWL{sc: sc}, nil
	case "stream-dedup":
		return &streamWL{sc: sc, dedup: true}, nil
	case "smallio":
		return &smallioWL{sc: sc}, nil
	case "search":
		return &searchWL{sc: sc}, nil
	case "share":
		return &shareWL{sc: sc}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

var workloadNames = []string{"stream", "stream-dedup", "smallio", "search", "share"}

// run is the context of one measurement: the inputs' seed, the stack
// variation under test, and the samples recorded so far.
type run struct {
	seed       uint64
	tr         *tracer               // non-nil builds stacks with the seam wrappers
	clientOpts []discfs.ClientOption // the benchmark user's Dial options
	inject     string                // fault injected once into an oracle's input (tests)
	injected   atomic.Bool
	warm       bool       // inside a warm-up iteration: record nothing
	lastStack  *stack     // the current round's stack, for counters
	clients    int        // the generator's concurrent clients on this workload
	cnt        *totals    // non-nil reads the counters around each round's timed iterations
	mu         sync.Mutex // guards rec for the concurrent workload
	rec        recorder
	pending    iteration // the iteration sample() was last given
}

// recorder accumulates the samples of the timed iterations.
type recorder struct {
	// In reference seconds (see calib.go):
	setupS    []float64 // one per round
	opsPerSec []float64 // one per iteration
	latUS     []float64 // one per op
	cpuUS     []float64 // one per iteration: process CPU per op

	// As measured:
	rawOpsPerSec []float64     // one per iteration
	slow         []float64     // one per iteration: the host's slowdown against the reference
	ops          int64         // ops in timed iterations
	attempted    int64         // outcomes the oracles checked
	failed       int64         // of which wrong
	wall         time.Duration // spent inside timed iterations
	userBytes    int64         // payload moved by timed ops
	writeBytes   int64
	readBytes    int64
	writeTime    time.Duration
	readTime     time.Duration
	storedRatio  float64 // device bytes allocated per live user byte, first round
}

// injectNow reports, once per run, that the named fault is due.
func (r *run) injectNow(kind string) bool {
	return r.inject == kind && !r.warm && r.injected.CompareAndSwap(false, true)
}

func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	r.rec.failed++
	r.mu.Unlock()
	fmt.Fprintf(os.Stderr, "ORACLE: "+format+"\n", args...)
}

// sample hands the timed iteration just run — ops operations in d, with
// their latencies — to measure, which records it once it knows how fast
// the host was.
func (r *run) sample(ops int, d time.Duration, latUS []float64) {
	if !r.warm {
		r.pending = iteration{ops, d, latUS}
	}
}

type iteration struct {
	ops   int
	d     time.Duration
	latUS []float64
}

// commit records the pending iteration with every time divided by slow,
// the host's slowdown against the reference while it ran.
func (r *run) commit(cpu time.Duration, slow float64) {
	it := r.pending
	r.pending = iteration{}
	if it.ops == 0 {
		return
	}
	rec := &r.rec
	rec.rawOpsPerSec = append(rec.rawOpsPerSec, float64(it.ops)/it.d.Seconds())
	rec.opsPerSec = append(rec.opsPerSec, float64(it.ops)/it.d.Seconds()*slow)
	for _, l := range it.latUS {
		rec.latUS = append(rec.latUS, l/slow)
	}
	rec.cpuUS = append(rec.cpuUS, float64(cpu.Microseconds())/float64(it.ops)/slow)
	rec.slow = append(rec.slow, slow)
	rec.ops += int64(it.ops)
	rec.wall += it.d
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs rounds of w until budget has elapsed. A round in
// progress when the budget runs out stops after its current iteration
// and is still verified by finish. The calibration loop runs before and
// after every set-up and every iteration; each is recorded in reference
// seconds, scaled by the mean of the two readings around it.
func measure(w workload, r *run, budget time.Duration) error {
	cal, err := newCalibrator()
	if err != nil {
		return err
	}
	defer cal.close()
	start := time.Now()
	for round := 0; ; round++ {
		before := cal.slowdown()
		t0 := time.Now()
		if err := w.setup(r, round); err != nil {
			return fmt.Errorf("round %d setup: %w", round, err)
		}
		setup := time.Since(t0).Seconds()
		after := cal.slowdown()
		r.rec.setupS = append(r.rec.setupS, setup/((before+after)/2))
		if r.cnt != nil {
			r.cnt.begin(r.lastStack)
		}
		for i := 0; i < w.iterations(); i++ {
			before = after
			r.tr.start()
			cpu0 := cpuTime()
			err := w.iterate(r, i)
			cpu := cpuTime() - cpu0
			r.tr.stop()
			if err != nil {
				w.finish(r)
				return fmt.Errorf("round %d iteration %d: %w", round, i, err)
			}
			after = cal.slowdown()
			r.commit(cpu, (before+after)/2)
			if time.Since(start) >= budget {
				break
			}
		}
		if r.cnt != nil {
			r.cnt.end(r.lastStack)
		}
		if err := w.finish(r); err != nil {
			return fmt.Errorf("round %d finish: %w", round, err)
		}
		if time.Since(start) >= budget {
			return nil
		}
	}
}

// warmUp runs n untimed iterations (negative indices, so that they use
// inputs no timed iteration repeats).
func warmUp(w workload, r *run, n int) error {
	r.warm = true
	defer func() { r.warm = false }()
	for i := 0; i < n; i++ {
		if err := w.iterate(r, -1-i); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// wakeCPUs keeps every CPU busy for d. On a small VM a CPU that has
// been idle is slow to come back (the first second of a two-thread
// load runs at half speed here); paying that before the first set-up
// keeps it out of the first round's samples.
func wakeCPUs(d time.Duration) {
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := newRNG(uint64(i), "wake")
			for start := time.Now(); time.Since(start) < d; {
				for j := 0; j < 1<<16; j++ {
					r.next()
				}
			}
		}()
	}
	wg.Wait()
}
