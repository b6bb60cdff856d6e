// Command benchmark is the DisCFS benchmark: five workloads over the
// whole in-process stack (public client API -> secure channel over
// loopback TCP -> RPC -> NFS -> credential check -> store -> FFS on a
// RAM device), end-to-end metrics from untraced runs and per-layer
// metrics from a separate traced run. See README.md and, for the
// contract with the driver, ../BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		wlName  = flag.String("workload", "", "workload to run: stream, stream-dedup, smallio, search, share")
		seed    = flag.Uint64("seed", 1, "seed every input is derived from")
		seconds = flag.Float64("seconds", 18, "how long to measure")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: untraced run printing the end-to-end metrics")
		scName  = flag.String("scale", "full", "input sizes: full, or tiny for smoke tests")
		inject  = flag.String("inject", "", "corrupt the oracle's input (corrupt, verdict): the run must then fail")
		record  = flag.String("record", "", "append the result, with provenance, to this JSONL file (a set for -compare)")
		check   = flag.Bool("check", false, "check BENCHMARK.json against the harness and exit")
		compare = flag.Bool("compare", false, "compare two -record files given as arguments and exit")
	)
	flag.BoolVar(&verbose, "v", false, "print the per-iteration samples to standard error")
	flag.Parse()
	switch {
	case *check:
		if err := checkManifest(); err != nil {
			fatal(err)
		}
		fmt.Println("BENCHMARK.json matches the harness")
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		if err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	sc, ok := scales[*scName]
	if !ok {
		fatal(fmt.Errorf("unknown scale %q", *scName))
	}
	res, err := runBenchmark(*wlName, sc, *seed, time.Duration(*seconds*float64(time.Second)), *trace != 0, *inject)
	if err != nil {
		fatal(err)
	}
	prov := provenance(*wlName, *scName, *seed, *seconds, *trace != 0)
	fmt.Fprintln(os.Stderr, prov)
	for _, name := range res.order {
		m := res.Metrics[name]
		fmt.Printf("%-40s %16.6g %s\n", name, m.Value, m.Unit)
	}
	if *record != "" {
		if err := appendRecord(*record, prov, res); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(2)
	}
}

// verbose prints the raw samples behind the medians.
var verbose bool

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
}

func (res *result) set(name string, value float64, unit string) {
	if _, dup := res.Metrics[name]; !dup {
		res.order = append(res.order, name)
	}
	res.Metrics[name] = metric{value, unit}
}

// runBenchmark runs one workload and returns what the driver reads.
func runBenchmark(name string, sc scale, seed uint64, budget time.Duration, traced bool, inject string) (*result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	w, err := newWorkload(name, sc)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	r := &run{seed: seed, inject: inject}
	wakeCPUs(min(750*time.Millisecond, budget/10))
	if traced {
		if err := runTraced(name, sc, r, budget, res); err != nil {
			return nil, err
		}
	} else {
		if err := measure(w, r, budget); err != nil {
			return nil, err
		}
		endToEnd(&r.rec, res)
		if verbose {
			fmt.Fprintf(os.Stderr, "ops/s samples: %.0f\nas measured: %.0f\nhost slowdown: %.2f\nsetup samples: %.3f\n",
				r.rec.opsPerSec, r.rec.rawOpsPerSec, r.rec.slow, r.rec.setupS)
			fmt.Fprintf(os.Stderr, "ops_per_s as measured: %.6g; host slowdown: %.4f\n", median(r.rec.rawOpsPerSec), median(r.rec.slow))
		}
	}
	res.Attempted, res.Failed = r.rec.attempted, r.rec.failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// endToEnd derives the end-to-end metrics from an untraced run's
// samples. Every workload reports every metric; README.md says what an
// op is on each.
func endToEnd(rec *recorder, res *result) {
	res.set("setup_s", median(rec.setupS), "s")
	res.set("ops_per_s", median(rec.opsPerSec), "1/s")
	res.set("op_p50_us", quantile(rec.latUS, 0.50), "us")
	res.set("cpu_us_per_op", median(rec.cpuUS), "us")
	res.set("stored_bytes_per_user_byte", rec.storedRatio, "ratio")
}

// provenance is one JSON line describing where a number came from.
func provenance(workload, scale string, seed uint64, seconds float64, traced bool) string {
	p := map[string]any{
		"workload":   workload,
		"scale":      scale,
		"seed":       seed,
		"seconds":    seconds,
		"traced":     traced,
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"setting":    "loopback, in-process server, RAM device, no disk model",
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	b, _ := json.Marshal(p) // a map of strings and numbers cannot fail
	return string(b)
}

// commit names the code measured: `git rev-parse` where there is a
// repository, "unknown" in a bare checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
