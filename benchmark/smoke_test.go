package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestSmoke runs every workload at the tiny scale, untraced and traced:
// the oracles hold, every declared metric comes out finite, the traced
// run leaves a parseable span file whose self times add up, and no
// goroutine survives the teardown.
func TestSmoke(t *testing.T) {
	m, _, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			res, err := runBenchmark(name, scales["tiny"], 2, 100*time.Millisecond, traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			for _, bad := range diffMetrics(name, want, res) {
				t.Error(bad)
			}
			if !traced {
				for _, mm := range want {
					if res.Metrics[mm.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, must never be 0", name, mm.Name, res.Metrics[mm.Name].Value)
					}
				}
				continue
			}
			checkSpanFile(t, filepath.Join(outDir(), "trace-"+name+".jsonl"))
			// The data cache keeps the pooled records its blocks alias and
			// never returns them (see README), so only the workload that
			// reads no file through it can be held to a zero balance.
			if out := res.Metrics["bufpool.outstanding_end"].Value; name == "share" && out != 0 {
				t.Errorf("share: bufpool.outstanding_end = %v, want 0", out)
			}
			if v := res.Metrics["audit.dropped"].Value; v != 0 {
				t.Errorf("%s: audit.dropped = %v, want 0", name, v)
			}
		}
	}
	// Connection goroutines unwind asynchronously after Close returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after teardown, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// checkSpanFile parses the span file and checks the attribution
// identity on it: the layers' self times, less the store work no client
// op waited for, add up to the time inside client ops.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr := &tracer{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	sc.Scan() // the provenance line
	layers := map[string]layer{}
	for l, name := range layerNames {
		layers[name] = layer(l)
	}
	for sc.Scan() {
		var s struct {
			ID, Parent, Req uint64
			Layer, Op       string
			Start           int64 `json:"start_ns"`
			End             int64 `json:"end_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		l, ok := layers[s.Layer]
		if !ok || s.End < s.Start || s.ID == 0 {
			t.Fatalf("%s: bad span %s", path, sc.Text())
		}
		tr.spans[l] = append(tr.spans[l], span{ID: s.ID, Layer: l, Start: s.Start, End: s.End})
	}
	if len(tr.spans[layerClient]) == 0 || len(tr.spans[layerStore]) == 0 || len(tr.spans[layerDevice]) == 0 {
		t.Fatalf("%s: a layer has no spans", path)
	}
	st := tr.selfTimes()
	sum := st.aboveStore + st.dedup + st.ffs + st.device - st.background
	if diff := float64(sum-st.root) / float64(st.root); diff > 0.05 || diff < -0.05 {
		t.Errorf("%s: self times sum to %d ns, root spans to %d ns", path, sum, st.root)
	}
}

func TestIntervals(t *testing.T) {
	u := union([]span{{Start: 0, End: 10}, {Start: 5, End: 20}, {Start: 30, End: 40}})
	if len(u) != 2 || length(u) != 30 {
		t.Errorf("union = %v", u)
	}
	v := union([]span{{Start: 8, End: 35}})
	if got := overlap(u, v); got != 17 {
		t.Errorf("overlap = %d, want 17", got)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
