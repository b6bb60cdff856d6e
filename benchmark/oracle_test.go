package main

import (
	"testing"
	"time"
)

// TestOraclesCatchFaults flips one byte of what each data workload read
// back (one wc count for search) and one verdict of share, and requires
// the run to be reported incorrect — which makes main exit non-zero.
func TestOraclesCatchFaults(t *testing.T) {
	for _, tc := range []struct{ workload, inject string }{
		{"stream", "corrupt"},
		{"stream-dedup", "corrupt"},
		{"smallio", "corrupt"},
		{"search", "corrupt"},
		{"share", "verdict"},
	} {
		res, err := runBenchmark(tc.workload, scales["tiny"], 3, 100*time.Millisecond, false, tc.inject)
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with -inject %s: correct=%v failed=%d, want an incorrect run", tc.workload, tc.inject, res.Correct, res.Failed)
		}
	}
}
