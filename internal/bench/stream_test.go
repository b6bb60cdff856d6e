package bench

import (
	"testing"
)

// TestStreamSpeedup is the data-plane acceptance measure: negotiated
// 512 KiB transfers must deliver at least 1.5x the aggregate sequential
// streaming throughput of the v2 8 KiB baseline on the uncached path
// (every byte is one synchronous RPC, so the per-operation saving is
// isolated from cache pipelining).
//
// The ratio was 3x while an 8 KiB WRITE cost the server five block
// transfers in ffs; with those gone the 8 KiB baseline is ~4x faster
// and the 512 KiB path ~2x, which leaves 2.5-3x between them on an idle
// machine and less with the rest of the suite competing for the CPUs.
// Sample and method are unchanged.
func TestStreamSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming measurement skipped in -short mode")
	}
	s, err := NewStreamSetup()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Aggregate throughput = total bytes moved / total wall time for the
	// write-then-read pass (the Bonnie convention: the slow direction
	// dominates, as it does for real workloads). Best of two runs per
	// size, as the rest of the harness reports best-of-N.
	const size = 4 << 20
	measure := func(transfer int) (StreamResult, float64) {
		var best StreamResult
		bestAgg := 0.0
		for i := 0; i < 2; i++ {
			res, err := s.Stream(size, transfer, false)
			if err != nil {
				t.Fatal(err)
			}
			agg := AggregateMBps(res)
			if agg > bestAgg {
				best, bestAgg = res, agg
			}
		}
		return best, bestAgg
	}
	base, aggBase := measure(8192)
	big, aggBig := measure(512 << 10)
	t.Logf("8 KiB:   write %.1f MB/s, read %.1f MB/s, aggregate %.1f MB/s", base.WriteMBps, base.ReadMBps, aggBase)
	t.Logf("512 KiB: write %.1f MB/s, read %.1f MB/s, aggregate %.1f MB/s", big.WriteMBps, big.ReadMBps, aggBig)

	if aggBase <= 0 || aggBig < 1.5*aggBase {
		t.Errorf("512 KiB aggregate %.1f MB/s vs 8 KiB %.1f MB/s: below the 1.5x acceptance bound",
			aggBig, aggBase)
	}
}

// TestStreamCachedCorrectness: the cached streaming path moves the same
// bytes (the throughput table's cached rows are measured elsewhere;
// here we only assert it works at both granule sizes).
func TestStreamCachedCorrectness(t *testing.T) {
	s, err := NewStreamSetup()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, transfer := range []int{8192, 512 << 10} {
		if _, err := s.Stream(2<<20, transfer, true); err != nil {
			t.Errorf("cached stream at %d: %v", transfer, err)
		}
	}
}

// BenchmarkStream reports streaming throughput for the CI trajectory;
// run with -benchtime=1x for a smoke pass.
func BenchmarkStream(b *testing.B) {
	s, err := NewStreamSetup()
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for _, bc := range []struct {
		name     string
		transfer int
		cached   bool
	}{
		{"8KiB-uncached", 8192, false},
		{"512KiB-uncached", 512 << 10, false},
		{"8KiB-cached", 8192, true},
		{"512KiB-cached", 512 << 10, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const size = 8 << 20
			var wSum, rSum float64
			for i := 0; i < b.N; i++ {
				res, err := s.Stream(size, bc.transfer, bc.cached)
				if err != nil {
					b.Fatal(err)
				}
				wSum += res.WriteMBps
				rSum += res.ReadMBps
			}
			b.SetBytes(2 * size)
			b.ReportMetric(wSum/float64(b.N), "write-MB/s")
			b.ReportMetric(rSum/float64(b.N), "read-MB/s")
		})
	}
}

// TestCachedWriteNoScanCliff guards the default cache against the cliff
// the 8 KiB grant used to fall off: with one window per page the cache
// holds thousands of them, and a flush or eviction that walked them all
// made a 64 MiB sequential write five times slower cached (8.9 MB/s)
// than uncached (46). Both sides now wait on the same thing — the
// server's write gathering re-copies an extent on every adjacent 8 KiB
// insert — and land within run-to-run noise of each other, so the guard
// is set between parity and the cliff, with room for the race detector's
// skew: cached may not fall below a third of uncached.
func TestCachedWriteNoScanCliff(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming measurement skipped in -short mode")
	}
	s, err := NewStreamSetup()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	best := func(cached bool) float64 {
		mbps := 0.0
		for i := 0; i < 2; i++ {
			res, err := s.Stream(64<<20, 8192, cached)
			if err != nil {
				t.Fatal(err)
			}
			mbps = max(mbps, res.WriteMBps)
		}
		return mbps
	}
	uncached, cached := best(false), best(true)
	t.Logf("64 MiB write at the 8 KiB grant: uncached %.1f MB/s, cached %.1f MB/s", uncached, cached)
	if cached < uncached/3 {
		t.Errorf("cached %.1f MB/s is below a third of uncached %.1f MB/s", cached, uncached)
	}
}
