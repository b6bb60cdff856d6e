// Command discfs-bench regenerates the paper's evaluation (§6): the five
// Bonnie figures (7-11), the filesystem search macro-benchmark
// (Figure 12), the parallel authorization-check scaling table (the
// Fig 8/9 cost, measured under concurrency), and the access-control
// micro-benchmarks, printing one table per figure with rows for FFS,
// CFS-NE and DisCFS.
//
//	discfs-bench [-size 16] [-runs 3] [-tree-files 1536] [-authz-ops 200000]
//
// Absolute numbers depend on the host; the result that reproduces the
// paper is the *shape*: FFS far ahead of both user-level NFS systems,
// and CFS-NE ≈ DisCFS (credential checks are almost free once policy
// results are cached).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"discfs/internal/bench"
	"discfs/internal/keynote"
)

// benchRow is one (configuration, value) pair of a figure's table.
type benchRow struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// benchFigure is the machine-readable form of one table, written as
// BENCH_<figure>.json so the perf trajectory is tracked across PRs.
type benchFigure struct {
	Figure string     `json:"figure"`
	Title  string     `json:"title"`
	Unit   string     `json:"unit"`
	Rows   []benchRow `json:"rows"`
}

// jsonDir is the -json-dir flag; empty disables emission.
var jsonDir string

// emitJSON writes one figure's JSON file next to the table output.
func emitJSON(figure, title, unit string, rows []benchRow) {
	if jsonDir == "" {
		return
	}
	data, err := json.MarshalIndent(benchFigure{Figure: figure, Title: title, Unit: unit, Rows: rows}, "", "  ")
	if err != nil {
		check(err)
	}
	check(os.MkdirAll(jsonDir, 0o755))
	path := filepath.Join(jsonDir, "BENCH_"+figure+".json")
	check(os.WriteFile(path, append(data, '\n'), 0o644))
}

func main() {
	var (
		sizeMB    = flag.Int("size", 16, "Bonnie file size in MiB (paper: 100)")
		runs      = flag.Int("runs", 3, "measurement runs per figure (best reported)")
		subsys    = flag.Int("tree-dirs", 24, "search tree: subsystem directories")
		perDir    = flag.Int("tree-files", 64, "search tree: files per directory")
		meanSize  = flag.Int("tree-mean", 12*1024, "search tree: mean file size")
		authzOps  = flag.Int("authz-ops", 200000, "authorization benchmark: cached checks per run")
		pwSizeKB  = flag.Int("pw-size", 1024, "parallel write benchmark: KiB per writer")
		streamMax = flag.Int("stream-max", 64, "streaming table: largest file size in MiB (sizes step 8x from 1: 1, 8, 64)")
		soak      = flag.Bool("soak", false, "run the operations-plane soak instead of the figures")
		soakDur   = flag.Duration("soak-duration", 10*time.Second, "soak measurement window (with -soak)")
		soakWk    = flag.Int("soak-workers", 32, "soak concurrent session-churning workers (with -soak)")
		soakHot   = flag.Float64("soak-hot-rps", 50, "soak hot-principal rate cap in req/s (with -soak)")
		dedupOnly = flag.Bool("dedup", false, "run only the dedup table (CI gate + artifact)")
		dedupPct  = flag.Int("dedup-dup-pct", 90, "dedup table: duplicate fraction of the headline stream, in percent")
		dedupMB   = flag.Int("dedup-size", 8, "dedup table: MiB streamed per writer")
	)
	flag.StringVar(&jsonDir, "json-dir", ".", "directory for BENCH_<figure>.json files (empty disables)")
	flag.Parse()
	if *soak {
		runSoak(*soakDur, *soakWk, *soakHot)
		return
	}
	if *dedupOnly {
		printDedupHeader()
		dedupTable(*dedupPct, int64(*dedupMB)<<20)
		return
	}
	size := int64(*sizeMB) << 20

	fmt.Printf("DisCFS evaluation — Bonnie file %d MiB, search tree %d dirs × %d files, %d run(s)\n\n",
		*sizeMB, *subsys, *perDir, *runs)

	// ---- Figures 7-11: Bonnie ----
	type row struct {
		name string
		res  bench.BonnieResult
	}
	var rows []row
	for _, mk := range []func() (*bench.Setup, error){
		bench.SetupFFS, bench.SetupCFSNE, bench.SetupDisCFS, bench.SetupDisCFSNoCache,
	} {
		s, err := mk()
		check(err)
		best := bench.BonnieResult{}
		for r := 0; r < *runs; r++ {
			res, err := bench.Bonnie(s.FS, s.FS.Root(), size)
			check(err)
			best = maxResult(best, res)
		}
		rows = append(rows, row{s.Name, best})
		s.Close()
	}

	figures := []struct {
		fig   string
		title string
		get   func(bench.BonnieResult) float64
	}{
		{"Fig7", "Figure 7: Bonnie Sequential Output (Char)", func(r bench.BonnieResult) float64 { return r.OutputCharKBps }},
		{"Fig8", "Figure 8: Bonnie Sequential Output (Block)", func(r bench.BonnieResult) float64 { return r.OutputBlockKBps }},
		{"Fig9", "Figure 9: Bonnie Sequential Output (Rewrite)", func(r bench.BonnieResult) float64 { return r.RewriteKBps }},
		{"Fig10", "Figure 10: Bonnie Sequential Input (Char)", func(r bench.BonnieResult) float64 { return r.InputCharKBps }},
		{"Fig11", "Figure 11: Bonnie Sequential Input (Block)", func(r bench.BonnieResult) float64 { return r.InputBlockKBps }},
	}
	for _, fig := range figures {
		fmt.Println(fig.title)
		fmt.Println("  Filesystem   Throughput (KB/sec)")
		base := fig.get(rows[1].res) // CFS-NE is the base case
		var jrows []benchRow
		for _, r := range rows {
			v := fig.get(r.res)
			note := ""
			if r.name == "DisCFS" && base > 0 {
				note = fmt.Sprintf("   (%.1f%% of CFS-NE)", v/base*100)
			}
			fmt.Printf("  %-10s %12.0f%s\n", r.name, v, note)
			jrows = append(jrows, benchRow{Name: r.name, Value: v})
		}
		emitJSON(fig.fig, fig.title, "KB/s", jrows)
		fmt.Println()
	}

	// ---- Figure 12: filesystem search ----
	fmt.Println("Figure 12: Filesystem Search (wc over every .c/.h file)")
	fmt.Println("  Filesystem   Time (sec)")
	spec := bench.TreeSpec{Subsystems: *subsys, FilesPerDir: *perDir, MeanFileSize: *meanSize, Seed: 2001}
	var searchBase time.Duration
	var searchRows []benchRow
	for _, mk := range []func() (*bench.Setup, error){
		bench.SetupFFS, bench.SetupCFSNE, bench.SetupDisCFS,
	} {
		s, err := mk()
		check(err)
		files, bytes, err := bench.GenerateTree(s.Populate, s.Populate.Root(), spec)
		check(err)
		bestD := time.Duration(1<<62 - 1)
		var res bench.SearchResult
		for r := 0; r < *runs; r++ {
			start := time.Now()
			res, err = bench.Search(s.FS, s.FS.Root())
			check(err)
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		note := ""
		if s.Name == "CFS-NE" {
			searchBase = bestD
		}
		if s.Name == "DisCFS" && searchBase > 0 {
			note = fmt.Sprintf("   (%.1f%% of CFS-NE)", float64(bestD)/float64(searchBase)*100)
		}
		fmt.Printf("  %-10s %12.2f%s\n", s.Name, bestD.Seconds(), note)
		searchRows = append(searchRows, benchRow{Name: s.Name, Value: bestD.Seconds()})
		if s.Stats != nil {
			st := s.Stats()
			fmt.Printf("             [%d files, %d bytes walked; policy: %d queries, %d cache hits]\n",
				files, bytes, st.Queries, st.CacheHits)
		}
		s.Close()
		_ = res
	}
	emitJSON("Fig12", "Figure 12: Filesystem Search", "sec", searchRows)
	fmt.Println()

	// ---- Streaming throughput: negotiated vs baseline transfers ----
	fmt.Println("Streaming throughput (sequential write+read over the wire; 512 KiB negotiated vs 8 KiB baseline)")
	fmt.Println("  Config                    Size    Write MB/s    Read MB/s    Aggregate")
	streamTable(int64(*streamMax) << 20)
	fmt.Println()

	// ---- Metadata plane: batched walk/stat vs per-name RPCs ----
	fmt.Println("Metadata walk/stat (10k-entry tree; per-name LOOKUP walk vs batched READDIRPLUS walk)")
	fmt.Println("  Walk                Time (sec)")
	metaTable(*runs)
	fmt.Println()

	// ---- Federation scale-out: aggregate throughput vs servers ----
	fmt.Println("Federation scale-out (aggregate streaming write, device-bound servers, sharded /data)")
	fmt.Println("  Servers   Writers   Aggregate MB/s")
	fedTable()
	fmt.Println()

	// ---- Dedup: content-addressed store vs raw at varying duplication ----
	printDedupHeader()
	dedupTable(*dedupPct, int64(*dedupMB)<<20)
	fmt.Println()

	// ---- Parallel multi-client write scaling ----
	fmt.Println("Parallel write throughput (8 KiB blocks, one file per writer, seek-model disk)")
	fmt.Println("  Setup            Writers   Aggregate KB/s")
	parallelWriteTable(int64(*pwSizeKB) << 10)
	fmt.Println()

	// ---- Authorization scaling (Fig 8/9-style, parallel) ----
	fmt.Println("Authorization check throughput (server check path, 32 principals, 128 credentials)")
	fmt.Println("  Mode       Goroutines   Checks/sec")
	authzScaling(*authzOps)
	fmt.Println()

	// ---- Micro-benchmarks ----
	fmt.Println("Micro-benchmarks: access-control primitives")
	microCredential()
	fmt.Println()
	fmt.Println("run `go test -bench=Micro -benchmem` for the full suite " +
		"(handshake, null RPC, cached decisions, submission)")
}

// runSoak drives the operations-plane soak (metrics, admission control,
// revocation, connection cuts, graceful drain) and emits BENCH_ops.json.
// The two numbers CI gates on are audit_dropped and bufpool_outstanding:
// both must be zero after a full churn-and-drain cycle.
func runSoak(dur time.Duration, workers int, hotRPS float64) {
	res, err := bench.RunSoak(bench.SoakOptions{
		Duration: dur, Workers: workers, HotRPS: hotRPS,
		Log: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	})
	check(err)
	fmt.Printf("\nSoak (%d workers, %v):\n", res.Workers, dur)
	fmt.Printf("  sessions established: %10d\n", res.Sessions)
	fmt.Printf("  ops completed:        %10d (%.0f/s)\n", res.Ops, res.OpsPerSec)
	fmt.Printf("  hot/cold split:       %10d / %d\n", res.HotOps, res.ColdOps)
	fmt.Printf("  throttled:            %10d client, %d+%d server (rate+concurrency)\n",
		res.Throttled, res.ServerThrottledRate, res.ServerThrottledConc)
	fmt.Printf("  revocation errors:    %10d (expected after mid-run revoke)\n", res.RevokedErr)
	fmt.Printf("  connection cuts:      %10d\n", res.Cuts)
	fmt.Printf("  unexpected errors:    %10d\n", res.Errors)
	if res.ErrSample != "" {
		fmt.Printf("    first: %s\n", res.ErrSample)
	}
	fmt.Printf("  server latency:       %10.3f ms p50, %.3f ms p99\n", res.P50ms, res.P99ms)
	fmt.Printf("  /metrics scrape:      %10d bytes mid-run\n", res.ScrapeLen)
	fmt.Printf("  audit dropped:        %10d (leak gate)\n", res.AuditDropped)
	fmt.Printf("  bufpool outstanding:  %10d (leak gate)\n", res.BufpoolOutstanding)
	fmt.Printf("  fed victims fenced:   %10d on every server via the feed\n", res.FedRevoked)
	fmt.Printf("  feed propagated:      %10d entries pushed to peers\n", res.FeedPropagated)
	fmt.Printf("  feed lag:             %10d unacked at drain (convergence gate)\n", res.FeedLag)
	fmt.Printf("  dedup churn ops:      %10d (%d chunks live, %d hits, %d reclaimed)\n",
		res.DedupOps, res.DedupChunks, res.DedupHits, res.DedupReclaimed)
	fmt.Printf("  dedup ref leaks:      %10d (leak gate)\n", res.DedupRefLeaks)
	if res.DrainErr != "" {
		check(fmt.Errorf("soak: %s", res.DrainErr))
	}
	emitJSON("ops", "Operations-plane soak", "mixed", []benchRow{
		{Name: "sessions", Value: float64(res.Sessions)},
		{Name: "ops_per_sec", Value: res.OpsPerSec},
		{Name: "p50_ms", Value: res.P50ms},
		{Name: "p99_ms", Value: res.P99ms},
		{Name: "throttled_client", Value: float64(res.Throttled)},
		{Name: "throttled_rate", Value: float64(res.ServerThrottledRate)},
		{Name: "throttled_concurrency", Value: float64(res.ServerThrottledConc)},
		{Name: "revoked_errs", Value: float64(res.RevokedErr)},
		{Name: "cuts", Value: float64(res.Cuts)},
		{Name: "errors", Value: float64(res.Errors)},
		{Name: "scrape_bytes", Value: float64(res.ScrapeLen)},
		{Name: "audit_dropped", Value: float64(res.AuditDropped)},
		{Name: "bufpool_outstanding", Value: float64(res.BufpoolOutstanding)},
		{Name: "fed_revoked", Value: float64(res.FedRevoked)},
		{Name: "revocations_propagated", Value: float64(res.FeedPropagated)},
		{Name: "feed_lag", Value: float64(res.FeedLag)},
		{Name: "dedup_ops", Value: float64(res.DedupOps)},
		{Name: "dedup_hits", Value: float64(res.DedupHits)},
		{Name: "dedup_gc_reclaimed", Value: float64(res.DedupReclaimed)},
		{Name: "dedup_ref_leaks", Value: float64(res.DedupRefLeaks)},
	})
}

// authzScaling prints the parallel compliance-check throughput table:
// cached (the paper's 128-entry decision cache) and uncached (full
// KeyNote evaluation per check) at 1, 4 and 8 goroutines.
func authzScaling(ops int) {
	var jrows []benchRow
	for _, mode := range []struct {
		name      string
		cacheSize int
		ops       int
	}{
		{"cached", 128, ops},
		{"uncached", -1, ops / 20},
	} {
		a, err := bench.NewAuthzSetup(32, mode.cacheSize, 96)
		check(err)
		for _, g := range []int{1, 4, 8} {
			a.RunAuthz(g, 2) // warm: one decision per (peer, handle)
			res := a.RunAuthz(g, mode.ops/g+1)
			fmt.Printf("  %-10s %10d %12.0f\n", mode.name, g, res.OpsPerSec())
			jrows = append(jrows, benchRow{Name: fmt.Sprintf("%s/%dg", mode.name, g), Value: res.OpsPerSec()})
		}
		a.Close()
	}
	emitJSON("Authz", "Authorization check throughput", "checks/s", jrows)
}

// parallelWriteTable prints (and emits) the multi-client write scaling
// table: the global-lock baseline, the concurrent FFS write path, and
// the full DisCFS client-server path with server write-behind off/on.
func parallelWriteTable(perWriter int64) {
	var jrows []benchRow
	emit := func(name string, writers int, res bench.ParallelWriteResult) {
		fmt.Printf("  %-16s %7d %16.0f\n", name, writers, res.KBps())
		jrows = append(jrows, benchRow{Name: fmt.Sprintf("%s/%dw", name, writers), Value: res.KBps()})
	}
	for _, writers := range []int{1, 8} {
		views, _, err := bench.NewParallelFFSSerial(writers)
		check(err)
		res, err := bench.ParallelWrite(views, perWriter)
		check(err)
		emit("FFS-globallock", writers, res)

		views, fs, err := bench.NewParallelFFS(writers)
		check(err)
		res, err = bench.ParallelWrite(views, perWriter)
		check(err)
		if errs := fs.Check(); len(errs) != 0 {
			check(fmt.Errorf("fsck after parallel write: %v", errs[0]))
		}
		emit("FFS", writers, res)

		for _, wb := range []bool{false, true} {
			views, _, closeAll, err := bench.NewParallelDisCFS(writers, wb)
			check(err)
			res, err := bench.ParallelWrite(views, perWriter)
			check(err)
			closeAll()
			name := "DisCFS"
			if wb {
				name = "DisCFS-wb"
			}
			emit(name, writers, res)
		}
	}
	emitJSON("ParallelWrite", "Parallel multi-client write throughput", "KB/s", jrows)
}

// streamTable prints (and emits as BENCH_stream.json) the streaming
// throughput table: sequential write-then-read of 1 MiB–maxSize files,
// cached and uncached, at the negotiated 512 KiB transfer versus the
// v2 8 KiB baseline. The aggregate column is total bytes over total
// wall time; the data plane's acceptance bound is the 512 KiB aggregate
// reaching 1.5x the 8 KiB one.
func streamTable(maxSize int64) {
	s, err := bench.NewStreamSetup()
	check(err)
	defer s.Close()
	var jrows []benchRow
	for size := int64(1 << 20); size <= maxSize; size *= 8 {
		for _, cfg := range []struct {
			name     string
			transfer int
			cached   bool
		}{
			{"8KiB-uncached", 8192, false},
			{"512KiB-uncached", 512 << 10, false},
			{"8KiB-cached", 8192, true},
			{"512KiB-cached", 512 << 10, true},
		} {
			res, err := s.Stream(size, cfg.transfer, cfg.cached)
			check(err)
			label := fmt.Sprintf("%s/%dMiB", cfg.name, size>>20)
			fmt.Printf("  %-22s %5dMiB %12.1f %12.1f %12.1f\n",
				cfg.name, size>>20, res.WriteMBps, res.ReadMBps, bench.AggregateMBps(res))
			jrows = append(jrows,
				benchRow{Name: label + "/write", Value: res.WriteMBps},
				benchRow{Name: label + "/read", Value: res.ReadMBps},
				benchRow{Name: label + "/aggregate", Value: bench.AggregateMBps(res)})
		}
	}
	emitJSON("stream", "Streaming throughput: negotiated vs baseline transfer size", "MB/s", jrows)
}

// fedTable prints (and emits as BENCH_fed.json) the horizontal
// scale-out curve: aggregate write throughput of a federated client
// spreading disjoint working sets across 1, 2 and 3 servers, each on
// its own Exclusive modeled disk. The acceptance bound is 3 servers
// reaching 2.4x the single server.
func fedTable() {
	results, err := bench.RunFed([]int{1, 2, 3}, 6, 4<<20)
	check(err)
	var jrows []benchRow
	single := results[0].AggregateMBps
	for _, r := range results {
		note := ""
		if r.Servers > 1 && single > 0 {
			note = fmt.Sprintf("   (%.2fx)", r.AggregateMBps/single)
		}
		fmt.Printf("  %7d %9d %16.1f%s\n", r.Servers, r.Writers, r.AggregateMBps, note)
		jrows = append(jrows, benchRow{Name: fmt.Sprintf("%dsrv", r.Servers), Value: r.AggregateMBps})
	}
	if single > 0 {
		jrows = append(jrows, benchRow{Name: "speedup3", Value: results[len(results)-1].AggregateMBps / single})
	}
	emitJSON("fed", "Federation scale-out: aggregate write throughput vs servers", "MB/s", jrows)
}

func printDedupHeader() {
	fmt.Println("Dedup streaming write (content-addressed store vs raw, device-bound server, shared-segment streams)")
	fmt.Println("  Config            Dup%   Writers   Aggregate MB/s      Stored/Logical")
}

// dedupTable prints (and emits as BENCH_dedup.json) the dedup table:
// aggregate streaming write throughput through the full write-behind
// stack onto one exclusive modeled disk, without the content-addressed
// layer (baseline, measured on the duplicate-heavy stream) and with it
// at 0%, 50% and dupPct% duplicate segments. The acceptance bound is
// the dedup config at dupPct (default 90) reaching the baseline's
// throughput — duplicate chunks never touch the spindle, so saved
// writes are saved wall-clock time.
func dedupTable(dupPct int, perWriter int64) {
	pcts := []int{0, 50}
	if dupPct != 0 && dupPct != 50 {
		pcts = append(pcts, dupPct)
	}
	const writers = 3
	results, err := bench.RunDedup(pcts, writers, perWriter)
	check(err)
	var jrows []benchRow
	base := results[0].AggregateMBps
	for _, r := range results {
		name := "raw"
		note := ""
		ratio := "-"
		if r.Dedup {
			name = "dedup"
			if base > 0 {
				note = fmt.Sprintf("   (%.2fx)", r.AggregateMBps/base)
			}
		}
		if r.BytesLogical > 0 {
			ratio = fmt.Sprintf("%.0f%%", float64(r.BytesStored)/float64(r.BytesLogical)*100)
		}
		fmt.Printf("  %-16s %5d %9d %16.1f%-10s %8s\n", name, r.DupPct, r.Writers, r.AggregateMBps, note, ratio)
		jrows = append(jrows, benchRow{Name: fmt.Sprintf("%s/%dpct", name, r.DupPct), Value: r.AggregateMBps})
	}
	last := results[len(results)-1]
	if base > 0 {
		jrows = append(jrows, benchRow{Name: "speedup", Value: last.AggregateMBps / base})
	}
	if last.BytesLogical > 0 {
		jrows = append(jrows, benchRow{Name: "stored_ratio", Value: float64(last.BytesStored) / float64(last.BytesLogical)})
	}
	emitJSON("dedup", "Dedup streaming write: content-addressed store vs raw", "MB/s", jrows)
}

// metaTable prints (and emits as BENCH_meta.json) the metadata-plane
// comparison: walking and stat'ing the 10k-entry tree with one LOOKUP
// RPC per name versus batched READDIRPLUS pages with piggybacked
// attributes. The acceptance bound is the batched walk reaching 5x.
func metaTable(runs int) {
	res, err := bench.Meta(bench.MetaTreeSpec, runs)
	check(err)
	fmt.Printf("  %-18s %12.3f\n", "per-name", res.LegacySec)
	fmt.Printf("  %-18s %12.3f   (%.1fx)\n", "readdirplus", res.PlusSec, res.Speedup)
	emitJSON("meta", "Metadata walk/stat: batched READDIRPLUS vs per-name LOOKUP", "sec", []benchRow{
		{Name: "per-name-sec", Value: res.LegacySec},
		{Name: "readdirplus-sec", Value: res.PlusSec},
		{Name: "speedup", Value: res.Speedup},
		{Name: "files", Value: float64(res.Files)},
		{Name: "dirs", Value: float64(res.Dirs)},
	})
}

// microCredential times parse / verify / sign / query inline.
func microCredential() {
	admin := keynote.DeterministicKey("bench-admin")
	bob := keynote.DeterministicKey("bench-bob")
	cred, err := keynote.Sign(admin, keynote.AssertionSpec{
		Licensees:  keynote.LicenseesOr(bob.Principal),
		Conditions: `app_domain == "DisCFS" && (HANDLE == "42" || PATH ~= "/42/") -> "RWX";`,
	})
	check(err)
	time1 := timeIt(func() { _, _ = keynote.ParseAssertion(cred.Source) })
	time2 := timeIt(func() {
		a, _ := keynote.ParseAssertion(cred.Source)
		_ = a.Verify()
	})
	time3 := timeIt(func() {
		_, _ = keynote.Sign(admin, keynote.AssertionSpec{
			Licensees:  keynote.LicenseesOr(bob.Principal),
			Conditions: `HANDLE == "42" -> "R";`,
		})
	})
	session, err := keynote.NewSession([]string{"false", "X", "W", "WX", "R", "RX", "RW", "RWX"})
	check(err)
	check(session.AddPolicyText("Authorizer: \"POLICY\"\nLicensees: \"" +
		string(admin.Principal) + "\"\nConditions: app_domain == \"DisCFS\" -> _MAX_TRUST;\n"))
	check2(session.AddCredentialText(cred.Source))
	attrs := map[string]string{"app_domain": "DisCFS", "HANDLE": "42", "PATH": "/1/42/"}
	time4 := timeIt(func() { _, _ = session.Query(attrs, bob.Principal) })

	fmt.Printf("  credential parse:              %10s\n", time1)
	fmt.Printf("  credential parse+verify:       %10s\n", time2)
	fmt.Printf("  credential compose+sign:       %10s\n", time3)
	fmt.Printf("  compliance query (chain of 2): %10s\n", time4)
}

// timeIt reports the per-op time of fn over a short calibration loop.
func timeIt(fn func()) time.Duration {
	const warm = 16
	for i := 0; i < warm; i++ {
		fn()
	}
	n := 256
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(n)
}

func maxResult(a, b bench.BonnieResult) bench.BonnieResult {
	m := func(x, y float64) float64 {
		if x > y {
			return x
		}
		return y
	}
	return bench.BonnieResult{
		OutputCharKBps:  m(a.OutputCharKBps, b.OutputCharKBps),
		OutputBlockKBps: m(a.OutputBlockKBps, b.OutputBlockKBps),
		RewriteKBps:     m(a.RewriteKBps, b.RewriteKBps),
		InputCharKBps:   m(a.InputCharKBps, b.InputCharKBps),
		InputBlockKBps:  m(a.InputBlockKBps, b.InputBlockKBps),
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "discfs-bench: %v\n", err)
		os.Exit(1)
	}
}

func check2(_ any, err error) { check(err) }
