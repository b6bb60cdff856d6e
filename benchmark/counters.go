package main

import (
	"bufio"
	"runtime"
	"strconv"
	"strings"
	"time"

	"discfs"
	"discfs/internal/bufpool"
	"discfs/internal/core"
	"discfs/internal/dedup"
	"discfs/internal/metrics"
	"discfs/internal/secchan"
)

// Counters are read through the program's public stats surfaces before
// and after the timed iterations of every round and the differences
// summed, so that set-up, warm-up and teardown are excluded and a fresh
// server per round does not reset the totals.

// procs are the NFS procedures whose call counts and service latency
// are reported, by their metrics label.
var procs = []string{"read", "write", "commit", "lookup", "getattr", "readdirplus", "lookupplus"}

// snapshot is one reading of every surface.
type snapshot struct {
	stats     discfs.Stats
	rpcs      uint64 // records the RPC server dispatched
	proc      map[string]metrics.HistogramSnapshot
	dcHits    uint64
	dcMisses  uint64
	sec       secchan.Stats
	pool      bufpool.PoolStats
	dd        dedup.Stats
	mallocs   uint64
	allocated uint64
	gcPause   uint64
	heapSys   uint64
	cpu       time.Duration
	wire      int64
	wireW     int64
	devW      int64
	devBytes  int64
	devSyncs  int64
}

func takeSnapshot(st *stack) snapshot {
	var s snapshot
	s.stats = st.srv.Stats()
	s.rpcs = uint64(metricValue(st.srv.Metrics(), "discfs_rpc_requests_total"))
	hv := st.srv.Metrics().HistogramVec("discfs_nfs_latency_seconds", "", "proc", metrics.DefLatencyBuckets)
	s.proc = make(map[string]metrics.HistogramSnapshot, len(procs))
	for _, p := range procs {
		s.proc[p] = hv.With(p).Snapshot()
	}
	s.dcHits, s.dcMisses = core.DataCacheStats()
	s.sec = secchan.ReadStats()
	s.pool = bufpool.Stats()
	if st.dd != nil {
		s.dd = st.dd.Stats()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocated, s.gcPause, s.heapSys = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs, ms.HeapSys
	s.cpu = cpuTime()
	s.wire, s.wireW = st.wire.bytes.Load(), st.wire.writes.Load()
	s.devW, s.devBytes, s.devSyncs = st.devc.writes.Load(), st.devc.bytesWritten.Load(), st.devc.syncs.Load()
	return s
}

// totals are the summed differences.
type totals struct {
	begun bool
	start snapshot

	procCount                   map[string]uint64
	procHist                    map[string]metrics.HistogramSnapshot
	queries, rpcs               uint64
	cacheHits, cacheMisses      uint64
	pathHits, pathMisses        uint64
	credsAdded                  int
	credsEnd                    int
	gathered, backend, commits  uint64
	auditDropped                uint64
	dcHits, dcMisses            uint64
	handshakes, rejected        uint64
	poolGets, poolMisses        int64
	ddHits                      uint64
	ddChunks, ddLogical, ddStor int64
	mallocs, allocated, gcPause uint64
	heapPeak                    uint64
	cpu                         time.Duration
	wire, wireW                 int64
	devW, devBytes, devSyncs    int64
}

func (t *totals) begin(st *stack) { t.start, t.begun = takeSnapshot(st), true }

func (t *totals) end(st *stack) {
	if !t.begun {
		return
	}
	t.begun = false
	a, b := t.start, takeSnapshot(st)
	if t.procCount == nil {
		t.procCount = map[string]uint64{}
		t.procHist = map[string]metrics.HistogramSnapshot{}
	}
	for _, p := range procs {
		d := b.proc[p]
		d.Counts = append([]uint64(nil), d.Counts...)
		for i, c := range a.proc[p].Counts {
			d.Counts[i] -= c
		}
		d.Count -= a.proc[p].Count
		d.Sum -= a.proc[p].Sum
		t.procCount[p] += d.Count
		h := t.procHist[p]
		h.Merge(d)
		t.procHist[p] = h
	}
	t.queries += b.stats.Queries - a.stats.Queries
	t.rpcs += b.rpcs - a.rpcs
	t.cacheHits += b.stats.CacheHits - a.stats.CacheHits
	t.cacheMisses += b.stats.CacheMisses - a.stats.CacheMisses
	t.pathHits += b.stats.PathCacheHits - a.stats.PathCacheHits
	t.pathMisses += b.stats.PathCacheMisses - a.stats.PathCacheMisses
	t.credsAdded += b.stats.Credentials - a.stats.Credentials
	t.credsEnd = max(t.credsEnd, b.stats.Credentials)
	t.gathered += b.stats.WritesGathered - a.stats.WritesGathered
	t.backend += b.stats.BackendWrites - a.stats.BackendWrites
	t.commits += b.stats.Commits - a.stats.Commits
	t.auditDropped += b.stats.AuditDropped - a.stats.AuditDropped
	t.dcHits += b.dcHits - a.dcHits
	t.dcMisses += b.dcMisses - a.dcMisses
	t.handshakes += b.sec.Handshakes - a.sec.Handshakes
	t.rejected += b.sec.Rejected - a.sec.Rejected
	t.poolGets += b.pool.Gets - a.pool.Gets
	t.poolMisses += b.pool.Misses - a.pool.Misses
	t.ddHits += b.dd.Hits - a.dd.Hits
	t.ddChunks += b.dd.Chunks - a.dd.Chunks
	t.ddLogical += b.dd.BytesLogical - a.dd.BytesLogical
	t.ddStor += b.dd.BytesStored - a.dd.BytesStored
	t.mallocs += b.mallocs - a.mallocs
	t.allocated += b.allocated - a.allocated
	t.gcPause += b.gcPause - a.gcPause
	t.heapPeak = max(t.heapPeak, b.heapSys)
	t.cpu += b.cpu - a.cpu
	t.wire += b.wire - a.wire
	t.wireW += b.wireW - a.wireW
	t.devW += b.devW - a.devW
	t.devBytes += b.devBytes - a.devBytes
	t.devSyncs += b.devSyncs - a.devSyncs
}

// report emits the counter-derived per-layer metrics. ops and userBytes
// are those of the window the counters were taken over.
func (t *totals) report(res *result, ops, userBytes int64) {
	perOp := func(n float64) float64 { return ratio(n, float64(ops)) }
	for _, p := range procs {
		res.set("nfs.rpcs_per_op."+p, perOp(float64(t.procCount[p])), "1/op")
	}
	for _, p := range procs {
		res.set("nfs.proc_p50_us."+p, t.procHist[p].Quantile(0.5)*1e6, "us")
	}
	res.set("core.server.decision_cache_hit_ratio", ratio(float64(t.cacheHits), float64(t.cacheHits+t.cacheMisses)), "ratio")
	res.set("core.server.path_cache_hit_ratio", ratio(float64(t.pathHits), float64(t.pathHits+t.pathMisses)), "ratio")
	res.set("keynote.queries_per_op", perOp(float64(t.queries)), "1/op")
	res.set("keynote.credentials_end", float64(t.credsEnd), "count")
	res.set("core.client.datacache_hit_ratio", ratio(float64(t.dcHits), float64(t.dcHits+t.dcMisses)), "ratio")
	res.set("nfs.gather.absorbed_writes", float64(t.gathered), "count")
	res.set("nfs.gather.backend_writes", float64(t.backend), "count")
	res.set("nfs.gather.coalesce_ratio", ratio(float64(t.gathered), float64(t.backend)), "ratio")
	res.set("nfs.gather.commits", float64(t.commits), "count")
	res.set("dedup.hit_ratio", ratio(float64(t.ddHits), float64(t.ddHits)+float64(t.ddChunks)), "ratio")
	res.set("dedup.chunks", float64(t.ddChunks), "count")
	res.set("dedup.stored_per_logical", ratio(float64(t.ddStor), float64(t.ddLogical)), "ratio")
	res.set("secchan.handshakes", float64(t.handshakes), "count")
	res.set("secchan.rejected", float64(t.rejected), "count")
	res.set("bufpool.gets_per_op", perOp(float64(t.poolGets)), "1/op")
	res.set("bufpool.miss_ratio", ratio(float64(t.poolMisses), float64(t.poolGets)), "ratio")
	res.set("audit.dropped", float64(t.auditDropped), "count")
	res.set("go.allocs_per_op", perOp(float64(t.mallocs)), "1/op")
	res.set("go.alloc_bytes_per_user_byte", ratio(float64(t.allocated), float64(userBytes)), "ratio")
	res.set("go.gc_pause_ms", float64(t.gcPause)/1e6, "ms")
	res.set("go.heap_peak_mib", float64(t.heapPeak)/mib, "MiB")
	res.set("proc.cpu_s", t.cpu.Seconds(), "s")
}

// metricValue reads one unlabeled sample from a registry through its
// text exposition — the public surface for metrics that have no getter.
func metricValue(reg *metrics.Registry, name string) float64 {
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		return 0
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			v, _ := strconv.ParseFloat(rest, 64)
			return v
		}
	}
	return 0
}
