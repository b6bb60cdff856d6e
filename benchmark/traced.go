package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"discfs/internal/bufpool"
)

// runTraced is the -trace 1 run. It spends the budget on four things and
// emits every per-layer metric (0 where a workload bypasses the layer):
//
//  1. an untraced window on a plain stack, with the counters read around
//     it — the reference for the tracing overhead;
//  2. a traced window on a stack with the seam wrappers installed, which
//     yields the spans, the wire and the device counts;
//  3. stack differencing: a few iterations on stacks with parts removed;
//  4. the probes.
func runTraced(name string, sc scale, r *run, budget time.Duration, res *result) error {
	window := budget * 3 / 10
	outstanding := bufpool.Outstanding() // 0 in a fresh process

	plain := &run{seed: r.seed, inject: r.inject, cnt: &totals{}}
	w, err := newWorkload(name, sc)
	if err != nil {
		return err
	}
	if err := measure(w, plain, window); err != nil {
		return fmt.Errorf("untraced window: %w", err)
	}

	traced := &run{seed: r.seed, tr: newTracer(), cnt: &totals{}}
	if w, err = newWorkload(name, sc); err != nil {
		return err
	}
	if err := measure(w, traced, window); err != nil {
		return fmt.Errorf("traced window: %w", err)
	}
	reportSpans(res, traced, plain)
	plain.cnt.report(res, plain.rec.ops, plain.rec.userBytes)
	// The tail is a per-layer metric: its run-to-run spread is too wide
	// for an end-to-end bound (see README, "Steadiness").
	res.set("client.op_p99_us", quantile(plain.rec.latUS, 0.99), "us")
	// What the reference-second metrics of the untraced window were
	// divided by; the other per-layer times are as measured.
	res.set("host.slowdown", median(plain.rec.slow), "ratio")
	res.set("client.write_mbps", ratio(float64(plain.rec.writeBytes)/mib, plain.rec.writeTime.Seconds()), "MiB/s")
	res.set("client.read_mbps", ratio(float64(plain.rec.readBytes)/mib, plain.rec.readTime.Seconds()), "MiB/s")

	base := &run{seed: r.seed}
	if err := reportBaselines(res, name, sc, base, plain, budget/4); err != nil {
		return err
	}

	pv, err := runProbes(res, r.seed, sc.probeCreds)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	reportShares(res, pv, plain, traced)
	res.set("bufpool.outstanding_end", float64(bufpool.Outstanding()-outstanding), "count")

	path := filepath.Join(outDir(), "trace-"+name+".jsonl")
	if err := traced.tr.writeJSONL(path, provenance(name, "", r.seed, budget.Seconds(), true)); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintln(os.Stderr, "spans written to", path)
	for _, sub := range []*run{plain, traced, base} {
		r.rec.attempted += sub.rec.attempted
		r.rec.failed += sub.rec.failed
	}
	return nil
}

// reportSpans emits what the traced window's spans and wrappers say.
func reportSpans(res *result, traced, plain *run) {
	ops := float64(traced.rec.ops)
	user := float64(traced.rec.userBytes)
	st := traced.tr.selfTimes()
	perOp := func(ns int64) float64 { return ratio(float64(ns)/1e3, ops) }
	res.set("client.span_us_per_op", perOp(st.root), "us")
	res.set("above_store.self_us_per_op", perOp(st.aboveStore), "us")
	res.set("dedup.self_us_per_mib", ratio(float64(st.dedup)/1e3, user/mib), "us/MiB")
	res.set("ffs.self_us_per_op", perOp(st.ffs), "us")
	res.set("device.busy_us_per_op", perOp(st.device), "us")
	res.set("store.background_us_per_op", perOp(st.background), "us")
	c := traced.cnt
	res.set("device.writes_per_user_mib", ratio(float64(c.devW), user/mib), "1/MiB")
	res.set("device.bytes_written_per_user_byte", ratio(float64(c.devBytes), user), "ratio")
	res.set("device.syncs", float64(c.devSyncs), "count")
	res.set("wire.bytes_per_user_byte", ratio(float64(c.wire), user), "ratio")
	res.set("wire.writes_per_op", ratio(float64(c.wireW), ops), "1/op")
	spans := 0
	for l := layer(0); l < numLayers; l++ {
		spans += len(traced.tr.layerSpans(l))
	}
	res.set("trace.spans", float64(spans), "count")
	// Traced wall time per op over untraced wall time per op.
	res.set("trace.overhead_ratio", ratio(median(plain.rec.opsPerSec), median(traced.rec.opsPerSec)), "ratio")
}

// reportBaselines runs the stack differencing that applies to the
// workload within budget and emits every base.* metric.
func reportBaselines(res *result, name string, sc scale, base, plain *run, budget time.Duration) error {
	var nc recorder
	var cfsneW, cfsneR, ffsFPS, cfsneFPS float64
	switch name {
	case "stream", "stream-dedup":
		rec, err := noCache(name, sc, base.seed, budget/2)
		if err != nil {
			return err
		}
		nc = *rec
		size := (&streamWL{sc: sc, dedup: name == "stream-dedup"}).fileSize(base.seed)
		data := make([]byte, size)
		newRNG(base.seed, "stream-pool").fill(data)
		if cfsneW, cfsneR, err = cfsneStream(base, data, make([]byte, size), budget/2); err != nil {
			return fmt.Errorf("cfsne baseline: %w", err)
		}
	case "smallio":
		rec, err := noCache(name, sc, base.seed, budget)
		if err != nil {
			return err
		}
		nc = *rec
	case "search":
		var err error
		if ffsFPS, cfsneFPS, err = searchBaselines(base, sc, budget/2); err != nil {
			return fmt.Errorf("search baselines: %w", err)
		}
	}
	base.rec.attempted += nc.attempted
	base.rec.failed += nc.failed
	res.set("base.ffs.files_per_s", ffsFPS, "1/s")
	res.set("base.cfsne.files_per_s", cfsneFPS, "1/s")
	// The paper's Fig 12 line: DisCFS time over CFS-NE time.
	res.set("authz.overhead_ratio", ratio(cfsneFPS, median(plain.rec.opsPerSec)), "ratio")
	res.set("base.cfsne.write_mbps", cfsneW, "MiB/s")
	res.set("base.cfsne.read_mbps", cfsneR, "MiB/s")
	res.set("base.nocache.write_mbps", ratio(float64(nc.writeBytes)/mib, nc.writeTime.Seconds()), "MiB/s")
	res.set("base.nocache.read_mbps", ratio(float64(nc.readBytes)/mib, nc.readTime.Seconds()), "MiB/s")
	res.set("base.nocache.io_per_s", median(nc.opsPerSec), "1/s")
	// Cached ops/s over uncached ops/s: below 1, the data cache loses.
	res.set("datacache.gain_ratio", ratio(median(plain.rec.opsPerSec), median(nc.opsPerSec)), "ratio")
	return nil
}

// reportShares multiplies probe times by the untraced window's counts:
// each layer's estimated share of the client time of the timed
// iterations (wall time x the generator's concurrent clients).
// The formulas are spelled out in README.md; they are estimates, which
// the span self times check.
func reportShares(res *result, pv probeValues, plain, traced *run) {
	c := plain.cnt
	// The time the generator's clients had between them.
	wallUS := float64(plain.rec.wall.Microseconds()) * float64(plain.clients)
	rpcs := float64(c.rpcs)
	// Every RPC is two records; bytes beyond the small-record base cost
	// are charged at the large record's per-byte rate.
	wire := ratio(float64(traced.cnt.wire), float64(traced.rec.userBytes)) * float64(plain.rec.userBytes)
	perByte := (pv.record512kUS - pv.record8kUS) / float64(big-small)
	res.set("secchan.share_est", ratio(float64(c.handshakes)*pv.handshakeUS+rpcs*pv.record8kUS+wire*perByte, wallUS), "ratio")
	added := float64(max(c.credsAdded, 0))
	res.set("keynote.share_est", ratio(float64(c.queries)*pv.queryChain2US+added*(pv.parseUS+pv.verifyUS+pv.signUS), wallUS), "ratio")
	unique, dup := float64(c.ddStor)/mib, float64(c.ddLogical-c.ddStor)/mib
	res.set("dedup.share_est", ratio(1e6*(ratio(unique, pv.dedupUniqueMBps)+ratio(dup, pv.dedupDupMBps)), wallUS), "ratio")
	written := float64(plain.rec.writeBytes) / mib
	if c.ddLogical > 0 {
		written = unique
	}
	lookups := float64(c.procCount["lookup"] + c.procCount["lookupplus"])
	res.set("ffs.share_est", ratio(1e6*(ratio(written, pv.ffsWriteMBps)+ratio(float64(plain.rec.readBytes)/mib, pv.ffsReadMBps))+lookups*pv.lookupUS, wallUS), "ratio")
}

// outDir is benchmark/out, whether the working directory is the
// checkout root (the driver) or the benchmark directory (go test).
func outDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}
