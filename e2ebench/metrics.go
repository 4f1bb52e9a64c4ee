package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported metric; the lists below are the ones
// BENCHMARK.json declares, in the same order.
type metricDef struct{ name, unit, better string }

var endToEndDefs = []metricDef{
	{"op_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"ok_frac", "ratio", "higher"},
}

var perLayerDefs = []metricDef{
	{"repo.fetch_s", "s", "lower"},
	{"repo.fetch_concurrency", "count", "lower"},
	{"repo.fetch_calls", "count", "lower"},
	{"repo.dials", "count", "lower"},
	{"repo.requests", "count", "lower"},
	{"repo.bytes_in", "bytes", "lower"},
	{"repo.objects_downloaded", "count", "lower"},
	{"repo.objects_reused", "count", "higher"},
	{"repo.retries", "count", "lower"},
	{"rp.sync_s", "s", "lower"},
	{"rp.self_s", "s", "lower"},
	{"rp.modules_revalidated", "count", "lower"},
	{"rp.modules_reused", "count", "higher"},
	{"rp.reuse_ratio", "ratio", "higher"},
	{"rp.verify_cache_misses", "count", "lower"},
	{"rp.verify_cache_hits", "count", "higher"},
	{"rp.incremental_fallbacks", "count", "lower"},
	{"rp.diagnostics", "count", "lower"},
	{"runtime.cpu_s", "s", "lower"},
	{"runtime.parallelism", "ratio", "higher"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.alloc_bytes", "bytes", "lower"},
	{"runtime.mallocs", "count", "lower"},
	{"cms.parse_verify_us", "us", "lower"},
	{"cert.parse_us", "us", "lower"},
	{"cert.check_sig_us", "us", "lower"},
	{"manifest.parse_us", "us", "lower"},
	{"roa.parse_us", "us", "lower"},
	{"rfc3779.decode_us", "us", "lower"},
	{"sha256.mb_per_s", "MB/s", "higher"},
	{"crypto.est_verify_s", "s", "lower"},
	{"crypto.est_share_of_cold", "ratio", "lower"},
	{"crypto.est_sig_share_of_cold", "ratio", "lower"},
	{"ca.op_ms", "ms", "lower"},
	{"ca.op_ms." + kindROAIssueDelete, "ms", "lower"},
	{"ca.op_ms." + kindROARevokeReissue, "ms", "lower"},
	{"ca.op_ms." + kindCustShrink, "ms", "lower"},
	{"ca.op_ms." + kindISPShrink, "ms", "lower"},
	{"ca.op_ms." + kindKeyRoll, "ms", "lower"},
	{"rtr.setvrps_us", "us", "lower"},
	{"rtr.serial_bumps", "count", "lower"},
	{"rtr.router_apply_ms", "ms", "lower"},
	{"rtr.evictions", "count", "lower"},
	{"rtr.cache_resets", "count", "lower"},
	{"rov.delta_vrps", "count", "lower"},
	{"trace.coverage_min", "ratio", "higher"},
	{"trace.overhead_ms", "ms", "lower"},
	{"trace.ops", "count", "higher"},
}

func metricUnits(traced bool) map[string]string {
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
	}
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		units[d.name] = d.unit
	}
	return units
}

// namedMetrics maps each workload to the names its operation's median and
// p90 have in the run record.
var namedMetrics = map[string][2]string{
	"steady_poll":     {"poll_ms", "poll_p90_ms"},
	"churn_to_router": {"change_to_router_ms", "change_to_router_p90_ms"},
}

// endToEndMetrics computes the untraced run's timing and memory metrics and
// adds the workload-specific names and sample counts to record.
func endToEndMetrics(records []opRecord, setups, coldSyncs []float64, workload string, record map[string]any) map[string]float64 {
	var walls, toRouter, rss []float64
	for _, r := range records {
		walls = append(walls, r.use.wall*1e3)
		rss = append(rss, r.peakRSS)
		if r.toRouter > 0 {
			toRouter = append(toRouter, r.toRouter*1e3)
		}
	}
	p50, n := percentile(walls, 0.5)
	p90, _ := percentile(walls, 0.9)
	m := map[string]float64{
		"op_ms":        p50,
		"op_p90_ms":    p90,
		"setup_s":      median(setups),
		"peak_rss_mib": median(rss),
	}
	named := make(map[string]any)
	names := namedMetrics[workload]
	named[names[0]], named[names[1]] = p50, p90
	// Every set-up ends in a cold sync over TCP: the daemon's start.
	named["cold_sync_s"] = median(coldSyncs)
	record["cold_sync_samples"] = len(coldSyncs)
	if workload == "churn_to_router" {
		v, k := percentile(toRouter, 0.5)
		named["delta_to_router_ms"] = v
		record["delta_to_router_samples"] = k
	}
	record["named"] = named
	record["op_samples"] = n
	record["op_ms_all"] = walls
	var cpus []float64
	for _, r := range records {
		cpus = append(cpus, r.use.cpu)
	}
	record["op_cpu_s_all"] = cpus
	record["setup_samples"] = len(setups)
	return m
}

// layerMetrics computes the traced run's per-layer metrics: times are
// medians over traced operations, counts are means per traced operation.
// Operations whose layer spans leave more than coverageTolerance of their
// wall time unaccounted are marked failed.
func layerMetrics(records []opRecord, spans []span, costs cryptoCosts, w workload) map[string]float64 {
	ops := groupOps(spans)
	var (
		fetchS, fetchConc, syncS, selfS, setVRPsUS, applyMS, caMS []float64
		caByKind                                                  = make(map[string][]float64)
		covMin                                                    = 1.0
		tracedWall, plainWall                                     []float64
		counts                                                    = make(map[string][]float64)
	)
	count := func(name string, v float64) { counts[name] = append(counts[name], v) }
	for i := range records {
		r := &records[i]
		if !r.traced {
			plainWall = append(plainWall, r.use.wall*1e3)
			continue
		}
		tracedWall = append(tracedWall, r.use.wall*1e3)
		ot := ops[i]
		if ot == nil {
			r.failures = append(r.failures, "traced operation recorded no spans")
			continue
		}
		cov := ot.coverage()
		covMin = min(covMin, cov)
		if cov < 1-coverageTolerance {
			r.failures = append(r.failures, fmt.Sprintf("layer spans cover %.3f of the operation's wall time", cov))
		}
		if s, ok := ot.layer("rp.sync"); ok {
			fetches := ot.children[s.ID]
			var busy int64
			for _, f := range fetches {
				busy += f.dur()
			}
			covered := childCover(s, fetches)
			fetchS = append(fetchS, float64(covered)/1e9)
			if covered > 0 {
				fetchConc = append(fetchConc, float64(busy)/float64(covered))
			}
			syncS = append(syncS, float64(s.dur())/1e9)
			selfS = append(selfS, float64(selfTime(s, fetches))/1e9)
		}
		if s, ok := ot.layer("rtr.setvrps"); ok {
			setVRPsUS = append(setVRPsUS, float64(s.dur())/1e3)
		}
		if s, ok := ot.layer("rtr.router_apply"); ok {
			applyMS = append(applyMS, float64(s.dur())/1e6)
		}
		if s, ok := ot.layer("ca.action"); ok {
			caMS = append(caMS, float64(s.dur())/1e6)
			caByKind[r.kind] = append(caByKind[r.kind], float64(s.dur())/1e6)
		}
		count("repo.fetch_calls", float64(r.repo.calls))
		count("repo.dials", float64(r.repo.dials))
		count("repo.requests", float64(r.repo.requests))
		count("repo.bytes_in", float64(r.repo.bytesIn))
		if res := r.res; res != nil {
			count("repo.objects_downloaded", float64(res.ObjectsDownloaded))
			count("repo.objects_reused", float64(res.ObjectsReused))
			count("repo.retries", float64(res.Retries))
			count("rp.modules_revalidated", float64(res.ModulesRevalidated))
			count("rp.modules_reused", float64(res.ModulesReused))
			if total := res.ModulesReused + res.ModulesRevalidated; total > 0 {
				count("rp.reuse_ratio", float64(res.ModulesReused)/float64(total))
			}
			count("rp.verify_cache_misses", float64(res.VerifyCacheMisses))
			count("rp.verify_cache_hits", float64(res.VerifyCacheHits))
			count("rp.incremental_fallbacks", float64(res.IncrementalFallbacks))
			count("rp.diagnostics", float64(len(res.Diagnostics)))
		}
		count("runtime.cpu_s", r.use.cpu)
		if r.use.wall > 0 {
			count("runtime.parallelism", r.use.cpu/r.use.wall)
		}
		count("runtime.gc_cycles", r.use.gcCycles)
		count("runtime.alloc_bytes", r.use.allocBytes)
		count("runtime.mallocs", r.use.mallocs)
		count("rtr.serial_bumps", float64(r.serialBumps))
		count("rov.delta_vrps", float64(r.delta))
	}

	m := make(map[string]float64, len(perLayerDefs))
	for _, d := range perLayerDefs {
		m[d.name] = 0
	}
	for name, xs := range counts {
		m[name] = mean(xs)
	}
	// runtime.cpu_s is a time: median like the other times.
	m["runtime.cpu_s"] = median(counts["runtime.cpu_s"])
	m["runtime.parallelism"] = median(counts["runtime.parallelism"])
	m["repo.fetch_s"] = median(fetchS)
	m["repo.fetch_concurrency"] = median(fetchConc)
	m["rp.sync_s"] = median(syncS)
	m["rp.self_s"] = median(selfS)
	m["rtr.setvrps_us"] = median(setVRPsUS)
	m["rtr.router_apply_ms"] = median(applyMS)
	m["ca.op_ms"] = median(caMS)
	kinds := make([]string, 0, len(caByKind))
	for k := range caByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		m["ca.op_ms."+k] = median(caByKind[k])
	}
	evictions, resets := w.rtrCounters()
	m["rtr.evictions"] = float64(evictions)
	m["rtr.cache_resets"] = float64(resets)

	m["cms.parse_verify_us"] = costs.cmsParseVerifyUS
	m["cert.parse_us"] = costs.certParseUS
	m["cert.check_sig_us"] = costs.checkSigUS
	m["manifest.parse_us"] = costs.manifestParseUS
	m["roa.parse_us"] = costs.roaParseUS
	m["rfc3779.decode_us"] = costs.rfc3779US
	m["sha256.mb_per_s"] = costs.sha256MBps
	m["crypto.est_verify_s"] = costs.estVerifySeconds()
	if _, cold := w.coldSync(); cold > 0 {
		m["crypto.est_share_of_cold"] = costs.estVerifySeconds() / cold
		m["crypto.est_sig_share_of_cold"] = costs.estSignatureSeconds() / cold
	}

	m["trace.coverage_min"] = covMin
	m["trace.overhead_ms"] = median(tracedWall) - median(plainWall)
	m["trace.ops"] = float64(len(tracedWall))
	return m
}
