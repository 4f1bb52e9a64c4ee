// Command e2ebench is the repository's end-to-end benchmark. It drives the
// relying party the way cmd/rpki-rp does — a repository client over
// loopback TCP, snapshot caching, daemon-default workers and concurrency,
// rtr.Cache.SetVRPs after every sync — against worlds it generates from
// the seed, and prints one JSON result line.
//
// Usage (from the repository root, through e2ebench/run.sh, which builds it):
//
//	e2ebench --workload steady_poll|churn_to_router --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around every call into a layer and reports the per-layer
// breakdown instead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median, and only the last set-up is measured further.
const setupRepeats = 3

// minOps is the fewest operations a run measures, however long they take.
const minOps = 4

// warmupSeconds of operations run untimed before measuring. Every sync
// opens and closes thousands of loopback connections, and the kernel's
// TIME_WAIT table (32k sockets here) fills within seconds of back-to-back
// syncs; warming up brings each run to that full state whatever the
// previous run, or an idle gap, left in it.
const warmupSeconds = 6

// buildDir, relative to the checkout root the benchmark runs from, holds
// everything a run leaves behind.
const buildDir = ".bench_build"

// coverageTolerance is how much of an operation's wall time its layer
// spans may leave unaccounted in the traced run before the operation
// counts as failed.
const coverageTolerance = 0.05

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "steady_poll or churn_to_router")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	if o.trace != 0 && o.trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", o.trace))
	}
	if o.seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1, got %d", o.seconds))
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := run(o); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

func run(o options) error {
	scratch := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(scratch)
	traced := o.trace == 1
	var tr *tracer
	repeats := setupRepeats
	if traced {
		tr = newTracer()
		repeats = 1
	}

	start := time.Now()
	setup, err := prepare(o.workload, filepath.Join(scratch, "world"), o.seed, tr)
	if err != nil {
		return fmt.Errorf("preparing inputs: %w", err)
	}
	prepareSec := time.Since(start).Seconds()

	var w workload
	var setups, coldSyncs []float64
	for k := 0; k < repeats; k++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		w, err = setup()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		wall, _ := w.coldSync()
		coldSyncs = append(coldSyncs, wall)
	}
	defer w.close()

	var costs cryptoCosts
	if traced {
		var err error
		srv := w.world()
		if costs, err = replayCrypto(srv.stores, srv.anchor.CertDER, o.seed); err != nil {
			return err
		}
	}

	// Warm-up: operations run and are checked like measured ones, but not
	// timed.
	var warm []opRecord
	warmEnd := time.Now().Add(warmupSeconds * time.Second)
	for time.Now().Before(warmEnd) {
		c := &opCtx{i: -1}
		w.op(c)
		warm = append(warm, c.rec)
	}

	runtime.GC()
	var records []opRecord
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		c := &opCtx{i: i}
		// Traced and untraced operations alternate in pairs, so churn's
		// actions and inverses are both traced; the untraced ones give the
		// tracing overhead.
		if traced && (i/2)%2 == 0 {
			c.tr = tr
			c.rec.traced = true
		}
		before := w.repoCounts()
		resetPeakRSS()
		w.op(c)
		c.rec.peakRSS = peakRSSMiB()
		c.rec.repo = w.repoCounts().minus(before)
		records = append(records, c.rec)
	}

	record := environment(o.seed, o.workload)
	record["transport"] = "tcp over loopback (" + w.world().addr + ")"
	record["prepare_s"] = prepareSec
	record["setup_runs_s"] = setups
	var metrics map[string]float64
	if traced {
		spans := tr.snapshot()
		path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		record["spans"] = len(spans)
		record["span_file"] = path
		record["coverage_tolerance"] = coverageTolerance
		// Marks operations whose spans miss the tolerance as failed, so it
		// runs before failures are counted.
		metrics = layerMetrics(records, spans, costs, w)
	}
	failed := 0
	for i, r := range append(warm, records...) {
		if len(r.failures) > 0 {
			failed++
			if failed <= 5 {
				fmt.Fprintf(os.Stderr, "e2ebench: op %d failed: %v\n", i-len(warm), r.failures)
			}
		}
	}
	attempted := len(warm) + len(records)
	record["ops"] = len(records)
	record["warmup_ops"] = len(warm)
	record["failed"] = failed
	if !traced {
		metrics = endToEndMetrics(records, setups, coldSyncs, o.workload, record)
		metrics["ok_frac"] = float64(attempted-failed) / float64(attempted)
		record["fail_frac"] = float64(failed) / float64(attempted)
	}

	if err := printLine(map[string]any{"record": record}); err != nil {
		return err
	}
	out := make(map[string]any, len(metrics))
	units := metricUnits(traced)
	for name, v := range metrics {
		out[name] = map[string]any{"value": v, "unit": units[name]}
	}
	return printLine(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
}

func printLine(v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(raw))
	return err
}
