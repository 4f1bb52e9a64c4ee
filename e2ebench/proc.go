package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds returns the user plus system CPU time the whole process has
// used: the publication server, the relying party, the RTR cache and the
// routers all run in it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB, or 0
// where /proc is unavailable.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// resetPeakRSS restarts the kernel's VmHWM tracking at the current
// resident set, so the next peakRSSMiB reading is the peak since now.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return // peaks then span the whole run; still a valid upper bound
	}
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	gcCycles, allocBytes, mallocs uint64
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	val := func(i int) uint64 {
		if samples[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return samples[i].Value.Uint64()
	}
	return runtimeSample{gcCycles: val(0), allocBytes: val(1), mallocs: val(2)}
}

// usage is what one operation cost the process: wall and CPU time and the
// runtime's allocation and GC work.
type usage struct {
	wall, cpu                     float64
	gcCycles, allocBytes, mallocs float64
}

// meter measures usage from its creation to done.
type meter struct {
	start time.Time
	cpu   float64
	rt    runtimeSample
}

func startMeter() meter {
	return meter{start: time.Now(), cpu: cpuSeconds(), rt: readRuntime()}
}

func (m meter) done() usage {
	wall := time.Since(m.start).Seconds()
	rt := readRuntime()
	return usage{
		wall:       wall,
		cpu:        cpuSeconds() - m.cpu,
		gcCycles:   float64(rt.gcCycles - m.rt.gcCycles),
		allocBytes: float64(rt.allocBytes - m.rt.allocBytes),
		mallocs:    float64(rt.mallocs - m.rt.mallocs),
	}
}

// kernelRelease returns the running kernel's release string.
func kernelRelease() string {
	raw, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(raw))
}

// environment records where a run was measured.
func environment(seed int64, workload string) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"kernel":     kernelRelease(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}
