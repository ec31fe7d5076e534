package main

// env.go reads the host-side measurements: process CPU time, peak
// resident set, Go runtime counters and the environment stamp.

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeDelta is the change of the Go runtime's counters over a pass.
type runtimeDelta struct {
	allocBytes, allocObjects, gcCycles int64
	gcCPU                              float64 // seconds
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

// readRuntime samples the counters. Called right after runtime.GC, the
// allocation counters are exact: the collection flushes every per-P
// allocation cache into them.
func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	u := func(i int) int64 {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return int64(s[i].Value.Uint64())
	}
	d := runtimeDelta{allocBytes: u(0), allocObjects: u(1), gcCycles: u(2)}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		d.gcCPU = s[3].Value.Float64()
	}
	return d
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcCPU:        a.gcCPU - b.gcCPU,
	}
}

// readStealTicks returns the host's cumulative CPU steal ticks from
// /proc/stat, or -1 where the file is unavailable.
func readStealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// envStamp renders the environment a run measured on.
func envStamp(o options, steal0 int64, passes int, profSamples int64) string {
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	steal := int64(-1)
	if s1 := readStealTicks(); steal0 >= 0 && s1 >= 0 {
		steal = s1 - steal0
	}
	b, _ := json.Marshal(map[string]any{ // a map of plain values cannot fail to marshal
		"go":           runtime.Version(),
		"goos":         runtime.GOOS,
		"goarch":       runtime.GOARCH,
		"num_cpu":      runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"gogc":         gogc,
		"seed":         o.seed,
		"workload":     o.workload,
		"timed_passes": passes,
		"steal_ticks":  steal,
		"prof_samples": profSamples,
	})
	return string(b)
}
