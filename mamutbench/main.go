// Command mamutbench is the repository's end-to-end benchmark. It runs one
// named workload in-process — the paper harness (paper-quick) or the
// serving fleet (fleet-large, fleet-chaos) — for a fixed time, checks
// every pass's outputs, and prints its metrics as one JSON object on the
// last line of standard output:
//
//	go build -o mamutbench . && ./mamutbench --workload fleet-large --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics (host time and memory beside
// simulated outcomes); --trace 1 reports the per-layer metrics of one
// extra, traced pass. README.md explains the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

const (
	// Set-up runs in setupBatches batches of at least setupTime each;
	// setup_s is the median over the batches of the mean time of one
	// set-up. Set-up of paper-quick takes tens of microseconds, so one
	// timing would be mostly noise, and a batch mean spreads the cost of
	// the collections its allocations trigger evenly. The batches run
	// before the passes: run between them, they raised the peak resident
	// set of fleet-large in 2 of 10 runs, from 30 to 37 and 45 MiB.
	setupBatches = 10
	setupTime    = 50 * time.Millisecond
	// warmup is the least time the untimed warm-up passes take: the
	// first seconds of a process run measurably slower (heap growth,
	// first-touch page faults).
	warmup = 3 * time.Second
	// minPasses is the least number of timed passes a run measures.
	minPasses = 3
)

func main() {
	workload := flag.String("workload", "paper-quick", fmt.Sprintf("workload: one of %v", workloadNames))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 reports the traced pass's per-layer metrics, 0 the end-to-end ones")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "mamutbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	rep, err := run(os.Stdout, options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		warmup:   warmup,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mamutbench:", err)
		os.Exit(1)
	}
	metrics := rep.endToEnd
	if *trace == 1 {
		metrics = rep.perLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mamutbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	warmup   time.Duration
	tiny     bool // shrink the workload (tests)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome: pass accounting and both metric sets.
type report struct {
	attempted, failed int
	endToEnd          map[string]metric
	perLayer          map[string]metric
}

// passStats is one pass's host-side measurement.
type passStats struct {
	wall, cpu time.Duration
	rt        runtimeDelta
	out       outcome
	err       error
}

// run sets the workload up, runs the untimed warm-up, the timed passes
// and the traced pass, checks them and derives both metric sets. Progress
// and diagnostics go to w.
func run(w io.Writer, o options) (*report, error) {
	steal0 := readStealTicks()
	var (
		wl     *workload
		setups []float64
	)
	for len(setups) < setupBatches {
		start := time.Now()
		for n := 1; ; n++ {
			var err error
			if wl, err = setupWorkload(o.workload, o.seed, o.tiny); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			if el := time.Since(start); el >= setupTime {
				setups = append(setups, el.Seconds()/float64(n))
				break
			}
		}
	}
	rep := &report{}
	var first *outcome
	// pass runs one pass and applies every check: the workload's own
	// (inside run) and equality with the first pass's simulated outputs.
	pass := func(tr *tracer) passStats {
		runtime.GC()
		before := readRuntime()
		cpu0 := processCPU()
		t0 := time.Now()
		out, err := wl.run(tr)
		ps := passStats{wall: time.Since(t0), cpu: processCPU() - cpu0, out: out, err: err}
		runtime.GC()
		ps.rt = readRuntime().sub(before)
		ps.rt.gcCycles-- // the forced collection above
		rep.attempted++
		if ps.err == nil && first != nil && out != *first {
			ps.err = fmt.Errorf("simulated outputs %+v differ from the first pass's %+v", out, *first)
		}
		if ps.err != nil {
			rep.failed++
			fmt.Fprintf(w, "FAIL pass %d: %v\n", rep.attempted, ps.err)
		} else if first == nil {
			first = &out
		}
		fmt.Fprintf(w, "pass %d wall_s=%.4f cpu_s=%.4f alloc_bytes=%d alloc.objects=%d gc.cycles=%d\n",
			rep.attempted, ps.wall.Seconds(), ps.cpu.Seconds(), ps.rt.allocBytes, ps.rt.allocObjects, ps.rt.gcCycles)
		return ps
	}

	start := time.Now()
	pass(nil) // warm-up: untimed, at least one pass and o.warmup long
	for time.Since(start) < o.warmup {
		pass(nil)
	}
	var timed []passStats
	start = time.Now()
	for len(timed) < minPasses || time.Since(start) < o.seconds {
		timed = append(timed, pass(nil))
	}
	peakRSS := peakRSSMiB() // before the traced pass adds its buffers

	// The traced pass: wrapped layers, spans and a CPU profile.
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var genErr error
	if wl.regen != nil {
		genErr = wl.regen(tr)
	}
	traced := pass(tr)
	pprof.StopCPUProfile()
	if genErr != nil && traced.err == nil {
		rep.failed++
		fmt.Fprintf(w, "FAIL pass %d: %v\n", rep.attempted, genErr)
	}
	shares, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	tr.writeSpans(w)

	var walls, cpus, allocs []float64
	for _, p := range timed {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		allocs = append(allocs, float64(p.rt.allocBytes)/(1<<20))
	}
	var sim outcome
	if first != nil {
		sim = *first
	}
	runS := median(walls)
	rep.endToEnd = map[string]metric{
		"setup_s":           {median(setups), "s"},
		"run_s":             {runS, "s"},
		"cpu_s":             {median(cpus), "s"},
		"peak_rss_mb":       {peakRSS, "MiB"},
		"alloc_mb":          {median(allocs), "MiB"},
		"sim_violation_pct": {sim.ViolationPct, "%"},
		"sim_power_w":       {sim.PowerW, "W"},
	}
	rep.perLayer = perLayer(tr, traced, shares, runS)

	fmt.Fprintf(w, "work transcode.frames=%d serve.arrivals=%d serve.offered_frames=%d alloc.objects=%d gc.cycles=%d (traced pass; host run_s=%.4f)\n",
		tr.totalFrames(), sim.Arrivals, sim.OfferedFrames, traced.rt.allocObjects, traced.rt.gcCycles, runS)
	fmt.Fprintf(w, "sim %s violation_pct=%v power_w=%v loss_pct=%v ttff_p99_s=%v admitted=%d queued=%d migrations=%d servers_added=%d recovered=%d knowledge_seeded=%d\n",
		o.workload, sim.ViolationPct, sim.PowerW, sim.LossPct, sim.TTFFP99, sim.Admitted, sim.Queued,
		sim.Migrations, sim.ServersAdded, sim.Recovered, sim.KnowledgeSeeded)
	fmt.Fprintf(w, "digest %s %016x\n", o.workload, sim.Digest)
	fmt.Fprintf(w, "env %s\n", envStamp(o, steal0, len(timed), shares.samples))
	return rep, nil
}

// perLayer derives the per-layer metrics from the traced pass.
func perLayer(tr *tracer, p passStats, sh cpuShares, untracedRunS float64) map[string]metric {
	core, base := tr.ctrlTotals()
	frames := tr.totalFrames()
	perFrame := func(busy time.Duration, frames int64) float64 {
		if frames == 0 {
			return 0
		}
		return float64(busy.Nanoseconds()) / float64(frames)
	}
	// transcode self time: the profile's share of the engine and the
	// per-frame models under it, applied to the pass's CPU time.
	engineShare := (sh.flat["transcode"] + sh.flat["hevc"] + sh.flat["platform"] + sh.flat["video"]) / 100
	selfS := p.cpu.Seconds() * engineShare
	idx := tr.index
	idxCalls := idx.place + idx.update
	serveBusy := tr.busy("serve.Run")
	m := map[string]metric{
		"core.calls":               {float64(core.calls), "count"},
		"core.busy_s":              {core.busy.Seconds(), "s"},
		"core.ns_per_frame":        {perFrame(core.busy, core.frames), "ns"},
		"baseline.calls":           {float64(base.calls), "count"},
		"baseline.busy_s":          {base.busy.Seconds(), "s"},
		"baseline.ns_per_frame":    {perFrame(base.busy, base.frames), "ns"},
		"transcode.frames":         {float64(frames), "count"},
		"transcode.self_s":         {selfS, "s"},
		"transcode.ns_per_frame":   {perFrame(time.Duration(selfS*1e9), frames), "ns"},
		"serve.index.place_calls":  {float64(idx.place), "count"},
		"serve.index.update_calls": {float64(idx.update), "count"},
		"serve.index.busy_s":       {idx.busy.Seconds(), "s"},
		"serve.index.ns_per_call":  {perFrame(idx.busy, idxCalls), "ns"},
		"serve.busy_s":             {serveBusy.Seconds(), "s"},
		"serve.ns_per_arrival":     {perFrame(serveBusy, int64(p.out.Arrivals)), "ns"},
		"serve.gen_s":              {tr.busy("serve.GenerateArrivals").Seconds(), "s"},
		"serve.arrivals":           {float64(p.out.Arrivals), "count"},
		"serve.offered_frames":     {float64(p.out.OfferedFrames), "count"},
		"serve.admitted":           {float64(p.out.Admitted), "count"},
		"serve.queued":             {float64(p.out.Queued), "count"},
		"serve.migrations":         {float64(p.out.Migrations), "count"},
		"serve.servers_added":      {float64(p.out.ServersAdded), "count"},
		"serve.recovered":          {float64(p.out.Recovered), "count"},
		"serve.knowledge_seeded":   {float64(p.out.KnowledgeSeeded), "count"},
		"sim_loss_pct":             {p.out.LossPct, "%"},
		"sim_ttff_p99_s":           {p.out.TTFFP99, "s"},
		"gc.cycles":                {float64(p.rt.gcCycles), "count"},
		"gc.cpu_s":                 {p.rt.gcCPU, "s"},
		"alloc.objects":            {float64(p.rt.allocObjects), "count"},
		"cpu.session_codec":        {sh.codec, "%"},
		"trace.overhead_pct":       {100 * (p.wall.Seconds() - untracedRunS) / untracedRunS, "%"},
	}
	for _, b := range cpuBuckets {
		m["cpu."+b] = metric{sh.flat[b], "%"}
	}
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
