// Command mamut-serve simulates the transcoding service under continuous
// load: sessions arrive stochastically (Poisson, diurnal or ramping),
// are dispatched across a multi-server fleet by a placement policy, and
// steady-state service metrics (SLO attainment, rejection rate, fleet
// power, per-server utilization) are reported over a measurement window
// after warm-up. The fleet runs as one event-interleaved simulation: the
// dispatcher sees each session's actual, contention-stretched departure
// time when it places the next arrival, so admission and rejection
// reflect true occupancy rather than nominal session lengths. Output is
// byte-identical for a fixed seed, regardless of -workers.
//
// Dispatch is indexed: a min-heap of engines keyed by next event time
// advances only the servers with events due before each arrival, and
// the built-in policies place through incremental fleet indexes, so
// thousands of servers dispatch in O(log n) per arrival. (An O(servers)
// scan dispatcher survives only inside internal/serve's tests, as the
// reference the indexed one must match byte for byte.) The one
// parallel phase is the drain after the last arrival, which fans the
// loaded engines out over -workers goroutines; cmd/mamut-fleetbench
// measures ns/arrival by fleet size.
//
// With -knowledge the fleet shares learned transcoding knowledge across
// sessions (KaaS-style warm starts): departing MAMUT sessions contribute
// their Q-tables to a per-resolution-class knowledge base and new
// admissions are seeded from it, so short-lived sessions skip straight
// past exploration. Knowledge folds in arrival-ID order at the
// event-interleaved departure instants, so output stays byte-identical
// for any -workers count. -knowledge-out exports the run's store as a
// versioned, hash-stamped artifact and -knowledge-in warm-starts a later
// fleet from one (both imply -knowledge); the importer verifies the
// payload digest, so a corrupted artifact is rejected instead of
// silently poisoning every warm start.
//
// The fleet is elastic: sessions migrate live between servers (frozen
// mid-frame with learner state, rng cursors and energy accumulators,
// resumed elsewhere under a short handoff stall). -drain at:server
// schedules server drains (evacuate, then decommission), -autoscale
// grows and shrinks the fleet against target-utilization watermarks
// (capped at -scale-max servers), and -rebalance
// migrates sessions away from power-hotspot servers — all on a fixed
// -epoch schedule, so elastic runs remain byte-identical for any
// -workers count. The summary gains an "elastic:"
// line with migration and scaling counts.
//
// With -queue N arrivals that find no capacity wait in a bounded
// fleet-level admission queue instead of being rejected outright: FIFO
// within a resolution-class priority order (-queue-prio hr-first,
// lr-first or fifo), dropped after -queue-deadline seconds of waiting.
// Departures and elastic epochs re-admit from the queue (draining
// servers admit nothing); only arrivals that find the waiting room full
// are rejected. The summary gains a "queue:" line splitting outcomes —
// queued/admitted/deadline-dropped/rejected — and -quantiles adds
// queue-wait and time-to-first-frame p50/p95/p99. With the queue off,
// output is byte-identical to earlier releases.
//
// With -faults the run injects a deterministic fault plan into the
// fleet: crash@T:SRV kills a server (in-flight frame state lost),
// degrade@A-B:SRV:F cuts its power cap to F of nominal for the window,
// and blip@A-B:SRV takes it out of service for the window with sessions
// intact. Crash-interrupted sessions re-enter the -queue waiting room as
// recovery entries under fixed retry and backoff bounds and the
// library's default recovery deadline (-fault-drop loses them instead,
// the baseline), restoring from their last -fault-checkpoint snapshot or cold-starting
// warm-seeded from the knowledge store. Fault runs stay byte-identical
// for any -workers; with no plan the
// output byte-matches fault-free builds. The summary gains "faults:" and
// "recovery:" lines (MTTR, recovery-latency quantiles, lost work,
// availability).
//
// Metrics stream: power, utilization, class statistics and FPS/duration
// quantile sketches fold into constant-size accumulators as sessions
// depart, so memory stays O(active sessions) over arbitrarily long
// horizons. -quantiles adds the per-class p50/p95/p99 and time-decayed
// window stats to the summary.
//
// Grid mode (-policies/-rates/-seeds) fans the (policy x rate x seed)
// product across the worker pool. With -checkpoint FILE each cell's
// result streams to FILE as it completes and an interrupted grid
// resumes from it bit-identically, recomputing only the missing cells.
//
// -cpuprofile and -memprofile write pprof profiles of the run, so fleet
// hot paths can be profiled without a custom harness.
//
// Usage:
//
//	mamut-serve -servers 4 -arrival-rate 0.5 -policy power -duration 600
//	mamut-serve -servers 2 -arrival-rate 0.3 -curve diurnal -format csv
//	mamut-serve -servers 2 -arrival-rate 0.4 -mean-session 15 -knowledge
//	mamut-serve -servers 2 -mean-session 15 -knowledge-out kb.json
//	mamut-serve -servers 2 -mean-session 15 -knowledge-in kb.json -seed 2
//	mamut-serve -servers 4 -arrival-rate 2 -curve diurnal -amplitude 0.9 \
//	    -autoscale -rebalance -drain 60:0    # elastic fleet under a spike
//	mamut-serve -servers 4 -arrival-rate 2 -curve burst -burst-factor 4 \
//	    -queue 64 -queue-deadline 20 -quantiles  # queued flash crowd
//	mamut-serve -servers 5000 -arrival-rate 100 -duration 60 -cpuprofile cpu.pprof
//	mamut-serve -servers 2 -policies round-robin,least-loaded,power \
//	    -rates 0.2,0.4,0.8 -seeds 1,2,3        # (policy x rate x seed) grid
//	mamut-serve -servers 2 -policies round-robin,power -seeds 1,2 \
//	    -checkpoint grid.ckpt                  # resumable grid
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"mamut"
	"mamut/internal/cliutil"
	"mamut/internal/serve"
)

func main() {
	inv, err := parseArgs(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	var cpuFile *os.File
	if inv.cpuprofile != "" {
		f, err := os.Create(inv.cpuprofile)
		if err != nil {
			fatal(err)
		}
		cpuFile = f
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	err = run(os.Stdout, inv.cfg, inv.opts)
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if cerr := cpuFile.Close(); cerr != nil {
			fatal(cerr)
		}
	}
	if err != nil {
		fatal(err)
	}
	if inv.memprofile != "" {
		f, err := os.Create(inv.memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// invocation is one parsed command line: the simulation config, the
// report options and the profile destinations.
type invocation struct {
	cfg                    mamut.ServeConfig
	opts                   runOpts
	cpuprofile, memprofile string
}

// parseArgs turns the command line into an invocation, rejecting flag
// values and combinations the library would otherwise read as defaults.
func parseArgs(args []string) (invocation, error) {
	fs := flag.NewFlagSet("mamut-serve", flag.ExitOnError)
	var (
		servers    = fs.Int("servers", 2, "fleet size (number of simulated servers)")
		rate       = fs.Float64("arrival-rate", 0.2, "mean session arrival rate (sessions/sec)")
		policy     = fs.String("policy", mamut.PolicyLeastLoaded, "placement policy: "+strings.Join(mamut.ServePolicyNames(), "|"))
		duration   = fs.Float64("duration", 300, "arrival-process horizon (simulated seconds)")
		seed       = fs.Int64("seed", 1, "seed; equal seeds give byte-identical output")
		workers    = fs.Int("workers", 0, "parallel worker goroutines (0 = one per CPU); output is identical for any value")
		meanSess   = fs.Float64("mean-session", 60, "mean session length (seconds, exponential)")
		admission  = fs.Int("admission", 8, "per-server admission limit (sessions)")
		warmup     = fs.Float64("warmup", -1, "measurement-window start (seconds; -1 = duration/4)")
		approach   = fs.String("approach", string(mamut.ApproachMAMUT), "per-session controller: mamut|monoagent|heuristic")
		curve      = fs.String("curve", string(mamut.LoadConstant), "load curve: constant|diurnal|ramp|burst")
		amplitude  = fs.Float64("amplitude", 0.5, "diurnal modulation depth in [0,1)")
		burstTo    = fs.Float64("burst-factor", 0, "burst: spike/base arrival-rate ratio (0 = default 3)")
		burstFrom  = fs.Float64("burst-start", 0, "burst: spike window start (seconds; with -burst-end 0, defaults to duration/4)")
		burstUntil = fs.Float64("burst-end", 0, "burst: spike window end (seconds; with -burst-start 0, defaults to duration/2)")
		queueCap   = fs.Int("queue", 0, "admission-queue capacity (0 = off: reject on full, the historical behavior)")
		queueDL    = fs.Float64("queue-deadline", 0, "admission-queue per-entry deadline (seconds; 0 = default 30)")
		queuePrio  = fs.String("queue-prio", "", "admission-queue priority order: "+strings.Join(queuePrioNames(), "|")+" (empty = hr-first)")
		faults     = fs.String("faults", "", "fault plan: comma-separated crash@T:SRV, degrade@A-B:SRV:FACTOR, blip@A-B:SRV events")
		faultCkpt  = fs.Float64("fault-checkpoint", 0, "periodic session-checkpoint interval for crash recovery (seconds; 0 = no checkpoints)")
		faultDrop  = fs.Bool("fault-drop", false, "drop crash-interrupted sessions instead of recovering them (the baseline)")
		knowledge  = fs.Bool("knowledge", false, "share learned knowledge across sessions (KaaS-style warm starts; mamut approach only)")
		rebalance  = fs.Bool("rebalance", false, "live-migrate sessions away from power hotspots every epoch")
		autoscale  = fs.Bool("autoscale", false, "scale the fleet to target utilization (watermark scale-out, drain-based scale-in)")
		drain      = fs.String("drain", "", "scheduled decommissions as at:server pairs, e.g. 120:0,300:3 (live-migrates sessions off)")
		epoch      = fs.Float64("epoch", 0, "control-epoch interval for rebalance/autoscale/drain (seconds; 0 = default 30; needs one of them)")
		scaleMax   = fs.Int("scale-max", 0, "autoscale: maximum in-service servers (0 = 4x -servers; needs -autoscale)")
		format     = fs.String("format", "", "output format for single runs: summary|csv (empty = summary)")
		policies   = fs.String("policies", "", "grid mode: comma-separated policies (with -rates/-seeds)")
		rates      = fs.String("rates", "", "grid mode: comma-separated arrival rates")
		seeds      = fs.String("seeds", "", "grid mode: comma-separated seeds")
		quantiles  = fs.Bool("quantiles", false, "summary: also print streamed FPS/duration quantiles and windowed stats")
		knowIn     = fs.String("knowledge-in", "", "import a knowledge artifact and warm-start the fleet from it (implies -knowledge)")
		knowOut    = fs.String("knowledge-out", "", "export the run's knowledge store to this file (implies -knowledge)")
		checkpoint = fs.String("checkpoint", "", "grid mode: stream per-cell results to this file and resume from it")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	_ = fs.Parse(args) // ExitOnError: a malformed flag exits with the usage text

	switch {
	case *warmup == -1:
		*warmup = *duration / 4
	case *warmup < 0:
		return invocation{}, fmt.Errorf("-warmup %g: want >= 0, or -1 for duration/4", *warmup)
	}
	// The library treats zero-valued config fields as "use the default",
	// so an *explicit* zero on these flags must be translated into the
	// forcing value (or rejected) rather than silently becoming the
	// default.
	setFlags := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if setFlags["amplitude"] && *amplitude == 0 {
		*amplitude = 1e-9 // effectively unmodulated diurnal curve
	}
	if setFlags["admission"] && *admission <= 0 {
		return invocation{}, fmt.Errorf("-admission %d must be >= 1", *admission)
	}
	if *queueCap <= 0 && (setFlags["queue-deadline"] || setFlags["queue-prio"]) {
		return invocation{}, fmt.Errorf("-queue-deadline/-queue-prio require -queue N with N >= 1")
	}
	if *queueCap > 0 {
		// Resolve the queue defaults here so the summary header can print
		// the effective values, mirroring the library's withDefaults.
		if *queueDL == 0 {
			*queueDL = mamut.DefaultQueueDeadlineSec
		}
		if *queuePrio == "" {
			*queuePrio = string(mamut.QueuePrioHRFirst)
		}
	}
	drainEvents, err := parseDrain(*drain)
	if err != nil {
		return invocation{}, err
	}
	if *faults == "" && (setFlags["fault-checkpoint"] || setFlags["fault-drop"]) {
		return invocation{}, fmt.Errorf("-fault-checkpoint/-fault-drop require a -faults plan")
	}
	faultPlan, err := mamut.ParseServeFaultPlan(*faults)
	if err != nil {
		return invocation{}, err
	}
	cfg := mamut.ServeConfig{
		Servers:              *servers,
		MaxSessionsPerServer: *admission,
		Policy:               *policy,
		Approach:             mamut.Approach(*approach),
		Workload: mamut.ServeWorkload{
			ArrivalRate:    *rate,
			DurationSec:    *duration,
			MeanSessionSec: *meanSess,
			Curve:          mamut.ServeLoadCurve(*curve),
			CurveAmplitude: *amplitude,
			BurstFactor:    *burstTo,
			BurstStartSec:  *burstFrom,
			BurstEndSec:    *burstUntil,
		},
		WarmupSec:      *warmup,
		KnowledgeReuse: *knowledge || *knowIn != "" || *knowOut != "",
		Seed:           *seed,
		Workers:        *workers,
		EpochSec:       *epoch,
		Rebalance:      *rebalance,
		Drain:          drainEvents,
		Autoscale: mamut.ServeAutoscale{
			Enabled:    *autoscale,
			MaxServers: *scaleMax,
		},
		Queue: mamut.ServeQueueConfig{
			Capacity:    *queueCap,
			DeadlineSec: *queueDL,
			Priority:    mamut.ServeQueuePriority(*queuePrio),
		},
		Faults: mamut.ServeFaultConfig{
			Plan:          faultPlan,
			CheckpointSec: *faultCkpt,
			Recovery:      mamut.ServeFaultRecovery{Drop: *faultDrop},
		},
	}
	opts := runOpts{
		format:       *format,
		policies:     *policies,
		rates:        *rates,
		seeds:        *seeds,
		workers:      *workers,
		quantiles:    *quantiles,
		knowledgeIn:  *knowIn,
		knowledgeOut: *knowOut,
		checkpoint:   *checkpoint,
	}
	return invocation{cfg: cfg, opts: opts, cpuprofile: *cpuprofile, memprofile: *memprofile}, nil
}

// parseDrain parses the -drain flag: comma-separated at:server pairs.
func parseDrain(s string) ([]mamut.ServeDrainEvent, error) {
	if s == "" {
		return nil, nil
	}
	var events []mamut.ServeDrainEvent
	for _, part := range strings.Split(s, ",") {
		at, srv, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("-drain entry %q: want at:server (e.g. 120:0)", part)
		}
		var ev mamut.ServeDrainEvent
		var err error
		if ev.AtSec, err = strconv.ParseFloat(at, 64); err != nil {
			return nil, fmt.Errorf("-drain entry %q: time %q: %v", part, at, err)
		}
		if math.IsNaN(ev.AtSec) || math.IsInf(ev.AtSec, 0) {
			return nil, fmt.Errorf("-drain entry %q: time %q is not finite", part, at)
		}
		if ev.Server, err = strconv.Atoi(srv); err != nil {
			return nil, fmt.Errorf("-drain entry %q: server index %q: %v", part, srv, err)
		}
		events = append(events, ev)
	}
	return events, nil
}

// runOpts carries the report- and persistence-level options of one
// invocation, separate from the simulation config.
type runOpts struct {
	format                    string
	policies, rates, seeds    string
	workers                   int
	quantiles                 bool
	knowledgeIn, knowledgeOut string
	checkpoint                string
}

func (o runOpts) gridMode() bool { return o.policies != "" || o.rates != "" || o.seeds != "" }

// run executes one service run (or a grid) and writes the report.
func run(w io.Writer, cfg mamut.ServeConfig, opts runOpts) error {
	if opts.gridMode() {
		if opts.knowledgeIn != "" || opts.knowledgeOut != "" {
			return fmt.Errorf("-knowledge-in/-knowledge-out apply to single runs, not grids")
		}
		if opts.format != "" || opts.quantiles {
			return fmt.Errorf("-format/-quantiles apply to single runs; grid mode always prints CSV")
		}
		return runGrid(w, cfg, opts)
	}
	if opts.checkpoint != "" {
		return fmt.Errorf("-checkpoint applies to grid mode (-policies/-rates/-seeds)")
	}
	switch opts.format {
	case "", "summary":
	case "csv":
		if opts.quantiles {
			return fmt.Errorf("-quantiles applies to the summary format, not -format csv")
		}
	default:
		return fmt.Errorf("unknown format %q (summary|csv)", opts.format)
	}
	if opts.knowledgeIn != "" {
		f, err := os.Open(opts.knowledgeIn)
		if err != nil {
			return err
		}
		ks, err := mamut.ImportKnowledge(f)
		f.Close()
		if err != nil {
			return err
		}
		cfg.Knowledge = ks
	}
	res, err := mamut.RunService(cfg)
	if err != nil {
		return err
	}
	if opts.format == "csv" {
		printCSV(w, res)
	} else {
		printSummary(w, cfg, res)
		if opts.quantiles {
			printQuantiles(w, cfg, res)
		}
	}
	if opts.knowledgeOut != "" {
		if res.Knowledge == nil {
			return fmt.Errorf("run produced no knowledge store to export")
		}
		f, err := os.Create(opts.knowledgeOut)
		if err != nil {
			return err
		}
		if err := res.Knowledge.Export(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func runGrid(w io.Writer, base mamut.ServeConfig, opts runOpts) error {
	spec := mamut.ServeGridSpec{Base: base, Workers: opts.workers}
	var err error
	if opts.policies != "" {
		if spec.Policies, err = cliutil.ParseStrings(opts.policies); err != nil {
			return err
		}
	}
	if opts.rates != "" {
		if spec.ArrivalRates, err = cliutil.ParseFloats(opts.rates); err != nil {
			return err
		}
	}
	if opts.seeds != "" {
		if spec.Seeds, err = cliutil.ParseInt64s(opts.seeds); err != nil {
			return err
		}
	}
	if opts.checkpoint != "" {
		ck, err := mamut.OpenServeCheckpoint(opts.checkpoint)
		if err != nil {
			return err
		}
		defer ck.Close()
		fmt.Fprintf(os.Stderr, "mamut-serve: checkpoint: %d completed cells on file\n", ck.Entries())
		spec.Checkpoint = ck
	}
	cells, err := mamut.RunServiceGrid(spec)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "policy,arrival_rate,seed,offered,admitted,rejected,rejection_pct,"+
		"queue_dropped_pct,avg_queue_wait_sec,"+
		"measured,slo_pct,hr_slo_pct,lr_slo_pct,fleet_avg_power_w")
	for _, c := range cells {
		r := c.Result
		fmt.Fprintf(w, "%s,%g,%d,%d,%d,%d,%.2f,%.2f,%.3f,%d,%.2f,%.2f,%.2f,%.2f\n",
			c.Policy, c.ArrivalRate, c.Seed, r.Offered, r.Admitted, r.Rejected,
			r.RejectionPct, r.QueueDroppedPct, r.AvgQueueWaitSec,
			r.Measured, r.SLOAttainedPct,
			r.HR.SLOAttainedPct, r.LR.SLOAttainedPct, r.FleetAvgPowerW)
	}
	return nil
}

func printSummary(w io.Writer, cfg mamut.ServeConfig, r *mamut.ServeResult) {
	fmt.Fprintf(w, "mamut-serve: policy=%s servers=%d admission=%d approach=%s seed=%d\n",
		r.Policy, cfg.Servers, cfg.MaxSessionsPerServer, cfg.Approach, cfg.Seed)
	// Print the effective mix: the CLI leaves the field zero, which the
	// library resolves to its default.
	mix := cfg.Workload.HRFraction
	switch {
	case mix == 0:
		mix = serve.DefaultHRFraction
	case mix < 0:
		mix = 0
	}
	fmt.Fprintf(w, "workload: rate=%g/s curve=%s mix=%.0f%%HR mean-session=%gs horizon=%gs warmup=%gs\n",
		cfg.Workload.ArrivalRate, cfg.Workload.Curve, 100*mix,
		cfg.Workload.MeanSessionSec, r.DurationSec, r.WarmupSec)
	fmt.Fprintf(w, "arrivals: offered=%d admitted=%d rejected=%d (%.1f%%); in-window rejected %d of %d (%.1f%%)\n",
		r.Offered, r.Admitted, r.Rejected, r.RejectionPct,
		r.MeasuredRejected, r.MeasuredOffered, r.MeasuredRejectionPct)
	if cfg.Queue.Capacity > 0 {
		// Only queued configs print this line, keeping the byte output of
		// every pre-existing invocation unchanged. Print the *effective*
		// deadline/priority (the library resolves zero values the same
		// way), so flag-driven and config-driven runs report identically.
		deadline, prio := cfg.Queue.DeadlineSec, cfg.Queue.Priority
		if deadline == 0 {
			deadline = mamut.DefaultQueueDeadlineSec
		}
		if prio == "" {
			prio = mamut.QueuePrioHRFirst
		}
		fmt.Fprintf(w, "queue: cap=%d deadline=%gs prio=%s; queued=%d admitted=%d dropped=%d (%.1f%% of offered); avg wait %.2fs\n",
			cfg.Queue.Capacity, deadline, prio,
			r.Queued, r.QueueAdmitted, r.QueueDropped, r.QueueDroppedPct, r.AvgQueueWaitSec)
	}
	fmt.Fprintf(w, "SLO (avg FPS >= %.0f%% of target): %.1f%% of %d measured sessions\n",
		100*serve.DefaultSLOFPSFactor, r.SLOAttainedPct, r.Measured)
	if cfg.KnowledgeReuse {
		fmt.Fprintf(w, "knowledge: %d departed sessions contributed, %d admissions warm-started\n",
			r.KnowledgeContributions, r.KnowledgeSeeded)
	}
	if cfg.Elastic() {
		// Only elastic configs print this line, so the byte output of
		// every pre-existing invocation is unchanged.
		fmt.Fprintf(w, "elastic: %d migrations, +%d/-%d servers (peak %d in service)\n",
			r.Migrations, r.ServersAdded, r.ServersRemoved, r.PeakServers)
	}
	if cfg.Faults.Enabled() {
		// Fault-injecting configs only, same byte-stability discipline.
		fmt.Fprintf(w, "faults: %d injected, %d crashed servers, availability %.2f%%; interrupted=%d recovered=%d lost=%d\n",
			r.FaultsInjected, r.ServersCrashed, r.AvailabilityPct,
			r.Interrupted, r.Recovered, r.Lost)
		fmt.Fprintf(w, "recovery: MTTR %.2fs, p50/p95/p99 %.2f/%.2f/%.2f s, lost work %.1fs\n",
			r.MTTRSec, r.RecoveryLatency.P50, r.RecoveryLatency.P95, r.RecoveryLatency.P99,
			r.LostWorkSec)
	}
	for _, cls := range []struct {
		name  string
		stats mamut.ServeClassStats
	}{{"HR", r.HR}, {"LR", r.LR}} {
		fmt.Fprintf(w, "  %s: %d sessions, SLO %.1f%%, avg FPS %.1f, avg PSNR %.1f dB, frame violations %.1f%%\n",
			cls.name, cls.stats.Sessions, cls.stats.SLOAttainedPct,
			cls.stats.AvgFPS, cls.stats.AvgPSNRdB, cls.stats.AvgViolationPct)
	}
	fmt.Fprintf(w, "fleet: avg power %.1f W over the measurement window\n", r.FleetAvgPowerW)
	fmt.Fprintln(w, "server  sessions  peak  util_pct  avg_power_w")
	for _, s := range r.Servers {
		fmt.Fprintf(w, "%6d  %8d  %4d  %8.1f  %11.1f\n",
			s.Index, s.Sessions, s.PeakActive, s.UtilizationPct, s.AvgPowerW)
	}
}

// printQuantiles reports the streamed per-class distributions and the
// time-decayed window stats. A separate block behind -quantiles so the
// default summary bytes stay stable; the latency line and the queue-depth
// suffix appear only when the admission queue is on, for the same reason.
func printQuantiles(w io.Writer, cfg mamut.ServeConfig, r *mamut.ServeResult) {
	for _, cls := range []struct {
		name string
		dist mamut.ServeClassDistributions
	}{{"HR", r.HRDist}, {"LR", r.LRDist}} {
		fmt.Fprintf(w, "  %s dist: fps p50/p95/p99 %.1f/%.1f/%.1f, session-sec p50/p95/p99 %.1f/%.1f/%.1f (%d sessions)\n",
			cls.name, cls.dist.FPS.P50, cls.dist.FPS.P95, cls.dist.FPS.P99,
			cls.dist.DurationSec.P50, cls.dist.DurationSec.P95, cls.dist.DurationSec.P99,
			cls.dist.FPS.Count)
	}
	if cfg.Queue.Capacity > 0 {
		fmt.Fprintf(w, "  latency: queue-wait p50/p95/p99 %.2f/%.2f/%.2f s, ttff p50/p95/p99 %.2f/%.2f/%.2f s\n",
			r.QueueWaitDist.P50, r.QueueWaitDist.P95, r.QueueWaitDist.P99,
			r.TTFFDist.P50, r.TTFFDist.P95, r.TTFFDist.P99)
	}
	fmt.Fprintf(w, "windowed (tau=%.0fs): SLO %.1f%%, rejection %.1f%%, utilization %.1f%%",
		r.Windowed.TauSec, r.Windowed.SLOAttainedPct, r.Windowed.RejectionPct, r.Windowed.UtilizationPct)
	if cfg.Queue.Capacity > 0 {
		fmt.Fprintf(w, ", queue depth %.1f", r.Windowed.QueueDepth)
	}
	if cfg.Faults.Enabled() {
		fmt.Fprintf(w, ", availability %.1f%%", r.Windowed.AvailabilityPct)
	}
	fmt.Fprintln(w)
}

// queuePrioNames lists the -queue-prio values for the flag help text.
func queuePrioNames() []string {
	var names []string
	for _, p := range mamut.ServeQueuePriorities() {
		names = append(names, string(p))
	}
	return names
}

func printCSV(w io.Writer, r *mamut.ServeResult) {
	fmt.Fprintln(w, "scope,sessions,peak_active,utilization_pct,avg_power_w,slo_pct,rejection_pct")
	for _, s := range r.Servers {
		fmt.Fprintf(w, "server%d,%d,%d,%.2f,%.2f,,\n",
			s.Index, s.Sessions, s.PeakActive, s.UtilizationPct, s.AvgPowerW)
	}
	fmt.Fprintf(w, "fleet,%d,,,%.2f,%.2f,%.2f\n",
		r.Admitted, r.FleetAvgPowerW, r.SLOAttainedPct, r.RejectionPct)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mamut-serve:", err)
	os.Exit(1)
}
