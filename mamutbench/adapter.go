package main

// adapter.go is the only file that touches the simulator's configuration
// and result fields: the three workloads, their correctness checks and
// the simulated outcomes read from their results. An API change in
// internal/experiments or internal/serve is absorbed here.

import (
	"fmt"
	"hash/fnv"
	"math"

	"mamut/internal/experiments"
	"mamut/internal/serve"
	"mamut/internal/video"
)

// workloadNames lists the benchmark's workloads in report order.
var workloadNames = []string{"paper-quick", "fleet-large", "fleet-chaos"}

// outcome is what one pass produced in simulated time. It is comparable,
// so "every pass equals the first" is a plain ==, and Digest covers every
// result field the scalars below leave out.
type outcome struct {
	ViolationPct float64 // sim_violation_pct: the paper's δ
	PowerW       float64 // sim_power_w: mean package power per server
	LossPct      float64 // sim_loss_pct: (rejected+queue-dropped+lost)/offered
	TTFFP99      float64 // sim_ttff_p99_s: time-to-first-frame p99 (queued fleets)

	Arrivals        int   // serve.arrivals: trace length
	OfferedFrames   int64 // serve.offered_frames: frame budgets of the trace
	Admitted        int
	Queued          int
	Migrations      int
	ServersAdded    int
	Recovered       int
	KnowledgeSeeded int

	Digest uint64 // FNV-64a over the full printed results
}

// workload is one set-up benchmark input: run executes one pass of its
// fixed work. tr is nil on untimed and timed passes and non-nil on the
// traced pass, which wraps the controllers or the placement policy and
// records spans around the calls into the simulator.
type workload struct {
	run func(tr *tracer) (outcome, error)
	// regen re-derives the inputs inside the traced pass, so the
	// arrival generator gets its own span; nil for the paper harness,
	// which has no generated trace.
	regen func(tr *tracer) error
}

// setupWorkload builds a workload's inputs from the seed: options,
// catalog and, for the fleets, the arrival trace. tiny shrinks every
// workload to a size a unit test can run in seconds.
func setupWorkload(name string, seed int64, tiny bool) (*workload, error) {
	switch name {
	case "paper-quick":
		return setupPaper(seed, tiny)
	case "fleet-large":
		servers, horizon := 5000, 30.0
		if tiny {
			servers, horizon = 200, 20
		}
		cfg := serve.Config{
			Servers:              servers,
			MaxSessionsPerServer: 8,
			Policy:               serve.PolicyLeastLoaded,
			Approach:             experiments.Heuristic,
			Workload: serve.Workload{
				ArrivalRate:    0.05 * float64(servers),
				DurationSec:    horizon,
				MeanSessionSec: 10,
			},
			WarmupSec: 10,
			Seed:      seed,
		}
		return setupFleet(name, cfg)
	case "fleet-chaos":
		servers, maxServers := 64, 96
		if tiny {
			servers, maxServers = 16, 24
		}
		plan, err := serve.ParseFaultPlan("crash@20:1,crash@35:5,degrade@25-45:2:0.5,blip@30-36:3")
		if err != nil {
			return nil, err
		}
		cfg := serve.Config{
			Servers:              servers,
			MaxSessionsPerServer: 4,
			Policy:               serve.PolicyPowerAware,
			Approach:             experiments.MAMUT,
			KnowledgeReuse:       true,
			Workload: serve.Workload{
				ArrivalRate:    0.19 * float64(servers),
				DurationSec:    60,
				MeanSessionSec: 15,
				Curve:          serve.LoadBurst,
				BurstFactor:    3,
			},
			WarmupSec: 10,
			Seed:      seed,
			Queue:     serve.QueueConfig{Capacity: 64, DeadlineSec: 8},
			Rebalance: true,
			Autoscale: serve.AutoscaleConfig{Enabled: true, MaxServers: maxServers},
			EpochSec:  5,
			Faults:    serve.FaultConfig{Plan: plan, CheckpointSec: 10},
		}
		return setupFleet(name, cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
}

// --- paper-quick -------------------------------------------------------

// paperMixes is the fixed subset of the paper's mixes, light to
// saturated: Scenario I (looped sequence) and Scenario II (playlists).
var paperMixes = []struct {
	name string
	kind experiments.ScenarioKind
}{
	{"1HR", experiments.ScenarioI},
	{"5HR", experiments.ScenarioI},
	{"8LR", experiments.ScenarioI},
	{"2HR2LR", experiments.ScenarioII},
	{"3HR3LR", experiments.ScenarioII},
}

func setupPaper(seed int64, tiny bool) (*workload, error) {
	opts := experiments.QuickOptions()
	opts.Seed = seed
	if tiny {
		opts.Repetitions = 1
		opts.WarmupFrames = 300
		opts.MeasureFrames = 200
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	specs := make([]experiments.WorkloadSpec, len(paperMixes))
	for i, m := range paperMixes {
		all := experiments.ScenarioIWorkloads()
		if m.kind == experiments.ScenarioII {
			all = experiments.ScenarioIIWorkloads()
		}
		found := false
		for _, w := range all {
			if w.Name == m.name {
				specs[i], found = w, true
			}
		}
		if !found {
			return nil, fmt.Errorf("paper-quick: mix %q not in its scenario", m.name)
		}
	}
	factories := make([]experiments.ControllerFactory, len(experiments.AllApproaches))
	for i, a := range experiments.AllApproaches {
		f, err := experiments.Factory(a, opts)
		if err != nil {
			return nil, err
		}
		factories[i] = f
	}

	run := func(tr *tracer) (outcome, error) {
		var out outcome
		h := fnv.New64a()
		for i, m := range paperMixes {
			spec := specs[i]
			for j, a := range experiments.AllApproaches {
				f := factories[j]
				if tr != nil {
					f = tr.wrapFactory(a == experiments.MAMUT, f)
				}
				end := tr.span("experiments.RunWorkloadWithFactory " + spec.Name + "/" + string(a))
				r, err := experiments.RunWorkloadWithFactory(spec, m.kind, string(a), f, opts)
				end()
				if err != nil {
					return outcome{}, fmt.Errorf("%s/%s: %w", spec.Name, a, err)
				}
				if err := checkPaper(spec, r, opts.Repetitions); err != nil {
					return outcome{}, fmt.Errorf("%s/%s: %w", spec.Name, a, err)
				}
				fmt.Fprintf(h, "%s/%s %+v\n", spec.Name, a, r)
				if a == experiments.MAMUT {
					out.ViolationPct += r.DeltaPct / float64(len(paperMixes))
					out.PowerW += r.Watts / float64(len(paperMixes))
				}
			}
		}
		out.Digest = h.Sum64()
		return out, nil
	}
	return &workload{run: run}, nil
}

// checkPaper validates one approach's result on one mix: every stream of
// every repetition contributed, and the outcomes are physical.
func checkPaper(spec experiments.WorkloadSpec, r experiments.ApproachResult, reps int) error {
	if r.HR.Sessions != spec.HR*reps || r.LR.Sessions != spec.LR*reps {
		return fmt.Errorf("sessions HR %d LR %d, want %d and %d", r.HR.Sessions, r.LR.Sessions, spec.HR*reps, spec.LR*reps)
	}
	for name, v := range map[string]float64{"watts": r.Watts, "fps": r.FPS, "psnr": r.PSNRdB} {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("%s = %g, want positive and finite", name, v)
		}
	}
	if !(r.DeltaPct >= 0 && r.DeltaPct <= 100) {
		return fmt.Errorf("delta %g%% outside [0,100]", r.DeltaPct)
	}
	return nil
}

// --- fleets ------------------------------------------------------------

// setupFleet generates the arrival trace from the seed and freezes cfg
// into trace-replay form.
func setupFleet(name string, cfg serve.Config) (*workload, error) {
	catalog := video.DefaultCatalog()
	gen := cfg.Workload
	arrivals, err := serve.GenerateArrivals(gen, catalog, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("%s: empty arrival trace", name)
	}
	var offered int64
	for _, r := range arrivals {
		offered += int64(r.Frames)
	}
	cfg.Catalog = catalog
	cfg.Workload = serve.Workload{Trace: arrivals, DurationSec: gen.DurationSec}
	if _, err := serve.NewPolicy(cfg.Policy); err != nil {
		return nil, err
	}

	run := func(tr *tracer) (outcome, error) {
		c := cfg
		if tr != nil {
			// The traced pass places through a wrapped policy and keeps
			// the per-session log, whose frame counts give
			// transcode.frames; neither changes any other result field.
			c.PolicyFactory = func() serve.Policy {
				p, _ := serve.NewPolicy(cfg.Policy) // name checked at setup
				return tr.wrapPolicy(p)
			}
			c.RetainSessions = true
		}
		end := tr.span("serve.Run")
		res, err := serve.Run(c)
		end()
		if err != nil {
			return outcome{}, err
		}
		if err := checkFleet(res, c.MaxSessionsPerServer, len(arrivals)); err != nil {
			return outcome{}, err
		}
		if tr != nil {
			for _, s := range res.Sessions {
				tr.frames += int64(s.Frames)
			}
		}
		out := outcome{
			PowerW:          res.FleetAvgPowerW,
			LossPct:         100 * float64(res.Rejected+res.QueueDropped+res.Lost) / float64(res.Offered),
			TTFFP99:         res.TTFFDist.P99,
			Arrivals:        len(arrivals),
			OfferedFrames:   offered,
			Admitted:        res.Admitted,
			Queued:          res.Queued,
			Migrations:      res.Migrations,
			ServersAdded:    res.ServersAdded,
			Recovered:       res.Recovered,
			KnowledgeSeeded: res.KnowledgeSeeded,
		}
		if n := res.HR.Sessions + res.LR.Sessions; n > 0 {
			out.ViolationPct = (float64(res.HR.Sessions)*res.HR.AvgViolationPct +
				float64(res.LR.Sessions)*res.LR.AvgViolationPct) / float64(n)
		}
		digest := *res
		digest.Knowledge, digest.Sessions = nil, nil
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v", digest)
		out.Digest = h.Sum64()
		return out, nil
	}
	regen := func(tr *tracer) error {
		end := tr.span("serve.GenerateArrivals")
		again, err := serve.GenerateArrivals(gen, catalog, cfg.Seed)
		end()
		if err != nil {
			return err
		}
		if len(again) != len(arrivals) {
			return fmt.Errorf("regenerated %d arrivals, set-up made %d", len(again), len(arrivals))
		}
		for i := range again {
			if again[i] != arrivals[i] {
				return fmt.Errorf("regenerated arrival %d differs from set-up", i)
			}
		}
		return nil
	}
	return &workload{run: run, regen: regen}, nil
}

// checkFleet asserts the service's accounting identities.
func checkFleet(res *serve.Result, limit, traceLen int) error {
	if res.Offered != traceLen {
		return fmt.Errorf("offered %d != trace length %d", res.Offered, traceLen)
	}
	if res.Offered != res.Admitted+res.Rejected+res.QueueDropped {
		return fmt.Errorf("offered %d != admitted %d + rejected %d + queue-dropped %d",
			res.Offered, res.Admitted, res.Rejected, res.QueueDropped)
	}
	if res.Queued != res.QueueAdmitted+res.QueueDropped {
		return fmt.Errorf("queued %d != queue-admitted %d + queue-dropped %d",
			res.Queued, res.QueueAdmitted, res.QueueDropped)
	}
	if res.Interrupted != res.Recovered+res.Lost {
		return fmt.Errorf("interrupted %d != recovered %d + lost %d", res.Interrupted, res.Recovered, res.Lost)
	}
	for _, s := range res.Servers {
		if s.PeakActive > limit {
			return fmt.Errorf("server %d peak %d > admission limit %d", s.Index, s.PeakActive, limit)
		}
	}
	return nil
}
