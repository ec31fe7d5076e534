package serve

import (
	"reflect"
	"testing"

	"mamut/internal/experiments"
	"mamut/internal/platform"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

// quickConfig is a small but non-trivial service run: a 3-server fleet
// under moderate churn, cheap enough for unit tests via the heuristic
// controller.
func quickConfig() Config {
	return Config{
		Servers:              3,
		MaxSessionsPerServer: 4,
		Policy:               PolicyLeastLoaded,
		Approach:             experiments.Heuristic,
		Workload: Workload{
			ArrivalRate:    0.3,
			DurationSec:    150,
			MeanSessionSec: 20,
		},
		WarmupSec: 30,
		Seed:      11,
		Workers:   1,
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	cfg := cfgWithWorkers(quickConfig(), 1)
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(cfgWithWorkers(quickConfig(), 4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("results differ between 1 and 4 workers")
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, again) {
		t.Error("repeated identical runs differ")
	}
}

func cfgWithWorkers(c Config, w int) Config {
	c.Workers = w
	return c
}

func TestRunAccounting(t *testing.T) {
	cfg := quickConfig()
	cfg.RetainSessions = true // the checks below read the per-arrival log
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 {
		t.Fatal("no arrivals offered")
	}
	if res.Offered != res.Admitted+res.Rejected {
		t.Errorf("offered %d != admitted %d + rejected %d", res.Offered, res.Admitted, res.Rejected)
	}
	if len(res.Sessions) != res.Offered {
		t.Errorf("session log has %d entries for %d arrivals", len(res.Sessions), res.Offered)
	}
	if len(res.Servers) != cfg.Servers {
		t.Errorf("server results %d != fleet size %d", len(res.Servers), cfg.Servers)
	}
	if res.Measured != res.HR.Sessions+res.LR.Sessions {
		t.Errorf("measured %d != HR %d + LR %d", res.Measured, res.HR.Sessions, res.LR.Sessions)
	}
	admitted := 0
	for _, so := range res.Sessions {
		if so.Server >= 0 {
			admitted++
			if so.Frames != so.Req.Frames {
				t.Errorf("session %d transcoded %d of %d frames", so.Req.ID, so.Frames, so.Req.Frames)
			}
		}
	}
	if admitted != res.Admitted {
		t.Errorf("session log admits %d, result says %d", admitted, res.Admitted)
	}
	perServer := 0
	for i, sr := range res.Servers {
		if sr.Index != i {
			t.Errorf("server %d has index %d", i, sr.Index)
		}
		if sr.AvgPowerW < 1 {
			t.Errorf("server %d power %.1f W implausible", i, sr.AvgPowerW)
		}
		if sr.UtilizationPct < 0 {
			t.Errorf("server %d utilization %.1f%% negative", i, sr.UtilizationPct)
		}
		if sr.PeakActive > sr.Sessions {
			t.Errorf("server %d peak %d exceeds its %d sessions", i, sr.PeakActive, sr.Sessions)
		}
		perServer += sr.Sessions
	}
	if perServer != res.Admitted {
		t.Errorf("per-server sessions sum to %d, admitted %d", perServer, res.Admitted)
	}
	if res.FleetAvgPowerW <= 0 {
		t.Errorf("fleet power %.1f W implausible", res.FleetAvgPowerW)
	}
}

// TestPowerAwareBeatsRoundRobinOnRejections drives the fleet past its
// admission capacity: blind round-robin rejects arrivals whose turn lands
// on a full server even while a sibling has room, while the power-aware
// policy only rejects when the whole fleet is full.
func TestPowerAwareBeatsRoundRobinOnRejections(t *testing.T) {
	base := Config{
		Servers:              2,
		MaxSessionsPerServer: 4,
		Approach:             experiments.Heuristic,
		Workload: Workload{
			ArrivalRate:    0.4,
			DurationSec:    300,
			MeanSessionSec: 25,
		},
		WarmupSec: 60,
		Seed:      5,
		Workers:   0,
	}
	rr := base
	rr.Policy = PolicyRoundRobin
	rrRes, err := Run(rr)
	if err != nil {
		t.Fatal(err)
	}
	pow := base
	pow.Policy = PolicyPowerAware
	powRes, err := Run(pow)
	if err != nil {
		t.Fatal(err)
	}
	if rrRes.Rejected == 0 {
		t.Fatal("overload produced no round-robin rejections; test is not exercising admission")
	}
	if powRes.RejectionPct >= rrRes.RejectionPct {
		t.Errorf("power-aware rejection %.1f%% not below round-robin %.1f%%",
			powRes.RejectionPct, rrRes.RejectionPct)
	}
}

// TestPowerAwareBeatsRoundRobinOnSLO replays a deterministic trace whose
// arrival order (HR, LR, HR, LR, ...) makes blind rotation pile every
// heavy HR stream onto one server. Balancing estimated watts instead
// keeps both servers real-time capable.
func TestPowerAwareBeatsRoundRobinOnSLO(t *testing.T) {
	var trace []SessionRequest
	for i := 0; i < 5; i++ {
		trace = append(trace,
			SessionRequest{ArriveAtSec: float64(i), Res: video.HR, Frames: 2400, Sequence: "Cactus"},
			SessionRequest{ArriveAtSec: float64(i) + 0.5, Res: video.LR, Frames: 2400, Sequence: "BQMall"},
		)
	}
	base := Config{
		Servers:        2,
		Approach:       experiments.Heuristic,
		Workload:       Workload{Trace: trace},
		Seed:           3,
		Workers:        0,
		RetainSessions: true, // the HR-split sanity check reads the log
	}
	rr := base
	rr.Policy = PolicyRoundRobin
	rrRes, err := Run(rr)
	if err != nil {
		t.Fatal(err)
	}
	pow := base
	pow.Policy = PolicyPowerAware
	powRes, err := Run(pow)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: round-robin anti-balanced the classes (one server all-HR).
	var rrHR [2]int
	for _, so := range rrRes.Sessions {
		if so.Req.Res == video.HR && so.Server >= 0 {
			rrHR[so.Server]++
		}
	}
	if rrHR[0] != 5 || rrHR[1] != 0 {
		t.Fatalf("round-robin HR split %v, expected all 5 on server 0", rrHR)
	}
	if powRes.SLOAttainedPct <= rrRes.SLOAttainedPct {
		t.Errorf("power-aware SLO attainment %.1f%% not above round-robin %.1f%%",
			powRes.SLOAttainedPct, rrRes.SLOAttainedPct)
	}
}

// TestActualDeparturesChangePlacement demonstrates the event-interleaved
// dispatcher deciding differently from the old nominal-occupancy
// approximation. On a deliberately tiny platform (one single-threaded
// core) an HR session cannot reach the 24 FPS target, so its actual
// lifetime stretches far past the nominal Frames/TargetFPS residency:
//
//   - A arrives at t=0 on server 0 with a 240-frame budget — nominally
//     resident until t=10, actually until well past t=15;
//   - B arrives at t=15. The nominal dispatcher would see server 0 free
//     and (least-loaded breaking ties by index) place B there, doubling
//     up on the struggling server; the event-interleaved dispatcher sees
//     A still holding its slot and diverts B to server 1;
//   - C arrives at t=16 with both servers truly occupied and is rejected,
//     so the rejection metrics also reflect actual departures — the
//     nominal view would have admitted it.
func TestActualDeparturesChangePlacement(t *testing.T) {
	tiny := platform.DefaultSpec()
	tiny.Sockets = 1
	tiny.CoresPerSocket = 1
	tiny.ThreadsPerCore = 1
	cfg := Config{
		Servers:              2,
		MaxSessionsPerServer: 1,
		Policy:               PolicyLeastLoaded,
		Approach:             experiments.Heuristic,
		Spec:                 &tiny,
		Workload: Workload{Trace: []SessionRequest{
			{ArriveAtSec: 0, Sequence: "Cactus", Frames: 240},
			{ArriveAtSec: 15, Sequence: "Cactus", Frames: 240},
			{ArriveAtSec: 16, Sequence: "Cactus", Frames: 60},
		}},
		Seed:           21,
		Workers:        1,
		RetainSessions: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := res.Sessions[0], res.Sessions[1], res.Sessions[2]
	if a.Server != 0 {
		t.Fatalf("A placed on server %d, want 0", a.Server)
	}
	// Premise: A's nominal residency ended before B arrived, its actual
	// one did not.
	nominalEnd := a.Req.ArriveAtSec + float64(a.Req.Frames)/transcode.DefaultTargetFPS
	if nominalEnd >= b.Req.ArriveAtSec {
		t.Fatalf("nominal end %.1fs not before B's arrival %.1fs; premise broken", nominalEnd, b.Req.ArriveAtSec)
	}
	if a.AvgFPS >= transcode.DefaultTargetFPS {
		t.Fatalf("A averaged %.1f FPS on a single core; expected it stretched", a.AvgFPS)
	}
	// The divergent decision: nominal occupancy would put B on server 0.
	if b.Server != 1 {
		t.Errorf("B placed on server %d; actual occupancy should divert it to server 1", b.Server)
	}
	// And the rejection the nominal view would not have produced.
	if c.Server != -1 {
		t.Errorf("C admitted to server %d; both servers are actually occupied at t=16", c.Server)
	}
	if res.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", res.Rejected)
	}
	// Peak occupancy can no longer exceed the admission limit: admission
	// is enforced on actual residency.
	for _, sr := range res.Servers {
		if sr.PeakActive > cfg.MaxSessionsPerServer {
			t.Errorf("server %d peak %d exceeds admission limit %d", sr.Index, sr.PeakActive, cfg.MaxSessionsPerServer)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Servers: -1, Workload: Workload{ArrivalRate: 1, DurationSec: 10}},
		{Policy: "bogus", Workload: Workload{ArrivalRate: 1, DurationSec: 10}},
		{Workload: Workload{}},
		{Workload: Workload{ArrivalRate: 1, DurationSec: 10}, WarmupSec: 10},
		{Workload: Workload{ArrivalRate: 1, DurationSec: 10}, WarmupSec: -1},
		{Workload: Workload{ArrivalRate: 1, DurationSec: 10}, Workers: -1},
		// Knowledge reuse needs a learner that can export its tables.
		{Workload: Workload{ArrivalRate: 1, DurationSec: 10}, Approach: experiments.Heuristic, KnowledgeReuse: true},
		// Imported knowledge without reuse would silently never seed.
		{Workload: Workload{ArrivalRate: 1, DurationSec: 10}, Knowledge: NewKnowledgeStore()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config passed validation", i)
		}
	}
	if err := (Config{Workload: Workload{ArrivalRate: 1, DurationSec: 10}}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if _, err := Run(Config{Approach: "bogus", Workload: Workload{ArrivalRate: 1, DurationSec: 10}}); err == nil {
		t.Error("unknown approach accepted")
	}
}
