package serve

import (
	"reflect"
	"strings"
	"testing"

	"mamut/internal/experiments"
)

// elasticConfig drives every elasticity mechanism at once: a scheduled
// drain forces live migrations, the autoscaler reacts to a diurnal swing
// in both directions, and the hotspot rebalancer plans over the mutated
// fleet — the richest deterministic surface a divergence could hide in.
func elasticConfig(policy string) Config {
	return Config{
		Servers:              3,
		MaxSessionsPerServer: 3,
		Policy:               policy,
		Approach:             experiments.Heuristic,
		Workload: Workload{
			ArrivalRate:    0.4,
			DurationSec:    240,
			MeanSessionSec: 25,
			Curve:          LoadDiurnal,
			CurveAmplitude: 0.8,
		},
		WarmupSec: 30,
		Seed:      9,
		Workers:   1,
		EpochSec:  15,
		Rebalance: true,
		Autoscale: AutoscaleConfig{Enabled: true, MaxServers: 6},
		Drain:     []DrainEvent{{AtSec: 60, Server: 0}},
	}
}

// TestElasticDispatchEquivalence pins the subsystem's determinism
// contract: with drains, autoscaling and rebalancing all active, the
// indexed dispatcher still reproduces the scan reference bit for bit,
// for any worker count, under every built-in policy.
func TestElasticDispatchEquivalence(t *testing.T) {
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			scanCfg := elasticConfig(policy)
			scanCfg.reference = true
			scan, err := Run(scanCfg)
			if err != nil {
				t.Fatal(err)
			}
			if scan.Migrations == 0 {
				t.Fatalf("config exercised no migrations")
			}
			if scan.ServersAdded == 0 || scan.ServersRemoved == 0 {
				t.Fatalf("config exercised no topology change (added %d, removed %d)",
					scan.ServersAdded, scan.ServersRemoved)
			}
			for _, workers := range []int{1, 4} {
				cfg := elasticConfig(policy)
				cfg.Workers = workers
				got, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(scan, got) {
					t.Errorf("indexed elastic run (workers=%d) diverged from the scan reference", workers)
				}
			}
		})
	}
}

// TestElasticKnowledgeEquivalence extends the elastic determinism to
// knowledge reuse: migrated MAMUT sessions carry their harvest identity
// (and seeded-baseline subtraction) to the destination server, so the
// store contents must not depend on the dispatch path or worker count.
func TestElasticKnowledgeEquivalence(t *testing.T) {
	base := elasticConfig(PolicyLeastLoaded)
	base.Approach = experiments.MAMUT
	base.KnowledgeReuse = true
	run := func(reference bool, workers int) *Result {
		cfg := base
		cfg.reference = reference
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	scan := run(true, 1)
	if scan.Migrations == 0 || scan.KnowledgeContributions == 0 {
		t.Fatalf("config exercised no migrated knowledge (migrations %d, contributions %d)",
			scan.Migrations, scan.KnowledgeContributions)
	}
	for _, workers := range []int{1, 4} {
		if got := run(false, workers); !reflect.DeepEqual(scan, got) {
			t.Errorf("indexed elastic knowledge run (workers=%d) diverged from the scan reference", workers)
		}
	}
}

// TestDrainDecommission pins the drain lifecycle: the drained server
// stops admitting, its residents are live-migrated off and finish their
// full frame budgets elsewhere, and the server leaves the fleet.
func TestDrainDecommission(t *testing.T) {
	cfg := Config{
		Servers:              3,
		MaxSessionsPerServer: 4,
		Approach:             experiments.Heuristic,
		Workload: Workload{
			ArrivalRate:    0.25,
			DurationSec:    200,
			MeanSessionSec: 40,
		},
		Seed:           11,
		Workers:        1,
		EpochSec:       10,
		Drain:          []DrainEvent{{AtSec: 50, Server: 1}},
		RetainSessions: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Errorf("drain produced no migrations")
	}
	if res.ServersRemoved != 1 {
		t.Errorf("ServersRemoved = %d, want 1", res.ServersRemoved)
	}
	if res.ServersAdded != 0 || res.PeakServers != cfg.Servers {
		t.Errorf("drain-only run grew the fleet: added %d, peak %d", res.ServersAdded, res.PeakServers)
	}
	// No admissions land on the drained server after the decommission
	// epoch, and every admitted session — migrated or not — transcodes
	// its full budget.
	for _, so := range res.Sessions {
		if so.Server == 1 && so.Req.ArriveAtSec >= 50 {
			t.Errorf("arrival %d admitted to draining server 1 at t=%g", so.Req.ID, so.Req.ArriveAtSec)
		}
		if so.Server >= 0 && so.Frames != so.Req.Frames {
			t.Errorf("arrival %d finished %d/%d frames", so.Req.ID, so.Frames, so.Req.Frames)
		}
	}
}

// TestAutoscaleSpikeBeatsStatic is the subsystem's headline guarantee:
// under a load spike that overwhelms the configured fleet, the
// autoscaled + rebalanced service strictly beats the static fleet on
// BOTH SLO attainment and rejection rate.
func TestAutoscaleSpikeBeatsStatic(t *testing.T) {
	base := Config{
		Servers:              2,
		MaxSessionsPerServer: 5,
		Approach:             experiments.Heuristic,
		Workload: Workload{
			// A compressed day: the diurnal peak more than doubles the
			// base rate, far past what two servers can hold.
			ArrivalRate:    0.5,
			DurationSec:    300,
			MeanSessionSec: 30,
			Curve:          LoadDiurnal,
			CurveAmplitude: 0.9,
		},
		WarmupSec: 30,
		Seed:      5,
	}
	static, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	elastic := base
	elastic.EpochSec = 10
	elastic.Rebalance = true
	elastic.Autoscale = AutoscaleConfig{Enabled: true, MaxServers: 8}
	scaled, err := Run(elastic)
	if err != nil {
		t.Fatal(err)
	}
	if static.Rejected == 0 {
		t.Fatalf("spike does not overwhelm the static fleet (0 rejections) — the comparison is vacuous")
	}
	if scaled.ServersAdded == 0 {
		t.Fatalf("autoscaler never scaled out under the spike")
	}
	if scaled.SLOAttainedPct <= static.SLOAttainedPct {
		t.Errorf("autoscaled SLO attainment %.2f%% does not beat static %.2f%%",
			scaled.SLOAttainedPct, static.SLOAttainedPct)
	}
	if scaled.RejectionPct >= static.RejectionPct {
		t.Errorf("autoscaled rejection %.2f%% does not beat static %.2f%%",
			scaled.RejectionPct, static.RejectionPct)
	}
}

// TestElasticOffUnchanged: with no elasticity feature enabled the new
// result fields are inert — no epochs run, counters stay zero and
// PeakServers reports the configured fleet.
func TestElasticOffUnchanged(t *testing.T) {
	res, err := Run(Config{
		Servers:  2,
		Approach: experiments.Heuristic,
		Workload: Workload{ArrivalRate: 0.2, DurationSec: 60, MeanSessionSec: 20},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 || res.ServersAdded != 0 || res.ServersRemoved != 0 {
		t.Errorf("inert run reported elasticity activity: %+v", res)
	}
	if res.PeakServers != 2 {
		t.Errorf("PeakServers = %d, want 2", res.PeakServers)
	}
}

// TestElasticValidate covers the new config rejections.
func TestElasticValidate(t *testing.T) {
	base := Config{
		Workload: Workload{ArrivalRate: 0.2, DurationSec: 60},
		Servers:  2,
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"monoagent", func(c *Config) { c.Approach = experiments.MonoAgent; c.Rebalance = true }, "not migratable"},
		{"negative epoch", func(c *Config) { c.Rebalance = true; c.EpochSec = -1 }, "negative epoch"},
		{"tiny epoch", func(c *Config) { c.Rebalance = true; c.EpochSec = 1e-9 }, "epoch interval 1e-09"},
		{"drain out of range", func(c *Config) { c.Drain = []DrainEvent{{AtSec: 10, Server: 2}} }, "outside initial fleet"},
		{"drain negative time", func(c *Config) { c.Drain = []DrainEvent{{AtSec: -1, Server: 0}} }, "negative time"},
		{"autoscale bounds", func(c *Config) { c.Autoscale = AutoscaleConfig{Enabled: true, MaxServers: 1} }, "outside autoscale bounds"},
		{"scale max without autoscale", func(c *Config) { c.Autoscale = AutoscaleConfig{MaxServers: 10} }, "autoscaling is disabled"},
		{"epoch without elasticity", func(c *Config) { c.EpochSec = 3 }, "no elasticity feature"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}
