package serve

import (
	"math"
	"strings"
	"testing"

	"mamut/internal/experiments"
	"mamut/internal/platform"
)

// constPolicy always returns the same placement choice.
type constPolicy struct{ choice int }

func (p *constPolicy) Name() string                            { return "const" }
func (p *constPolicy) Place(SessionRequest, []ServerState) int { return p.choice }

// TestPolicyContractViolationIsAnError: a Place return outside
// [-1, Servers) is a broken custom policy, not a rejection — folding it
// into the rejection count would silently corrupt RejectionPct.
func TestPolicyContractViolationIsAnError(t *testing.T) {
	base := func(choice int) Config {
		return Config{
			Servers:       2,
			Approach:      experiments.Heuristic,
			PolicyFactory: func() Policy { return &constPolicy{choice: choice} },
			Workload: Workload{Trace: []SessionRequest{
				{ArriveAtSec: 0, Sequence: "BQMall", Frames: 24},
				{ArriveAtSec: 1, Sequence: "BQMall", Frames: 24},
			}},
			Seed:    1,
			Workers: 1,
		}
	}
	for _, choice := range []int{2, 7, -2, -100} {
		_, err := Run(base(choice))
		if err == nil {
			t.Errorf("choice %d: contract violation folded into rejections instead of erroring", choice)
			continue
		}
		if !strings.Contains(err.Error(), "placement contract") {
			t.Errorf("choice %d: unexpected error %v", choice, err)
		}
	}

	// The documented reject (-1) stays a rejection, not an error.
	res, err := Run(base(-1))
	if err != nil {
		t.Fatalf("deliberate reject errored: %v", err)
	}
	if res.Rejected != res.Offered || res.Rejected == 0 {
		t.Errorf("deliberate rejects: %d of %d offered", res.Rejected, res.Offered)
	}

	// A valid choice of a full server also stays a rejection.
	full := base(0)
	full.MaxSessionsPerServer = 1
	res, err = Run(full)
	if err != nil {
		t.Fatalf("full-server choice errored: %v", err)
	}
	if res.Admitted != 1 || res.Rejected != 1 {
		t.Errorf("full-server choice: admitted %d rejected %d, want 1/1", res.Admitted, res.Rejected)
	}
}

// TestMalformedSpecIsConfigError: a custom platform.Spec the dispatcher's
// power estimation cannot work with (here: an empty DVFS ladder) must
// surface as a config error from Validate and Run — the seed dispatcher
// crashed the process via panic(err) in estSessionPowerW instead.
func TestMalformedSpecIsConfigError(t *testing.T) {
	bad := platform.DefaultSpec()
	bad.Ladder = nil
	cfg := Config{
		Servers:  2,
		Approach: experiments.Heuristic,
		Spec:     &bad,
		Workload: Workload{ArrivalRate: 1, DurationSec: 10},
		Seed:     1,
	}
	if err := cfg.Validate(); err == nil {
		t.Error("malformed spec passed validation")
	} else if !strings.Contains(err.Error(), "platform spec") {
		t.Errorf("unexpected validation error: %v", err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Run panicked on a malformed spec: %v", r)
		}
	}()
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted a malformed spec")
	}
}

// TestIdlePowerFallback: a server that never admitted a session reports
// idle power, while a loaded server reports its measured (above-idle)
// average. The no-samples fallback, degenerate-window error and the
// error-text contract of the underlying integrator are pinned in
// internal/metrics.
func TestIdlePowerFallback(t *testing.T) {
	spec := platform.DefaultSpec()
	base := Config{
		Servers:       2,
		Approach:      experiments.Heuristic,
		PolicyFactory: func() Policy { return &constPolicy{choice: 0} },
		Workload: Workload{Trace: []SessionRequest{
			{ArriveAtSec: 0, Sequence: "BQMall", Frames: 48},
		}},
		Seed:    1,
		Workers: 1,
	}

	// Server 1 never admits a session: pure idle fallback.
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Servers[1].AvgPowerW; got != spec.IdlePowerW {
		t.Errorf("empty server power = %g, want idle %g", got, spec.IdlePowerW)
	}
	if got := res.Servers[0].AvgPowerW; got <= spec.IdlePowerW {
		t.Errorf("loaded server power %g not above idle %g", got, spec.IdlePowerW)
	}
}

// TestFaultWindowOnRetiredServer: a blip or degrade window that outlives
// its server — scale-in drains and retires it mid-window — must close
// quietly. The window end used to push the retired server's state into
// the fleet index rebuilt without it (an index-out-of-range panic for
// indexed policies), and a server retiring while blipped stayed in the
// blipped count, so windowed availability read the one live server as
// out of service.
func TestFaultWindowOnRetiredServer(t *testing.T) {
	for _, policy := range []string{PolicyLeastLoaded, PolicyPowerAware, PolicyRoundRobin} {
		for _, spec := range []string{"blip@1-39:3", "degrade@1-39:3:0.5"} {
			t.Run(policy+"/"+spec, func(t *testing.T) {
				plan, err := ParseFaultPlan(spec)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{
					Servers:  4,
					Policy:   policy,
					Approach: experiments.Heuristic,
					// An idle fleet scales in one server per epoch,
					// highest index first: server 3 retires at t=5,
					// inside its fault window, and the fleet is down to
					// its one-server minimum by t=15 — before any arrival
					// samples availability.
					Autoscale: AutoscaleConfig{Enabled: true},
					EpochSec:  5,
					Workload: Workload{Trace: []SessionRequest{
						{ArriveAtSec: 20, Frames: 48},
						{ArriveAtSec: 25, Frames: 48},
						{ArriveAtSec: 30, Frames: 48},
					}, DurationSec: 40},
					Faults: FaultConfig{Plan: plan},
					Seed:   1,
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.ServersRemoved != 3 {
					t.Fatalf("want the fleet scaled in to one server, removed %d", res.ServersRemoved)
				}
				if res.Windowed.AvailabilityPct <= 0 {
					t.Errorf("windowed availability %g%%: the retired server still counts as blipped", res.Windowed.AvailabilityPct)
				}
			})
		}
	}
}

// TestValidateRejectsNonFinite: every range check is false for NaN, so
// without an explicit finiteness check a NaN or ±Inf float slipped past
// Validate and hung, exhausted memory or silently misreported at run
// time. Each row sets one field of an otherwise valid config (with the
// feature that reads the field switched on) and only calls Validate.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	base := func() Config {
		return Config{
			Servers:  4,
			Approach: experiments.Heuristic,
			Workload: Workload{ArrivalRate: 1, DurationSec: 100},
		}
	}
	elastic := func(c *Config) {
		c.Rebalance = true
		c.Autoscale = AutoscaleConfig{Enabled: true}
	}
	faults := func(c *Config) {
		c.Queue.Capacity = 8
		c.Faults.Plan = []FaultEvent{{Kind: FaultCrash, Server: 1, AtSec: 50}}
	}
	rows := []struct {
		field string
		set   func(*Config)
	}{
		{"arrival rate", func(c *Config) { c.Workload.ArrivalRate = nan }},
		{"arrival rate", func(c *Config) { c.Workload.ArrivalRate = inf }},
		{"duration", func(c *Config) { c.Workload.DurationSec = nan }},
		{"mean session length", func(c *Config) { c.Workload.MeanSessionSec = nan }},
		{"HR fraction", func(c *Config) { c.Workload.HRFraction = nan }},
		{"diurnal amplitude", func(c *Config) { c.Workload.Curve = LoadDiurnal; c.Workload.CurveAmplitude = nan }},
		{"ramp end factor", func(c *Config) { c.Workload.Curve = LoadRamp; c.Workload.RampEndFactor = nan }},
		{"burst factor", func(c *Config) { c.Workload.Curve = LoadBurst; c.Workload.BurstFactor = nan }},
		{"trace entry 1: arrival", func(c *Config) {
			c.Workload.Trace = []SessionRequest{{ArriveAtSec: 0, Frames: 24}, {ArriveAtSec: nan, Frames: 24}}
		}},
		{"warm-up", func(c *Config) { c.WarmupSec = nan }},
		{"epoch interval", func(c *Config) { elastic(c); c.EpochSec = nan }},
		{"drain event 0 time", func(c *Config) { elastic(c); c.Drain = []DrainEvent{{AtSec: nan, Server: 0}} }},
		{"queue deadline", func(c *Config) { c.Queue = QueueConfig{Capacity: 8, DeadlineSec: nan} }},
		{"fault checkpoint interval", func(c *Config) { faults(c); c.Faults.CheckpointSec = nan }},
		{"fault-recovery deadline", func(c *Config) { faults(c); c.Faults.Recovery.DeadlineSec = nan }},
		{"fault 0: time", func(c *Config) { faults(c); c.Faults.Plan[0].AtSec = nan }},
	}
	for _, row := range rows {
		cfg := base()
		row.set(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: non-finite value accepted", row.field)
			continue
		}
		if !strings.Contains(err.Error(), row.field) || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("%s: error %q does not name the non-finite field", row.field, err)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
}
