package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mamut"
)

// -update-golden regenerates the committed fleet smoke goldens. The same
// files are asserted by the CI workflow against the built binary (same
// flags), so the library-level test here and the CLI-level smoke cannot
// drift apart.
var updateGolden = flag.Bool("update-golden", false, "regenerate testdata goldens")

// fleetSmokeConfig mirrors the CI smoke step's flags:
//
//	mamut-serve -servers 64 -arrival-rate 2 -duration 40 -warmup 10 \
//	    -mean-session 10 -approach heuristic -seed 7 -policy <p>
func fleetSmokeConfig(policy string) mamut.ServeConfig {
	return mamut.ServeConfig{
		Servers:              64,
		MaxSessionsPerServer: 8,
		Policy:               policy,
		Approach:             mamut.ApproachHeuristic,
		Workload: mamut.ServeWorkload{
			ArrivalRate:    2,
			DurationSec:    40,
			HRFraction:     0.4,
			MeanSessionSec: 10,
			Curve:          mamut.LoadConstant,
			CurveAmplitude: 0.5,
			RampEndFactor:  2,
		},
		WarmupSec: 10,
		Seed:      7,
	}
}

// goldenVariants are the drain-pool sizes every golden is checked
// under, against the same golden bytes: output is bit-identical for any
// worker count. (internal/serve's TestGoldenConfigsMatchReference runs
// the same configs against the scan reference dispatcher.)
var goldenVariants = []struct {
	name    string
	workers int
}{
	{"w1", 1},
	{"w4", 4},
}

// checkGolden runs newCfg's config under every golden variant, requires
// the outputs to be byte-identical and to contain marker, and compares
// them with the committed golden file (or rewrites it under
// -update-golden).
func checkGolden(t *testing.T, golden string, newCfg func() mamut.ServeConfig, quantiles bool, marker string) {
	t.Helper()
	golden = filepath.Join("testdata", golden)
	var first []byte
	for _, variant := range goldenVariants {
		cfg := newCfg()
		cfg.Workers = variant.workers
		var buf bytes.Buffer
		if err := run(&buf, cfg, runOpts{format: "summary", workers: cfg.Workers, quantiles: quantiles}); err != nil {
			t.Fatalf("%s: %v", variant.name, err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("output of %s differs from %s", variant.name, goldenVariants[0].name)
		}
	}
	if !bytes.Contains(first, []byte(marker)) {
		t.Fatalf("summary missing %q:\n%s", marker, first)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, first, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden written to %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(first, want) {
		t.Errorf("output diverged from committed golden %s:\n got:\n%s\nwant:\n%s", golden, first, want)
	}
}

// TestFleetSmokeGolden pins the mamut-serve summary output for a
// 64-server fleet under every built-in policy to committed goldens —
// byte-identical across worker counts.
func TestFleetSmokeGolden(t *testing.T) {
	for _, policy := range mamut.ServePolicyNames() {
		t.Run(policy, func(t *testing.T) {
			checkGolden(t, fmt.Sprintf("fleet64_%s.golden", policy),
				func() mamut.ServeConfig { return fleetSmokeConfig(policy) }, false, "SLO")
		})
	}
}

// elasticSmokeConfig mirrors the CI elastic smoke step's flags — a
// diurnal spike whose peak forces scale-out and whose trough forces
// scale-in, with a scheduled drain and hotspot rebalancing on top:
//
//	mamut-serve -servers 32 -admission 4 -arrival-rate 8 -duration 60 \
//	    -warmup 15 -mean-session 10 -amplitude 0.9 -approach heuristic \
//	    -seed 7 -curve diurnal -autoscale -rebalance -drain 20:0 \
//	    -epoch 5 -scale-max 48
func elasticSmokeConfig() mamut.ServeConfig {
	cfg := fleetSmokeConfig(mamut.PolicyLeastLoaded)
	cfg.Servers = 32
	cfg.MaxSessionsPerServer = 4
	cfg.Workload.ArrivalRate = 8
	cfg.Workload.DurationSec = 60
	cfg.Workload.Curve = mamut.LoadDiurnal
	cfg.Workload.CurveAmplitude = 0.9
	cfg.WarmupSec = 15
	cfg.EpochSec = 5
	cfg.Rebalance = true
	cfg.Autoscale = mamut.ServeAutoscale{Enabled: true, MaxServers: 48}
	cfg.Drain = []mamut.ServeDrainEvent{{AtSec: 20, Server: 0}}
	return cfg
}

// TestElasticFleetGolden pins the summary output of a 32-server elastic
// run — diurnal spike, autoscaling, hotspot rebalancing and a scheduled
// drain all active — to a committed golden, byte-identical across worker
// counts: live migration and fleet topology changes preserve
// the repo's determinism contract.
func TestElasticFleetGolden(t *testing.T) {
	checkGolden(t, "elastic32.golden", elasticSmokeConfig, false, "elastic: ")
}

// queuedSmokeConfig mirrors the CI queued smoke step's flags — a tight
// fleet under a flash-crowd burst with the admission queue on, so queue
// entries, deadline drops and re-admissions all occur:
//
//	mamut-serve -servers 64 -admission 1 -arrival-rate 4 -duration 40 \
//	    -warmup 10 -mean-session 15 -approach heuristic -seed 7 \
//	    -curve burst -burst-factor 3 -burst-start 10 -burst-end 25 \
//	    -queue 32 -queue-deadline 8
func queuedSmokeConfig() mamut.ServeConfig {
	cfg := fleetSmokeConfig(mamut.PolicyLeastLoaded)
	cfg.MaxSessionsPerServer = 1
	cfg.Workload.ArrivalRate = 4
	cfg.Workload.MeanSessionSec = 15
	cfg.Workload.Curve = mamut.LoadBurst
	cfg.Workload.BurstFactor = 3
	cfg.Workload.BurstStartSec = 10
	cfg.Workload.BurstEndSec = 25
	cfg.Queue = mamut.ServeQueueConfig{Capacity: 32, DeadlineSec: 8}
	return cfg
}

// TestQueuedFleetGolden pins the summary output of a queued-admission
// burst run to a committed golden, byte-identical across worker
// counts: the admission pipeline preserves the repo's determinism
// contract.
func TestQueuedFleetGolden(t *testing.T) {
	checkGolden(t, "queue64.golden", queuedSmokeConfig, false, "queue: ")
}

// chaosSmokeConfig mirrors the CI chaos smoke step's flags — a loaded
// 32-server fleet with a crash, a degrade window and a blip landing
// mid-run, periodic checkpoints and queue-based recovery on:
//
//	mamut-serve -servers 32 -admission 4 -arrival-rate 8 -duration 40 \
//	    -warmup 10 -mean-session 10 -approach heuristic -seed 7 \
//	    -queue 64 -faults crash@20:1,degrade@25-40:2:0.5,blip@30-36:3 \
//	    -fault-checkpoint 10 -quantiles
func chaosSmokeConfig() mamut.ServeConfig {
	cfg := fleetSmokeConfig(mamut.PolicyLeastLoaded)
	cfg.Servers = 32
	cfg.MaxSessionsPerServer = 4
	cfg.Workload.ArrivalRate = 8
	cfg.Queue = mamut.ServeQueueConfig{Capacity: 64}
	cfg.Faults = mamut.ServeFaultConfig{
		Plan: []mamut.ServeFaultEvent{
			{Kind: mamut.FaultCrash, Server: 1, AtSec: 20},
			{Kind: mamut.FaultDegrade, Server: 2, AtSec: 25, EndSec: 40, Factor: 0.5},
			{Kind: mamut.FaultBlip, Server: 3, AtSec: 30, EndSec: 36},
		},
		CheckpointSec: 10,
	}
	return cfg
}

// TestFaultEquivalence pins the summary output of a chaos run — crash,
// degrade and blip faults with checkpointed queue-based recovery — to a
// committed golden, byte-identical across worker counts:
// fault injection and recovery land only in the serial control phase,
// preserving the repo's determinism contract.
func TestFaultEquivalence(t *testing.T) {
	checkGolden(t, "chaos32.golden", chaosSmokeConfig, true, "faults: ")
}

// chaosMAMUTConfig mirrors the CI MAMUT chaos step's flags — MAMUT
// controllers with knowledge reuse, periodic checkpoints, two crashes
// whose victims restore from those checkpoints, a degrade window and a
// rebalance migration:
//
//	mamut-serve -servers 16 -admission 4 -arrival-rate 3 -duration 40 \
//	    -warmup 10 -mean-session 12 -approach mamut -knowledge -seed 7 \
//	    -queue 32 -faults crash@20:1,crash@28:4,degrade@22-34:2:0.5 \
//	    -fault-checkpoint 5 -quantiles -rebalance -epoch 5
func chaosMAMUTConfig() mamut.ServeConfig {
	cfg := fleetSmokeConfig(mamut.PolicyLeastLoaded)
	cfg.Servers = 16
	cfg.MaxSessionsPerServer = 4
	cfg.Approach = mamut.ApproachMAMUT
	cfg.KnowledgeReuse = true
	cfg.Workload.ArrivalRate = 3
	cfg.Workload.MeanSessionSec = 12
	cfg.Queue = mamut.ServeQueueConfig{Capacity: 32}
	cfg.Rebalance = true
	cfg.EpochSec = 5
	cfg.Faults = mamut.ServeFaultConfig{
		Plan: []mamut.ServeFaultEvent{
			{Kind: mamut.FaultCrash, Server: 1, AtSec: 20},
			{Kind: mamut.FaultCrash, Server: 4, AtSec: 28},
			{Kind: mamut.FaultDegrade, Server: 2, AtSec: 22, EndSec: 34, Factor: 0.5},
		},
		CheckpointSec: 5,
	}
	return cfg
}

// TestChaosMAMUTGolden pins a chaos run whose sessions are MAMUT
// controllers, so checkpoints, crash recovery and migration carry the
// learners' full state through the session codec. The golden was
// recorded before the codec encoded controller state in one pass, so it
// also pins that the rewrite changed no result.
func TestChaosMAMUTGolden(t *testing.T) {
	checkGolden(t, "chaosmamut16.golden", chaosMAMUTConfig, true, "recovered=8 ")
}

// TestChaosMAMUTKnowledgeGolden pins the knowledge artifact that the
// MAMUT chaos row exports (-knowledge-out), byte for byte, to a committed
// file that the CI step of the same row compares with cmp; a run started
// from that file (-knowledge-in) warm-starts its admissions.
func TestChaosMAMUTKnowledgeGolden(t *testing.T) {
	golden := filepath.Join("testdata", "chaosmamut16.knowledge.json")
	out := filepath.Join(t.TempDir(), "kb.json")
	cfg := chaosMAMUTConfig()
	if err := run(io.Discard, cfg, runOpts{format: "summary", quantiles: true, knowledgeOut: out}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("exported knowledge artifact diverged from %s", golden)
	}
	var buf bytes.Buffer
	if err := run(&buf, chaosMAMUTConfig(), runOpts{format: "summary", knowledgeIn: golden}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("admissions warm-started")) {
		t.Fatalf("run from the imported artifact reports no warm starts:\n%s", buf.Bytes())
	}
}

// TestParseDrain: -drain takes comma-separated at:server pairs and
// rejects trailing input, a missing server and non-finite times instead
// of silently truncating them.
func TestParseDrain(t *testing.T) {
	got, err := parseDrain("120:1, 300.5:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []mamut.ServeDrainEvent{{AtSec: 120, Server: 1}, {AtSec: 300.5, Server: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseDrain = %+v, want %+v", got, want)
	}
	for _, in := range []string{"120:1.5", "5:0x", "NaN:0", "Inf:0", "120", "x:1", "120:"} {
		if evs, err := parseDrain(in); err == nil {
			t.Errorf("-drain %q accepted as %+v", in, evs)
		}
	}
}

// TestRunRejectsFlagsOutsideTheirMode: a report flag the chosen mode does
// not read is an error, not silently ignored, and so is a dependent
// option without its feature (-scale-max without -autoscale, -epoch
// without an elastic feature) and a periodic interval too small to
// schedule over the horizon (-epoch 1e-9 -rebalance, -fault-checkpoint
// 1e-9), which would otherwise exhaust memory. Every row fails before
// any simulation runs.
func TestRunRejectsFlagsOutsideTheirMode(t *testing.T) {
	crash, err := mamut.ParseServeFaultPlan("crash@20:1")
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name string
		opts runOpts
		cfg  func(*mamut.ServeConfig)
	}{
		{"grid -format csv", runOpts{policies: "power", format: "csv"}, nil},
		{"grid -format bogus", runOpts{policies: "power", format: "bogus"}, nil},
		{"grid -quantiles", runOpts{seeds: "1,2", quantiles: true}, nil},
		{"-format csv -quantiles", runOpts{format: "csv", quantiles: true}, nil},
		{"-format bogus", runOpts{format: "bogus"}, nil},
		{"-checkpoint outside grid", runOpts{checkpoint: "grid.ckpt"}, nil},
		{"grid -knowledge-out", runOpts{rates: "0.5", knowledgeOut: "kb.json"}, nil},
		{"-scale-max 10 without -autoscale", runOpts{}, func(c *mamut.ServeConfig) {
			c.Autoscale = mamut.ServeAutoscale{MaxServers: 10}
		}},
		{"-epoch 3 without an elastic feature", runOpts{}, func(c *mamut.ServeConfig) {
			c.EpochSec = 3
		}},
		{"-epoch 1e-9 -rebalance", runOpts{}, func(c *mamut.ServeConfig) {
			c.Rebalance = true
			c.EpochSec = 1e-9
		}},
		{"-faults crash@20:1 -queue 8 -fault-checkpoint 1e-9", runOpts{}, func(c *mamut.ServeConfig) {
			c.Queue = mamut.ServeQueueConfig{Capacity: 8}
			c.Faults = mamut.ServeFaultConfig{Plan: crash, CheckpointSec: 1e-9}
		}},
	}
	for _, row := range rows {
		cfg := fleetSmokeConfig(mamut.PolicyLeastLoaded)
		if row.cfg != nil {
			row.cfg(&cfg)
		}
		var buf bytes.Buffer
		if err := run(&buf, cfg, row.opts); err == nil {
			t.Errorf("%s: accepted", row.name)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: printed output before rejecting:\n%s", row.name, buf.String())
		}
	}
}

// TestParseArgs: -warmup -1 (the default) means a quarter of the
// horizon, and a flag value or combination the library would read as a
// default is an error, not silently replaced.
func TestParseArgs(t *testing.T) {
	for _, args := range [][]string{{"-duration", "40"}, {"-duration", "40", "-warmup", "-1"}} {
		inv, err := parseArgs(args)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if inv.cfg.WarmupSec != 10 {
			t.Errorf("%v: warm-up %g, want duration/4 = 10", args, inv.cfg.WarmupSec)
		}
	}
	for _, args := range [][]string{
		{"-duration", "40", "-warmup", "-7"},
		{"-warmup", "-0.5"},
		{"-admission", "0"},
		{"-queue-deadline", "5"},
		{"-queue-prio", "fifo"},
		{"-fault-drop"},
		{"-fault-checkpoint", "5"},
		{"-drain", "120"},
		{"-faults", "crash@x:1"},
	} {
		if inv, err := parseArgs(args); err == nil {
			t.Errorf("%v: accepted (warm-up %g)", args, inv.cfg.WarmupSec)
		}
	}
}
