package serve

import (
	"reflect"
	"testing"

	"mamut/internal/experiments"
)

// goldenConfig is the 64-server fleet behind cmd/mamut-serve's
// fleet64_<policy> goldens; the other golden configs derive from it
// exactly as that package's tests derive theirs.
func goldenConfig(policy string) Config {
	return Config{
		Servers:              64,
		MaxSessionsPerServer: 8,
		Policy:               policy,
		Approach:             experiments.Heuristic,
		Workload: Workload{
			ArrivalRate:    2,
			DurationSec:    40,
			HRFraction:     0.4,
			MeanSessionSec: 10,
			Curve:          LoadConstant,
			CurveAmplitude: 0.5,
			RampEndFactor:  2,
		},
		WarmupSec: 10,
		Seed:      7,
	}
}

// goldenConfigs lists the seven configs whose summaries
// cmd/mamut-serve/testdata pins, keyed by golden name.
func goldenConfigs() []struct {
	name string
	cfg  Config
} {
	elastic := goldenConfig(PolicyLeastLoaded)
	elastic.Servers = 32
	elastic.MaxSessionsPerServer = 4
	elastic.Workload.ArrivalRate = 8
	elastic.Workload.DurationSec = 60
	elastic.Workload.Curve = LoadDiurnal
	elastic.Workload.CurveAmplitude = 0.9
	elastic.WarmupSec = 15
	elastic.EpochSec = 5
	elastic.Rebalance = true
	elastic.Autoscale = AutoscaleConfig{Enabled: true, MaxServers: 48}
	elastic.Drain = []DrainEvent{{AtSec: 20, Server: 0}}

	queue := goldenConfig(PolicyLeastLoaded)
	queue.MaxSessionsPerServer = 1
	queue.Workload.ArrivalRate = 4
	queue.Workload.MeanSessionSec = 15
	queue.Workload.Curve = LoadBurst
	queue.Workload.BurstFactor = 3
	queue.Workload.BurstStartSec = 10
	queue.Workload.BurstEndSec = 25
	queue.Queue = QueueConfig{Capacity: 32, DeadlineSec: 8}

	chaos := goldenConfig(PolicyLeastLoaded)
	chaos.Servers = 32
	chaos.MaxSessionsPerServer = 4
	chaos.Workload.ArrivalRate = 8
	chaos.Queue = QueueConfig{Capacity: 64}
	chaos.Faults = FaultConfig{
		Plan: []FaultEvent{
			{Kind: FaultCrash, Server: 1, AtSec: 20},
			{Kind: FaultDegrade, Server: 2, AtSec: 25, EndSec: 40, Factor: 0.5},
			{Kind: FaultBlip, Server: 3, AtSec: 30, EndSec: 36},
		},
		CheckpointSec: 10,
	}

	chaosMAMUT := goldenConfig(PolicyLeastLoaded)
	chaosMAMUT.Servers = 16
	chaosMAMUT.MaxSessionsPerServer = 4
	chaosMAMUT.Approach = experiments.MAMUT
	chaosMAMUT.KnowledgeReuse = true
	chaosMAMUT.Workload.ArrivalRate = 3
	chaosMAMUT.Workload.MeanSessionSec = 12
	chaosMAMUT.Queue = QueueConfig{Capacity: 32}
	chaosMAMUT.Rebalance = true
	chaosMAMUT.EpochSec = 5
	chaosMAMUT.Faults = FaultConfig{
		Plan: []FaultEvent{
			{Kind: FaultCrash, Server: 1, AtSec: 20},
			{Kind: FaultCrash, Server: 4, AtSec: 28},
			{Kind: FaultDegrade, Server: 2, AtSec: 22, EndSec: 34, Factor: 0.5},
		},
		CheckpointSec: 5,
	}

	return []struct {
		name string
		cfg  Config
	}{
		{"fleet64_round-robin", goldenConfig(PolicyRoundRobin)},
		{"fleet64_least-loaded", goldenConfig(PolicyLeastLoaded)},
		{"fleet64_power", goldenConfig(PolicyPowerAware)},
		{"elastic32", elastic},
		{"queue64", queue},
		{"chaos32", chaos},
		{"chaosmamut16", chaosMAMUT},
	}
}

// TestGoldenConfigsMatchReference runs every committed golden config
// under the scan reference and the production dispatcher, each with a
// serial drain and a drain pool of four workers, and requires DeepEqual
// results. The CLI golden tests pin the production output's bytes; this
// pins that the reference still agrees with it.
func TestGoldenConfigsMatchReference(t *testing.T) {
	for _, g := range goldenConfigs() {
		t.Run(g.name, func(t *testing.T) {
			var want *Result
			for _, mode := range dispatchModes {
				for _, workers := range []int{1, 4} {
					cfg := g.cfg
					cfg.reference = mode.reference
					cfg.Workers = workers
					got, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = got
					} else if !reflect.DeepEqual(want, got) {
						t.Errorf("%s workers=%d diverged from indexed workers=1", mode.name, workers)
					}
				}
			}
			if want.Admitted == 0 {
				t.Fatal("golden config admitted nothing")
			}
		})
	}
}
