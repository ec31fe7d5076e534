package mamut

import (
	"testing"

	"mamut/internal/platform"
)

func TestSimulationQuickstartFlow(t *testing.T) {
	sim, err := NewSimulation(SimulationConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AddStream(StreamConfig{Sequence: "Kimono", Approach: ApproachMAMUT, Frames: 300}); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddStream(StreamConfig{Sequence: "BQMall", Frames: 300}); err != nil {
		t.Fatal(err)
	}
	observed := map[int]int{}
	sim.OnFrame(func(obs Observation) { observed[obs.SessionID]++ })
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sessions) != 2 {
		t.Fatalf("sessions = %d", len(res.Sessions))
	}
	if res.Sessions[0].Frames != 300 || res.Sessions[1].Frames != 300 {
		t.Error("frame budgets not honoured")
	}
	if observed[0] != 300 || observed[1] != 300 {
		t.Errorf("observed %v frames per stream, want 300 each", observed)
	}
	if res.AvgPowerW <= platform.DefaultSpec().IdlePowerW {
		t.Error("power not above idle")
	}
}

func TestSimulationValidation(t *testing.T) {
	sim, err := NewSimulation(SimulationConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AddStream(StreamConfig{Frames: 10}); err == nil {
		t.Error("empty sequence accepted")
	}
	if err := sim.AddStream(StreamConfig{Sequence: "NoSuchVideo", Frames: 10}); err == nil {
		t.Error("unknown sequence accepted")
	}
	if err := sim.AddStream(StreamConfig{Sequence: "Kimono", Frames: 0}); err == nil {
		t.Error("zero frames accepted")
	}
	if err := sim.AddStream(StreamConfig{Sequence: "Kimono", Frames: 10, Approach: "bogus"}); err == nil {
		t.Error("unknown approach accepted")
	}
}

func TestSimulationDeterminism(t *testing.T) {
	run := func() float64 {
		sim, err := NewSimulation(SimulationConfig{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.AddStream(StreamConfig{Sequence: "Cactus", Frames: 200}); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.EnergyJ
	}
	if run() != run() {
		t.Error("same-seed simulations diverged")
	}
}

func TestRunServiceFacade(t *testing.T) {
	cfg := ServeConfig{
		Servers:  2,
		Policy:   PolicyPowerAware,
		Approach: ApproachHeuristic,
		Workload: ServeWorkload{
			ArrivalRate:    0.3,
			DurationSec:    60,
			MeanSessionSec: 15,
		},
		WarmupSec: 15,
		Seed:      4,
	}
	res, err := RunService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 || len(res.Servers) != 2 {
		t.Fatalf("implausible service result: %+v", res)
	}
	if res.Policy != PolicyPowerAware {
		t.Errorf("result policy %q", res.Policy)
	}
	cells, err := RunServiceGrid(ServeGridSpec{
		Base:     cfg,
		Policies: ServePolicyNames(),
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(ServePolicyNames()) {
		t.Fatalf("grid returned %d cells", len(cells))
	}
	for i, c := range cells {
		if c.Policy != ServePolicyNames()[i] || c.Result == nil {
			t.Errorf("cell %d malformed: %+v", i, c)
		}
	}
}
