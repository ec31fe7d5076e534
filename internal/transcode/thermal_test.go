package transcode

import (
	"math"
	"testing"

	"mamut/internal/platform"
	"mamut/internal/video"
)

// thermalSpec returns a platform whose thermal model throttles quickly
// under full load.
func thermalSpec() platform.Spec {
	s := quietSpec()
	s.Thermal = platform.DefaultThermalSpec()
	s.Thermal.TauSec = 5 // fast thermal response for a short test
	return s
}

func TestEngineThermalTrackingReported(t *testing.T) {
	eng, err := NewEngine(thermalSpec(), quietModel(), 41)
	if err != nil {
		t.Fatal(err)
	}
	set := Settings{QP: 32, Threads: 10, FreqGHz: 3.2}
	if _, err := eng.AddSession(SessionConfig{
		Source: testSource(t, video.HR, 42), Controller: &Static{S: set},
		Initial: set, FrameBudget: 600,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	amb := thermalSpec().Thermal.AmbientC
	if res.TempMaxC <= amb {
		t.Errorf("max temp %.1fC not above ambient %.1fC", res.TempMaxC, amb)
	}
	if res.TempAvgC <= amb || res.TempAvgC > res.TempMaxC {
		t.Errorf("avg temp %.1fC outside (ambient, max]", res.TempAvgC)
	}
}

func TestEngineThermalThrottlingSlowsHotWorkload(t *testing.T) {
	// A saturating workload heats the package past the throttle point;
	// with throttling the same workload takes longer and caps cooler
	// than the un-throttled steady state would imply.
	run := func(spec platform.Spec) *Result {
		eng, err := NewEngine(spec, quietModel(), 43)
		if err != nil {
			t.Fatal(err)
		}
		set := Settings{QP: 22, Threads: 12, FreqGHz: 3.2}
		for i := 0; i < 6; i++ {
			if _, err := eng.AddSession(SessionConfig{
				Source: testSource(t, video.HR, int64(44+i)), Controller: &Static{S: set},
				Initial: set, FrameBudget: 1500,
			}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hot := thermalSpec()
	hot.Thermal.ThrottleC = 60 // low threshold: throttling will engage
	cold := quietSpec()        // thermal disabled

	throttled := run(hot)
	free := run(cold)
	if throttled.DurationSec <= free.DurationSec {
		t.Errorf("throttled run not slower: %.1fs vs %.1fs", throttled.DurationSec, free.DurationSec)
	}
	if free.TempMaxC != 0 {
		t.Errorf("disabled thermal reported temperature %.1f", free.TempMaxC)
	}
	// Throttling must bound the temperature near the threshold: the
	// package cannot keep heating at full power once throttled.
	if throttled.TempMaxC > hot.Thermal.ThrottleC+10 {
		t.Errorf("max temp %.1fC far above throttle point %.1fC", throttled.TempMaxC, hot.Thermal.ThrottleC)
	}
}

func TestEngineThrottledSessionEnergyReconciles(t *testing.T) {
	// The package energy integrates PowerIdealW = idle + sum(DynPowerW),
	// so the per-session dynamic energies must always sum to the package
	// energy minus the idle floor — including while the thermal model is
	// throttling, which scales both sides by the same factor.
	spec := thermalSpec()
	spec.Thermal.ThrottleC = 60 // engage throttling quickly
	eng, err := NewEngine(spec, quietModel(), 47)
	if err != nil {
		t.Fatal(err)
	}
	set := Settings{QP: 22, Threads: 12, FreqGHz: 3.2}
	for i := 0; i < 6; i++ {
		if _, err := eng.AddSession(SessionConfig{
			Source: testSource(t, video.HR, int64(48+i)), Controller: &Static{S: set},
			Initial: set, FrameBudget: 1500,
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TempMaxC < spec.Thermal.ThrottleC {
		t.Fatalf("workload never throttled (max %.1fC < %.1fC); test is vacuous",
			res.TempMaxC, spec.Thermal.ThrottleC)
	}
	var sessionDyn float64
	for _, sr := range res.Sessions {
		if sr.DynEnergyJ <= 0 {
			t.Errorf("session %d has non-positive dynamic energy %.1f J", sr.ID, sr.DynEnergyJ)
		}
		sessionDyn += sr.DynEnergyJ
	}
	packageDyn := res.EnergyJ - spec.IdlePowerW*res.DurationSec
	if packageDyn <= 0 {
		t.Fatalf("package dynamic energy %.1f J not positive", packageDyn)
	}
	if rel := math.Abs(sessionDyn-packageDyn) / packageDyn; rel > 1e-6 {
		t.Errorf("session dynamic energies %.1f J do not reconcile with package dynamic energy %.1f J (rel err %.2e)",
			sessionDyn, packageDyn, rel)
	}
}

// TestEngineThermalAccountsIdleGapArrival covers the idle-gap arrival
// jump with the thermal model enabled: when the only session arrives
// late, the engine must integrate idle power and the thermal RC model
// across the gap, and the energy attribution must still reconcile.
func TestEngineThermalAccountsIdleGapArrival(t *testing.T) {
	const gap = 20.0
	spec := thermalSpec() // thermal enabled, fast response, no throttle here
	run := func(start float64) *Result {
		eng, err := NewEngine(spec, quietModel(), 71)
		if err != nil {
			t.Fatal(err)
		}
		set := Settings{QP: 32, Threads: 4, FreqGHz: 2.6}
		if _, err := eng.AddSession(SessionConfig{
			Source: testSource(t, video.LR, 72), Controller: &Static{S: set},
			Initial: set, FrameBudget: 200, StartAtSec: start,
		}); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	gapped := run(gap)
	immediate := run(0)

	// Energy across the jump: the gapped run costs exactly the idle
	// lead-in more than the immediate one (the loaded part is identical).
	idleLead := spec.IdlePowerW * gap
	if diff := math.Abs(gapped.EnergyJ - (immediate.EnergyJ + idleLead)); diff > 1e-6*gapped.EnergyJ {
		t.Errorf("energy across idle gap off by %.3f J (gapped %.1f, immediate %.1f + idle %.1f)",
			diff, gapped.EnergyJ, immediate.EnergyJ, idleLead)
	}
	// And it still reconciles with the per-session attribution.
	sessionDyn := gapped.Sessions[0].DynEnergyJ
	packageDyn := gapped.EnergyJ - spec.IdlePowerW*gapped.DurationSec
	if rel := math.Abs(sessionDyn-packageDyn) / packageDyn; rel > 1e-6 {
		t.Errorf("idle-gap run: session dynamic energy %.2f J vs package %.2f J (rel %.2e)",
			sessionDyn, packageDyn, rel)
	}

	// Temperature across the jump: the gap is integrated as one idle
	// segment, so the package temperature at arrival must match the RC
	// model advanced over it. With idle power at 50 W the package warms
	// toward the idle steady state (~46.5C) during the gap — if the
	// engine skipped thermal accounting across the jump, the load plateau
	// would start from ambient and never reach that temperature in this
	// short run.
	tsRef, err := platform.NewThermalState(spec.Thermal)
	if err != nil {
		t.Fatal(err)
	}
	tsRef.Advance(spec.IdlePowerW, gap)
	arrivalTemp := tsRef.TempC()
	if gapped.TempMaxC < arrivalTemp-1e-9 {
		t.Errorf("gapped peak %.2fC below the idle-warmed arrival temperature %.2fC: thermal state lost across the jump",
			gapped.TempMaxC, arrivalTemp)
	}
	if gapped.TempMaxC < immediate.TempMaxC-0.1 {
		t.Errorf("gapped peak %.2fC below immediate peak %.2fC despite warm start",
			gapped.TempMaxC, immediate.TempMaxC)
	}
	if gapped.TempAvgC <= spec.Thermal.AmbientC || gapped.TempAvgC > gapped.TempMaxC {
		t.Errorf("gapped avg %.2fC outside (ambient %.1fC, max %.2fC]",
			gapped.TempAvgC, spec.Thermal.AmbientC, gapped.TempMaxC)
	}
}

func TestEngineRejectsInvalidThermalSpec(t *testing.T) {
	s := quietSpec()
	s.Thermal = platform.DefaultThermalSpec()
	s.Thermal.ThrottleFactor = 2
	if _, err := NewEngine(s, quietModel(), 1); err == nil {
		t.Error("invalid thermal spec accepted")
	}
}
