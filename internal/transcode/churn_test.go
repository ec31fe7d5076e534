package transcode

import (
	"math"
	"testing"

	"mamut/internal/video"
)

func TestSessionArrivalJoinsLate(t *testing.T) {
	eng, err := NewEngine(quietSpec(), quietModel(), 61)
	if err != nil {
		t.Fatal(err)
	}
	set := Settings{QP: 32, Threads: 10, FreqGHz: 3.2}
	if _, err := eng.AddSession(SessionConfig{
		Source: testSource(t, video.HR, 62), Controller: &Static{S: set},
		Initial: set, FrameBudget: 200,
	}); err != nil {
		t.Fatal(err)
	}
	// The second user arrives 3 simulated seconds in.
	if _, err := eng.AddSession(SessionConfig{
		Source: testSource(t, video.HR, 63), Controller: &Static{S: set},
		Initial: set, FrameBudget: 100, StartAtSec: 3.0,
	}); err != nil {
		t.Fatal(err)
	}
	tr := recordTraces(eng)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	late := tr[1]
	if len(late) != 100 {
		t.Fatalf("late session frames = %d", len(late))
	}
	if first := late[0].Time; first < 3.0 {
		t.Errorf("late session completed a frame at %.2fs, before its arrival", first)
	}
	// The early session must slow down once the second one arrives: its
	// last frames take longer than its first ones (12 extra threads
	// oversubscribe a 10-thread-wide speedup budget... both at 10
	// threads: demand 2 x 5.9 > capacity at 20 threads = 17).
	early := tr[0]
	if early[5].DurationSec >= early[150].DurationSec {
		t.Errorf("contention after arrival did not slow the first session: %.4f vs %.4f",
			early[5].DurationSec, early[150].DurationSec)
	}
}

func TestSessionArrivalOnIdleServer(t *testing.T) {
	// The only session arrives at t=10: the engine must idle forward,
	// charge the gap at idle power and still attribute the dynamic
	// energy to the session.
	const gap = 10.0
	spec := quietSpec()
	run := func(start float64) (*Result, map[int][]Observation) {
		eng, err := NewEngine(spec, quietModel(), 64)
		if err != nil {
			t.Fatal(err)
		}
		set := Settings{QP: 32, Threads: 4, FreqGHz: 2.6}
		if _, err := eng.AddSession(SessionConfig{
			Source: testSource(t, video.LR, 65), Controller: &Static{S: set},
			Initial: set, FrameBudget: 24, StartAtSec: start,
		}); err != nil {
			t.Fatal(err)
		}
		tr := recordTraces(eng)
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, tr
	}
	gapped, tr := run(gap)
	immediate, _ := run(0)
	if tr[0][0].Time < gap {
		t.Error("session ran before its arrival")
	}
	// The gapped run costs exactly the idle lead-in more than the
	// immediate one: the loaded part is identical.
	idleLead := spec.IdlePowerW * gap
	if diff := math.Abs(gapped.EnergyJ - (immediate.EnergyJ + idleLead)); diff > 1e-6*gapped.EnergyJ {
		t.Errorf("energy across the idle gap off by %.3f J (gapped %.1f, immediate %.1f + idle %.1f)",
			diff, gapped.EnergyJ, immediate.EnergyJ, idleLead)
	}
	sessionDyn := gapped.Sessions[0].DynEnergyJ
	packageDyn := gapped.EnergyJ - spec.IdlePowerW*gapped.DurationSec
	if rel := math.Abs(sessionDyn-packageDyn) / packageDyn; rel > 1e-6 {
		t.Errorf("session dynamic energy %.2f J vs package %.2f J (rel %.2e)", sessionDyn, packageDyn, rel)
	}
}

func TestNegativeStartRejected(t *testing.T) {
	eng, err := NewEngine(quietSpec(), quietModel(), 66)
	if err != nil {
		t.Fatal(err)
	}
	set := Settings{QP: 32, Threads: 4, FreqGHz: 2.6}
	if _, err := eng.AddSession(SessionConfig{
		Source: testSource(t, video.LR, 67), Controller: &Static{S: set},
		Initial: set, FrameBudget: 10, StartAtSec: -1,
	}); err == nil {
		t.Error("negative start time accepted")
	}
}

func TestDynEnergyAttribution(t *testing.T) {
	eng, err := NewEngine(quietSpec(), quietModel(), 68)
	if err != nil {
		t.Fatal(err)
	}
	// Two sessions with very different footprints: the big one must be
	// charged more dynamic energy, and the parts must sum to the total
	// minus idle.
	big := Settings{QP: 22, Threads: 12, FreqGHz: 3.2}
	small := Settings{QP: 37, Threads: 2, FreqGHz: 1.6}
	if _, err := eng.AddSession(SessionConfig{
		Source: testSource(t, video.HR, 69), Controller: &Static{S: big},
		Initial: big, FrameBudget: 100,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddSession(SessionConfig{
		Source: testSource(t, video.LR, 70), Controller: &Static{S: small},
		Initial: small, FrameBudget: 100,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	e0, e1 := res.Sessions[0].DynEnergyJ, res.Sessions[1].DynEnergyJ
	if e0 <= e1 {
		t.Errorf("big session charged %.1f J, small %.1f J", e0, e1)
	}
	idleE := quietSpec().IdlePowerW * res.DurationSec
	if diff := math.Abs((e0 + e1 + idleE) - res.EnergyJ); diff > res.EnergyJ*0.01 {
		t.Errorf("energy attribution gap %.2f J (total %.1f)", diff, res.EnergyJ)
	}
}
