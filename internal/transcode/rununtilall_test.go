package transcode

import (
	"testing"

	"mamut/internal/video"
)

// TestRunUntilAllSkewedBudgetsSurviveEventBudget regresses the event
// budget miscount: the pre-refactor engine derived its livelock budget
// from the *nominal* frame budgets (sum * maxEventsPerFrame), but
// until-all mode keeps fast sessions transcoding catch-up frames until
// the slowest session reaches its budget — with a large speed skew the
// catch-up frames alone exceed the nominal-budget bound and the run dies
// with "event budget exhausted". The budget now scales with frames
// actually completed, so this workload must finish.
func TestRunUntilAllSkewedBudgetsSurviveEventBudget(t *testing.T) {
	// Slowest possible session: HR content on one thread at the bottom
	// ladder rung, expensive QP; plus three fastest-possible sessions with
	// token budgets that transcode catch-up frames the whole run.
	slow := Settings{QP: 22, Threads: 1, FreqGHz: 1.2}
	fast := Settings{QP: 47, Threads: 10, FreqGHz: 3.2}
	add := func(addSession func(SessionConfig) (int, error)) {
		t.Helper()
		if _, err := addSession(SessionConfig{
			Source: testSource(t, video.HR, 56), Controller: &Static{S: slow},
			Initial: slow, FrameBudget: 40,
		}); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 3; i++ {
			if _, err := addSession(SessionConfig{
				Source: testSource(t, video.LR, 57+i), Controller: &Static{S: fast},
				Initial: fast, FrameBudget: 1,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	eng, err := NewEngine(quietSpec(), quietModel(), 55)
	if err != nil {
		t.Fatal(err)
	}
	add(eng.AddSession)
	res, err := eng.RunUntilAll()
	if err != nil {
		t.Fatalf("skewed until-all run failed: %v", err)
	}
	if res.Sessions[0].Frames != 40 {
		t.Errorf("slow session frames = %d, want 40", res.Sessions[0].Frames)
	}
	total := 0
	for _, sr := range res.Sessions {
		total += sr.Frames
	}
	if oldBudget := (40 + 3) * maxEventsPerFrame; total <= oldBudget {
		t.Fatalf("catch-up frames %d do not exceed the old budget %d; test is vacuous", total, oldBudget)
	}

	// The pre-refactor core (the linear reference) dies on exactly this
	// workload: its livelock budget counts nominal frames only.
	ref := newRefEngine(t, quietSpec(), quietModel(), 55)
	add(func(cfg SessionConfig) (int, error) { ref.addSession(t, cfg); return 0, nil })
	if _, err := ref.run(true); err == nil {
		t.Error("pre-refactor event budget did not trip; regression test is vacuous")
	}
}

func TestRunUntilAllKeepsContentionConstant(t *testing.T) {
	// One fast (LR) and one slow (HR) session with equal budgets: with
	// Run the LR session finishes early and leaves; with RunUntilAll it
	// keeps transcoding until the HR session reaches its budget.
	build := func() *Engine {
		eng, err := NewEngine(quietSpec(), quietModel(), 51)
		if err != nil {
			t.Fatal(err)
		}
		lr := Settings{QP: 32, Threads: 5, FreqGHz: 3.2}
		if _, err := eng.AddSession(SessionConfig{
			Source: testSource(t, video.LR, 52), Controller: &Static{S: lr},
			Initial: lr, FrameBudget: 200,
		}); err != nil {
			t.Fatal(err)
		}
		hr := Settings{QP: 22, Threads: 2, FreqGHz: 1.6} // slow on purpose
		if _, err := eng.AddSession(SessionConfig{
			Source: testSource(t, video.HR, 53), Controller: &Static{S: hr},
			Initial: hr, FrameBudget: 200,
		}); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	resStop, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	resAll, err := build().RunUntilAll()
	if err != nil {
		t.Fatal(err)
	}

	// Budgets are exact in stop mode; in until-all mode the fast session
	// transcodes extra frames.
	if resStop.Sessions[0].Frames != 200 {
		t.Errorf("stop mode frames = %d, want 200", resStop.Sessions[0].Frames)
	}
	if resAll.Sessions[0].Frames <= 200 {
		t.Errorf("until-all fast session frames = %d, want > 200", resAll.Sessions[0].Frames)
	}
	if resAll.Sessions[1].Frames < 200 {
		t.Errorf("until-all slow session frames = %d, want >= 200", resAll.Sessions[1].Frames)
	}

	// The run durations are driven by the slow session either way.
	if resAll.DurationSec < resStop.DurationSec*0.95 {
		t.Errorf("until-all duration %.1f much shorter than stop %.1f", resAll.DurationSec, resStop.DurationSec)
	}

	// In until-all mode the fast session keeps the machine loaded for the
	// whole run: average power is at least that of the stop-mode run,
	// where the tail has one session only.
	if resAll.AvgPowerW < resStop.AvgPowerW {
		t.Errorf("until-all avg power %.1f below stop mode %.1f", resAll.AvgPowerW, resStop.AvgPowerW)
	}
}

// TestRunUntilAllIsTerminal pins the lifecycle boundary: until-all mode
// stops with sessions frozen mid-frame and their loads still resident, so
// the engine must reject any attempt to keep simulating from that state
// (the phantom loads would distort contention and energy for new
// sessions) while repeated RunUntilAll stays idempotent.
func TestRunUntilAllIsTerminal(t *testing.T) {
	eng, err := NewEngine(quietSpec(), quietModel(), 51)
	if err != nil {
		t.Fatal(err)
	}
	s := Settings{QP: 32, Threads: 4, FreqGHz: 2.6}
	if _, err := eng.AddSession(SessionConfig{
		Source: testSource(t, video.LR, 52), Controller: &Static{S: s},
		Initial: s, FrameBudget: 50,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunUntilAll()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := eng.Run(); err == nil {
		t.Error("Run after RunUntilAll succeeded; want terminal error")
	}
	if err := eng.AdvanceTo(res.DurationSec + 1); err == nil {
		t.Error("AdvanceTo after RunUntilAll succeeded; want terminal error")
	}
	if _, err := eng.AddSession(SessionConfig{
		Source: testSource(t, video.LR, 53), Controller: &Static{S: s},
		Initial: s, FrameBudget: 10,
	}); err == nil {
		t.Error("AddSession after RunUntilAll succeeded; want terminal error")
	}

	again, err := eng.RunUntilAll()
	if err != nil {
		t.Fatalf("repeated RunUntilAll: %v", err)
	}
	if again.DurationSec != res.DurationSec || again.EnergyJ != res.EnergyJ {
		t.Errorf("repeated RunUntilAll result differs: %.6f s / %.3f J vs %.6f s / %.3f J",
			again.DurationSec, again.EnergyJ, res.DurationSec, res.EnergyJ)
	}
}
