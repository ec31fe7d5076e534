package transcode

import (
	"math"
	"math/rand"
	"testing"

	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/video"
)

func testSource(t *testing.T, res video.Resolution, seed int64) video.Source {
	t.Helper()
	seq := &video.Sequence{
		Name: "test", Res: res, Frames: 100000, FrameRate: 24,
		BaseComplexity: 1.0, Dynamism: 0.0, MeanSceneLen: 1000,
	}
	src, err := video.NewGenerator(seq, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// quietModel removes measurement noise for analytic comparisons.
func quietModel() hevc.Model {
	m := hevc.DefaultModel()
	m.PSNRNoiseDB = 0
	m.BitsNoiseFrac = 0
	return m
}

func quietSpec() platform.Spec {
	s := platform.DefaultSpec()
	s.PowerNoiseW = 0
	return s
}

func TestEngineSingleSessionMatchesAnalyticModel(t *testing.T) {
	eng, err := NewEngine(quietSpec(), quietModel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	set := Settings{QP: 32, Threads: 8, FreqGHz: 3.2}
	_, err = eng.AddSession(SessionConfig{
		Source:      testSource(t, video.HR, 1),
		Controller:  &Static{S: set},
		Initial:     set,
		FrameBudget: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sessions) != 1 {
		t.Fatalf("sessions = %d", len(res.Sessions))
	}
	sr := res.Sessions[0]
	if sr.Frames != 50 {
		t.Errorf("frames = %d, want 50", sr.Frames)
	}
	// Uncontended: FPS should match the encoder's analytic time for the
	// mean complexity ~1.0 (dynamism 0 keeps complexity near base).
	enc, err := hevc.NewEncoder(video.HR, hevc.Ultrafast, quietModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := enc.EncodeSeconds(32, 8, 3.2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	wantFPS := 1 / sec
	if math.Abs(sr.AvgFPS-wantFPS)/wantFPS > 0.15 {
		t.Errorf("AvgFPS = %.2f, analytic %.2f", sr.AvgFPS, wantFPS)
	}
	if sr.AvgThreads != 8 || math.Abs(sr.AvgFreqGHz-3.2) > 1e-9 || sr.AvgQP != 32 {
		t.Errorf("averaged settings %+v wrong", sr)
	}
	// Power must match the ideal platform model for this load.
	srv, _ := platform.NewServer(quietSpec(), nil)
	snap, _ := srv.Evaluate([]platform.SessionLoad{{Threads: 8, FreqGHz: 3.2, Speedup: enc.Speedup(8)}})
	if math.Abs(res.AvgPowerW-snap.PowerIdealW) > 0.5 {
		t.Errorf("AvgPowerW = %.2f, want %.2f", res.AvgPowerW, snap.PowerIdealW)
	}
	if res.DurationSec <= 0 || res.EnergyJ <= 0 {
		t.Error("non-positive duration or energy")
	}
}

func TestEngineViolationAccounting(t *testing.T) {
	eng, err := NewEngine(quietSpec(), quietModel(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// 1 thread at 1.2 GHz cannot reach 24 FPS on HR: every frame violates.
	set := Settings{QP: 37, Threads: 1, FreqGHz: 1.2}
	if _, err := eng.AddSession(SessionConfig{
		Source:      testSource(t, video.HR, 3),
		Controller:  &Static{S: set},
		Initial:     set,
		FrameBudget: 30,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions[0].ViolationPct != 100 {
		t.Errorf("violations = %.1f%%, want 100%%", res.Sessions[0].ViolationPct)
	}
	// And a fast configuration should have none.
	eng2, _ := NewEngine(quietSpec(), quietModel(), 2)
	fast := Settings{QP: 37, Threads: 12, FreqGHz: 3.2}
	if _, err := eng2.AddSession(SessionConfig{
		Source:      testSource(t, video.HR, 3),
		Controller:  &Static{S: fast},
		Initial:     fast,
		FrameBudget: 30,
	}); err != nil {
		t.Fatal(err)
	}
	res2, err := eng2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Sessions[0].ViolationPct != 0 {
		t.Errorf("fast config violations = %.1f%%, want 0%%", res2.Sessions[0].ViolationPct)
	}
}

func TestEngineContentionCouplesSessions(t *testing.T) {
	run := func(n int) *Result {
		eng, err := NewEngine(quietSpec(), quietModel(), 4)
		if err != nil {
			t.Fatal(err)
		}
		set := Settings{QP: 32, Threads: 12, FreqGHz: 3.2}
		for i := 0; i < n; i++ {
			if _, err := eng.AddSession(SessionConfig{
				Source:      testSource(t, video.HR, int64(10+i)),
				Controller:  &Static{S: set},
				Initial:     set,
				FrameBudget: 40,
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
	one := run(1)
	four := run(4)
	if four.Sessions[0].AvgFPS >= one.Sessions[0].AvgFPS {
		t.Errorf("contention did not reduce FPS: %.2f >= %.2f",
			four.Sessions[0].AvgFPS, one.Sessions[0].AvgFPS)
	}
	if four.AvgPowerW <= one.AvgPowerW {
		t.Errorf("more sessions should use more power: %.1f <= %.1f",
			four.AvgPowerW, one.AvgPowerW)
	}
}

func TestEngineTraceCollection(t *testing.T) {
	eng, err := NewEngine(quietSpec(), quietModel(), 5)
	if err != nil {
		t.Fatal(err)
	}
	set := Settings{QP: 27, Threads: 4, FreqGHz: 2.6}
	if _, err := eng.AddSession(SessionConfig{
		Source:      testSource(t, video.LR, 6),
		Controller:  &Static{S: set},
		Initial:     set,
		FrameBudget: 25,
	}); err != nil {
		t.Fatal(err)
	}
	tr := recordTraces(eng)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	trace := tr[0]
	if len(trace) != 25 {
		t.Fatalf("trace length = %d, want 25", len(trace))
	}
	prevTime := -1.0
	for i, obs := range trace {
		if obs.FrameIndex != i {
			t.Errorf("trace[%d].FrameIndex = %d", i, obs.FrameIndex)
		}
		if obs.Time <= prevTime {
			t.Errorf("trace times not increasing at %d", i)
		}
		prevTime = obs.Time
		if obs.PSNRdB < 20 || obs.PSNRdB > 55 {
			t.Errorf("trace[%d] PSNR %.1f implausible", i, obs.PSNRdB)
		}
		if obs.BitrateMbps <= 0 {
			t.Errorf("trace[%d] bitrate %.2f", i, obs.BitrateMbps)
		}
		if obs.SequenceName != "test" {
			t.Errorf("trace[%d] sequence %q", i, obs.SequenceName)
		}
	}
}

func TestEngineConfigValidation(t *testing.T) {
	eng, err := NewEngine(quietSpec(), quietModel(), 7)
	if err != nil {
		t.Fatal(err)
	}
	good := Settings{QP: 32, Threads: 4, FreqGHz: 2.6}
	src := testSource(t, video.HR, 8)
	cases := []SessionConfig{
		{Controller: &Static{S: good}, Initial: good, FrameBudget: 5},              // no source
		{Source: src, Initial: good, FrameBudget: 5},                               // no controller
		{Source: src, Controller: &Static{S: good}, Initial: good, FrameBudget: 0}, // no budget
		{Source: src, Controller: &Static{S: good}, Initial: Settings{QP: 99, Threads: 1, FreqGHz: 2.6}, FrameBudget: 5},
		{Source: src, Controller: &Static{S: good}, Initial: good, FrameBudget: 5, TargetFPS: -1},
	}
	for i, cfg := range cases {
		if _, err := eng.AddSession(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := eng.Run(); err == nil {
		t.Error("Run with no sessions succeeded")
	}
}

// wildController returns absurd settings; the engine must sanitize them
// rather than fail.
type wildController struct{ calls int }

func (w *wildController) Name() string { return "wild" }
func (w *wildController) OnFrameStart(fs FrameStart) Settings {
	w.calls++
	return Settings{QP: 500, Threads: 999, FreqGHz: 2.75}
}
func (w *wildController) OnFrameDone(Observation) {}

func TestEngineSanitizesControllerOutput(t *testing.T) {
	eng, err := NewEngine(quietSpec(), quietModel(), 9)
	if err != nil {
		t.Fatal(err)
	}
	wc := &wildController{}
	if _, err := eng.AddSession(SessionConfig{
		Source:      testSource(t, video.HR, 10),
		Controller:  wc,
		Initial:     Settings{QP: 32, Threads: 4, FreqGHz: 2.6},
		FrameBudget: 10,
	}); err != nil {
		t.Fatal(err)
	}
	tr := recordTraces(eng)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if wc.calls != 10 {
		t.Errorf("controller called %d times, want 10", wc.calls)
	}
	if len(tr[0]) != 10 {
		t.Fatalf("observed %d frames, want 10", len(tr[0]))
	}
	for _, obs := range tr[0] {
		if obs.Settings.QP != hevc.MaxQP {
			t.Errorf("QP sanitized to %d, want %d", obs.Settings.QP, hevc.MaxQP)
		}
		if obs.Settings.Threads != 32 {
			t.Errorf("threads sanitized to %d, want 32", obs.Settings.Threads)
		}
		if obs.Settings.FreqGHz != 2.6 && obs.Settings.FreqGHz != 2.9 {
			t.Errorf("freq sanitized to %g, want a ladder rung near 2.75", obs.Settings.FreqGHz)
		}
	}
}

// sequencedController records the alternation of start/done callbacks.
type sequencedController struct {
	t      *testing.T
	expect string // "start" or "done"
}

func (s *sequencedController) Name() string { return "seq" }
func (s *sequencedController) OnFrameStart(fs FrameStart) Settings {
	if s.expect != "start" {
		s.t.Errorf("OnFrameStart out of order at frame %d", fs.FrameIndex)
	}
	s.expect = "done"
	return fs.Current
}
func (s *sequencedController) OnFrameDone(Observation) {
	if s.expect != "done" {
		s.t.Error("OnFrameDone out of order")
	}
	s.expect = "start"
}

func TestEngineCallbackOrdering(t *testing.T) {
	eng, err := NewEngine(quietSpec(), quietModel(), 11)
	if err != nil {
		t.Fatal(err)
	}
	sc := &sequencedController{t: t, expect: "start"}
	if _, err := eng.AddSession(SessionConfig{
		Source:      testSource(t, video.LR, 12),
		Controller:  sc,
		Initial:     Settings{QP: 32, Threads: 2, FreqGHz: 2.3},
		FrameBudget: 20,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() *Result {
		eng, err := NewEngine(platform.DefaultSpec(), hevc.DefaultModel(), 42)
		if err != nil {
			t.Fatal(err)
		}
		set := Settings{QP: 32, Threads: 6, FreqGHz: 2.9}
		for i := 0; i < 2; i++ {
			if _, err := eng.AddSession(SessionConfig{
				Source:      testSource(t, video.HR, 100),
				Controller:  &Static{S: set},
				Initial:     set,
				FrameBudget: 30,
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
	a, b := run(), run()
	if a.DurationSec != b.DurationSec || a.EnergyJ != b.EnergyJ {
		t.Error("engine runs with identical seeds diverged")
	}
	for i := range a.Sessions {
		if a.Sessions[i].AvgFPS != b.Sessions[i].AvgFPS {
			t.Errorf("session %d FPS diverged", i)
		}
	}
}

func TestEngineDifferentBudgets(t *testing.T) {
	// Sessions with different budgets: the short ones leave, freeing
	// capacity for the long one; all budgets are honoured exactly.
	eng, err := NewEngine(quietSpec(), quietModel(), 13)
	if err != nil {
		t.Fatal(err)
	}
	set := Settings{QP: 32, Threads: 12, FreqGHz: 3.2}
	for i := 0; i < 3; i++ {
		if _, err := eng.AddSession(SessionConfig{
			Source: testSource(t, video.HR, int64(14+i)), Controller: &Static{S: set},
			Initial: set, FrameBudget: 10,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.AddSession(SessionConfig{
		Source: testSource(t, video.HR, 17), Controller: &Static{S: set},
		Initial: set, FrameBudget: 60,
	}); err != nil {
		t.Fatal(err)
	}
	tr := recordTraces(eng)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions[0].Frames != 10 || res.Sessions[3].Frames != 60 {
		t.Fatalf("frames = %d/%d, want 10/60", res.Sessions[0].Frames, res.Sessions[3].Frames)
	}
	// Four 12-thread HR encoders oversubscribe the machine; after the
	// other three leave, the survivor's frames speed up.
	trace := tr[3]
	early := trace[5].DurationSec
	late := trace[55].DurationSec
	if late >= early {
		t.Errorf("frame duration did not drop after contention ended: %.4f >= %.4f", late, early)
	}
}

func TestSettingsValidate(t *testing.T) {
	if err := (Settings{QP: 32, Threads: 4, FreqGHz: 2.6}).Validate(); err != nil {
		t.Error(err)
	}
	bad := []Settings{
		{QP: -1, Threads: 4, FreqGHz: 2.6},
		{QP: 52, Threads: 4, FreqGHz: 2.6},
		{QP: 32, Threads: 0, FreqGHz: 2.6},
		{QP: 32, Threads: 4, FreqGHz: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad settings %d accepted", i)
		}
	}
}

func TestStaticController(t *testing.T) {
	s := &Static{S: Settings{QP: 22, Threads: 3, FreqGHz: 1.6}}
	if s.Name() != "static" {
		t.Error("name wrong")
	}
	got := s.OnFrameStart(FrameStart{Current: Settings{QP: 37, Threads: 1, FreqGHz: 3.2}})
	if got != s.S {
		t.Error("static controller did not return its settings")
	}
	s.OnFrameDone(Observation{}) // must not panic
}

// TestTally pins the per-session fold on hand-made frames: a frame whose
// windowed FPS is below the target is a violation, and the settings
// average per frame.
func TestTally(t *testing.T) {
	var tl Tally
	for _, fps := range []float64{20, 25, 30, 25} {
		tl.Add(&Observation{
			FPS: fps, PSNRdB: 36, BitrateMbps: 4,
			Settings: Settings{QP: 32, Threads: 8, FreqGHz: 2.9},
		}, 24)
	}
	want := SessionResult{
		Frames: 4, Violations: 1, ViolationPct: 25, AvgFPS: 25, AvgPSNRdB: 36,
		AvgBitrateMbps: 4, AvgThreads: 8, AvgFreqGHz: 2.9, AvgQP: 32,
	}
	if got := tl.Result(); got != want {
		t.Errorf("tally result\n got %+v\nwant %+v", got, want)
	}
}

func TestTallyEmpty(t *testing.T) {
	var tl Tally
	if got := tl.Result(); got != (SessionResult{}) {
		t.Errorf("empty tally result %+v, want zero", got)
	}
}

// TestTallyMatchesEngineResult: a Tally fed a session's frames through
// OnFrame reaches exactly the counts and averages of the session's
// Result entry, which is what lets the paper harness fold its measured
// windows with the engine's own fold.
func TestTallyMatchesEngineResult(t *testing.T) {
	eng := streamEngine(t)
	tallies := map[int]*Tally{}
	eng.OnFrame(func(o Observation) {
		if tallies[o.SessionID] == nil {
			tallies[o.SessionID] = &Tally{}
		}
		tallies[o.SessionID].Add(&o, DefaultTargetFPS)
	})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.Sessions {
		want := tallies[sr.ID].Result()
		want.ID, want.Name, want.Res, want.DynEnergyJ = sr.ID, sr.Name, sr.Res, sr.DynEnergyJ
		if sr != want {
			t.Errorf("session %d: engine result\n %+v\ntally\n %+v", sr.ID, sr, want)
		}
	}
}

func TestEngineThrottledSessionEnergyReconciles(t *testing.T) {
	// The package energy integrates PowerIdealW = idle + sum(DynPowerW),
	// so the per-session dynamic energies must always sum to the package
	// energy minus the idle floor — including while the sessions are
	// throttled: oversubscription scales every session's rate and
	// dynamic power by the same contention factor.
	spec := quietSpec()
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
	// Parking the clock changes no result (TestParkInvarianceExact).
	if err := eng.AdvanceTo(0.01); err != nil {
		t.Fatal(err)
	}
	if scale := eng.acct.Scale(); scale >= 1 {
		t.Fatalf("contention scale %g: the workload never oversubscribes; test is vacuous", scale)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
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
