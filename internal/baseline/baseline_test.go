package baseline

import (
	"math/rand"
	"testing"

	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

func monoCfg() MonoConfig {
	return DefaultMonoConfig(video.HR, platform.DefaultSpec(), 12)
}

func heurCfg() HeuristicConfig {
	return DefaultHeuristicConfig(video.HR, platform.DefaultSpec(), 12)
}

var initSettings = transcode.Settings{QP: 32, Threads: 6, FreqGHz: 2.6}

func TestDefaultMonoConfig(t *testing.T) {
	cfg := monoCfg()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// HR: 3 QP x 3 threads x 3 freqs = 27 joint actions.
	if cfg.Actions() != 27 {
		t.Errorf("HR joint actions = %d, want 27", cfg.Actions())
	}
	lr := DefaultMonoConfig(video.LR, platform.DefaultSpec(), 5)
	if lr.Actions() != 27 {
		t.Errorf("LR joint actions = %d, want 27", lr.Actions())
	}
	if cfg.Period != 6 {
		t.Errorf("period = %d, want 6 (paper SV-A)", cfg.Period)
	}
	// Coarser than MAMUT's per-knob sets but covering the same interval.
	if cfg.QPValues[0] != 22 || cfg.QPValues[len(cfg.QPValues)-1] != 37 {
		t.Error("QP subset does not span 22..37")
	}
	if cfg.FreqValues[0] != 1.6 || cfg.FreqValues[len(cfg.FreqValues)-1] != 3.2 {
		t.Error("frequency subset does not span 1.6..3.2")
	}
}

func TestMonoConfigClampsThreadLadder(t *testing.T) {
	cfg := DefaultMonoConfig(video.HR, platform.DefaultSpec(), 6)
	for _, v := range cfg.ThreadValues {
		if v > 6 {
			t.Errorf("thread value %d exceeds saturation 6", v)
		}
	}
	if len(cfg.ThreadValues) < 2 {
		t.Error("clamped ladder too small")
	}
}

func TestMonoConfigValidation(t *testing.T) {
	mut := []func(*MonoConfig){
		func(c *MonoConfig) { c.QPValues = []int{32} },
		func(c *MonoConfig) { c.Period = 0 },
		func(c *MonoConfig) { c.TargetFPS = 0 },
		func(c *MonoConfig) { c.BandwidthMbps = -1 },
	}
	for i, f := range mut {
		cfg := monoCfg()
		f(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewMonoAgentValidation(t *testing.T) {
	if _, err := NewMonoAgent(monoCfg(), initSettings, nil); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := NewMonoAgent(monoCfg(), transcode.Settings{}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("bad initial settings accepted")
	}
	bad := monoCfg()
	bad.Period = 0
	if _, err := NewMonoAgent(bad, initSettings, rand.New(rand.NewSource(1))); err == nil {
		t.Error("bad config accepted")
	}
}

func TestMonoAgentDecodeCoversActionSpace(t *testing.T) {
	m, err := NewMonoAgent(monoCfg(), initSettings, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[transcode.Settings]bool{}
	for a := 0; a < m.cfg.Actions(); a++ {
		s := m.decode(a)
		if err := s.Validate(); err != nil {
			t.Fatalf("action %d decodes invalid settings: %v", a, err)
		}
		if seen[s] {
			t.Fatalf("action %d duplicates settings %+v", a, s)
		}
		seen[s] = true
	}
	if len(seen) != 27 {
		t.Errorf("decoded %d distinct settings, want 27", len(seen))
	}
}

func TestMonoAgentActsOnPeriod(t *testing.T) {
	m, err := NewMonoAgent(monoCfg(), initSettings, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	// Frame 0: decision (exploration -> random joint action).
	s0 := m.OnFrameStart(transcode.FrameStart{FrameIndex: 0, Current: initSettings})
	m.OnFrameDone(transcode.Observation{InstFPS: 20, PSNRdB: 36, PowerW: 90, BitrateMbps: 4})
	// Frames 1..5: no decision, settings unchanged.
	for f := 1; f < 6; f++ {
		got := m.OnFrameStart(transcode.FrameStart{FrameIndex: f, Current: s0})
		if got != s0 {
			t.Fatalf("frame %d changed settings", f)
		}
		m.OnFrameDone(transcode.Observation{InstFPS: 20, PSNRdB: 36, PowerW: 90, BitrateMbps: 4})
	}
	// Frame 6: decision; the pending update must land.
	m.OnFrameStart(transcode.FrameStart{FrameIndex: 6, Current: s0})
	total := 0
	for s := 0; s < m.learner.Config().States; s++ {
		for a := 0; a < m.learner.Config().Actions; a++ {
			total += m.learner.Num(s, a)
		}
	}
	if total != 1 {
		t.Errorf("visits after second decision = %d, want 1", total)
	}
}

func TestMonoAgentReachesExploitation(t *testing.T) {
	m, err := NewMonoAgent(monoCfg(), initSettings, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	cur := initSettings
	// Stationary environment: a single state must eventually complete its
	// 27-action exploration. 27 actions x ~7 visits x 6 frames ~ 1.2k
	// frames needed per state; run 20k frames.
	for f := 0; f < 20000; f++ {
		cur = m.OnFrameStart(transcode.FrameStart{FrameIndex: f, Current: cur})
		m.OnFrameDone(transcode.Observation{InstFPS: 25, PSNRdB: 38, PowerW: 90, BitrateMbps: 4})
	}
	if m.Stats().Phases.Exploitation == 0 {
		t.Error("mono-agent never reached exploitation")
	}
	if m.Stats().FirstExploitFrame < 0 {
		t.Error("FirstExploitFrame unset")
	}
}

func TestHeuristicConfigValidation(t *testing.T) {
	if err := heurCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	mut := []func(*HeuristicConfig){
		func(c *HeuristicConfig) { c.MaxThreads = 0 },
		func(c *HeuristicConfig) { c.QPMin = 40 }, // min >= max
		func(c *HeuristicConfig) { c.Period = 0 },
		func(c *HeuristicConfig) { c.FPSHeadroom = 1.0 },
		func(c *HeuristicConfig) { c.TargetFPS = 0 },
		func(c *HeuristicConfig) { c.Spec.Sockets = 0 },
	}
	for i, f := range mut {
		cfg := heurCfg()
		f(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestHeuristicThreadRule(t *testing.T) {
	h, err := NewHeuristic(heurCfg(), initSettings)
	if err != nil {
		t.Fatal(err)
	}
	// Below target: one more thread per decision.
	feed := func(fps float64) transcode.Settings {
		for i := 0; i < 6; i++ {
			h.OnFrameDone(transcode.Observation{InstFPS: fps, PSNRdB: 30, PowerW: 90, BitrateMbps: 4})
		}
		return h.OnFrameStart(transcode.FrameStart{FrameIndex: h6(h), Current: h.Settings()})
	}
	before := h.Settings().Threads
	s := feed(18)
	if s.Threads != before+1 {
		t.Errorf("threads %d, want %d (FPS below target)", s.Threads, before+1)
	}
	// Far above target: release a thread.
	before = s.Threads
	s = feed(35)
	if s.Threads != before-1 {
		t.Errorf("threads %d, want %d (FPS above headroom)", s.Threads, before-1)
	}
	// In the hysteresis band (24 <= fps <= 24*1.08): unchanged.
	before = s.Threads
	s = feed(25)
	if s.Threads != before {
		t.Errorf("threads %d, want %d (hysteresis band)", s.Threads, before)
	}
}

// h6 returns the next decision frame index for the heuristic (multiples
// of the period, tracked by a counter on the test side).
var h6Counter = map[*Heuristic]int{}

func h6(h *Heuristic) int {
	h6Counter[h] += 6
	return h6Counter[h]
}

func TestHeuristicFrequencyGovernor(t *testing.T) {
	h, err := NewHeuristic(heurCfg(), initSettings)
	if err != nil {
		t.Fatal(err)
	}
	// Under the cap: always jumps to the maximum frequency.
	for i := 0; i < 6; i++ {
		h.OnFrameDone(transcode.Observation{InstFPS: 25, PSNRdB: 38, PowerW: 100, BitrateMbps: 4})
	}
	s := h.OnFrameStart(transcode.FrameStart{FrameIndex: 6, Current: initSettings})
	if s.FreqGHz != 3.2 {
		t.Errorf("freq %g, want 3.2 (greedy governor)", s.FreqGHz)
	}
	// Over the cap: one rung down.
	for i := 0; i < 6; i++ {
		h.OnFrameDone(transcode.Observation{InstFPS: 25, PSNRdB: 38, PowerW: 150, BitrateMbps: 4})
	}
	s = h.OnFrameStart(transcode.FrameStart{FrameIndex: 12, Current: s})
	if s.FreqGHz != 2.9 {
		t.Errorf("freq %g, want 2.9 (cap exceeded)", s.FreqGHz)
	}
}

func TestHeuristicQPRules(t *testing.T) {
	h, err := NewHeuristic(heurCfg(), initSettings)
	if err != nil {
		t.Fatal(err)
	}
	step := func(fps, psnr, mbps float64, frame int) transcode.Settings {
		for i := 0; i < 6; i++ {
			h.OnFrameDone(transcode.Observation{InstFPS: fps, PSNRdB: psnr, PowerW: 90, BitrateMbps: mbps})
		}
		return h.OnFrameStart(transcode.FrameStart{FrameIndex: frame, Current: h.Settings()})
	}
	// Bandwidth violated: QP up (coarser), even though PSNR is low.
	before := h.Settings().QP
	s := step(25, 33, 7.5, 6)
	if s.QP != before+1 {
		t.Errorf("QP %d, want %d (bandwidth violated)", s.QP, before+1)
	}
	// Quality below set-point with throughput fine: QP down (finer).
	before = s.QP
	s = step(28, 36, 4, 12)
	if s.QP != before-1 {
		t.Errorf("QP %d, want %d (chasing PSNR target)", s.QP, before-1)
	}
	// Throughput failing with threads exhausted: QP up.
	h2, _ := NewHeuristic(heurCfg(), transcode.Settings{QP: 32, Threads: 12, FreqGHz: 3.2})
	for i := 0; i < 6; i++ {
		h2.OnFrameDone(transcode.Observation{InstFPS: 18, PSNRdB: 36, PowerW: 90, BitrateMbps: 4})
	}
	s2 := h2.OnFrameStart(transcode.FrameStart{FrameIndex: 6, Current: h2.Settings()})
	if s2.QP != 33 {
		t.Errorf("QP %d, want 33 (sacrifice quality for throughput)", s2.QP)
	}
}

func TestHeuristicClampsInitialThreads(t *testing.T) {
	h, err := NewHeuristic(heurCfg(), transcode.Settings{QP: 32, Threads: 30, FreqGHz: 2.6})
	if err != nil {
		t.Fatal(err)
	}
	if h.Settings().Threads != 12 {
		t.Errorf("initial threads %d, want clamped to 12", h.Settings().Threads)
	}
}

func TestHeuristicNoDecisionWithoutObservations(t *testing.T) {
	h, err := NewHeuristic(heurCfg(), initSettings)
	if err != nil {
		t.Fatal(err)
	}
	// Frame 0 is a decision slot but nothing was observed yet.
	if got := h.OnFrameStart(transcode.FrameStart{FrameIndex: 0, Current: initSettings}); got != h.Settings() {
		t.Error("decision taken without observations")
	}
}

// Head-to-head smoke test: on a lightly loaded machine the heuristic ends
// up at max frequency with few threads while consuming more power than a
// static many-threads/low-frequency configuration would - the behavioural
// signature the paper reports in Table I.
func TestHeuristicSignatureInEngine(t *testing.T) {
	spec := platform.DefaultSpec()
	model := hevc.DefaultModel()
	eng, err := transcode.NewEngine(spec, model, 21)
	if err != nil {
		t.Fatal(err)
	}
	seq := &video.Sequence{
		Name: "sig", Res: video.HR, Frames: 100000, FrameRate: 24,
		BaseComplexity: 1.0, Dynamism: 0.4, MeanSceneLen: 90,
	}
	src, err := video.NewGenerator(seq, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHeuristic(heurCfg(), initSettings)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddSession(transcode.SessionConfig{
		Source: src, Controller: h, Initial: initSettings,
		BandwidthMbps: 6, FrameBudget: 2000,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Sessions[0]
	if sr.AvgFreqGHz < 3.0 {
		t.Errorf("heuristic average frequency %.2f, want ~3.2 (greedy governor)", sr.AvgFreqGHz)
	}
	if sr.AvgThreads > 11 {
		t.Errorf("heuristic average threads %.1f, want low (<11)", sr.AvgThreads)
	}
	// It must reach the target on average on an idle machine.
	if sr.AvgFPS < 22 {
		t.Errorf("heuristic average FPS %.1f too low", sr.AvgFPS)
	}
}

func TestMonoAgentInEngineSmoke(t *testing.T) {
	spec := platform.DefaultSpec()
	model := hevc.DefaultModel()
	eng, err := transcode.NewEngine(spec, model, 23)
	if err != nil {
		t.Fatal(err)
	}
	seq := &video.Sequence{
		Name: "smoke", Res: video.HR, Frames: 100000, FrameRate: 24,
		BaseComplexity: 1.0, Dynamism: 0.4, MeanSceneLen: 90,
	}
	src, err := video.NewGenerator(seq, rand.New(rand.NewSource(24)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonoAgent(monoCfg(), initSettings, rand.New(rand.NewSource(25)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddSession(transcode.SessionConfig{
		Source: src, Controller: m, Initial: initSettings,
		BandwidthMbps: 6, FrameBudget: 3000,
	}); err != nil {
		t.Fatal(err)
	}
	var trace []transcode.Observation
	eng.OnFrame(func(obs transcode.Observation) { trace = append(trace, obs) })
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 3000 {
		t.Fatalf("observed %d frames, want 3000", len(trace))
	}
	// The mono-agent explores a 100-action space: in 3000 frames it is
	// still mostly exploring. Sanity: settings always decode validly.
	for _, obs := range trace {
		if err := obs.Settings.Validate(); err != nil {
			t.Fatalf("invalid settings in trace: %v", err)
		}
	}
}
