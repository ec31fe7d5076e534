package core

import (
	"math/rand"
	"testing"

	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

func testConfig() Config {
	return DefaultConfig(video.HR, platform.DefaultSpec(), 12)
}

func testController(t *testing.T, seed int64) *Controller {
	t.Helper()
	c, err := New(testConfig(), transcode.Settings{QP: 32, Threads: 6, FreqGHz: 2.6}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := testConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	wantQP := []int{22, 25, 27, 29, 32, 35, 37}
	if len(cfg.QPValues) != len(wantQP) {
		t.Fatalf("QP values %v", cfg.QPValues)
	}
	for i := range wantQP {
		if cfg.QPValues[i] != wantQP[i] {
			t.Fatalf("QP values %v, want %v", cfg.QPValues, wantQP)
		}
	}
	if len(cfg.ThreadValues) != 12 || cfg.ThreadValues[0] != 1 || cfg.ThreadValues[11] != 12 {
		t.Errorf("thread values %v, want 1..12", cfg.ThreadValues)
	}
	wantF := []float64{1.6, 1.9, 2.3, 2.6, 2.9, 3.2}
	if len(cfg.FreqValues) != len(wantF) {
		t.Fatalf("freq values %v", cfg.FreqValues)
	}
	for i := range wantF {
		if cfg.FreqValues[i] != wantF[i] {
			t.Fatalf("freq values %v, want %v", cfg.FreqValues, wantF)
		}
	}
	if cfg.Beta != 0.3 || cfg.BetaPrime != 0.2 || cfg.Gamma != 0.6 {
		t.Error("learning constants do not match SIV-B")
	}
	if DefaultBandwidth(video.HR) != 6.0 || DefaultBandwidth(video.LR) != 3.0 {
		t.Error("default bandwidths wrong")
	}
}

func TestConfigValidateRejectsBad(t *testing.T) {
	mut := []func(*Config){
		func(c *Config) { c.QPValues = []int{32} },
		func(c *Config) { c.ThreadValues = nil },
		func(c *Config) { c.FreqValues = []float64{2.6} },
		func(c *Config) { c.TargetFPS = 0 },
		func(c *Config) { c.PowerCapW = 0 },
		func(c *Config) { c.BandwidthMbps = -1 },
		func(c *Config) { c.Schedule.Periods[0] = 0 },
	}
	for i, f := range mut {
		cfg := testConfig()
		f(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewControllerValidation(t *testing.T) {
	good := transcode.Settings{QP: 32, Threads: 6, FreqGHz: 2.6}
	if _, err := New(testConfig(), good, nil); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := New(testConfig(), transcode.Settings{}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid initial settings accepted")
	}
	cfg := testConfig()
	cfg.TargetFPS = -1
	if _, err := New(cfg, good, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestControllerOnlyActsOnScheduledFrames(t *testing.T) {
	c := testController(t, 1)
	initial := c.Settings()
	// Frame 3 is a NULL slot: settings must not change and no pending
	// action may be created.
	got := c.OnFrameStart(transcode.FrameStart{FrameIndex: 3, Current: initial})
	if got != initial {
		t.Errorf("NULL slot changed settings: %+v -> %+v", initial, got)
	}
	if c.hasPend {
		t.Error("NULL slot created a pending action")
	}
	// Frame 0 belongs to AGqp: only QP may change.
	got = c.OnFrameStart(transcode.FrameStart{FrameIndex: 0, Current: initial})
	if got.Threads != initial.Threads || got.FreqGHz != initial.FreqGHz {
		t.Errorf("QP action changed other knobs: %+v", got)
	}
	qpOK := false
	for _, v := range c.cfg.QPValues {
		if got.QP == v {
			qpOK = true
		}
	}
	if !qpOK {
		t.Errorf("QP %d not in action set", got.QP)
	}
	if !c.hasPend || c.pend.agent != AgentQP {
		t.Error("pending action missing or wrong agent")
	}
}

func obsWith(fps, psnr, power, mbps float64) transcode.Observation {
	return transcode.Observation{FPS: fps, InstFPS: fps, PSNRdB: psnr, PowerW: power, BitrateMbps: mbps}
}

// Drive the controller through one 24-frame hyper-period by hand and check
// the update bookkeeping: updates land when the next agent acts, and the
// NULL-followed DVFS action at frame 2 aggregates six frames (2..7) before
// its update at frame 8 (paper SIV-A).
func TestControllerUpdateTimingAndNullAveraging(t *testing.T) {
	c := testController(t, 2)
	visitsTotal := func(k AgentKind) int {
		n := 0
		l := c.Learner(k)
		for s := 0; s < NumStates; s++ {
			for a := 0; a < l.Config().Actions; a++ {
				n += l.Visits.Num(s, a)
			}
		}
		return n
	}

	cur := c.Settings()
	step := func(frame int, fps float64) {
		cur = c.OnFrameStart(transcode.FrameStart{FrameIndex: frame, Current: cur})
		c.OnFrameDone(obsWith(fps, 38, 100, 4))
	}

	// Frame 0: QP acts. Its update happens at frame 1.
	step(0, 20)
	if got := visitsTotal(AgentQP); got != 0 {
		t.Fatalf("QP visits before frame 1 = %d, want 0", got)
	}
	step(1, 20) // threads act; QP finalized with the single frame-0 obs
	if got := visitsTotal(AgentQP); got != 1 {
		t.Fatalf("QP visits after frame 1 = %d, want 1", got)
	}
	// Frame 2: DVFS acts; frames 3..7 are NULL. Make the per-frame FPS
	// observations such that the *average* lands in the >=30 band while
	// the first frame alone is far below 24: averaging is observable.
	step(2, 10)
	for f := 3; f <= 7; f++ {
		step(f, 40) // NULL slots: no action, observations accumulate
	}
	if got := visitsTotal(AgentDVFS); got != 0 {
		t.Fatalf("DVFS visits before frame 8 = %d, want 0", got)
	}
	step(8, 25) // next DVFS action: previous one finalized now
	if got := visitsTotal(AgentDVFS); got != 1 {
		t.Fatalf("DVFS visits after frame 8 = %d, want 1", got)
	}
	// Find the recorded DVFS transition and verify the successor state
	// used the averaged FPS ((10+5*40)/6 = 35 -> band >=30), not the
	// instantaneous frame-2 FPS (10 -> band <24).
	l := c.Learner(AgentDVFS)
	found := false
	for s := 0; s < NumStates && !found; s++ {
		for a := 0; a < l.Config().Actions && !found; a++ {
			run, _ := l.Trans.Run(s, a)
			for _, sc := range run {
				st, err := StateFromIndex(int(sc.State))
				if err != nil {
					t.Fatal(err)
				}
				if st.FPS != FPSState(35) {
					t.Errorf("DVFS successor FPS band = %d, want %d (averaged)", st.FPS, FPSState(35))
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no DVFS transition recorded")
	}
}

func TestControllerPhaseTelemetry(t *testing.T) {
	c := testController(t, 3)
	cur := c.Settings()
	for f := 0; f < 240; f++ {
		cur = c.OnFrameStart(transcode.FrameStart{FrameIndex: f, Current: cur})
		c.OnFrameDone(obsWith(25, 38, 100, 4))
	}
	st := c.Stats()
	total := 0
	for k := 0; k < 3; k++ {
		total += st.ByAgent[k].Exploration + st.ByAgent[k].ExploreExploit + st.ByAgent[k].Exploitation
	}
	// 240 frames = 10 hyper-periods of 7 actions each.
	if total != 70 {
		t.Errorf("total actions = %d, want 70", total)
	}
	if st.ByAgent[AgentDVFS].Exploration == 0 {
		t.Error("DVFS agent never explored")
	}
}

// With a stationary environment observation the agents must eventually
// reach the exploitation phase for the visited state, in DVFS-first order
// (it acts most often and has few actions).
func TestControllerReachesExploitation(t *testing.T) {
	c := testController(t, 4)
	cur := c.Settings()
	for f := 0; f < 4800; f++ {
		cur = c.OnFrameStart(transcode.FrameStart{FrameIndex: f, Current: cur})
		c.OnFrameDone(obsWith(25, 38, 100, 4))
	}
	st := c.Stats()
	for k := AgentQP; k < numAgents; k++ {
		if st.ByAgent[k].Exploitation == 0 {
			t.Errorf("%v never reached exploitation in 4800 stationary frames", k)
		}
	}
	if st.FirstAllExploitFrame < 0 {
		t.Error("FirstAllExploitFrame never set")
	}
	if st.FirstExploitFrame[AgentDVFS] > st.FirstExploitFrame[AgentQP] {
		t.Errorf("DVFS (fast, few actions) exploited at %d, after QP at %d",
			st.FirstExploitFrame[AgentDVFS], st.FirstExploitFrame[AgentQP])
	}
}

// Hand-crafted Algorithm 1 check: the QP agent must pick the action whose
// expected downstream value through the thread and DVFS tables is largest,
// not the action with the best own-Q.
func TestChainArgmaxFollowsExpectedValue(t *testing.T) {
	c := testController(t, 5)
	const s0, s1, s2, s3, s4 = 0, 10, 20, 30, 40

	qp := c.agents[AgentQP].learner
	th := c.agents[AgentThreads].learner
	dv := c.agents[AgentDVFS].learner

	// Own-Q misleads: action 1 looks better on the QP table.
	qp.Q.Set(s0, 0, 0.1)
	qp.Q.Set(s0, 1, 5.0)
	// But transitions say: action 0 lands in s1, action 1 in s2.
	qp.Trans.Observe(s0, 0, s1)
	qp.Trans.Observe(s0, 1, s2)
	// Thread agent: greedy action 2 everywhere; from s1 it lands in s3,
	// from s2 in s4.
	th.Q.Set(s1, 2, 1.0)
	th.Q.Set(s2, 2, 1.0)
	th.Trans.Observe(s1, 2, s3)
	th.Trans.Observe(s2, 2, s4)
	// DVFS (chain end): s3 is worth 10, s4 is worth 1.
	dv.Q.Set(s3, 0, 10)
	dv.Q.Set(s4, 0, 1)

	chain := []AgentKind{AgentThreads, AgentDVFS}
	if got := c.chainArgmax(c.agents[AgentQP], chain, s0); got != 0 {
		t.Errorf("chainArgmax = %d, want 0 (expected value 10 beats 1)", got)
	}
	// Sanity: without the chain, own argmax would pick action 1.
	if got := qp.Q.ArgMax(s0); got != 1 {
		t.Errorf("own argmax = %d, want 1", got)
	}
}

// Stochastic transitions: expected values weight successor states by
// their empirical probabilities.
func TestChainArgmaxUsesProbabilities(t *testing.T) {
	c := testController(t, 6)
	const s0, sGood, sBad = 0, 7, 9
	qp := c.agents[AgentQP].learner
	dv := c.agents[AgentDVFS].learner

	// Action 0: 75% good, 25% bad. Action 1: always bad.
	qp.Trans.Observe(s0, 0, sGood)
	qp.Trans.Observe(s0, 0, sGood)
	qp.Trans.Observe(s0, 0, sGood)
	qp.Trans.Observe(s0, 0, sBad)
	qp.Trans.Observe(s0, 1, sBad)
	dv.Q.Set(sGood, 0, 8)
	dv.Q.Set(sBad, 0, 2)

	chain := []AgentKind{AgentDVFS}
	// E[a0] = 0.75*8 + 0.25*2 = 6.5; E[a1] = 2.
	if got := c.chainArgmax(c.agents[AgentQP], chain, s0); got != 0 {
		t.Errorf("chainArgmax = %d, want 0", got)
	}
}

// TestChainArgmaxAllocatesNothing gates the exploitation decision: the
// Algorithm 1 lookahead walks each pair's successor run in place, so a
// decision over a trained controller allocates nothing.
func TestChainArgmaxAllocatesNothing(t *testing.T) {
	c := testController(t, 9)
	rng := rand.New(rand.NewSource(9))
	for k := AgentQP; k < numAgents; k++ {
		l := c.agents[k].learner
		for i := 0; i < 20000; i++ {
			l.Update(rng.Intn(12), rng.Intn(l.Config().Actions), rng.Intn(12), 2*rng.Float64()-1, rng.Intn(50))
		}
	}
	chain := []AgentKind{AgentThreads, AgentDVFS}
	s := 0
	if n := testing.AllocsPerRun(200, func() {
		c.chainArgmax(c.agents[AgentQP], chain, s)
		s = (s + 1) % 12
	}); n != 0 {
		t.Fatalf("an exploitation decision allocates %v times, want 0", n)
	}
}

// A steady-state decision cycle allocates nothing: over one 24-frame
// hyper-period every agent finalizes its pending update, chooses an
// exploitation action and opens the next pending update.
func TestDecisionCycleAllocatesNothing(t *testing.T) {
	c := testController(t, 5)
	obs := obsWith(28, 36, 95, 4)
	cur, f := c.Settings(), 0
	hyperPeriod := func() {
		for end := f + 24; f < end; f++ {
			cur = c.OnFrameStart(transcode.FrameStart{FrameIndex: f, Current: cur})
			c.OnFrameDone(obs)
		}
	}
	for i := 0; i < 400; i++ {
		hyperPeriod()
	}
	if c.Stats().FirstAllExploitFrame < 0 {
		t.Fatal("warm-up did not bring every agent to exploitation")
	}
	if n := testing.AllocsPerRun(50, hyperPeriod); n != 0 {
		t.Fatalf("a decision cycle allocates %v times, want 0", n)
	}
}

// Empty chain (action followed by NULL slots): the agent evaluates its
// actions by its own table's value of the landing state.
func TestChainArgmaxEmptyChain(t *testing.T) {
	c := testController(t, 7)
	const s0, s1, s2 = 0, 3, 5
	dv := c.agents[AgentDVFS].learner
	dv.Trans.Observe(s0, 0, s1)
	dv.Trans.Observe(s0, 1, s2)
	dv.Q.Set(s1, 4, 9) // landing in s1 is great per own table
	dv.Q.Set(s2, 4, 1)
	if got := c.chainArgmax(c.agents[AgentDVFS], nil, s0); got != 0 {
		t.Errorf("empty-chain argmax = %d, want 0", got)
	}
}

// When a chain agent has not reached exploitation for the state, the
// acting agent must fall back to its own table (SIV-C).
func TestExploitActionFallsBackWhenPeersNotReady(t *testing.T) {
	c := testController(t, 8)
	qp := c.agents[AgentQP].learner
	qp.Q.Set(0, 3, 42) // own argmax is action 3
	// No peer has explored anything: phases are Exploration.
	if got := c.exploitAction(AgentQP, 0, 0); got != 3 {
		t.Errorf("fallback action = %d, want 3", got)
	}
}

// With cooperation disabled the exploit action is always the own argmax.
func TestExploitActionAblation(t *testing.T) {
	cfg := testConfig()
	cfg.Cooperative = false
	c, err := New(cfg, transcode.Settings{QP: 32, Threads: 6, FreqGHz: 2.6}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	c.agents[AgentQP].learner.Q.Set(0, 2, 1.0)
	if got := c.exploitAction(AgentQP, 0, 0); got != 2 {
		t.Errorf("ablated exploit action = %d, want 2", got)
	}
}

// End-to-end: MAMUT inside the engine on a single HR stream must learn to
// reduce QoS violations over time.
func TestControllerLearnsInEngine(t *testing.T) {
	spec := platform.DefaultSpec()
	model := hevc.DefaultModel()
	eng, err := transcode.NewEngine(spec, model, 10)
	if err != nil {
		t.Fatal(err)
	}
	seq := &video.Sequence{
		Name: "learn", Res: video.HR, Frames: 100000, FrameRate: 24,
		BaseComplexity: 1.0, Dynamism: 0.4, MeanSceneLen: 90,
	}
	src, err := video.NewGenerator(seq, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	initial := transcode.Settings{QP: 32, Threads: 6, FreqGHz: 2.6}
	ctrl, err := New(DefaultConfig(video.HR, spec, model.MaxUsefulThreads(video.HR)), initial, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	const frames = 30000
	if _, err := eng.AddSession(transcode.SessionConfig{
		Source: src, Controller: ctrl, Initial: initial,
		BandwidthMbps: 6, FrameBudget: frames,
	}); err != nil {
		t.Fatal(err)
	}
	var trace []transcode.Observation
	eng.OnFrame(func(obs transcode.Observation) { trace = append(trace, obs) })
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != frames {
		t.Fatalf("observed %d frames, want %d", len(trace), frames)
	}
	countViol := func(from, to int) int {
		n := 0
		for _, obs := range trace[from:to] {
			if obs.FPS < 24 {
				n++
			}
		}
		return n
	}
	early := countViol(0, 2000)
	late := countViol(frames-2000, frames)
	if late >= early {
		t.Errorf("violations did not improve: early %d, late %d", early, late)
	}
	// After learning, the stream should sit at or above the target most
	// of the time.
	if pct := float64(countViol(frames-2000, frames)) / 20; pct > 30 {
		t.Errorf("late violation rate %.1f%%, want < 30%%", pct)
	}
	// Settings must always come from the action sets (plus the initial).
	for _, obs := range trace[100:] {
		okQP := false
		for _, v := range DefaultQPValues {
			if obs.Settings.QP == v {
				okQP = true
			}
		}
		if !okQP {
			t.Fatalf("QP %d not in action set", obs.Settings.QP)
		}
		if obs.Settings.Threads < 1 || obs.Settings.Threads > 12 {
			t.Fatalf("threads %d out of range", obs.Settings.Threads)
		}
		if obs.Settings.FreqGHz < 1.6 || obs.Settings.FreqGHz > 3.2 {
			t.Fatalf("freq %g out of range", obs.Settings.FreqGHz)
		}
	}
}
