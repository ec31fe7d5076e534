package transcode

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/video"
	"mamut/internal/xrand"
)

// This file keeps the pre-refactor linear simulation core alive as a test
// oracle. refEngine is an operation-for-operation port of the engine as
// it stood before the event-scheduled rewrite: every event re-runs
// startFrames over all sessions, re-evaluates the whole platform
// (platform.Server.Evaluate), takes the minimum dt by linear scan and
// decrements every active session's remaining work. It is O(n) per event
// and exists only so that:
//
//   - TestReferenceReproducesGoldenExactly proves the port is faithful:
//     it reproduces the committed pre-refactor golden trace bit for bit;
//   - TestEngineMatchesReference holds the O(log n) event-scheduled core
//     to the linear semantics on randomized multi-session mixes.

type refSession struct {
	cfg      SessionConfig
	id       int
	enc      *hevc.Encoder
	settings Settings

	frameIdx   int
	remaining  float64
	frameStart float64
	curFrame   video.Frame
	curPSNR    float64
	curBits    float64

	durations [fpsWindow]float64
	nDur      int

	done bool

	dynEnergyJ float64
	frames     int
	violations int
	sumFPS     float64
	sumPSNR    float64
	sumBitrate float64
	sumThreads float64
	sumFreq    float64
	sumQP      float64
}

type refEngine struct {
	server   *platform.Server
	model    hevc.Model
	sessions []*refSession
	rng      *rand.Rand
	now      float64
	energy   float64
	onFrame  func(Observation) // the Engine.OnFrame mirror
}

func newRefEngine(t *testing.T, spec platform.Spec, model hevc.Model, seed int64) *refEngine {
	t.Helper()
	if err := model.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(seed)
	srv, err := platform.NewServer(spec, xrand.New(rng.Int63()))
	if err != nil {
		t.Fatal(err)
	}
	return &refEngine{server: srv, model: model, rng: rng}
}

func (e *refEngine) addSession(t *testing.T, cfg SessionConfig) {
	t.Helper()
	if cfg.TargetFPS == 0 {
		cfg.TargetFPS = DefaultTargetFPS
	}
	enc, err := hevc.NewEncoder(cfg.Source.Res(), hevc.PresetFor(cfg.Source.Res()), e.model, xrand.New(e.rng.Int63()))
	if err != nil {
		t.Fatal(err)
	}
	e.sessions = append(e.sessions, &refSession{
		cfg:      cfg,
		id:       len(e.sessions),
		enc:      enc,
		settings: cfg.Initial,
	})
}

func (e *refEngine) run(untilAll bool) (*Result, error) {
	if len(e.sessions) == 0 {
		return nil, fmt.Errorf("transcode: no sessions")
	}
	totalFrames := 0
	for _, s := range e.sessions {
		totalFrames += s.cfg.FrameBudget
	}
	maxEvents := totalFrames * maxEventsPerFrame

	for events := 0; ; events++ {
		if events > maxEvents {
			return nil, fmt.Errorf("transcode: event budget exhausted (%d events)", maxEvents)
		}
		if untilAll && e.allReachedBudget() {
			break
		}

		active := e.startFrames(untilAll)
		if len(active) == 0 {
			if arrival := e.nextArrival(); !math.IsInf(arrival, 1) {
				e.energy += e.server.Spec().IdlePowerW * (arrival - e.now)
				e.now = arrival
				continue
			}
			break
		}

		loads := make([]platform.SessionLoad, len(active))
		for i, s := range active {
			loads[i] = platform.SessionLoad{
				Threads: s.settings.Threads,
				FreqGHz: s.settings.FreqGHz,
				Speedup: s.enc.Speedup(s.settings.Threads),
			}
		}
		snap, err := e.server.Evaluate(loads)
		if err != nil {
			return nil, fmt.Errorf("transcode: t=%.3f: %w", e.now, err)
		}

		dt := math.Inf(1)
		for i, s := range active {
			if t := s.remaining / snap.Rates[i]; t < dt {
				dt = t
			}
		}
		if arrival := e.nextArrival(); arrival-e.now < dt {
			dt = arrival - e.now
			if dt < 0 {
				dt = 0
			}
		}
		if math.IsInf(dt, 1) || dt < 0 {
			return nil, fmt.Errorf("transcode: no progress at t=%.3f", e.now)
		}
		e.now += dt
		e.energy += snap.PowerIdealW * dt

		const eps = 1e-9
		for i, s := range active {
			s.remaining -= snap.Rates[i] * dt
			s.dynEnergyJ += snap.DynPowerW[i] * dt
			if s.remaining <= eps*snap.Rates[i] {
				e.completeFrame(s, snap)
			}
		}
	}
	return e.buildResult(), nil
}

func (e *refEngine) allReachedBudget() bool {
	for _, s := range e.sessions {
		if s.frames < s.cfg.FrameBudget {
			return false
		}
	}
	return true
}

func (e *refEngine) startFrames(untilAll bool) []*refSession {
	var active []*refSession
	for _, s := range e.sessions {
		if s.done || s.cfg.StartAtSec > e.now {
			continue
		}
		if s.remaining <= 0 {
			if !untilAll && s.frames >= s.cfg.FrameBudget {
				s.done = true
				continue
			}
			e.beginFrame(s)
		}
		active = append(active, s)
	}
	return active
}

func (e *refEngine) nextArrival() float64 {
	next := math.Inf(1)
	for _, s := range e.sessions {
		if !s.done && s.cfg.StartAtSec > e.now && s.cfg.StartAtSec < next {
			next = s.cfg.StartAtSec
		}
	}
	return next
}

func (e *refEngine) beginFrame(s *refSession) {
	proposed := s.cfg.Controller.OnFrameStart(FrameStart{
		SessionID:  s.id,
		FrameIndex: s.frameIdx,
		Time:       e.now,
		Current:    s.settings,
	})
	s.settings = e.sanitize(proposed)

	s.curFrame = s.cfg.Source.Next()
	work, err := s.enc.FrameWork(s.settings.QP, s.curFrame.Complexity)
	if err != nil {
		panic(err)
	}
	s.remaining = work
	s.frameStart = e.now
	psnr, bits, err := s.enc.FrameQuality(s.settings.QP, s.curFrame.Complexity)
	if err != nil {
		panic(err)
	}
	s.curPSNR, s.curBits = psnr, bits
}

func (e *refEngine) sanitize(p Settings) Settings {
	if p.QP < hevc.MinQP {
		p.QP = hevc.MinQP
	}
	if p.QP > hevc.MaxQP {
		p.QP = hevc.MaxQP
	}
	if p.Threads < 1 {
		p.Threads = 1
	}
	spec := e.server.Spec()
	if max := spec.LogicalCPUs(); p.Threads > max {
		p.Threads = max
	}
	p.FreqGHz = spec.Nearest(p.FreqGHz)
	return p
}

func (e *refEngine) completeFrame(s *refSession, snap platform.Snapshot) {
	dur := e.now - s.frameStart
	if dur <= 0 {
		dur = 1e-9
	}
	s.durations[s.nDur%fpsWindow] = dur
	s.nDur++

	n := s.nDur
	if n > fpsWindow {
		n = fpsWindow
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.durations[i]
	}
	fps := float64(n) / sum

	obs := Observation{
		SessionID:    s.id,
		FrameIndex:   s.frameIdx,
		Time:         e.now,
		DurationSec:  dur,
		FPS:          fps,
		InstFPS:      1 / dur,
		PSNRdB:       s.curPSNR,
		BitrateMbps:  s.curBits * s.cfg.TargetFPS / 1e6,
		PowerW:       snap.PowerW,
		OverCap:      e.server.OverCap(snap.PowerW),
		Settings:     s.settings,
		Complexity:   s.curFrame.Complexity,
		SceneChange:  s.curFrame.SceneChange,
		SequenceName: s.cfg.Source.Sequence().Name,
	}

	s.frames++
	s.frameIdx++
	s.remaining = 0
	if fps < s.cfg.TargetFPS {
		s.violations++
	}
	s.sumFPS += fps
	s.sumPSNR += s.curPSNR
	s.sumBitrate += obs.BitrateMbps
	s.sumThreads += float64(s.settings.Threads)
	s.sumFreq += s.settings.FreqGHz
	s.sumQP += float64(s.settings.QP)
	if e.onFrame != nil {
		e.onFrame(obs)
	}
	s.cfg.Controller.OnFrameDone(obs)
}

func (e *refEngine) buildResult() *Result {
	res := &Result{DurationSec: e.now, EnergyJ: e.energy}
	if e.now > 0 {
		res.AvgPowerW = e.energy / e.now
	}
	for _, s := range e.sessions {
		sr := SessionResult{
			ID:         s.id,
			Name:       s.cfg.Controller.Name(),
			Res:        s.cfg.Source.Res(),
			Frames:     s.frames,
			Violations: s.violations,
			DynEnergyJ: s.dynEnergyJ,
		}
		if s.frames > 0 {
			f := float64(s.frames)
			sr.ViolationPct = 100 * float64(s.violations) / f
			sr.AvgFPS = s.sumFPS / f
			sr.AvgPSNRdB = s.sumPSNR / f
			sr.AvgBitrateMbps = s.sumBitrate / f
			sr.AvgThreads = s.sumThreads / f
			sr.AvgFreqGHz = s.sumFreq / f
			sr.AvgQP = s.sumQP / f
		}
		res.Sessions = append(res.Sessions, sr)
	}
	return res
}

// TestReferenceReproducesGoldenExactly holds the reference — an
// operation-for-operation port of the pre-refactor linear engine — to
// the committed golden trace with zero tolerance on every field. With
// -update it regenerates the golden from the reference (the golden must
// come from the reference, not the event-scheduled engine, precisely so
// this zero-tolerance comparison stays meaningful).
func TestReferenceReproducesGoldenExactly(t *testing.T) {
	ref := newRefEngine(t, goldenSpec(), hevc.DefaultModel(), goldenSeed)
	for _, cfg := range goldenSessions(t) {
		ref.addSession(t, cfg)
	}
	tr := traces{}
	ref.onFrame = tr.add
	res, err := ref.run(false)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		writeGolden(t, toGolden(res, tr))
		return
	}
	compareToGolden(t, loadGolden(t), res, tr, 0)
}

// randomMix builds a seeded random multi-session workload: 4-9 sessions,
// mixed HR/LR, random static operating points, staggered arrivals and
// distinct budgets.
func randomMix(t *testing.T, rng *rand.Rand, spec platform.Spec) []SessionConfig {
	t.Helper()
	n := 4 + rng.Intn(6)
	freqs := spec.Frequencies()
	cfgs := make([]SessionConfig, 0, n)
	for i := 0; i < n; i++ {
		res := video.LR
		if rng.Float64() < 0.4 {
			res = video.HR
		}
		set := Settings{
			QP:      22 + rng.Intn(21),
			Threads: 1 + rng.Intn(12),
			FreqGHz: freqs[rng.Intn(len(freqs))],
		}
		cfgs = append(cfgs, SessionConfig{
			Source:      testSource(t, res, rng.Int63()),
			Controller:  &Static{S: set},
			Initial:     set,
			FrameBudget: 20 + rng.Intn(100),
			StartAtSec:  float64(rng.Intn(9)) * 0.9,
		})
	}
	return cfgs
}

// TestEngineMatchesReference holds the event-scheduled engine to the
// linear reference semantics across randomized mixes, in both stop-mode
// and until-all mode: identical frame counts and completion orders, exact
// content fields, event times within goldenTimeTol.
func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, untilAll := range []bool{false, true} {
			mixRng := rand.New(rand.NewSource(900 + seed))
			cfgs := randomMix(t, mixRng, quietSpec())
			// Rebuild sources per engine: a video.Source is stateful.
			mixRng2 := rand.New(rand.NewSource(900 + seed))
			cfgs2 := randomMix(t, mixRng2, quietSpec())

			eng, err := NewEngine(quietSpec(), hevc.DefaultModel(), 7000+seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range cfgs {
				if _, err := eng.AddSession(cfg); err != nil {
					t.Fatal(err)
				}
			}
			ref := newRefEngine(t, quietSpec(), hevc.DefaultModel(), 7000+seed)
			for _, cfg := range cfgs2 {
				ref.addSession(t, cfg)
			}
			gotTr, wantTr := recordTraces(eng), traces{}
			ref.onFrame = wantTr.add

			var got, want *Result
			if untilAll {
				got, err = eng.RunUntilAll()
			} else {
				got, err = eng.Run()
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err = ref.run(untilAll)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("seed%d_untilAll%v", seed, untilAll), func(t *testing.T) {
				compareToGolden(t, toGolden(want, wantTr), got, gotTr, goldenTimeTol)
			})
		}
	}
}
