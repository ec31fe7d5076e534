// Package baseline implements the two comparison controllers of paper SV-A:
//
//   - MonoAgent: the mono-agent Q-learning manager adapted from Iranfar et
//     al. (IEEE TPDS 2018), with one agent over the joint action space. As
//     in the paper, the joint space is coarsened ("a representative subset
//     ... ranging the same interval as the original actions, but with less
//     granularity") because the full cross product is untrainable.
//   - Heuristic: the rule-based manager adapted from Grellert et al.
//     (ICIP 2013): threads chase the FPS target, QP chases quality subject
//     to bandwidth and throughput, DVFS acts as a power-cap governor.
//
// Both act every 6 frames, the cadence of MAMUT's fastest agent (SV-A).
package baseline

import (
	"fmt"
	"math/rand"

	"mamut/internal/core"
	"mamut/internal/platform"
	"mamut/internal/rl"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

// MonoConfig parametrises the mono-agent baseline.
type MonoConfig struct {
	// QPValues, ThreadValues and FreqValues are the coarsened per-knob
	// subsets whose cross product forms the joint action set.
	QPValues     []int
	ThreadValues []int
	FreqValues   []float64
	// Period is the decision cadence in frames (6 in the paper).
	Period int
	// Learning constants: the mono-agent has no peers, so only the
	// 1/Num(s,a) learning-rate term applies (beta' = 0).
	Beta               float64
	AlphaTh1, AlphaTh2 float64
	Gamma              float64
	// Objectives and constraints, as for MAMUT.
	TargetFPS     float64
	BandwidthMbps float64
	PowerCapW     float64
}

// DefaultMonoConfig returns the coarsened joint action space used in the
// experiments: 3 QP x 3 threads x 3 frequencies spanning the same
// intervals as MAMUT's per-knob sets. The paper coarsens the joint space
// the same way ("a representative subset ... ranging the same interval as
// the original actions, but with less granularity") because the full
// cross product cannot be trained in a reasonable time: in this
// implementation already 4x4x4 joint actions keep the agent in its noisy
// exploration regime for the whole experiment horizon. Even at 3x3x3 the
// joint space takes several times longer to explore than MAMUT's
// decomposed sets (SV-B reports 15x on the paper's configuration), and
// the coarse grid is what limits the mono-agent's fine-tuning headroom.
func DefaultMonoConfig(res video.Resolution, spec platform.Spec, maxUsefulThreads int) MonoConfig {
	threads := []int{1, 6, 12}
	if res == video.LR {
		threads = []int{1, 3, 5}
	}
	if len(threads) > 0 && threads[len(threads)-1] > maxUsefulThreads {
		// Clamp the ladder to the saturation point if a custom encoder
		// model lowered it.
		var t []int
		for _, v := range threads {
			if v <= maxUsefulThreads {
				t = append(t, v)
			}
		}
		if len(t) < 2 {
			t = []int{1, maxUsefulThreads}
		}
		threads = t
	}
	return MonoConfig{
		QPValues:      []int{22, 29, 37},
		ThreadValues:  threads,
		FreqValues:    []float64{1.6, 2.9, 3.2},
		Period:        6,
		Beta:          0.3,
		AlphaTh1:      0.1,
		AlphaTh2:      0.05,
		Gamma:         0.6,
		TargetFPS:     transcode.DefaultTargetFPS,
		BandwidthMbps: core.DefaultBandwidth(res),
		PowerCapW:     spec.PowerCapW,
	}
}

// Validate reports whether the configuration is usable.
func (c MonoConfig) Validate() error {
	if len(c.QPValues) < 2 || len(c.ThreadValues) < 2 || len(c.FreqValues) < 2 {
		return fmt.Errorf("baseline: mono-agent needs at least 2 values per knob")
	}
	if c.Period < 1 {
		return fmt.Errorf("baseline: period %d invalid", c.Period)
	}
	if c.TargetFPS <= 0 || c.PowerCapW <= 0 || c.BandwidthMbps < 0 {
		return fmt.Errorf("baseline: objectives invalid")
	}
	return nil
}

// Actions returns the joint action count.
func (c MonoConfig) Actions() int {
	return len(c.QPValues) * len(c.ThreadValues) * len(c.FreqValues)
}

// MonoAgent is the mono-agent Q-learning controller.
type MonoAgent struct {
	cfg     MonoConfig
	learner *rl.Learner
	rng     *rand.Rand

	settings transcode.Settings
	curState int

	pendState  int
	pendAction int
	pendN      int
	sumPSNR    float64
	sumPower   float64
	sumBitrate float64
	sumFPS     float64
	hasPending bool

	stats MonoStats
}

// MonoStats is the mono-agent's learning telemetry.
type MonoStats struct {
	// Phases tallies decisions per learning phase.
	Phases core.PhaseCounts
	// FirstExploitFrame is the first frame index decided in exploitation,
	// -1 if never reached.
	FirstExploitFrame int
}

// NewMonoAgent builds the baseline controller.
func NewMonoAgent(cfg MonoConfig, initial transcode.Settings, rng *rand.Rand) (*MonoAgent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("baseline: nil rng")
	}
	if err := initial.Validate(); err != nil {
		return nil, err
	}
	l, err := rl.NewLearner(rl.Config{
		States:    core.NumStates,
		Actions:   cfg.Actions(),
		Beta:      cfg.Beta,
		BetaPrime: 0,
		AlphaTh1:  cfg.AlphaTh1,
		AlphaTh2:  cfg.AlphaTh2,
		Gamma:     cfg.Gamma,
	})
	if err != nil {
		return nil, err
	}
	return &MonoAgent{
		cfg:      cfg,
		learner:  l,
		rng:      rng,
		settings: initial,
		curState: core.State{PSNR: 2, Power: 0, Bitrate: 1, FPS: 0}.Index(),
		stats:    MonoStats{FirstExploitFrame: -1},
	}, nil
}

// Name implements transcode.Controller.
func (m *MonoAgent) Name() string { return "monoagent" }

// Stats returns the learning telemetry.
func (m *MonoAgent) Stats() MonoStats { return m.stats }

// Learner exposes the underlying tables for tests and analysis.
func (m *MonoAgent) Learner() *rl.Learner { return m.learner }

// decode maps a joint action index to settings.
func (m *MonoAgent) decode(action int) transcode.Settings {
	nf := len(m.cfg.FreqValues)
	nt := len(m.cfg.ThreadValues)
	fi := action % nf
	ti := (action / nf) % nt
	qi := action / (nf * nt)
	return transcode.Settings{
		QP:      m.cfg.QPValues[qi],
		Threads: m.cfg.ThreadValues[ti],
		FreqGHz: m.cfg.FreqValues[fi],
	}
}

// OnFrameStart implements transcode.Controller.
func (m *MonoAgent) OnFrameStart(fs transcode.FrameStart) transcode.Settings {
	if fs.FrameIndex%m.cfg.Period != 0 {
		return m.settings
	}
	m.finalize()

	s := m.curState
	phase := m.learner.PhaseFor(s, 0)
	var action int
	switch phase {
	case rl.Exploration:
		action = m.rng.Intn(m.cfg.Actions())
		m.stats.Phases.Exploration++
	case rl.ExploreExploit:
		action = m.leastVisitedIncomplete(s)
		m.stats.Phases.ExploreExploit++
	default:
		action = m.learner.ArgMax(s)
		m.stats.Phases.Exploitation++
		if m.stats.FirstExploitFrame < 0 {
			m.stats.FirstExploitFrame = fs.FrameIndex
		}
	}
	m.pendState, m.pendAction, m.hasPending = s, action, true
	m.pendN, m.sumPSNR, m.sumPower, m.sumBitrate, m.sumFPS = 0, 0, 0, 0, 0
	m.settings = m.decode(action)
	return m.settings
}

// leastVisitedIncomplete mirrors MAMUT's explore-exploit completion: pick
// the least-visited action whose learning rate is still above the
// exploitation threshold, falling back to greedy when all are done.
func (m *MonoAgent) leastVisitedIncomplete(s int) int {
	best, bestN := -1, 0
	for a := 0; a < m.cfg.Actions(); a++ {
		if m.learner.Alpha(s, a, 0) < m.cfg.AlphaTh2 {
			continue
		}
		n := m.learner.Num(s, a)
		if best < 0 || n < bestN {
			best, bestN = a, n
		}
	}
	if best < 0 {
		return m.learner.ArgMax(s)
	}
	return best
}

// OnFrameDone implements transcode.Controller.
func (m *MonoAgent) OnFrameDone(obs transcode.Observation) {
	if !m.hasPending {
		return
	}
	m.sumPSNR += obs.PSNRdB
	m.sumPower += obs.PowerW
	m.sumBitrate += obs.BitrateMbps
	m.sumFPS += obs.InstFPS
	m.pendN++
}

// finalize applies the deferred Q-update over the frames since the last
// decision (the whole decision period acts as the observation window).
func (m *MonoAgent) finalize() {
	if !m.hasPending || m.pendN == 0 {
		m.hasPending = false
		return
	}
	f := float64(m.pendN)
	metrics := core.Metrics{
		PSNRdB:      m.sumPSNR / f,
		PowerW:      m.sumPower / f,
		BitrateMbps: m.sumBitrate / f,
		FPS:         m.sumFPS / f,
	}
	next := core.StateOf(metrics, m.cfg.PowerCapW).Index()
	reward := core.TotalReward(metrics, m.cfg.TargetFPS, m.cfg.BandwidthMbps, m.cfg.PowerCapW)
	m.learner.Update(m.pendState, m.pendAction, next, reward, 0)
	m.curState = next
	m.hasPending = false
}

var _ transcode.Controller = (*MonoAgent)(nil)
