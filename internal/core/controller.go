package core

import (
	"fmt"
	"math/rand"

	"mamut/internal/platform"
	"mamut/internal/rl"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

// Config parametrises one MAMUT controller (one per video stream).
type Config struct {
	// QPValues is AGqp's action set (paper SIII-B.a).
	QPValues []int
	// ThreadValues is AGthread's action set; it stops at the platform's
	// saturation point for the stream's resolution (SIII-B.b).
	ThreadValues []int
	// FreqValues is AGdvfs's action set: the real-time DVFS rungs
	// (SIII-B.c).
	FreqValues []float64
	// Schedule is the agent activation pattern (SIII-B.d / Fig. 3).
	Schedule Schedule

	// Learning constants (SIV-B).
	Beta, BetaPrime    float64
	AlphaTh1, AlphaTh2 float64
	Gamma              float64

	// TargetFPS is the real-time objective (24 in the paper).
	TargetFPS float64
	// BandwidthMbps is the user's bandwidth (bitrate constraint); zero
	// disables the constraint.
	BandwidthMbps float64
	// PowerCapW is the server power cap the power state and reward use.
	PowerCapW float64

	// Cooperative enables Algorithm 1's expected-Q chain in the
	// exploitation phase. Disabling it is the paper's implicit ablation:
	// each agent then greedily follows its own Q-table.
	Cooperative bool
}

// DefaultQPValues is the paper's AGqp action set.
var DefaultQPValues = []int{22, 25, 27, 29, 32, 35, 37}

// DefaultBandwidth returns the per-resolution default user bandwidth used
// by the experiments: the 3G-band edges of the bitrate states that a
// stream of that resolution can realistically exceed.
func DefaultBandwidth(res video.Resolution) float64 {
	if res == video.HR {
		return 6.0
	}
	return 3.0
}

// DefaultThreadValues returns 1..saturation for the resolution on the
// given platform model (12 for HR, 5 for LR with the default model).
func DefaultThreadValues(maxUseful int) []int {
	vals := make([]int, maxUseful)
	for i := range vals {
		vals[i] = i + 1
	}
	return vals
}

// DefaultConfig assembles the paper's configuration for one stream.
func DefaultConfig(res video.Resolution, spec platform.Spec, maxUsefulThreads int) Config {
	return Config{
		QPValues:      append([]int(nil), DefaultQPValues...),
		ThreadValues:  DefaultThreadValues(maxUsefulThreads),
		FreqValues:    spec.RealTimeFrequencies(),
		Schedule:      DefaultSchedule(),
		Beta:          0.3,
		BetaPrime:     0.2,
		AlphaTh1:      0.1,
		AlphaTh2:      0.05,
		Gamma:         0.6,
		TargetFPS:     transcode.DefaultTargetFPS,
		BandwidthMbps: DefaultBandwidth(res),
		PowerCapW:     spec.PowerCapW,
		Cooperative:   true,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if len(c.QPValues) < 2 || len(c.ThreadValues) < 2 || len(c.FreqValues) < 2 {
		return fmt.Errorf("core: each agent needs at least 2 actions")
	}
	if err := c.Schedule.Validate(); err != nil {
		return err
	}
	if c.TargetFPS <= 0 {
		return fmt.Errorf("core: target FPS %g invalid", c.TargetFPS)
	}
	if c.PowerCapW <= 0 {
		return fmt.Errorf("core: power cap %g invalid", c.PowerCapW)
	}
	if c.BandwidthMbps < 0 {
		return fmt.Errorf("core: bandwidth %g invalid", c.BandwidthMbps)
	}
	return nil
}

// pending is an action awaiting its next-state observation: the paper
// updates Q(st, at) when the following agent acts; for actions followed by
// NULL slots the next state is the average of the states observed during
// those slots (SIV-A).
type pending struct {
	agent  AgentKind
	state  int
	action int

	sumPSNR, sumPower, sumBitrate, sumFPS float64
	n                                     int
}

func (p *pending) accumulate(obs transcode.Observation) {
	p.sumPSNR += obs.PSNRdB
	p.sumPower += obs.PowerW
	p.sumBitrate += obs.BitrateMbps
	// Use the per-frame (instantaneous) throughput: the paper observes the
	// next state "right at the end of the frame", and a windowed estimate
	// would smear the action's effect over pre-action frames, breaking
	// credit assignment for the slow agents.
	p.sumFPS += obs.InstFPS
	p.n++
}

func (p *pending) averaged() Metrics {
	if p.n == 0 {
		return Metrics{}
	}
	f := float64(p.n)
	return Metrics{
		PSNRdB:      p.sumPSNR / f,
		PowerW:      p.sumPower / f,
		BitrateMbps: p.sumBitrate / f,
		FPS:         p.sumFPS / f,
	}
}

// PhaseCounts tallies how many actions an agent took in each phase.
type PhaseCounts struct {
	Exploration    int
	ExploreExploit int
	Exploitation   int
}

// Stats exposes the controller's learning telemetry.
type Stats struct {
	// ByAgent are per-agent phase tallies, indexed by AgentKind.
	ByAgent [3]PhaseCounts
	// FirstExploitFrame is the first frame index at which each agent
	// selected an action in the exploitation phase, -1 if never.
	FirstExploitFrame [3]int
	// FirstAllExploitFrame is the first frame index from which all three
	// agents had reached exploitation at least once, -1 if never.
	FirstAllExploitFrame int
}

// Controller is the MAMUT run-time manager for one transcoding session.
// It implements transcode.Controller.
type Controller struct {
	cfg    Config
	agents [3]*agent
	rng    *rand.Rand

	settings transcode.Settings
	curState int
	pend     pending // valid while hasPend
	hasPend  bool
	started  bool
	chain    [numAgents]AgentKind // exploitAction's lookahead buffer

	stats Stats
}

// New builds a MAMUT controller. The initial settings are the knob values
// in force before the first agent acts. The rng drives exploration.
func New(cfg Config, initial transcode.Settings, rng *rand.Rand) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("core: nil rng")
	}
	if err := initial.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, rng: rng, settings: initial}
	for k := AgentQP; k < numAgents; k++ {
		a, err := newAgent(k, cfg)
		if err != nil {
			return nil, err
		}
		c.agents[k] = a
	}
	// Until the first observation arrives the controller assumes a benign
	// starting state: acceptable quality, under the power cap, mid
	// bitrate, below the FPS target (pessimistic on throughput so early
	// exploration leans toward speed).
	c.curState = State{PSNR: 2, Power: 0, Bitrate: 1, FPS: 0}.Index()
	for k := range c.stats.FirstExploitFrame {
		c.stats.FirstExploitFrame[k] = -1
	}
	c.stats.FirstAllExploitFrame = -1
	return c, nil
}

// Name implements transcode.Controller.
func (c *Controller) Name() string { return "mamut" }

// Stats returns the learning telemetry collected so far.
func (c *Controller) Stats() Stats { return c.stats }

// Settings returns the knob values currently in force.
func (c *Controller) Settings() transcode.Settings { return c.settings }

// Agent learning accessors for tests and ablations.

// Learner returns the rl.Learner of one agent.
func (c *Controller) Learner(k AgentKind) *rl.Learner { return c.agents[k].learner }

// otherMinSum computes the eq. (3) coupling term for agent k: the sum over
// the other agents of their least-taken action's count.
func (c *Controller) otherMinSum(k AgentKind) int {
	sum := 0
	for j := AgentQP; j < numAgents; j++ {
		if j == k {
			continue
		}
		sum += c.agents[j].learner.MinActionCount()
	}
	return sum
}

// OnFrameStart implements transcode.Controller: finalize any pending
// update if an agent acts at this frame, then let that agent choose its
// action per its learning phase.
func (c *Controller) OnFrameStart(fs transcode.FrameStart) transcode.Settings {
	k := c.cfg.Schedule.ActingAgent(fs.FrameIndex)
	if k == AgentNone {
		return c.settings
	}
	c.finalizePending()

	ag := c.agents[k]
	s := c.curState
	phase := ag.learner.PhaseFor(s, c.otherMinSum(k))
	var action int
	switch phase {
	case rl.Exploration:
		action = c.rng.Intn(ag.actions())
		c.stats.ByAgent[k].Exploration++
	case rl.ExploreExploit:
		action = c.exploreExploitAction(ag, k, s)
		c.stats.ByAgent[k].ExploreExploit++
	default: // rl.Exploitation
		action = c.exploitAction(k, s, fs.FrameIndex)
		c.stats.ByAgent[k].Exploitation++
		if c.stats.FirstExploitFrame[k] < 0 {
			c.stats.FirstExploitFrame[k] = fs.FrameIndex
			if c.stats.FirstAllExploitFrame < 0 {
				all := true
				for j := range c.stats.FirstExploitFrame {
					if c.stats.FirstExploitFrame[j] < 0 {
						all = false
					}
				}
				if all {
					c.stats.FirstAllExploitFrame = fs.FrameIndex
				}
			}
		}
	}
	c.pend, c.hasPend = pending{agent: k, state: s, action: action}, true
	c.settings = ag.apply(c.settings, action)
	c.started = true
	return c.settings
}

// OnFrameDone implements transcode.Controller: accumulate the observation
// into the pending update (covering both the immediate case and the
// NULL-slot averaging of SIV-A).
func (c *Controller) OnFrameDone(obs transcode.Observation) {
	if c.hasPend {
		c.pend.accumulate(obs)
	} else if c.started {
		// Between finalization and the next action there is no pending
		// entry only transiently; with a valid schedule every completed
		// frame since the first action belongs to some pending action.
		// Keep the state fresh anyway.
		c.curState = StateOf(Metrics{
			PSNRdB: obs.PSNRdB, PowerW: obs.PowerW,
			BitrateMbps: obs.BitrateMbps, FPS: obs.InstFPS,
		}, c.cfg.PowerCapW).Index()
	}
}

// finalizePending applies the deferred Q-update of the last action using
// the (possibly NULL-averaged) observed metrics.
func (c *Controller) finalizePending() {
	p := &c.pend
	if !c.hasPend || p.n == 0 {
		c.hasPend = false
		return
	}
	m := p.averaged()
	next := StateOf(m, c.cfg.PowerCapW).Index()
	reward := TotalReward(m, c.cfg.TargetFPS, c.cfg.BandwidthMbps, c.cfg.PowerCapW)
	ag := c.agents[p.agent]
	ag.learner.Update(p.state, p.action, next, reward, c.otherMinSum(p.agent))
	c.curState = next
	c.hasPend = false
}

// exploreExploitAction selects the action in the exploration-exploitation
// phase: per SIV-A the agent stops taking *random* actions but the Q-table
// keeps updating. Actions whose learning rate has not yet dropped below
// alpha_th2 are completed deterministically, least-visited first — this is
// what lets every (s,a) pair reach the exploitation threshold and gives
// Algorithm 1 a transition estimate for every action. Once all pairs are
// below the threshold (the state is about to enter exploitation) the agent
// acts greedily.
func (c *Controller) exploreExploitAction(ag *agent, k AgentKind, s int) int {
	other := c.otherMinSum(k)
	best, bestN := -1, 0
	for a := 0; a < ag.actions(); a++ {
		if ag.learner.Alpha(s, a, other) < ag.learner.Config().AlphaTh2 {
			continue
		}
		n := ag.learner.Num(s, a)
		if best < 0 || n < bestN {
			best, bestN = a, n
		}
	}
	if best < 0 {
		return ag.learner.ArgMax(s)
	}
	return best
}

// exploitAction selects the action in the exploitation phase. When
// cooperation is enabled and every agent in the Fig. 3 chain after this
// frame has also reached exploitation for the current state, it maximises
// the expected Q-value through the chain (Algorithm 1); otherwise the
// agent follows its own Q-table, as SIV-C prescribes for the case where
// the whole system is not yet exploiting.
func (c *Controller) exploitAction(k AgentKind, s int, frame int) int {
	ag := c.agents[k]
	if !c.cfg.Cooperative {
		return ag.learner.ArgMax(s)
	}
	chain := c.cfg.Schedule.Chain(c.chain[:0], frame)
	for _, j := range chain {
		if c.agents[j].learner.PhaseFor(s, c.otherMinSum(j)) != rl.Exploitation {
			return ag.learner.ArgMax(s)
		}
	}
	return c.chainArgmax(ag, chain, s)
}

// chainArgmax implements line 1 of Algorithm 1: evaluate each own action a
// by the expected downstream value sum_s' P(s --a--> s') * E[Q(chain, s')]
// and return the best. Actions whose transitions were never observed fall
// back to their own Q-value, so unexplored actions are neither favoured
// nor excluded.
func (c *Controller) chainArgmax(ag *agent, chain []AgentKind, s int) int {
	bestA, bestV := 0, 0.0
	for a := 0; a < ag.actions(); a++ {
		var v float64
		if run, total := ag.learner.Successors(s, a); total > 0 {
			for _, sc := range run {
				v += float64(sc.Count) / float64(total) * c.expectedQ(ag, chain, int(sc.State))
			}
		} else {
			v = ag.learner.Q(s, a)
		}
		if a == 0 || v > bestV {
			bestA, bestV = a, v
		}
	}
	return bestA
}

// expectedQ implements the recursive E[QValue(AG, s)] of Algorithm 1. An
// exhausted chain values the landing state by the *acting* agent's own
// table (it is the one that will act there next, after the NULL slots).
func (c *Controller) expectedQ(self *agent, chain []AgentKind, s int) float64 {
	if len(chain) == 0 {
		return self.learner.MaxQ(s)
	}
	ag := c.agents[chain[0]]
	if len(chain) == 1 {
		// AG.next() == NULL: return max_a Q_AG(s, a).
		return ag.learner.MaxQ(s)
	}
	a := ag.learner.ArgMax(s)
	run, total := ag.learner.Successors(s, a)
	if total == 0 {
		return ag.learner.Q(s, a)
	}
	var v float64
	for _, sc := range run {
		v += float64(sc.Count) / float64(total) * c.expectedQ(self, chain[1:], int(sc.State))
	}
	return v
}

var _ transcode.Controller = (*Controller)(nil)
