// Package rl implements the tabular Q-learner MAMUT is built on. A
// Learner holds one agent's Q-values Q(s,a), visit counts Num(s,a) and
// empirical transition model P(s --a--> s') in one table of per-state
// rows, and implements the paper's two-term learning rate (eq. 3), the Q
// update and the per-state learning-phase state machine of SIV. A
// Snapshot is a learner's exported state, for cross-session knowledge
// reuse and for checkpoints.
//
// The package is deliberately agnostic of what states and actions mean:
// states and actions are dense integer indices. The MAMUT controller
// (internal/core) and the mono-agent baseline (internal/baseline) assign
// meaning to them.
package rl

import (
	"fmt"
	"math"
	"slices"
)

// Phase is the per-state learning phase of paper SIV.
type Phase int

const (
	// Exploration: take random actions from the agent's own action set and
	// record every observed transition.
	Exploration Phase = iota
	// ExploreExploit: stop taking random actions but keep updating the
	// Q-table (entered when the learning rate drops below alpha_th1).
	ExploreExploit
	// Exploitation: act cooperatively via the expected-Q chain (entered
	// when the learning rate drops below alpha_th2).
	Exploitation
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case Exploration:
		return "exploration"
	case ExploreExploit:
		return "explore-exploit"
	case Exploitation:
		return "exploitation"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Config parametrises a Learner. The defaults mirror paper SIV-B.
type Config struct {
	// States and Actions size the tables.
	States, Actions int
	// Beta is the weight of the 1/Num(s,a) learning-rate term.
	Beta float64
	// BetaPrime is the weight of the cross-agent coupling term; zero for a
	// mono-agent learner.
	BetaPrime float64
	// AlphaTh1 and AlphaTh2 are the phase thresholds (0.1 and 0.05).
	AlphaTh1, AlphaTh2 float64
	// Gamma is the discount factor (0.6).
	Gamma float64
}

// DefaultConfig returns the paper's constants for the given table sizes.
func DefaultConfig(states, actions int) Config {
	return Config{
		States:    states,
		Actions:   actions,
		Beta:      0.3,
		BetaPrime: 0.2,
		AlphaTh1:  0.1,
		AlphaTh2:  0.05,
		Gamma:     0.6,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := checkDims("config", c.States, c.Actions); err != nil {
		return err
	}
	if !(c.Beta > 0) {
		return fmt.Errorf("rl: beta %g must be positive", c.Beta)
	}
	if !(c.BetaPrime >= 0) {
		return fmt.Errorf("rl: beta' %g must be non-negative", c.BetaPrime)
	}
	if !(c.AlphaTh1 > c.AlphaTh2) || c.AlphaTh2 <= 0 {
		return fmt.Errorf("rl: thresholds must satisfy th1 %g > th2 %g > 0", c.AlphaTh1, c.AlphaTh2)
	}
	if !(c.Gamma >= 0 && c.Gamma < 1) {
		return fmt.Errorf("rl: gamma %g outside [0,1)", c.Gamma)
	}
	return nil
}

// checkDims rejects table dimensions below 1x1, and dimensions whose
// pair count does not fit an int32, the type of a row's successor
// offsets.
func checkDims(what string, states, actions int) error {
	if states < 1 || actions < 1 || states > math.MaxInt32/actions {
		return fmt.Errorf("rl: %s dimensions %dx%d invalid", what, states, actions)
	}
	return nil
}

// Learner is one agent's tabular Q-learner: its Q-values, visit counts
// and transition model, one row per state, with the eq. (3) learning
// rate and the Q update over them.
type Learner struct {
	cfg Config
	t   *table
}

// NewLearner builds a cold learner from a validated config: every state
// points at one shared blank row until its first write.
func NewLearner(cfg Config) (*Learner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Learner{cfg: cfg, t: newTable(cfg.States, cfg.Actions)}, nil
}

// Config returns the learner's configuration.
func (l *Learner) Config() Config { return l.cfg }

// Alpha evaluates the eq. (3) learning rate for (s,a):
//
//	alpha_i(s,a) = beta_i/Num(s,a) + beta'_i/(1 + sum_{j!=i} min_a Num_j(a))
//
// otherMinSum is the sum over the *other* agents of their least-taken
// action's count, clamped to [0, MaxInt-1] so that 1+otherMinSum cannot
// wrap. An unvisited pair has learning rate clamped to 1.
func (l *Learner) Alpha(s, a, otherMinSum int) float64 {
	otherMinSum = min(max(otherMinSum, 0), math.MaxInt-1)
	n := l.Num(s, a)
	var first float64
	if n == 0 {
		first = 1
	} else {
		first = l.cfg.Beta / float64(n)
	}
	second := l.cfg.BetaPrime / float64(1+otherMinSum)
	return math.Min(1, first+second)
}

// AlphaMax returns the largest learning rate over the actions of state s —
// the quantity the per-state phase machine thresholds against: a state only
// leaves exploration when *every* one of its actions is well-observed.
// That is the rate of the state's least-visited action (the lowest one on
// ties), so eq. (3) is evaluated once: an unvisited action rates 1, the
// most eq. (3) yields, and beta/Num(s,a) (beta > 0, counts >= 0), the sum
// with the coupling term and the clamp at 1 are each monotone in IEEE
// arithmetic, so no action visited more often rates higher.
func (l *Learner) AlphaMax(s, otherMinSum int) float64 {
	n := l.t.read(s, 0).n
	least := 0
	for a, v := range n {
		if v < n[least] {
			least = a
		}
	}
	return l.Alpha(s, least, otherMinSum)
}

// PhaseFor returns the learning phase of state s given the other agents'
// exploration progress. New (never-seen) states are in Exploration by
// construction since their alpha is 1.
func (l *Learner) PhaseFor(s, otherMinSum int) Phase {
	a := l.AlphaMax(s, otherMinSum)
	switch {
	case a < l.cfg.AlphaTh2:
		return Exploitation
	case a < l.cfg.AlphaTh1:
		return ExploreExploit
	default:
		return Exploration
	}
}

// Update performs one Q-learning step for the observed interaction
// (s, a, reward, next): records the visit and the transition, then applies
//
//	Q(s,a) += alpha * (reward + gamma*max_a' Q(next,a') - Q(s,a))
//
// with alpha from eq. (3) evaluated *after* the visit is counted. It
// returns the learning rate used.
func (l *Learner) Update(s, a, next int, reward float64, otherMinSum int) float64 {
	l.observeVisit(s, a)
	l.ObserveTransition(s, a, next)
	alpha := l.Alpha(s, a, otherMinSum)
	target := reward + l.cfg.Gamma*l.MaxQ(next)
	l.SetQ(s, a, l.Q(s, a)+alpha*(target-l.Q(s, a)))
	return alpha
}

// Q returns Q(s,a).
func (l *Learner) Q(s, a int) float64 { return l.t.read(s, a).q[a] }

// SetQ overwrites Q(s,a).
func (l *Learner) SetQ(s, a int, v float64) {
	r := l.t.write(s, a)
	r.q[a] = v
	r.rescan()
}

// MaxQ returns max over actions of Q(s,a): Q at ArgMax(s).
func (l *Learner) MaxQ(s int) float64 {
	r := l.t.read(s, 0)
	return r.q[r.best]
}

// ArgMax returns the action with the highest Q-value in s, breaking ties
// toward the lowest action index (deterministic). The row keeps it, so
// this reads no Q value.
func (l *Learner) ArgMax(s int) int { return l.t.read(s, 0).best }

// Num returns Num(s,a): how often a was taken in s.
func (l *Learner) Num(s, a int) int { return l.t.read(s, a).n[a] }

// MinActionCount returns min over actions of Num(a), how often an action
// was taken across all states — the quantity other agents feed into the
// second term of the eq. (3) learning rate.
func (l *Learner) MinActionCount() int { return slices.Min(l.t.perAction) }

// observeVisit records one occurrence of action a taken in state s.
func (l *Learner) observeVisit(s, a int) {
	l.t.write(s, a).n[a]++
	l.t.perAction[a]++
}

// ObserveTransition records the transition s --a--> next in the model.
func (l *Learner) ObserveTransition(s, a, next int) {
	if next < 0 || next >= l.t.states {
		panic(fmt.Sprintf("rl: next state %d out of range %d", next, l.t.states))
	}
	l.t.write(s, a).observe(a, next)
}

// Successors returns the observed successors of (s,a) in ascending state
// order and their total count, 0 for a pair never taken: the Algorithm 1
// lookahead weighs successor s' by float64(count)/float64(total). The
// slice aliases the model; read it before the next ObserveTransition.
func (l *Learner) Successors(s, a int) (run []Succ, total int) {
	run = l.t.read(s, a).run(a)
	for _, sc := range run {
		total += sc.Count
	}
	return run, total
}
