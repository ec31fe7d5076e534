package rl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// prob returns P(s --a--> next) from l's empirical counts, 0 if (s,a)
// was never observed.
func prob(l *Learner, s, a, next int) float64 {
	run, total := l.Successors(s, a)
	for _, sc := range run {
		if int(sc.State) == next {
			return float64(sc.Count) / float64(total)
		}
	}
	return 0
}

// numAction returns Num(a), how often l took action a across all states.
func numAction(l *Learner, a int) int { return l.t.perAction[a] }

// newTestLearner returns a cold learner with the paper's constants.
func newTestLearner(t *testing.T, states, actions int) *Learner {
	t.Helper()
	l, err := NewLearner(DefaultConfig(states, actions))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestQTableGetSetMaxArgMax(t *testing.T) {
	q := newTestLearner(t, 4, 3)
	q.SetQ(2, 0, 1.5)
	q.SetQ(2, 1, -0.5)
	q.SetQ(2, 2, 0.7)
	if got := q.Q(2, 0); got != 1.5 {
		t.Errorf("Q = %g", got)
	}
	if got := q.MaxQ(2); got != 1.5 {
		t.Errorf("MaxQ = %g", got)
	}
	if got := q.ArgMax(2); got != 0 {
		t.Errorf("ArgMax = %d", got)
	}
	// Fresh state: all zero, ArgMax ties break to action 0.
	if got := q.ArgMax(0); got != 0 {
		t.Errorf("ArgMax on fresh state = %d", got)
	}
}

func TestQTablePanicsOutOfRange(t *testing.T) {
	q := newTestLearner(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access did not panic")
		}
	}()
	q.Q(2, 0)
}

func TestCounter(t *testing.T) {
	c := newTestLearner(t, 3, 2)
	c.observeVisit(0, 0)
	c.observeVisit(0, 0)
	c.observeVisit(1, 1)
	if got := c.Num(0, 0); got != 2 {
		t.Errorf("Num(0,0) = %d, want 2", got)
	}
	if got := c.Num(2, 1); got != 0 {
		t.Errorf("Num(2,1) = %d, want 0", got)
	}
	if got := numAction(c, 0); got != 2 {
		t.Errorf("Num(a=0) = %d, want 2", got)
	}
	if got := c.MinActionCount(); got != 1 {
		t.Errorf("MinActionCount = %d, want 1", got)
	}
	c.observeVisit(2, 1)
	c.observeVisit(2, 1)
	if got := c.MinActionCount(); got != 2 {
		t.Errorf("MinActionCount = %d, want 2", got)
	}
}

func TestTransitionsProbabilities(t *testing.T) {
	tr := newTestLearner(t, 5, 2)
	if _, total := tr.Successors(0, 0); total != 0 {
		t.Error("fresh model claims observation")
	}
	if got := prob(tr, 0, 0, 1); got != 0 {
		t.Errorf("unobserved P = %g, want 0", got)
	}
	tr.ObserveTransition(0, 0, 1)
	tr.ObserveTransition(0, 0, 1)
	tr.ObserveTransition(0, 0, 2)
	tr.ObserveTransition(0, 0, 4)
	if got := prob(tr, 0, 0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(0,0,1) = %g, want 0.5", got)
	}
	succ, total := tr.Successors(0, 0)
	if len(succ) != 3 || total != 4 {
		t.Fatalf("successors = %v, total %d", succ, total)
	}
	// Ascending state order and probabilities summing to 1.
	sum := 0.0
	prev := int32(-1)
	for _, sc := range succ {
		if sc.State <= prev {
			t.Errorf("successors not ascending: %v", succ)
		}
		prev = sc.State
		sum += float64(sc.Count) / float64(total)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("successor probabilities sum to %g", sum)
	}
	// Transitions count no visits.
	if got := tr.Num(0, 0); got != 0 {
		t.Errorf("Num(0,0) = %d after transitions alone, want 0", got)
	}
}

// Property: after any sequence of observations, each observed (s,a)'s
// successor distribution is a probability distribution.
func TestTransitionsNormalisationProperty(t *testing.T) {
	prop := func(seed int64, nObs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := NewLearner(DefaultConfig(6, 3))
		if err != nil {
			return false
		}
		n := 1 + int(nObs)%200
		for i := 0; i < n; i++ {
			tr.ObserveTransition(rng.Intn(6), rng.Intn(3), rng.Intn(6))
		}
		for s := 0; s < 6; s++ {
			for a := 0; a < 3; a++ {
				succ, total := tr.Successors(s, a)
				if total == 0 {
					if len(succ) != 0 {
						return false
					}
					continue
				}
				sum := 0.0
				for _, sc := range succ {
					p := float64(sc.Count) / float64(total)
					if p <= 0 || p > 1 {
						return false
					}
					sum += p
				}
				if math.Abs(sum-1) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig(180, 7)
	if c.Beta != 0.3 || c.BetaPrime != 0.2 || c.AlphaTh1 != 0.1 || c.AlphaTh2 != 0.05 || c.Gamma != 0.6 {
		t.Errorf("defaults %+v do not match paper SIV-B", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	mut := []func(*Config){
		func(c *Config) { c.States = 0 },
		func(c *Config) { c.Actions = 0 },
		func(c *Config) { c.Beta = 0 },
		func(c *Config) { c.BetaPrime = -0.1 },
		func(c *Config) { c.AlphaTh1 = 0.05 }, // th1 == th2
		func(c *Config) { c.AlphaTh2 = 0 },
		func(c *Config) { c.Gamma = 1.0 },
		func(c *Config) { c.Gamma = -0.1 },
		func(c *Config) { c.Beta = math.NaN() },
		func(c *Config) { c.BetaPrime = math.NaN() },
		func(c *Config) { c.Gamma = math.NaN() },
		func(c *Config) { c.States = math.MaxInt32/c.Actions + 1 }, // pairs overflow the int32 offsets
	}
	for i, f := range mut {
		c := DefaultConfig(10, 3)
		f(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if c := DefaultConfig(math.MaxInt32/3, 3); c.Validate() != nil {
		t.Error("dimensions at the int32 pair bound rejected")
	}
}

func TestAlphaEquationThree(t *testing.T) {
	l, err := NewLearner(DefaultConfig(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Unvisited pair: clamped to 1.
	if got := l.Alpha(0, 0, 0); got != 1 {
		t.Errorf("alpha unvisited = %g, want 1", got)
	}
	// After 3 visits with otherMinSum 4: 0.3/3 + 0.2/5 = 0.14.
	for i := 0; i < 3; i++ {
		l.observeVisit(0, 0)
	}
	if got, want := l.Alpha(0, 0, 4), 0.3/3+0.2/5; math.Abs(got-want) > 1e-12 {
		t.Errorf("alpha = %g, want %g", got, want)
	}
	// Negative otherMinSum treated as zero.
	if got, want := l.Alpha(0, 0, -5), 0.3/3+0.2/1; math.Abs(got-want) > 1e-12 {
		t.Errorf("alpha with negative otherMin = %g, want %g", got, want)
	}
}

// The defining property of eq. (3): an agent cannot reach exploitation
// until other agents have tried all their actions, no matter how often it
// saw its own pairs.
func TestAlphaBlocksExploitationUntilOthersExplore(t *testing.T) {
	l, err := NewLearner(DefaultConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		l.observeVisit(0, 0)
		l.observeVisit(0, 1)
	}
	// otherMinSum 0 means some other agent has an action never tried:
	// alpha = ~0 + 0.2/1 = 0.2 > th1 -> still exploration.
	if got := l.PhaseFor(0, 0); got != Exploration {
		t.Errorf("phase with unexplored peers = %v, want exploration", got)
	}
	// Once peers have tried all actions a few times the phase advances.
	if got := l.PhaseFor(0, 10); got == Exploration {
		t.Errorf("phase with explored peers = %v, want past exploration", got)
	}
}

func TestPhaseThresholds(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	l, err := NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With one action, alphaMax is alpha of that action. Choose visit
	// counts to step through the phases; otherMinSum large so the second
	// term is negligible.
	const others = 100000
	// Num=3: alpha ~ 0.1 -> still exploration (threshold is strict <).
	for i := 0; i < 3; i++ {
		l.observeVisit(1, 0)
	}
	if got := l.PhaseFor(1, others); got != Exploration {
		t.Errorf("alpha=0.1 phase = %v, want exploration", got)
	}
	// Num=4: alpha 0.075 -> explore-exploit.
	l.observeVisit(1, 0)
	if got := l.PhaseFor(1, others); got != ExploreExploit {
		t.Errorf("alpha=0.075 phase = %v, want explore-exploit", got)
	}
	// Num=7: alpha ~0.043 -> exploitation.
	for i := 0; i < 3; i++ {
		l.observeVisit(1, 0)
	}
	if got := l.PhaseFor(1, others); got != Exploitation {
		t.Errorf("alpha=0.043 phase = %v, want exploitation", got)
	}
	// A state never seen stays in exploration regardless.
	if got := l.PhaseFor(3, others); got != Exploration {
		t.Errorf("fresh state phase = %v, want exploration", got)
	}
}

func TestPhaseString(t *testing.T) {
	if Exploration.String() != "exploration" ||
		ExploreExploit.String() != "explore-exploit" ||
		Exploitation.String() != "exploitation" {
		t.Error("phase names wrong")
	}
	if Phase(9).String() != "Phase(9)" {
		t.Error("unknown phase name wrong")
	}
}

func TestUpdateMovesQTowardTarget(t *testing.T) {
	l, err := NewLearner(DefaultConfig(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Make next state valuable.
	l.SetQ(1, 0, 2.0)
	alpha := l.Update(0, 0, 1, 1.0, 1000)
	if alpha <= 0 || alpha > 1 {
		t.Fatalf("alpha = %g", alpha)
	}
	// target = 1.0 + 0.6*2.0 = 2.2; Q moved from 0 toward it by alpha.
	want := alpha * 2.2
	if got := l.Q(0, 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("Q after update = %g, want %g", got, want)
	}
	if l.Num(0, 0) != 1 {
		t.Error("visit not recorded")
	}
	if _, total := l.Successors(0, 0); total != 1 {
		t.Error("transition not recorded")
	}
}

// Property: repeated updates with a fixed reward converge the Q-value to
// reward/(1-gamma*[next==s]) ... simpler invariant: with reward bounded in
// [-4, 4] (the paper's reward range) Q stays bounded by 4/(1-gamma)+4.
func TestQBoundedProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l, err := NewLearner(DefaultConfig(6, 3))
		if err != nil {
			return false
		}
		bound := 4/(1-0.6) + 4 + 1e-9
		for i := 0; i < 2000; i++ {
			s, a, n := rng.Intn(6), rng.Intn(3), rng.Intn(6)
			r := -4 + 8*rng.Float64()
			l.Update(s, a, n, r, rng.Intn(50))
		}
		for s := 0; s < 6; s++ {
			for a := 0; a < 3; a++ {
				if math.Abs(l.Q(s, a)) > bound {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Sanity: a learner on a tiny deterministic MDP learns the optimal action.
func TestLearnerSolvesTinyMDP(t *testing.T) {
	// Two states: taking action 1 in state 0 yields +1 and stays; action 0
	// yields -1. Greedy policy after learning must prefer action 1.
	l, err := NewLearner(DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a := rng.Intn(2)
		r := -1.0
		if a == 1 {
			r = 1.0
		}
		l.Update(0, a, 0, r, 100)
	}
	if got := l.ArgMax(0); got != 1 {
		t.Errorf("learned policy prefers action %d, want 1 (Q0=%g Q1=%g)",
			got, l.Q(0, 0), l.Q(0, 1))
	}
}

func TestNewLearnerRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig(10, 3)
	cfg.Gamma = 2
	if _, err := NewLearner(cfg); err == nil {
		t.Error("bad config accepted")
	}
}
