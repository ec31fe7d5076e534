// Package rl implements the tabular Q-learning machinery MAMUT is built
// on: Q-tables, visit counters, empirical transition models, the paper's
// two-term learning-rate function (eq. 3) and the per-state learning-phase
// state machine of SIV.
//
// The package is deliberately agnostic of what states and actions mean:
// states and actions are dense integer indices. The MAMUT controller
// (internal/core) and the mono-agent baseline (internal/baseline) assign
// meaning to them.
package rl

import (
	"fmt"
	"math/rand"
)

// dims is a dense state x action index space.
type dims struct{ states, actions int }

// check panics when (s,a) is out of range.
func (d dims) check(s, a int) {
	if s < 0 || s >= d.states || a < 0 || a >= d.actions {
		panic(fmt.Sprintf("rl: index (%d,%d) out of range %dx%d", s, a, d.states, d.actions))
	}
}

// QTable is a state x action table of Q-values, a view of a learner's
// rows.
type QTable struct{ t *table }

// NewQTable returns a zero-initialised table.
func NewQTable(states, actions int) (*QTable, error) {
	if states < 1 || actions < 1 {
		return nil, fmt.Errorf("rl: QTable dimensions %dx%d invalid", states, actions)
	}
	return &QTable{newTable(states, actions)}, nil
}

// States returns the number of states.
func (t QTable) States() int { return t.t.states }

// Actions returns the number of actions.
func (t QTable) Actions() int { return t.t.actions }

// Get returns Q(s,a).
func (t QTable) Get(s, a int) float64 { return t.t.read(s, a).q[a] }

// Set overwrites Q(s,a).
func (t QTable) Set(s, a int, v float64) {
	r := t.t.write(s, a)
	r.q[a] = v
	r.rescan()
}

// Max returns max over actions of Q(s,a): Q at ArgMax(s).
func (t QTable) Max(s int) float64 {
	r := t.t.read(s, 0)
	return r.q[r.best]
}

// ArgMax returns the action with the highest Q-value in s, breaking ties
// toward the lowest action index (deterministic). The row keeps it, so
// this reads no Q value.
func (t QTable) ArgMax(s int) int { return t.t.read(s, 0).best }

// Counter tracks Num(s,a) visit counts and per-action totals Num(a), a
// view of a learner's rows.
type Counter struct{ t *table }

// NewCounter returns a zeroed counter.
func NewCounter(states, actions int) (*Counter, error) {
	if states < 1 || actions < 1 {
		return nil, fmt.Errorf("rl: Counter dimensions %dx%d invalid", states, actions)
	}
	return &Counter{newTable(states, actions)}, nil
}

// Observe records one occurrence of action a taken in state s.
func (c Counter) Observe(s, a int) {
	c.t.write(s, a).n[a]++
	c.t.perAction[a]++
}

// Num returns Num(s,a): how often a was taken in s.
func (c Counter) Num(s, a int) int { return c.t.read(s, a).n[a] }

// NumAction returns how often action a was taken across all states.
func (c Counter) NumAction(a int) int {
	if a < 0 || a >= c.t.actions {
		panic(fmt.Sprintf("rl: action %d out of range %d", a, c.t.actions))
	}
	return c.t.perAction[a]
}

// MinActionCount returns min over actions of Num(a) — the quantity other
// agents feed into the second term of the eq. (3) learning rate.
func (c Counter) MinActionCount() int {
	m := c.t.perAction[0]
	for _, n := range c.t.perAction[1:] {
		if n < m {
			m = n
		}
	}
	return m
}

// Transitions is the empirical transition model P(s --a--> s') of SIV-A,
// updated throughout learning, a view of a learner's rows.
type Transitions struct{ t *table }

// NewTransitions returns an empty transition model.
func NewTransitions(states, actions int) (*Transitions, error) {
	if states < 1 || actions < 1 {
		return nil, fmt.Errorf("rl: Transitions dimensions %dx%d invalid", states, actions)
	}
	return &Transitions{newTable(states, actions)}, nil
}

// Observe records the transition s --a--> next.
func (tr Transitions) Observe(s, a, next int) {
	if next < 0 || next >= tr.t.states {
		panic(fmt.Sprintf("rl: next state %d out of range %d", next, tr.t.states))
	}
	tr.t.write(s, a).observe(a, next)
}

// Run returns the observed successors of (s,a) in ascending state order
// and their total count, 0 for a pair never taken: the Algorithm 1
// lookahead weighs successor s' by float64(count)/float64(total). The
// slice aliases the model; read it before the next Observe.
func (tr Transitions) Run(s, a int) (run []Succ, total int) {
	run = tr.t.read(s, a).run(a)
	for _, sc := range run {
		total += sc.Count
	}
	return run, total
}

// Prob returns P(s --a--> next) from the empirical counts, 0 if (s,a) was
// never observed.
func (tr Transitions) Prob(s, a, next int) float64 {
	run, total := tr.Run(s, a)
	for _, sc := range run {
		if int(sc.State) == next {
			return float64(sc.Count) / float64(total)
		}
	}
	return 0
}

// RandomAction draws a uniform action index.
func RandomAction(actions int, rng *rand.Rand) int { return rng.Intn(actions) }
