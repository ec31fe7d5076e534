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

// idx returns the row-major index of (s,a), panicking when out of range.
func (d dims) idx(s, a int) int {
	if s < 0 || s >= d.states || a < 0 || a >= d.actions {
		panic(fmt.Sprintf("rl: index (%d,%d) out of range %dx%d", s, a, d.states, d.actions))
	}
	return s*d.actions + a
}

// QTable is a dense state x action table of Q-values.
type QTable struct {
	dims
	q []float64
}

// NewQTable returns a zero-initialised table.
func NewQTable(states, actions int) (*QTable, error) {
	if states < 1 || actions < 1 {
		return nil, fmt.Errorf("rl: QTable dimensions %dx%d invalid", states, actions)
	}
	return &QTable{dims: dims{states, actions}, q: make([]float64, states*actions)}, nil
}

// States returns the number of states.
func (t *QTable) States() int { return t.states }

// Actions returns the number of actions.
func (t *QTable) Actions() int { return t.actions }

// Get returns Q(s,a).
func (t *QTable) Get(s, a int) float64 { return t.q[t.idx(s, a)] }

// Set overwrites Q(s,a).
func (t *QTable) Set(s, a int, v float64) { t.q[t.idx(s, a)] = v }

// row returns state s's Q-values, bounds-checked once.
func (t *QTable) row(s int) []float64 {
	i := t.idx(s, 0)
	return t.q[i : i+t.actions]
}

// Max returns max over actions of Q(s,a).
func (t *QTable) Max(s int) float64 {
	row := t.row(s)
	best := row[0]
	for _, v := range row[1:] {
		if v > best {
			best = v
		}
	}
	return best
}

// ArgMax returns the action with the highest Q-value in s, breaking ties
// toward the lowest action index (deterministic).
func (t *QTable) ArgMax(s int) int {
	row := t.row(s)
	best, bestA := row[0], 0
	for a, v := range row {
		if v > best {
			best, bestA = v, a
		}
	}
	return bestA
}

// Counter tracks Num(s,a) visit counts and per-action totals Num(a).
type Counter struct {
	dims
	sa        []int
	perAction []int
}

// NewCounter returns a zeroed counter.
func NewCounter(states, actions int) (*Counter, error) {
	if states < 1 || actions < 1 {
		return nil, fmt.Errorf("rl: Counter dimensions %dx%d invalid", states, actions)
	}
	return &Counter{dims: dims{states, actions}, sa: make([]int, states*actions), perAction: make([]int, actions)}, nil
}

// Observe records one occurrence of action a taken in state s.
func (c *Counter) Observe(s, a int) {
	c.sa[c.idx(s, a)]++
	c.perAction[a]++
}

// Num returns Num(s,a): how often a was taken in s.
func (c *Counter) Num(s, a int) int { return c.sa[c.idx(s, a)] }

// NumAction returns how often action a was taken across all states.
func (c *Counter) NumAction(a int) int {
	if a < 0 || a >= c.actions {
		panic(fmt.Sprintf("rl: action %d out of range %d", a, c.actions))
	}
	return c.perAction[a]
}

// MinActionCount returns min over actions of Num(a) — the quantity other
// agents feed into the second term of the eq. (3) learning rate.
func (c *Counter) MinActionCount() int {
	m := c.perAction[0]
	for _, n := range c.perAction[1:] {
		if n < m {
			m = n
		}
	}
	return m
}

// RandomAction draws a uniform action index.
func RandomAction(actions int, rng *rand.Rand) int { return rng.Intn(actions) }
