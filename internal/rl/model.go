package rl

import (
	"fmt"
	"math"
)

// Succ is one observed successor of a (state, action) pair and how often
// the pair led to it.
type Succ struct {
	State int32
	Count int
}

// Model is an empirical transition model P(s --a--> s') in compressed
// sparse row form, the one layout the live model and Snapshot share.
// Pair p = s*actions + a owns Succ[Off[p]:Off[p+1]]: its observed
// successors in ascending state order, each counted at least once. Off
// has one entry per pair plus a final one equal to len(Succ).
type Model struct {
	Off  []int32
	Succ []Succ
}

// run returns pair p's successors.
func (m Model) run(p int) []Succ { return m.Succ[m.Off[p]:m.Off[p+1]] }

// clone returns a copy that shares no memory with m.
func (m Model) clone() Model {
	return Model{Off: append([]int32(nil), m.Off...), Succ: append([]Succ(nil), m.Succ...)}
}

// validate checks the layout for pairs pairs over states states: offsets
// framing Succ, ascending in-range successors counted at least once, and
// per-pair totals that fit an int.
func (m Model) validate(pairs, states int) error {
	if len(m.Off) != pairs+1 || m.Off[0] != 0 || int(m.Off[pairs]) != len(m.Succ) {
		return fmt.Errorf("rl: transition offsets do not frame %d pairs over %d successors", pairs, len(m.Succ))
	}
	for p := 0; p < pairs; p++ {
		if m.Off[p] > m.Off[p+1] || int(m.Off[p+1]) > len(m.Succ) {
			return fmt.Errorf("rl: transition offsets not ascending within the successors at pair %d", p)
		}
		total, prev := 0, int32(-1)
		for _, sc := range m.run(p) {
			switch {
			case sc.State < 0 || int(sc.State) >= states || sc.Count < 1:
				return fmt.Errorf("rl: transition (%d -> %d, count %d) invalid", p, sc.State, sc.Count)
			case sc.State <= prev:
				return fmt.Errorf("rl: transitions of pair %d out of order or repeated at %d", p, sc.State)
			case total > math.MaxInt-sc.Count:
				return fmt.Errorf("rl: transition count of pair %d overflows at %d", p, sc.State)
			}
			total += sc.Count
			prev = sc.State
		}
	}
	return nil
}

// combine returns dst plus sign*src, run by run, as a fresh model: one
// sorted merge per pair. Subtracting (sign -1) drops successors whose
// count reaches zero and errors on a negative residual. The shapes must
// already match.
func combine(dst, src Model, sign int) (Model, error) {
	out := Model{Off: make([]int32, len(dst.Off))}
	if n := len(dst.Succ) + max(sign, 0)*len(src.Succ); n > 0 {
		out.Succ = make([]Succ, 0, n)
	}
	for p := 0; p+1 < len(dst.Off); p++ {
		a, b := dst.run(p), src.run(p)
		for len(a)+len(b) > 0 {
			var x Succ
			switch {
			case len(b) == 0 || len(a) > 0 && a[0].State < b[0].State:
				x, a = a[0], a[1:]
			case len(a) == 0 || b[0].State < a[0].State:
				x, b = Succ{b[0].State, sign * b[0].Count}, b[1:]
			default:
				x, a, b = Succ{a[0].State, a[0].Count + sign*b[0].Count}, a[1:], b[1:]
			}
			if x.Count < 0 {
				return Model{}, fmt.Errorf("rl: subtract transition (%d -> %d): %d counts below base", p, x.State, x.Count)
			}
			if x.Count > 0 {
				out.Succ = append(out.Succ, x)
			}
		}
		out.Off[p+1] = int32(len(out.Succ))
	}
	return out, nil
}

// Transitions is the empirical transition model P(s --a--> s') of SIV-A,
// updated throughout learning.
type Transitions struct {
	dims
	m Model
}

// NewTransitions returns an empty transition model.
func NewTransitions(states, actions int) (*Transitions, error) {
	if states < 1 || actions < 1 {
		return nil, fmt.Errorf("rl: Transitions dimensions %dx%d invalid", states, actions)
	}
	return &Transitions{dims: dims{states, actions}, m: Model{Off: make([]int32, states*actions+1)}}, nil
}

// Observe records the transition s --a--> next. Only a successor the pair
// has never led to before moves data: it is inserted in state order and
// the later offsets shift by one.
func (tr *Transitions) Observe(s, a, next int) {
	if next < 0 || next >= tr.states {
		panic(fmt.Sprintf("rl: next state %d out of range %d", next, tr.states))
	}
	p := tr.idx(s, a)
	j, hi := int(tr.m.Off[p]), int(tr.m.Off[p+1])
	for j < hi && int(tr.m.Succ[j].State) < next {
		j++
	}
	if j < hi && int(tr.m.Succ[j].State) == next {
		tr.m.Succ[j].Count++
		return
	}
	tr.m.Succ = append(tr.m.Succ, Succ{})
	copy(tr.m.Succ[j+1:], tr.m.Succ[j:])
	tr.m.Succ[j] = Succ{State: int32(next), Count: 1}
	for q := p + 1; q < len(tr.m.Off); q++ {
		tr.m.Off[q]++
	}
}

// Run returns the observed successors of (s,a) in ascending state order
// and their total count, 0 for a pair never taken: the Algorithm 1
// lookahead weighs successor s' by float64(count)/float64(total). The
// slice aliases the model; read it before the next Observe.
func (tr *Transitions) Run(s, a int) (run []Succ, total int) {
	run = tr.m.run(tr.idx(s, a))
	for _, sc := range run {
		total += sc.Count
	}
	return run, total
}

// Prob returns P(s --a--> next) from the empirical counts, 0 if (s,a) was
// never observed.
func (tr *Transitions) Prob(s, a, next int) float64 {
	run, total := tr.Run(s, a)
	for _, sc := range run {
		if int(sc.State) == next {
			return float64(sc.Count) / float64(total)
		}
	}
	return 0
}
