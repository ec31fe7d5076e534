package rl

import (
	"fmt"
	"math"
	"slices"
)

// Succ is one observed successor of a (state, action) pair and how often
// the pair led to it.
type Succ struct {
	State int32
	Count int
}

// row is one state's learned state: Q(s,·), Num(s,·), and the observed
// successors of every (s,a), succ[off[a]:off[a+1]] in ascending state
// order, each counted at least once. best is the greedy action, the
// argmax of q (lowest index on ties), kept by whatever writes q (rescan),
// so a greedy lookup reads one element instead of scanning the row.
//
// A row is immutable once shared. Every row a Snapshot holds is shared:
// by the snapshot's copies, and by the learners seeded or rebuilt from
// it. A learner writes in place only the rows it copied itself, and
// copies any other row on its first write to it (table.write), so a
// snapshot, a clone or a warm start costs one pointer per state, and a
// learner copies only the states it goes on to visit.
type row struct {
	q    []float64
	n    []int
	off  []int32
	succ []Succ
	best int
}

// newRow returns a blank row for actions actions.
func newRow(actions int) *row {
	return &row{q: make([]float64, actions), n: make([]int, actions), off: make([]int32, actions+1)}
}

// rescan recomputes best from q with the greedy scan: the first strict
// maximum wins, so ties (+0 and -0 among them) go to the lowest action,
// a NaN never beats the running maximum, and a NaN at action 0 is never
// beaten.
func (r *row) rescan() {
	best := 0
	for a, v := range r.q {
		if v > r.q[best] {
			best = a
		}
	}
	r.best = best
}

// run returns action a's successors.
func (r *row) run(a int) []Succ { return r.succ[r.off[a]:r.off[a+1]] }

// clone returns a copy that shares no memory with r.
func (r *row) clone() *row {
	return &row{q: slices.Clone(r.q), n: slices.Clone(r.n), off: slices.Clone(r.off),
		succ: append([]Succ(nil), r.succ...), best: r.best}
}

// idle reports whether r holds no visits and no successors, so folding
// it into another row changes nothing.
func (r *row) idle() bool {
	return len(r.succ) == 0 && !slices.ContainsFunc(r.n, func(n int) bool { return n != 0 })
}

// blank reports whether r is idle and every Q value is +0.
func (r *row) blank() bool {
	return r.idle() && !slices.ContainsFunc(r.q, func(q float64) bool { return math.Float64bits(q) != 0 })
}

// adoptable reports whether every action r never visited holds +0 Q
// (bit for bit, so -0 does not count): then folding r into a blank row
// yields r itself, and the fold can share r instead.
func (r *row) adoptable() bool {
	for a, n := range r.n {
		if n == 0 && math.Float64bits(r.q[a]) != 0 {
			return false
		}
	}
	return true
}

// observe records one transition (·, a) -> next. Only a successor the
// action has never led to before moves data: it is inserted in state
// order and the later offsets shift by one.
func (r *row) observe(a, next int) {
	j, hi := int(r.off[a]), int(r.off[a+1])
	for j < hi && int(r.succ[j].State) < next {
		j++
	}
	if j < hi && int(r.succ[j].State) == next {
		r.succ[j].Count++
		return
	}
	r.succ = slices.Insert(r.succ, j, Succ{State: int32(next), Count: 1})
	for b := a + 1; b < len(r.off); b++ {
		r.off[b]++
	}
}

// validate checks state s's visit counts and successor runs over states
// states: counts not below zero, offsets framing succ, ascending in-range
// successors counted at least once, and per-action totals that fit an
// int. Errors name the pair s*actions+a.
func (r *row) validate(s, states int) error {
	actions := len(r.q)
	if r.off[0] != 0 || int(r.off[actions]) != len(r.succ) {
		return fmt.Errorf("rl: transition offsets do not frame state %d's %d pairs over %d successors", s, actions, len(r.succ))
	}
	for a := 0; a < actions; a++ {
		p := s*actions + a
		if r.n[a] < 0 {
			return fmt.Errorf("rl: visit count %d of pair %d negative", r.n[a], p)
		}
		if r.off[a] > r.off[a+1] || int(r.off[a+1]) > len(r.succ) {
			return fmt.Errorf("rl: transition offsets not ascending within the successors at pair %d", p)
		}
		total, prev := 0, int32(-1)
		for _, sc := range r.run(a) {
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

// combine returns the successor runs of dst plus sign*src, action by
// action, as fresh slices: one sorted merge per action. Subtracting
// (sign -1) drops successors whose count reaches zero and errors on a
// negative residual, naming pair s*actions+a. The shapes must already
// match.
func combine(dst, src *row, sign, s int) ([]int32, []Succ, error) {
	off := make([]int32, len(dst.off))
	var succ []Succ
	if n := len(dst.succ) + max(sign, 0)*len(src.succ); n > 0 {
		succ = make([]Succ, 0, n)
	}
	for a := 0; a+1 < len(off); a++ {
		x, y := dst.run(a), src.run(a)
		for len(x)+len(y) > 0 {
			var sc Succ
			switch {
			case len(y) == 0 || len(x) > 0 && x[0].State < y[0].State:
				sc, x = x[0], x[1:]
			case len(x) == 0 || y[0].State < x[0].State:
				sc, y = Succ{y[0].State, sign * y[0].Count}, y[1:]
			default:
				sc, x, y = Succ{x[0].State, x[0].Count + sign*y[0].Count}, x[1:], y[1:]
			}
			if sc.Count < 0 {
				return nil, nil, fmt.Errorf("rl: subtract transition (%d -> %d): %d counts below base", s*len(dst.q)+a, sc.State, sc.Count)
			}
			if sc.Count > 0 {
				succ = append(succ, sc)
			}
		}
		off[a+1] = int32(len(succ))
	}
	return off, succ, nil
}

// foldRow returns the count-weighted fold of src into dst (see
// Snapshot.Merge): every Q value becomes the visit-count-weighted mean of
// the two sides (one-sided visits adopt the visited value exactly, with
// no floating-point round-trip), visit counts add, and successor counts
// add. It returns dst itself when src is idle, src itself when dst is
// blank and src adoptable — both exactly the fold — and a fresh row
// otherwise.
func foldRow(dst, src *row) *row {
	switch {
	case src.idle():
		return dst
	case dst.blank() && src.adoptable():
		return src
	}
	out := &row{q: make([]float64, len(dst.q)), n: make([]int, len(dst.n))}
	for a, nd := range dst.n {
		ns := src.n[a]
		switch {
		case ns == 0:
			out.q[a] = dst.q[a]
		case nd == 0:
			out.q[a] = src.q[a]
		default:
			out.q[a] = (float64(nd)*dst.q[a] + float64(ns)*src.q[a]) / float64(nd+ns)
		}
		out.n[a] = nd + ns
	}
	out.rescan()
	out.off, out.succ, _ = combine(dst, src, 1, 0) // adding never errors
	return out
}

// subtractRow returns state s's row r less base's visit and successor
// counts, with r's Q values, as a fresh row; r itself when base is idle.
func subtractRow(r, base *row, s int) (*row, error) {
	if base.idle() {
		return r, nil
	}
	out := &row{q: r.q, n: make([]int, len(r.n)), best: r.best}
	for a, n := range r.n {
		if out.n[a] = n - base.n[a]; out.n[a] < 0 {
			return nil, fmt.Errorf("rl: subtract pair %d: %d visits below base", s*len(r.n)+a, out.n[a])
		}
	}
	var err error
	out.off, out.succ, err = combine(r, base, -1, s)
	return out, err
}

// table is the learned state of one learner, one row per state, plus the
// per-action totals Num(a). A cold table points every state at one
// shared blank row.
type table struct {
	states, actions int
	rows            []*row
	perAction       []int
	// own marks the rows this table copied and so may write in place.
	// Sharing the rows (share) clears it.
	own []bool
	// copies counts the rows write has copied.
	copies int
}

// newTable returns a cold table.
func newTable(states, actions int) *table {
	t := &table{states: states, actions: actions, rows: make([]*row, states),
		perAction: make([]int, actions), own: make([]bool, states)}
	blank := newRow(actions)
	for s := range t.rows {
		t.rows[s] = blank
	}
	return t
}

// check panics when (s,a) is out of range.
func (t *table) check(s, a int) {
	if s < 0 || s >= t.states || a < 0 || a >= t.actions {
		panic(fmt.Sprintf("rl: index (%d,%d) out of range %dx%d", s, a, t.states, t.actions))
	}
}

// read returns state s's row, panicking when (s,a) is out of range.
func (t *table) read(s, a int) *row {
	t.check(s, a)
	return t.rows[s]
}

// write returns state s's row for writing (panicking when (s,a) is out of
// range), copying it first unless the table owns it.
func (t *table) write(s, a int) *row {
	t.check(s, a)
	if !t.own[s] {
		t.rows[s] = t.rows[s].clone()
		t.own[s] = true
		t.copies++
	}
	return t.rows[s]
}

// share returns a copy of the row pointers and gives up ownership of
// every row: both sides now copy a row before writing to it.
func (t *table) share() []*row {
	clear(t.own)
	return slices.Clone(t.rows)
}
