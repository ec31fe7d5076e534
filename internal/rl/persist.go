package rl

import (
	"fmt"
	"math"
)

// learnerFormatVersion is the current on-disk learner format. Loaders
// accept this version and older — version 0 is the legacy unversioned
// format, identical to version 1 apart from the missing field — while
// payloads from a newer writer error cleanly instead of being
// misinterpreted.
const learnerFormatVersion = 1

// LearnerState is the serialised form of a Learner. Transition counts are
// stored sparsely: only observed (s,a,s') triples. Callers that embed it
// in a larger JSON document marshal it in the same pass as their own
// fields instead of nesting pre-encoded bytes.
type LearnerState struct {
	Version int    `json:"format_version"`
	Config  Config `json:"config"`
	// Q is the dense Q-table, row-major [state][action].
	Q []float64 `json:"q"`
	// VisitsSA is the dense Num(s,a) table; VisitsAction the per-action
	// totals.
	VisitsSA     []int `json:"visits_sa"`
	VisitsAction []int `json:"visits_action"`
	// Transitions lists observed (state, action, next, count) tuples in
	// ascending (state, action, next) order, so equal learners serialise
	// to equal bytes.
	Transitions [][4]int `json:"transitions"`
}

// State exports a deep copy of the learner's complete learning state
// (Q-table, visit counts, transition model). LearnerFromState is the
// inverse.
func (l *Learner) State() LearnerState {
	st := LearnerState{
		Version:      learnerFormatVersion,
		Config:       l.cfg,
		Q:            append([]float64(nil), l.Q.q...),
		VisitsSA:     append([]int(nil), l.Visits.sa...),
		VisitsAction: append([]int(nil), l.Visits.perAction...),
	}
	n := 0
	for _, m := range l.Trans.counts {
		n += len(m)
	}
	if n > 0 { // an empty model stays nil and encodes as null
		st.Transitions = make([][4]int, 0, n)
	}
	var keys []int
	for s := 0; s < l.cfg.States; s++ {
		for a := 0; a < l.cfg.Actions; a++ {
			m := l.Trans.counts[l.Trans.idx(s, a)]
			if len(m) == 0 {
				continue
			}
			keys = keys[:0]
			for next := range m {
				keys = append(keys, next)
			}
			sortInts(keys)
			for _, next := range keys {
				st.Transitions = append(st.Transitions, [4]int{s, a, next, m[next]})
			}
		}
	}
	return st
}

// LearnerFromState rebuilds a learner from a State export, validating
// the version, the table sizes and every transition tuple. The restored
// learner is behaviourally identical to the exported one.
func LearnerFromState(st LearnerState) (*Learner, error) {
	if st.Version < 0 || st.Version > learnerFormatVersion {
		return nil, fmt.Errorf("rl: learner state: format version %d not supported (current %d)",
			st.Version, learnerFormatVersion)
	}
	l, err := NewLearner(st.Config)
	if err != nil {
		return nil, fmt.Errorf("rl: learner state: %w", err)
	}
	n := st.Config.States * st.Config.Actions
	if len(st.Q) != n || len(st.VisitsSA) != n || len(st.VisitsAction) != st.Config.Actions {
		return nil, fmt.Errorf("rl: learner state: table sizes do not match config %dx%d",
			st.Config.States, st.Config.Actions)
	}
	copy(l.Q.q, st.Q)
	copy(l.Visits.sa, st.VisitsSA)
	copy(l.Visits.perAction, st.VisitsAction)
	tr := l.Trans
	for _, t := range st.Transitions {
		s, a, next, count := t[0], t[1], t[2], t[3]
		if s < 0 || s >= st.Config.States || a < 0 || a >= st.Config.Actions ||
			next < 0 || next >= st.Config.States || count < 1 {
			return nil, fmt.Errorf("rl: learner state: invalid transition tuple %v", t)
		}
		i := tr.idx(s, a)
		if tr.totals[i] > math.MaxInt-count {
			return nil, fmt.Errorf("rl: learner state: transition count of (%d,%d) overflows at tuple %v", s, a, t)
		}
		if tr.counts[i] == nil {
			tr.counts[i] = make(map[int]int)
		}
		tr.counts[i][next] += count
		tr.totals[i] += count
	}
	return l, nil
}
