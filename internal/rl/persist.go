package rl

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// learnerFormatVersion is the current on-disk learner format. Loaders
// accept this version and older — version 0 is the legacy unversioned
// format, identical to version 1 apart from the missing field — while
// payloads from a newer writer error cleanly instead of being
// misinterpreted.
const learnerFormatVersion = 1

// LearnerState is the serialised form of a Learner. Callers that embed
// it in a larger JSON document marshal it in the same pass as their own
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
	// Transitions is the transition model. On the wire it is the list of
	// observed (state, action, next, count) tuples in ascending (state,
	// action, next) order, so equal learners serialise to equal bytes.
	Transitions Model `json:"-"`
}

// learnerWire is LearnerState's JSON form: the model as tuples.
type learnerWire struct {
	learnerFields
	Transitions [][4]int `json:"transitions"`
}

// learnerFields is LearnerState without its JSON methods.
type learnerFields LearnerState

// MarshalJSON writes the state with its model as tuples; an empty model
// writes null.
func (st LearnerState) MarshalJSON() ([]byte, error) {
	w := learnerWire{learnerFields: learnerFields(st)}
	if len(st.Transitions.Succ) > 0 {
		w.Transitions = make([][4]int, 0, len(st.Transitions.Succ))
	}
	for p := 0; p+1 < len(st.Transitions.Off); p++ {
		for _, sc := range st.Transitions.run(p) {
			w.Transitions = append(w.Transitions, [4]int{p / st.Config.Actions, p % st.Config.Actions, int(sc.State), sc.Count})
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON reads the tuple form in any order, summing repeated
// (state, action, next) tuples. Each tuple must lie inside the config's
// tables and count at least once.
func (st *LearnerState) UnmarshalJSON(b []byte) error {
	var w learnerWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*st = LearnerState(w.learnerFields)
	cfg, ts, m := w.Config, w.Transitions, &st.Transitions
	if cfg.States*cfg.Actions != len(w.Q) {
		return nil // LearnerFromState rejects the table sizes
	}
	m.Off = make([]int32, len(w.Q)+1)
	sort.Slice(ts, func(i, j int) bool {
		x, y := ts[i], ts[j]
		return x[0] < y[0] || x[0] == y[0] && (x[1] < y[1] || x[1] == y[1] && x[2] < y[2])
	})
	for i, t := range ts {
		switch n := len(m.Succ) - 1; {
		case t[0] < 0 || t[0] >= cfg.States || t[1] < 0 || t[1] >= cfg.Actions ||
			t[2] < 0 || t[2] >= cfg.States || t[3] < 1:
			return fmt.Errorf("rl: learner state: invalid transition tuple %v", t)
		case i == 0 || [3]int(ts[i-1][:3]) != [3]int(t[:3]):
			m.Succ = append(m.Succ, Succ{int32(t[2]), t[3]})
			m.Off[t[0]*cfg.Actions+t[1]+1]++
		case m.Succ[n].Count > math.MaxInt-t[3]:
			return fmt.Errorf("rl: learner state: transition count overflows at tuple %v", t)
		default:
			m.Succ[n].Count += t[3]
		}
	}
	for p := 1; p < len(m.Off); p++ {
		m.Off[p] += m.Off[p-1]
	}
	return nil
}

// State exports a deep copy of the learner's complete learning state
// (Q-table, visit counts, transition model). LearnerFromState is the
// inverse.
func (l *Learner) State() LearnerState {
	sn := l.Snapshot()
	return LearnerState{Version: learnerFormatVersion, Config: l.cfg,
		Q: sn.Q, VisitsSA: sn.VisitsSA, VisitsAction: sn.VisitsAction, Transitions: sn.Trans}
}

// LearnerFromState rebuilds a learner from a State export, validating
// the version, the table sizes and the transition model. The restored
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
	if err := st.Transitions.validate(n, st.Config.States); err != nil {
		return nil, fmt.Errorf("rl: learner state: %w", err)
	}
	copy(l.Q.q, st.Q)
	copy(l.Visits.sa, st.VisitsSA)
	copy(l.Visits.perAction, st.VisitsAction)
	l.Trans.m = st.Transitions.clone()
	return l, nil
}
