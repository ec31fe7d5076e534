package rl

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
)

// learnerFormatVersion is the current checkpoint format of a Snapshot.
// Loaders accept this version and older — version 0 is the legacy
// unversioned format, identical to version 1 apart from the missing
// field — while payloads from a newer writer error cleanly instead of
// being misinterpreted.
const learnerFormatVersion = 1

// Tables is a snapshot's learned state in dense form, the form its
// codecs write: row-major [state][action] tables and the transition
// counts as tuples.
type Tables struct {
	Q            []float64
	VisitsSA     []int
	VisitsAction []int
	// Transitions lists (state, action, next, count) for every observed
	// transition.
	Transitions [][4]int
}

// Tables returns the snapshot's tables in dense form, as fresh slices,
// with the transitions in ascending (state, action, next) order (nil
// when there are none).
func (sn Snapshot) Tables() Tables {
	t := Tables{VisitsAction: slices.Clone(sn.perAction)}
	if len(sn.rows) == 0 {
		return t
	}
	pairs, succ := len(sn.rows)*sn.Config.Actions, 0
	t.Q, t.VisitsSA = make([]float64, 0, pairs), make([]int, 0, pairs)
	for _, r := range sn.rows {
		succ += len(r.succ)
	}
	if succ > 0 {
		t.Transitions = make([][4]int, 0, succ)
	}
	for s, r := range sn.rows {
		t.Q = append(t.Q, r.q...)
		t.VisitsSA = append(t.VisitsSA, r.n...)
		for a := range r.q {
			for _, sc := range r.run(a) {
				t.Transitions = append(t.Transitions, [4]int{s, a, int(sc.State), sc.Count})
			}
		}
	}
	return t
}

// NewSnapshot builds a snapshot from dense tables. The dimensions and
// table sizes are checked before anything sized by them is allocated;
// the tuples may come in any order (t.Transitions is sorted in place),
// repeated (state, action, next) tuples sum, and each must lie inside the
// tables and count at least once. The snapshot keeps t's slices as its
// storage, so the caller must not modify them afterwards. The config's
// learning parameters are checked by LearnerFrom.
func NewSnapshot(cfg Config, t Tables) (Snapshot, error) {
	states, actions := cfg.States, cfg.Actions
	if err := checkDims("snapshot", states, actions); err != nil {
		return Snapshot{}, err
	}
	if len(t.Q) != states*actions || len(t.VisitsSA) != states*actions || len(t.VisitsAction) != actions {
		return Snapshot{}, fmt.Errorf("rl: snapshot table sizes do not match dimensions %dx%d", states, actions)
	}
	ts := t.Transitions
	byKey := func(x, y [4]int) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]), cmp.Compare(x[2], y[2]))
	}
	if !slices.IsSortedFunc(ts, byKey) {
		slices.SortFunc(ts, byKey)
	}
	// off holds every row's successor offsets, counted per pair first;
	// succ every successor, row after row.
	off := make([]int32, states*(actions+1))
	var succ []Succ
	if len(ts) > 0 {
		succ = make([]Succ, 0, len(ts))
	}
	for i, tu := range ts {
		switch n := len(succ) - 1; {
		case tu[0] < 0 || tu[0] >= states || tu[1] < 0 || tu[1] >= actions ||
			tu[2] < 0 || tu[2] >= states || tu[3] < 1:
			return Snapshot{}, fmt.Errorf("rl: snapshot: invalid transition tuple %v", tu)
		case i == 0 || byKey(ts[i-1], tu) != 0:
			succ = append(succ, Succ{int32(tu[2]), tu[3]})
			off[tu[0]*(actions+1)+tu[1]+1]++
		case succ[n].Count > math.MaxInt-tu[3]:
			return Snapshot{}, fmt.Errorf("rl: snapshot: transition count overflows at tuple %v", tu)
		default:
			succ[n].Count += tu[3]
		}
	}
	sn := Snapshot{Config: cfg, rows: make([]*row, states), perAction: t.VisitsAction}
	rows := make([]row, states)
	for s, lo := 0, 0; s < states; s++ {
		o := off[s*(actions+1) : (s+1)*(actions+1) : (s+1)*(actions+1)]
		for a := 1; a <= actions; a++ {
			o[a] += o[a-1]
		}
		r := &rows[s]
		r.q = t.Q[s*actions : (s+1)*actions : (s+1)*actions]
		r.rescan()
		r.n = t.VisitsSA[s*actions : (s+1)*actions : (s+1)*actions]
		r.off = o
		if hi := lo + int(o[actions]); hi > lo {
			r.succ, lo = succ[lo:hi:hi], hi
		}
		sn.rows[s] = r
	}
	return sn, nil
}

// snapshotWire is Snapshot's checkpoint form: the version stamp, the
// config, the dense tables, and the transition counts as (state, action,
// next, count) tuples.
type snapshotWire struct {
	Version      int       `json:"format_version"`
	Config       Config    `json:"config"`
	Q            []float64 `json:"q"`
	VisitsSA     []int     `json:"visits_sa"`
	VisitsAction []int     `json:"visits_action"`
	Transitions  [][4]int  `json:"transitions"`
}

// MarshalJSON writes the checkpoint form stamped with the current
// version. The tuples run in ascending (state, action, next) order, so
// equal snapshots serialise to equal bytes; an empty model writes null.
func (sn Snapshot) MarshalJSON() ([]byte, error) {
	t := sn.Tables()
	return json.Marshal(snapshotWire{Version: learnerFormatVersion, Config: sn.Config,
		Q: t.Q, VisitsSA: t.VisitsSA, VisitsAction: t.VisitsAction, Transitions: t.Transitions})
}

// UnmarshalJSON reads the checkpoint form of any supported version and
// builds the snapshot with NewSnapshot.
func (sn *Snapshot) UnmarshalJSON(b []byte) error {
	var w snapshotWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if w.Version < 0 || w.Version > learnerFormatVersion {
		return fmt.Errorf("rl: snapshot: format version %d not supported (current %d)",
			w.Version, learnerFormatVersion)
	}
	out, err := NewSnapshot(w.Config, Tables{Q: w.Q, VisitsSA: w.VisitsSA, VisitsAction: w.VisitsAction,
		Transitions: w.Transitions})
	if err != nil {
		return err
	}
	*sn = out
	return nil
}

// LearnerFrom rebuilds a learner from a snapshot, the inverse of
// Learner.Snapshot: the rebuilt learner is behaviourally identical to
// the exported one. It shares the snapshot's immutable rows and copies
// each on its first write to it, so nothing it learns reaches sn. The
// snapshot's shape and model are validated before anything is
// allocated, so tables are only ever sized like the snapshot's own;
// NewLearner then validates the config.
func LearnerFrom(sn Snapshot) (*Learner, error) {
	if err := sn.Validate(); err != nil {
		return nil, err
	}
	l, err := NewLearner(sn.Config)
	if err != nil {
		return nil, err
	}
	copy(l.t.rows, sn.rows)
	copy(l.t.perAction, sn.perAction)
	return l, nil
}
