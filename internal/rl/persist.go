package rl

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// learnerFormatVersion is the current checkpoint format of a Snapshot.
// Loaders accept this version and older — version 0 is the legacy
// unversioned format, identical to version 1 apart from the missing
// field — while payloads from a newer writer error cleanly instead of
// being misinterpreted.
const learnerFormatVersion = 1

// snapshotWire is Snapshot's checkpoint form: the version stamp, the
// config, the dense tables, and the model as (state, action, next,
// count) tuples.
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
	w := snapshotWire{Version: learnerFormatVersion, Config: sn.Config,
		Q: sn.Q, VisitsSA: sn.VisitsSA, VisitsAction: sn.VisitsAction}
	if len(sn.Trans.Succ) > 0 {
		w.Transitions = make([][4]int, 0, len(sn.Trans.Succ))
	}
	for p := 0; p+1 < len(sn.Trans.Off); p++ {
		for _, sc := range sn.Trans.run(p) {
			w.Transitions = append(w.Transitions, [4]int{p / sn.Config.Actions, p % sn.Config.Actions, int(sc.State), sc.Count})
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON reads the checkpoint form of any supported version. The
// dimensions and table sizes are checked before the model is built;
// the tuples may come in any order, repeated (state, action, next)
// tuples sum, and each must lie inside the tables and count at least
// once. The config's learning parameters are checked by LearnerFrom.
func (sn *Snapshot) UnmarshalJSON(b []byte) error {
	var w snapshotWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if w.Version < 0 || w.Version > learnerFormatVersion {
		return fmt.Errorf("rl: snapshot: format version %d not supported (current %d)",
			w.Version, learnerFormatVersion)
	}
	out := Snapshot{Config: w.Config, Q: w.Q, VisitsSA: w.VisitsSA, VisitsAction: w.VisitsAction,
		Trans: Model{Off: make([]int32, len(w.Q)+1)}}
	if err := out.checkShape(); err != nil {
		return err
	}
	cfg, ts, m := w.Config, w.Transitions, &out.Trans
	sort.Slice(ts, func(i, j int) bool {
		x, y := ts[i], ts[j]
		return x[0] < y[0] || x[0] == y[0] && (x[1] < y[1] || x[1] == y[1] && x[2] < y[2])
	})
	for i, t := range ts {
		switch n := len(m.Succ) - 1; {
		case t[0] < 0 || t[0] >= cfg.States || t[1] < 0 || t[1] >= cfg.Actions ||
			t[2] < 0 || t[2] >= cfg.States || t[3] < 1:
			return fmt.Errorf("rl: snapshot: invalid transition tuple %v", t)
		case i == 0 || [3]int(ts[i-1][:3]) != [3]int(t[:3]):
			m.Succ = append(m.Succ, Succ{int32(t[2]), t[3]})
			m.Off[t[0]*cfg.Actions+t[1]+1]++
		case m.Succ[n].Count > math.MaxInt-t[3]:
			return fmt.Errorf("rl: snapshot: transition count overflows at tuple %v", t)
		default:
			m.Succ[n].Count += t[3]
		}
	}
	for p := 1; p < len(m.Off); p++ {
		m.Off[p] += m.Off[p-1]
	}
	*sn = out
	return nil
}

// LearnerFrom rebuilds a learner from a snapshot, the inverse of
// Learner.Snapshot: the rebuilt learner is behaviourally identical to
// the exported one and shares no memory with sn. The snapshot's shape
// and model are validated before anything is allocated, so tables are
// only ever sized like the snapshot's own; NewLearner then validates the
// config.
func LearnerFrom(sn Snapshot) (*Learner, error) {
	if err := sn.Validate(); err != nil {
		return nil, err
	}
	l, err := NewLearner(sn.Config)
	if err != nil {
		return nil, err
	}
	copy(l.Q.q, sn.Q)
	copy(l.Visits.sa, sn.VisitsSA)
	copy(l.Visits.perAction, sn.VisitsAction)
	l.Trans.m = sn.Trans.clone()
	return l, nil
}
