package rl

import "fmt"

// Snapshot is the exported learned state of one Learner: its config, the
// Q-table, the Num(s,a) visit counts and the empirical transition
// counts. It is the one form in which a learner's state leaves it:
//
//   - Cross-session knowledge reuse: a departing transcoding session
//     exports its snapshot, snapshots fold together with count-weighted
//     averaging (Merge), and a fresh learner absorbs the accumulated
//     knowledge (Learner.Seed), so its well-observed states start past
//     exploration under the eq. (3) learning-rate thresholds. Folds and
//     seeding read only the config's States and Actions.
//   - Checkpoints: MarshalJSON and UnmarshalJSON carry the versioned
//     checkpoint wire form, and LearnerFrom rebuilds the learner.
type Snapshot struct {
	// Config is the learner's configuration; its States and Actions are
	// the table dimensions.
	Config Config
	// Q is the dense Q-table, row-major [state][action].
	Q []float64
	// VisitsSA is the dense Num(s,a) table; VisitsAction the per-action
	// totals Num(a).
	VisitsSA     []int
	VisitsAction []int
	// Trans holds the transition counts.
	Trans Model
}

// Snapshot exports a deep copy of the learner's current learning state.
func (l *Learner) Snapshot() Snapshot { return l.view().Clone() }

// view returns the learner's tables as a Snapshot that aliases them.
func (l *Learner) view() Snapshot {
	return Snapshot{Config: l.cfg,
		Q: l.Q.q, VisitsSA: l.Visits.sa, VisitsAction: l.Visits.perAction, Trans: l.Trans.m}
}

// checkShape verifies the dimensions and the table sizes against them —
// the O(1) structural half of Validate, cheap enough to run on every
// fold.
func (sn Snapshot) checkShape() error {
	s, a := sn.Config.States, sn.Config.Actions
	if err := checkDims("snapshot", s, a); err != nil {
		return err
	}
	n := s * a
	if len(sn.Q) != n || len(sn.VisitsSA) != n || len(sn.VisitsAction) != a || len(sn.Trans.Off) != n+1 {
		return fmt.Errorf("rl: snapshot table sizes do not match dimensions %dx%d", s, a)
	}
	return nil
}

// Validate reports whether the snapshot is structurally sound, including
// a full scan of the transition counts. Snapshots produced by
// Learner.Snapshot are valid by construction; snapshots crossing a trust
// boundary (deserialised, externally assembled) are validated before
// use (LearnerFrom, the knowledge importer) — the fold operations
// themselves only re-check shape and dimensions.
func (sn Snapshot) Validate() error {
	if err := sn.checkShape(); err != nil {
		return err
	}
	return sn.Trans.validate(len(sn.Q), sn.Config.States)
}

// Compatible reports whether other has the receiver's shape and
// dimensions, i.e. whether the two snapshots can fold together. It never
// mutates either side, so callers folding multi-part state (e.g. one
// snapshot per agent) can pre-check every part before mutating any.
func (sn Snapshot) Compatible(other Snapshot) error {
	if err := sn.checkShape(); err != nil {
		return err
	}
	if err := other.checkShape(); err != nil {
		return err
	}
	if s, o := sn.Config, other.Config; s.States != o.States || s.Actions != o.Actions {
		return fmt.Errorf("rl: snapshot dimensions %dx%d vs %dx%d", s.States, s.Actions, o.States, o.Actions)
	}
	return nil
}

// Clone returns a deep copy of the snapshot.
func (sn Snapshot) Clone() Snapshot {
	return Snapshot{
		Config:       sn.Config,
		Q:            append([]float64(nil), sn.Q...),
		VisitsSA:     append([]int(nil), sn.VisitsSA...),
		VisitsAction: append([]int(nil), sn.VisitsAction...),
		Trans:        sn.Trans.clone(),
	}
}

// foldFrom applies the count-weighted fold of src into dst's tables and
// returns the summed transition model: every Q value becomes the
// visit-count-weighted mean of the two sides (one-sided visits adopt the
// visited value exactly, with no floating-point round-trip), visit counts
// add, and transition counts add in one sorted merge per pair. The shapes
// must already be checked.
func foldFrom(dst, src Snapshot) Model {
	q, visitsSA := dst.Q, dst.VisitsSA
	for i := range q {
		nd, ns := visitsSA[i], src.VisitsSA[i]
		switch {
		case ns == 0:
		case nd == 0:
			q[i] = src.Q[i]
		default:
			q[i] = (float64(nd)*q[i] + float64(ns)*src.Q[i]) / float64(nd+ns)
		}
		visitsSA[i] = nd + ns
	}
	for a := range dst.VisitsAction {
		dst.VisitsAction[a] += src.VisitsAction[a]
	}
	sum, _ := combine(dst.Trans, src.Trans, 1) // adding never errors
	return sum
}

// Merge folds other into the receiver with count-weighted averaging:
// every Q(s,a) becomes the visit-count-weighted mean of the two tables'
// values, visit counts add, and transition counts add. A pair unvisited
// on both sides keeps the receiver's (zero) value. The receiver is only
// mutated after the compatibility check passes. Merging is exact on
// counts and deterministic on Q for a fixed fold order; callers that
// need bit-identical results across runs must fold contributions in a
// fixed order (floating-point averaging does not commute).
func (sn *Snapshot) Merge(other Snapshot) error {
	if err := sn.Compatible(other); err != nil {
		return err
	}
	sn.Trans = foldFrom(*sn, other)
	return nil
}

// SubtractCounts removes base's visit and transition counts from the
// snapshot, leaving the Q values untouched. This turns a departing
// warm-started session's snapshot into its own *contribution*: the
// session's final Q estimates weighted by only the experience it
// gathered itself, excluding the mass it was seeded with — re-merging
// the seed's counts on every departure would double the shared pool per
// generation (exponential growth, eventually overflowing the counts)
// and drown new experience under recycled old mass. base must be a
// prefix of the snapshot's history (counts can only have grown since
// seeding); a negative residual count is an error.
func (sn *Snapshot) SubtractCounts(base Snapshot) error {
	if err := sn.Compatible(base); err != nil {
		return err
	}
	for i := range sn.VisitsSA {
		if sn.VisitsSA[i] -= base.VisitsSA[i]; sn.VisitsSA[i] < 0 {
			return fmt.Errorf("rl: subtract pair %d: %d visits below base", i, sn.VisitsSA[i])
		}
	}
	for a := range sn.VisitsAction {
		if sn.VisitsAction[a] -= base.VisitsAction[a]; sn.VisitsAction[a] < 0 {
			return fmt.Errorf("rl: subtract action %d: %d visits below base", a, sn.VisitsAction[a])
		}
	}
	delta, err := combine(sn.Trans, base.Trans, -1)
	if err != nil {
		return err
	}
	sn.Trans = delta
	return nil
}

// Compatible reports whether sn has a sound shape and the learner's
// dimensions: whether Seed can fold it, or a learner rebuilt from it can
// take this one's place.
func (l *Learner) Compatible(sn Snapshot) error { return l.view().Compatible(sn) }

// Seed folds a snapshot into the learner with the same count-weighted
// averaging as Snapshot.Merge. On a fresh (zero-count) learner this
// installs the snapshot verbatim, so states the snapshot has explored
// past the alpha thresholds start directly in the later learning phases;
// on a partially trained learner the two states average by visit weight.
func (l *Learner) Seed(sn Snapshot) error {
	if err := l.Compatible(sn); err != nil {
		return fmt.Errorf("rl: seed: %w", err)
	}
	l.Trans.m = foldFrom(l.view(), sn)
	return nil
}
