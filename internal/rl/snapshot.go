package rl

import (
	"fmt"
	"slices"
)

// Snapshot is the exported learned state of one Learner: its config,
// one row per state (the state's Q values, Num(s,a) visit counts and
// successor counts) and the per-action totals Num(a). It is the one form
// in which a learner's state leaves it:
//
//   - Cross-session knowledge reuse: a departing transcoding session
//     exports its snapshot, snapshots fold together with count-weighted
//     averaging (Merge), and a fresh learner absorbs the accumulated
//     knowledge (Learner.Seed), so its well-observed states start past
//     exploration under the eq. (3) learning-rate thresholds. Folds and
//     seeding read only the config's States and Actions.
//   - Checkpoints: MarshalJSON and UnmarshalJSON carry the versioned
//     checkpoint wire form, and LearnerFrom rebuilds the learner.
//
// A snapshot's rows are immutable, so they are shared instead of copied:
// Learner.Snapshot, Clone, Learner.Seed and LearnerFrom cost one pointer
// per state plus the per-action totals, whatever the table size, and a
// learner copies a shared row only when it first writes to it. Merge and
// SubtractCounts make fresh rows only for the states they change. A
// Snapshot value aliases its row pointers and totals the way a slice
// does; Clone gives an independent copy. Tables reads the dense tables
// and NewSnapshot builds a snapshot from them.
type Snapshot struct {
	// Config is the learner's configuration; its States and Actions are
	// the table dimensions.
	Config    Config
	rows      []*row
	perAction []int
}

// Snapshot exports the learner's current learning state. It copies the
// row pointers and the per-action totals, not the rows: the learner
// gives up ownership of its rows and copies each again on its next write
// to it.
func (l *Learner) Snapshot() Snapshot {
	return Snapshot{Config: l.cfg, rows: l.t.share(), perAction: slices.Clone(l.t.perAction)}
}

// view returns the learner's tables as a Snapshot that aliases them, for
// reading only.
func (l *Learner) view() Snapshot {
	return Snapshot{Config: l.cfg, rows: l.t.rows, perAction: l.t.perAction}
}

// checkShape verifies the dimensions and the table sizes against them —
// the structural half of Validate, cheap enough to run on every fold.
func (sn Snapshot) checkShape() error {
	s, a := sn.Config.States, sn.Config.Actions
	if err := checkDims("snapshot", s, a); err != nil {
		return err
	}
	sized := len(sn.rows) == s && len(sn.perAction) == a
	for i := 0; sized && i < len(sn.rows); i++ {
		r := sn.rows[i]
		sized = r != nil && len(r.q) == a && len(r.n) == a && len(r.off) == a+1
	}
	if !sized {
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
	for s, r := range sn.rows {
		if err := r.validate(s, sn.Config.States); err != nil {
			return err
		}
	}
	return nil
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

// Clone returns a copy whose later folds do not reach the receiver, nor
// the receiver's the copy. It copies the row pointers and the per-action
// totals; the rows themselves are immutable and shared.
func (sn Snapshot) Clone() Snapshot {
	return Snapshot{Config: sn.Config, rows: slices.Clone(sn.rows), perAction: slices.Clone(sn.perAction)}
}

// Merge folds other into the receiver with count-weighted averaging:
// every Q(s,a) becomes the visit-count-weighted mean of the two tables'
// values, visit counts add, and transition counts add. A pair unvisited
// on both sides keeps the receiver's (zero) value. The receiver is only
// mutated after the compatibility check passes, and only at the states
// other visited or observed. Merging is exact on counts and
// deterministic on Q for a fixed fold order; callers that need
// bit-identical results across runs must fold contributions in a fixed
// order (floating-point averaging does not commute).
func (sn *Snapshot) Merge(other Snapshot) error {
	if err := sn.Compatible(other); err != nil {
		return err
	}
	for s, r := range sn.rows {
		sn.rows[s] = foldRow(r, other.rows[s])
	}
	for a := range sn.perAction {
		sn.perAction[a] += other.perAction[a]
	}
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
// seeding); a negative residual count is an error, and leaves the
// receiver unchanged.
//
// A state whose row is still base's own — one the session never wrote
// to — has no counts left, so it skips the subtraction: it keeps base's
// Q values over zero counts, and Merge passes it over.
func (sn *Snapshot) SubtractCounts(base Snapshot) error {
	if err := sn.Compatible(base); err != nil {
		return err
	}
	untouched := 0
	for s, r := range sn.rows {
		if r == base.rows[s] && !r.idle() {
			untouched++
		}
	}
	// One allocation holds every untouched state's row; they share their
	// Q values with base and one set of zero counts.
	var twins []row
	var zero *row
	if untouched > 0 {
		twins, zero = make([]row, 0, untouched), newRow(sn.Config.Actions)
	}
	rows := make([]*row, len(sn.rows))
	for s, r := range sn.rows {
		var err error
		switch b := base.rows[s]; {
		case b.idle():
			rows[s] = r
		case r == b:
			twins = append(twins, row{q: r.q, n: zero.n, off: zero.off, best: r.best})
			rows[s] = &twins[len(twins)-1]
		default:
			if rows[s], err = subtractRow(r, b, s); err != nil {
				return err
			}
		}
	}
	perAction := make([]int, len(sn.perAction))
	for a, n := range sn.perAction {
		if perAction[a] = n - base.perAction[a]; perAction[a] < 0 {
			return fmt.Errorf("rl: subtract action %d: %d visits below base", a, perAction[a])
		}
	}
	sn.rows, sn.perAction = rows, perAction
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
// A blank state of the learner takes the snapshot's row itself, shared
// until the learner's first write to it, wherever that is exactly the
// fold: when each action the row never visited holds +0 Q.
func (l *Learner) Seed(sn Snapshot) error {
	if err := l.Compatible(sn); err != nil {
		return fmt.Errorf("rl: seed: %w", err)
	}
	t := l.t
	for s, r := range t.rows {
		if f := foldRow(r, sn.rows[s]); f != r {
			t.rows[s], t.own[s] = f, f != sn.rows[s]
		}
	}
	for a := range t.perAction {
		t.perAction[a] += sn.perAction[a]
	}
	return nil
}
