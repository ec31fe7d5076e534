package core

import (
	"fmt"

	"mamut/internal/rl"
)

// Snapshot is the exported learned state of one MAMUT controller: one
// rl.Snapshot per agent, indexed by AgentKind. It is the unit of
// cross-session knowledge reuse (the KaaS regime): departing sessions
// export snapshots, a knowledge base folds them together with Merge, and
// Controller.Seed warm-starts fresh controllers from the accumulated
// state so well-observed states start past exploration. It is also the
// agents of a ResumeState, where it encodes as a JSON array of three
// checkpoint learners.
type Snapshot [3]rl.Snapshot

// Snapshot exports the controller's current learning state: one pointer
// per state and agent, sharing the immutable rows (see rl.Snapshot). A
// pending (not yet finalized) Q-update is not included — for a
// departed session that is at most one in-flight action; ResumeState
// carries it.
func (c *Controller) Snapshot() Snapshot {
	var sn Snapshot
	for k := AgentQP; k < numAgents; k++ {
		sn[k] = c.agents[k].learner.Snapshot()
	}
	return sn
}

// Validate reports whether all three agent snapshots are structurally
// sound.
func (sn Snapshot) Validate() error {
	for k := AgentQP; k < numAgents; k++ {
		if err := sn[k].Validate(); err != nil {
			return fmt.Errorf("core: snapshot agent %v: %w", k, err)
		}
	}
	return nil
}

// Clone returns a copy whose later folds do not reach the receiver, nor
// the receiver's the copy (see rl.Snapshot.Clone).
func (sn Snapshot) Clone() Snapshot {
	var cp Snapshot
	for k := AgentQP; k < numAgents; k++ {
		cp[k] = sn[k].Clone()
	}
	return cp
}

// Merge folds other into the receiver agent-wise with count-weighted
// averaging (see rl.Snapshot.Merge). Every agent's compatibility is
// checked before any agent is mutated, so a failed merge leaves the
// receiver untouched. Merging is deterministic for a fixed fold order;
// callers needing bit-identical results must fold contributions in a
// fixed order.
func (sn *Snapshot) Merge(other Snapshot) error {
	return sn.fold("merge", other, (*rl.Snapshot).Merge)
}

// SubtractCounts removes base's visit and transition counts agent-wise,
// leaving the Q values untouched (see rl.Snapshot.SubtractCounts): it
// reduces a departing warm-started session's snapshot to the session's
// own experience, excluding the seeded mass. Compatibility is checked
// for every agent before any agent is mutated.
func (sn *Snapshot) SubtractCounts(base Snapshot) error {
	return sn.fold("subtract", base, (*rl.Snapshot).SubtractCounts)
}

// fold applies f to each agent of the receiver and of other once every
// agent pair has passed rl.Snapshot.Compatible.
func (sn *Snapshot) fold(what string, other Snapshot, f func(*rl.Snapshot, rl.Snapshot) error) error {
	for k := AgentQP; k < numAgents; k++ {
		if err := sn[k].Compatible(other[k]); err != nil {
			return fmt.Errorf("core: %s agent %v: %w", what, k, err)
		}
	}
	for k := AgentQP; k < numAgents; k++ {
		if err := f(&sn[k], other[k]); err != nil {
			return fmt.Errorf("core: %s agent %v: %w", what, k, err)
		}
	}
	return nil
}

// Seed warm-starts the controller from a knowledge snapshot before its
// first frame, folding each agent's snapshot into its learner
// (rl.Learner.Seed). The eq. (3) learning-rate/phase machinery then
// takes over: states whose folded visit counts push every action's
// alpha below the thresholds start directly in explore-exploit or
// exploitation, skipping the random exploration a cold-started session
// would spend most of a short lifetime in. The snapshot's table
// dimensions must match the configuration's action sets; only they are
// read from its configs, so an imported snapshot whose configs carry
// nothing else seeds like an exported one. Every agent is checked before
// any is seeded, so a failed Seed leaves the controller untouched.
//
// Seeding copies no table: each agent shares the snapshot's immutable
// rows — exactly the fold wherever every action a row never visited
// holds +0 Q, and any other row is folded into a copy — and copies a row
// only on its first write to that state, so a warm session pays for the
// states it visits, not for the store's size.
func (c *Controller) Seed(snap Snapshot) error {
	for k := AgentQP; k < numAgents; k++ {
		if err := c.agents[k].learner.Compatible(snap[k]); err != nil {
			return fmt.Errorf("core: warm start agent %v: %w", k, err)
		}
	}
	for k := AgentQP; k < numAgents; k++ {
		if err := c.agents[k].learner.Seed(snap[k]); err != nil {
			return fmt.Errorf("core: warm start agent %v: %w", k, err)
		}
	}
	return nil
}
