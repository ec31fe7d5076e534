package serve

import (
	"fmt"

	"mamut/internal/core"
	"mamut/internal/rl"
	"mamut/internal/video"
)

// KnowledgeStore is the per-resolution-class shared knowledge base of a
// serving fleet — cross-session knowledge reuse in the KaaS regime: the
// store accumulates the learned state of departing MAMUT sessions and
// seeds every new admission from it, so short-lived sessions start warm
// instead of re-exploring a platform the service has already learned.
//
// Determinism is the design centerpiece. Contributions fold into the
// store in a fixed order: at each decision instant of the run's timeline
// the dispatcher collects the departures every engine surfaced while
// being stepped to that instant, sorts them by arrival ID and folds them
// before the decision, so the snapshot a new session is seeded
// from depends only on (workload, seed) — never on server iteration
// order or the worker pool. Departures during the post-arrival drain
// phase are deliberately not folded: no admission can observe them, and
// skipping them keeps the drain embarrassingly parallel, so mamut-serve
// output stays byte-identical for any -workers count.
//
// Warm-started sessions contribute deltas: at harvest the snapshot the
// session was seeded from is subtracted (counts only — the session's
// final Q estimates are kept, weighted by its own visits), so the pool's
// mass grows linearly with genuinely gathered experience instead of
// re-compounding the seed every generation.
//
// The store is not safe for concurrent use: the dispatcher only touches
// it from the sequential interleaved phase.
type KnowledgeStore struct {
	byRes         map[video.Resolution]*core.Snapshot
	contributions map[video.Resolution]int
}

// NewKnowledgeStore returns an empty store.
func NewKnowledgeStore() *KnowledgeStore {
	return &KnowledgeStore{
		byRes:         make(map[video.Resolution]*core.Snapshot),
		contributions: make(map[video.Resolution]int),
	}
}

// Contribute folds one departed session's snapshot into the class's
// accumulated knowledge with count-weighted averaging. The first
// contribution of a class adopts the snapshot, keeping of each agent's
// config only the table dimensions, as the exported artifact does; later
// contributions must match those dimensions. The store keeps its own
// copy — the caller may keep using its own — and makes fresh rows only
// for the states the contribution visited.
func (ks *KnowledgeStore) Contribute(res video.Resolution, snap core.Snapshot) error {
	if err := snap.Validate(); err != nil {
		return err
	}
	if cur := ks.byRes[res]; cur != nil {
		if err := cur.Merge(snap); err != nil {
			return fmt.Errorf("serve: knowledge contribution for %s: %w", res, err)
		}
	} else {
		cp := snap.Clone()
		for k, ag := range cp {
			cp[k].Config = rl.Config{States: ag.Config.States, Actions: ag.Config.Actions}
		}
		ks.byRes[res] = &cp
	}
	ks.contributions[res]++
	return nil
}

// Seed returns the accumulated snapshot for a resolution class, or nil
// when no session of that class has contributed yet (cold start). The
// returned snapshot is owned by the store and changes with every later
// contribution: read it, or Clone it to keep a frozen copy — a clone
// costs one pointer per state and shares the immutable rows, and
// core.Controller.Seed seeds a controller from it by sharing those rows
// too.
func (ks *KnowledgeStore) Seed(res video.Resolution) *core.Snapshot {
	return ks.byRes[res]
}

// Contributions reports how many sessions of a class have been folded in.
func (ks *KnowledgeStore) Contributions(res video.Resolution) int {
	return ks.contributions[res]
}

// knowledge is a run's knowledge-reuse state (nil when reuse is off):
// the store and the warm-start count.
type knowledge struct {
	store  *KnowledgeStore
	seeded int
}

// newKnowledge starts a run's knowledge state from a copy of the
// imported store (nil = empty). The copy keeps the run from mutating the
// caller's store; the run's final store is handed back via
// Result.Knowledge.
func newKnowledge(imported *KnowledgeStore) *knowledge {
	if imported != nil {
		return &knowledge{store: imported.clone()}
	}
	return &knowledge{store: NewKnowledgeStore()}
}

// seed picks the knowledge seed for one admission of class res (nil when
// knowledge reuse is off or the class is still cold). The store keeps
// merging afterwards, so the admission needs a frozen copy of the class's
// current snapshot, which serves both as the controller's seed
// (core.Controller.Seed) and as the baseline its departing contribution
// is measured against. The copy is a clone — three times 180 row pointers,
// whatever the store holds — whose rows the controller shares until it
// writes to them.
func (k *knowledge) seed(res video.Resolution) *core.Snapshot {
	if k == nil {
		return nil
	}
	cur := k.store.Seed(res)
	if cur == nil {
		return nil
	}
	k.seeded++
	cp := cur.Clone()
	return &cp
}

// harvest contributes a departed session's learned state to the store
// (a no-op for sessions without a harvest identity): its final Q
// estimates, weighted by the visits it made itself, not by the recycled
// seed mass. The departed controller's snapshot shares its rows; every
// state it never wrote to still holds the seed's own row, which the
// subtraction leaves without counts and the fold passes over, so the
// store makes fresh rows only for the states the session visited.
func (k *knowledge) harvest(rec residentRec) error {
	if rec.ctrl == nil {
		return nil
	}
	snap := rec.ctrl.Snapshot()
	if rec.seeded != nil {
		if err := snap.SubtractCounts(*rec.seeded); err != nil {
			return err
		}
	}
	return k.store.Contribute(rec.res, snap)
}

// report fills the result's knowledge fields (reuse on only).
func (k *knowledge) report(res *Result) {
	if k == nil {
		return
	}
	res.KnowledgeContributions = k.store.Contributions(video.HR) + k.store.Contributions(video.LR)
	res.KnowledgeSeeded = k.seeded
	res.Knowledge = k.store
}
