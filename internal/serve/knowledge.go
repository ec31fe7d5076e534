package serve

import (
	"fmt"

	"mamut/internal/core"
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
// contribution of a class adopts the snapshot; later ones must match its
// table dimensions. The snapshot is copied — the caller may keep using
// its own.
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
		ks.byRes[res] = &cp
	}
	ks.contributions[res]++
	return nil
}

// Seed returns the accumulated snapshot for a resolution class, or nil
// when no session of that class has contributed yet (cold start). The
// returned snapshot is owned by the store: read it (core.NewWarm copies
// while seeding), do not mutate or retain it.
func (ks *KnowledgeStore) Seed(res video.Resolution) *core.Snapshot {
	return ks.byRes[res]
}

// Contributions reports how many sessions of a class have been folded in.
func (ks *KnowledgeStore) Contributions(res video.Resolution) int {
	return ks.contributions[res]
}
