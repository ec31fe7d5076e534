package rl

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// trainedLearner builds a learner and drives a deterministic stream of
// updates through it.
func trainedSmallLearner(t testing.TB, seed int64, steps int) *Learner {
	t.Helper()
	l, err := NewLearner(DefaultConfig(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	s := 0
	for i := 0; i < steps; i++ {
		a := rng.Intn(3)
		next := rng.Intn(6)
		l.Update(s, a, next, rng.Float64()*2-1, rng.Intn(4))
		s = next
	}
	return l
}

// edited rebuilds sn from its dense tables after edit changes them.
func edited(t testing.TB, sn Snapshot, edit func(*Tables)) Snapshot {
	t.Helper()
	tb := sn.Tables()
	edit(&tb)
	out, err := NewSnapshot(sn.Config, tb)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSnapshotSeedRoundTrip(t *testing.T) {
	l := trainedSmallLearner(t, 7, 500)
	sn := l.Snapshot()
	if err := sn.Validate(); err != nil {
		t.Fatal(err)
	}

	fresh, err := NewLearner(l.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Seed(sn); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 6; s++ {
		for a := 0; a < 3; a++ {
			if got, want := fresh.Q(s, a), l.Q(s, a); got != want {
				t.Errorf("Q(%d,%d) = %g, want %g", s, a, got, want)
			}
			if got, want := fresh.Num(s, a), l.Num(s, a); got != want {
				t.Errorf("Num(%d,%d) = %d, want %d", s, a, got, want)
			}
			for next := 0; next < 6; next++ {
				if got, want := prob(fresh, s, a, next), prob(l, s, a, next); got != want {
					t.Errorf("P(%d -%d-> %d) = %g, want %g", s, a, next, got, want)
				}
			}
		}
	}
	for a := 0; a < 3; a++ {
		if got, want := numAction(fresh, a), numAction(l, a); got != want {
			t.Errorf("NumAction(%d) = %d, want %d", a, got, want)
		}
	}
	// The seeded learner reproduces the phase machinery exactly.
	for s := 0; s < 6; s++ {
		if got, want := fresh.PhaseFor(s, 2), l.PhaseFor(s, 2); got != want {
			t.Errorf("phase(%d) = %v, want %v", s, got, want)
		}
	}

	// The snapshot is isolated: folding into it reaches neither the
	// learner it came from nor the one seeded from it.
	lb, fb := saveLearner(t, l), saveLearner(t, fresh)
	if err := sn.Merge(sn.Clone()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveLearner(t, l), lb) || !bytes.Equal(saveLearner(t, fresh), fb) {
		t.Error("a fold into the snapshot reached a learner")
	}
}

func TestSnapshotMergeCountWeighted(t *testing.T) {
	mk := func(q float64, visits int) Snapshot {
		l, err := NewLearner(DefaultConfig(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		return edited(t, l.Snapshot(), func(tb *Tables) {
			tb.Q[0] = q // (s=0, a=0)
			tb.VisitsSA[0] = visits
			tb.VisitsAction[0] = visits
			if visits > 0 {
				tb.Transitions = [][4]int{{0, 0, 1, visits}}
			}
		})
	}
	a := mk(1.0, 3)
	b := mk(5.0, 1)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	// Count-weighted mean: (3*1 + 1*5)/4 = 2.
	at := a.Tables()
	if got := at.Q[0]; math.Abs(got-2.0) > 1e-15 {
		t.Errorf("merged Q = %g, want 2", got)
	}
	if at.VisitsSA[0] != 4 || at.VisitsAction[0] != 4 {
		t.Errorf("merged visits = %d/%d, want 4/4", at.VisitsSA[0], at.VisitsAction[0])
	}
	if got := at.Transitions; len(got) != 1 || got[0] != [4]int{0, 0, 1, 4} {
		t.Errorf("merged transitions = %v, want [[0 0 1 4]]", got)
	}
	// Unvisited pairs stay untouched.
	if at.Q[1] != 0 || at.VisitsSA[1] != 0 {
		t.Errorf("unvisited pair changed: Q=%g visits=%d", at.Q[1], at.VisitsSA[1])
	}

	// Merging a zero-count snapshot is a no-op on Q.
	c := mk(1.5, 2)
	if err := c.Merge(mk(99, 0)); err != nil {
		t.Fatal(err)
	}
	if ct := c.Tables(); ct.Q[0] != 1.5 || ct.VisitsSA[0] != 2 {
		t.Errorf("zero-count merge changed state: Q=%g visits=%d", ct.Q[0], ct.VisitsSA[0])
	}
}

func TestSnapshotMergeEquivalentToPooledUpdates(t *testing.T) {
	// Two independently trained learners merged into one snapshot carry
	// the pooled visit mass: total counts equal the sum of the parts.
	l1 := trainedSmallLearner(t, 1, 300)
	l2 := trainedSmallLearner(t, 2, 200)
	sn := l1.Snapshot()
	if err := sn.Merge(l2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 6; s++ {
		for a := 0; a < 3; a++ {
			want := l1.Num(s, a) + l2.Num(s, a)
			if got := sn.Tables().VisitsSA[s*3+a]; got != want {
				t.Errorf("pooled Num(%d,%d) = %d, want %d", s, a, got, want)
			}
		}
	}
	// Seeding a fresh learner with the pooled snapshot lowers (or keeps)
	// the learning rate relative to either contributor alone.
	fresh, err := NewLearner(l1.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Seed(sn); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 6; s++ {
		if a1, am := l1.AlphaMax(s, 0), fresh.AlphaMax(s, 0); am > a1 {
			t.Errorf("state %d: pooled alpha %g above contributor alpha %g", s, am, a1)
		}
	}
}

func TestSnapshotMergeDimensionMismatch(t *testing.T) {
	l1, _ := NewLearner(DefaultConfig(2, 2))
	l2, _ := NewLearner(DefaultConfig(2, 3))
	sn := l1.Snapshot()
	if err := sn.Merge(l2.Snapshot()); err == nil {
		t.Error("dimension mismatch accepted by Merge")
	}
	if err := l2.Seed(l1.Snapshot()); err == nil {
		t.Error("dimension mismatch accepted by Seed")
	}
	bad := l1.Snapshot()
	bad.rows = bad.rows[:1]
	if err := bad.Validate(); err == nil {
		t.Error("truncated snapshot passed validation")
	}
}

// TestSubtractCountsYieldsOwnExperience: a warm-started learner's
// departing snapshot minus its seed-time snapshot carries only the
// visits the learner made itself, with the final Q values intact.
func TestSubtractCountsYieldsOwnExperience(t *testing.T) {
	donor := trainedSmallLearner(t, 5, 400)
	seed := donor.Snapshot()

	warm, err := NewLearner(donor.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Seed(seed); err != nil {
		t.Fatal(err)
	}
	const own = 7
	for i := 0; i < own; i++ {
		warm.Update(1, 2, 3, 0.25, 0)
	}

	delta := warm.Snapshot()
	if err := delta.SubtractCounts(seed); err != nil {
		t.Fatal(err)
	}
	dt := delta.Tables()
	total := 0
	for _, n := range dt.VisitsSA {
		total += n
	}
	if total != own {
		t.Errorf("delta carries %d visits, want only the %d own updates", total, own)
	}
	if got, want := dt.VisitsSA[1*3+2], own; got != want {
		t.Errorf("delta Num(1,2) = %d, want %d", got, want)
	}
	if got, want := dt.Q[1*3+2], warm.Q(1, 2); got != want {
		t.Errorf("delta kept Q %g, want the final estimate %g", got, want)
	}
	if got := dt.Transitions; len(got) != 1 || got[0] != [4]int{1, 2, 3, own} {
		t.Errorf("delta transitions = %v, want [[1 2 3 %d]]", got, own)
	}

	// Subtracting a base that was never part of the history errors
	// instead of going negative.
	fresh, _ := NewLearner(donor.Config())
	bad := fresh.Snapshot()
	if err := bad.SubtractCounts(seed); err == nil {
		t.Error("subtracting unrelated counts did not error")
	}
}

// TestGenerationalMergeStaysLinear guards against the compounding bug:
// across generations of seed -> learn -> contribute-delta -> merge, the
// shared pool's visit mass grows by exactly each generation's own
// experience — re-merging seeded mass would double the pool per
// generation and eventually overflow the counts.
func TestGenerationalMergeStaysLinear(t *testing.T) {
	cfg := DefaultConfig(6, 3)
	pool, err := NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := pool.Snapshot()
	const perGen = 30
	for gen := 1; gen <= 6; gen++ {
		l, err := NewLearner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seed := store.Clone()
		if err := l.Seed(seed); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(gen)))
		for i := 0; i < perGen; i++ {
			l.Update(rng.Intn(6), rng.Intn(3), rng.Intn(6), rng.Float64(), 0)
		}
		delta := l.Snapshot()
		if err := delta.SubtractCounts(seed); err != nil {
			t.Fatal(err)
		}
		if err := store.Merge(delta); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, n := range store.Tables().VisitsSA {
			total += n
		}
		if total != gen*perGen {
			t.Fatalf("generation %d: pool carries %d visits, want %d (linear growth)",
				gen, total, gen*perGen)
		}
	}
}

func TestSeedFoldsIntoPartiallyTrainedLearner(t *testing.T) {
	l, err := NewLearner(DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	// One local visit at (0,0) with Q driven to a known value.
	l.observeVisit(0, 0)
	l.SetQ(0, 0, 4.0)

	donor, err := NewLearner(DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	sn := edited(t, donor.Snapshot(), func(tb *Tables) {
		tb.Q[0] = 1.0
		tb.VisitsSA[0] = 3
		tb.VisitsAction[0] = 3
	})

	if err := l.Seed(sn); err != nil {
		t.Fatal(err)
	}
	// (1*4 + 3*1)/4 = 1.75
	if got := l.Q(0, 0); math.Abs(got-1.75) > 1e-15 {
		t.Errorf("folded Q = %g, want 1.75", got)
	}
	if got := l.Num(0, 0); got != 4 {
		t.Errorf("folded visits = %d, want 4", got)
	}
}
