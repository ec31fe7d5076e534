package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"mamut/internal/rl"
	"mamut/internal/transcode"
)

// trainState drives enough direct learner updates through every agent of
// c that state s reaches the exploitation phase: each action of each
// agent is visited `visits` times, so both eq. (3) terms drop below the
// thresholds once the per-action totals accumulate.
func trainState(c *Controller, s, visits int) {
	for k := AgentQP; k < numAgents; k++ {
		l := c.Learner(k)
		for a := 0; a < l.Config().Actions; a++ {
			for i := 0; i < visits; i++ {
				l.Update(s, a, s, 0.5, 0)
			}
		}
	}
}

func TestWarmControllerSkipsExploration(t *testing.T) {
	donor := testController(t, 1)
	const state = 42
	trainState(donor, state, 20)

	// Premise: the trained state is in exploitation on the donor.
	for k := AgentQP; k < numAgents; k++ {
		other := donor.otherMinSum(k)
		if got := donor.Learner(k).PhaseFor(state, other); got != rl.Exploitation {
			t.Fatalf("donor agent %v phase %v, want exploitation", k, got)
		}
	}

	sn := donor.Snapshot()
	if err := sn.Validate(); err != nil {
		t.Fatal(err)
	}
	warm, err := New(testConfig(), transcode.Settings{QP: 32, Threads: 6, FreqGHz: 2.6},
		rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Seed(sn); err != nil {
		t.Fatal(err)
	}
	for k := AgentQP; k < numAgents; k++ {
		other := warm.otherMinSum(k)
		if got := warm.Learner(k).PhaseFor(state, other); got != rl.Exploitation {
			t.Errorf("warm agent %v phase %v, want exploitation", k, got)
		}
		// An untrained state still explores: warm starts are per-state.
		if got := warm.Learner(k).PhaseFor(0, 0); got != rl.Exploration {
			t.Errorf("warm agent %v untrained-state phase %v, want exploration", k, got)
		}
		if got, want := warm.Learner(k).Q(state, 0), donor.Learner(k).Q(state, 0); got != want {
			t.Errorf("warm agent %v Q = %g, want %g", k, got, want)
		}
	}

	// An unseeded controller is a cold start.
	cold, err := New(testConfig(), transcode.Settings{QP: 32, Threads: 6, FreqGHz: 2.6},
		rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.Learner(AgentQP).PhaseFor(state, 0); got != rl.Exploration {
		t.Errorf("cold controller phase %v, want exploration", got)
	}
}

func TestWarmControllerDimensionMismatch(t *testing.T) {
	donor := testController(t, 1)
	trainState(donor, 10, 4)
	sn := donor.Snapshot()
	cfg := testConfig()
	cfg.ThreadValues = cfg.ThreadValues[:5] // LR-sized action set vs HR snapshot
	c, err := New(cfg, transcode.Settings{QP: 32, Threads: 3, FreqGHz: 2.6}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	before, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Seed(sn); err == nil {
		t.Error("mismatched snapshot accepted by Seed")
	}
	// The QP agent's tables match the snapshot's; a failed Seed must not
	// have seeded it either.
	after, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Error("a failed Seed changed the controller")
	}
}

func TestControllerSnapshotMerge(t *testing.T) {
	a := testController(t, 1)
	b := testController(t, 2)
	trainState(a, 10, 4)
	trainState(b, 10, 2)
	trainState(b, 11, 3)

	sn := a.Snapshot()
	if err := sn.Merge(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for k := AgentQP; k < numAgents; k++ {
		actions := a.Learner(k).Config().Actions
		for _, s := range []int{10, 11} {
			for act := 0; act < actions; act++ {
				want := a.Learner(k).Num(s, act) + b.Learner(k).Num(s, act)
				if got := sn[k].Tables().VisitsSA[s*actions+act]; got != want {
					t.Errorf("agent %v Num(%d,%d) = %d, want %d", k, s, act, got, want)
				}
			}
		}
	}

	// The merged snapshot is isolated from the donor: the donor's first
	// write to a state it shares copies that state's row.
	before := sn[AgentQP].Tables()
	a.Learner(AgentQP).SetQ(10, 0, 1e9)
	if !reflect.DeepEqual(sn[AgentQP].Tables(), before) {
		t.Error("a write to the controller reached its snapshot")
	}
}
