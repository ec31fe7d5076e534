package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mamut/internal/transcode"
)

// Property: under arbitrary observation streams the controller never
// proposes settings outside its action sets (other than the initial
// values) and its Q-values stay bounded by the reward geometry.
func TestControllerRobustToArbitraryObservations(t *testing.T) {
	cfg := testConfig()
	qpSet := map[int]bool{32: true} // initial value is allowed
	for _, v := range cfg.QPValues {
		qpSet[v] = true
	}
	freqSet := map[float64]bool{2.6: true}
	for _, v := range cfg.FreqValues {
		freqSet[v] = true
	}

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(cfg, transcode.Settings{QP: 32, Threads: 6, FreqGHz: 2.6}, rand.New(rand.NewSource(seed+1)))
		if err != nil {
			return false
		}
		cur := c.Settings()
		for f := 0; f < 600; f++ {
			cur = c.OnFrameStart(transcode.FrameStart{FrameIndex: f, Current: cur})
			if !qpSet[cur.QP] || cur.Threads < 1 || cur.Threads > 12 || !freqSet[cur.FreqGHz] {
				return false
			}
			// Wild observations: occasionally absurd values.
			obs := transcode.Observation{
				FPS:         rng.Float64() * 200,
				InstFPS:     rng.Float64() * 200,
				PSNRdB:      10 + rng.Float64()*60,
				PowerW:      rng.Float64() * 400,
				BitrateMbps: rng.Float64() * 30,
			}
			c.OnFrameDone(obs)
		}
		// Q bounded: |Q| <= Rmax/(1-gamma) with Rmax = 4 rewards of
		// magnitude <= 4 => 16/(1-0.6) = 40.
		for k := AgentQP; k <= AgentDVFS; k++ {
			l := c.Learner(k)
			for s := 0; s < NumStates; s++ {
				for a := 0; a < l.Config().Actions; a++ {
					if v := l.Q(s, a); math.Abs(v) > 40+1e-9 || math.IsNaN(v) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property of the eq. (3) coupling: an agent can only leave pure
// exploration once the *combined* exploration progress of its peers
// (the sum of their least-tried-action counts) reaches at least 2 — the
// second learning-rate term 0.2/(1+m) stays at or above the 0.1 threshold
// for m < 2. Note the sum formulation means one thoroughly-explored peer
// can compensate for another (the formula is weaker than the paper's
// prose "other agents have tried all their actions"); this test pins the
// property the formula actually provides.
func TestNoPhaseAdvanceBeforePeerCoverage(t *testing.T) {
	c := testController(t, 61)
	cur := c.Settings()
	for f := 0; f < 3000; f++ {
		cur = c.OnFrameStart(transcode.FrameStart{FrameIndex: f, Current: cur})
		c.OnFrameDone(obsWith(25, 36, 95, 4))
		st := c.Stats()
		for k := AgentQP; k <= AgentDVFS; k++ {
			if st.ByAgent[k].Exploitation == 0 && st.ByAgent[k].ExploreExploit == 0 {
				continue
			}
			if m := c.otherMinSum(k); m < 2 {
				t.Fatalf("frame %d: %v advanced past exploration with peer coverage %d < 2", f, k, m)
			}
		}
	}
}

// The schedule, chain and update bookkeeping must stay consistent for any
// valid schedule: every action slot creates exactly one pending update
// that lands at the next action slot.
func TestUpdateCountMatchesActionCount(t *testing.T) {
	for _, sched := range []Schedule{DefaultSchedule(), UniformSchedule(6), UniformSchedule(9)} {
		cfg := testConfig()
		cfg.Schedule = sched
		c, err := New(cfg, transcode.Settings{QP: 32, Threads: 6, FreqGHz: 2.6}, rand.New(rand.NewSource(62)))
		if err != nil {
			t.Fatal(err)
		}
		cur := c.Settings()
		actions := 0
		const frames = 480
		for f := 0; f < frames; f++ {
			if sched.ActingAgent(f) != AgentNone {
				actions++
			}
			cur = c.OnFrameStart(transcode.FrameStart{FrameIndex: f, Current: cur})
			c.OnFrameDone(obsWith(25, 36, 95, 4))
		}
		visits := 0
		for k := AgentQP; k <= AgentDVFS; k++ {
			l := c.Learner(k)
			for s := 0; s < NumStates; s++ {
				for a := 0; a < l.Config().Actions; a++ {
					visits += l.Num(s, a)
				}
			}
		}
		// Every action except the still-pending last one has been
		// finalized into exactly one visit.
		if visits != actions-1 {
			t.Errorf("schedule %v: %d visits for %d actions, want actions-1", sched, visits, actions)
		}
	}
}
