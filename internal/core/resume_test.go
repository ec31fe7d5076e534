package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"mamut/internal/rl"
	"mamut/internal/transcode"
)

// trainController drives a controller through n frames of a stationary
// environment.
func trainController(c *Controller, n int) {
	cur := c.Settings()
	for f := 0; f < n; f++ {
		cur = c.OnFrameStart(transcode.FrameStart{FrameIndex: f, Current: cur})
		c.OnFrameDone(obsWith(25+3*float64(f%3), 36, 95, 4))
	}
}

// restoreInto moves from's state into to the way the session codec
// does: ResumeState, a JSON round trip, then RestoreResumeState.
func restoreInto(t *testing.T, from, to *Controller) error {
	t.Helper()
	data, err := json.Marshal(from.ResumeState())
	if err != nil {
		t.Fatal(err)
	}
	var st ResumeState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return to.RestoreResumeState(&st)
}

// legacyAgents is how payloads nested the learners before the typed
// encoding: each agent pre-encoded on its own and wrapped as a
// json.RawMessage. strip removes the learner version stamp, which gives
// the unversioned payloads of older writers.
func legacyAgents(t *testing.T, c *Controller, strip bool) [3]json.RawMessage {
	t.Helper()
	var out [3]json.RawMessage
	for k := AgentQP; k < numAgents; k++ {
		raw, err := json.Marshal(c.agents[k].learner.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if strip {
			raw = bytes.Replace(raw, []byte(`"format_version":1,`), nil, 1)
		}
		out[k] = raw
	}
	return out
}

// TestResumeStateWirePin: the typed ResumeState encoding is
// byte-identical to the legacy nested-RawMessage encoding, and a legacy
// payload with unversioned learners restores the same controller.
func TestResumeStateWirePin(t *testing.T) {
	c := testController(t, 41)
	trainController(c, 1203) // stop mid-hyper-period: a pending update is in flight
	if !c.hasPend {
		t.Fatal("controller has no pending update to pin")
	}
	st := c.ResumeState()
	typed, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	type legacyResume struct {
		Version  int                `json:"format_version"`
		Settings transcode.Settings `json:"settings"`
		CurState int                `json:"cur_state"`
		Started  bool               `json:"started"`
		Stats    Stats              `json:"stats"`
		Pending  *pendingState      `json:"pending,omitempty"`
		Agents   [3]json.RawMessage `json:"agents"`
	}
	legacyOf := func(strip bool) []byte {
		b, err := json.Marshal(legacyResume{
			Version: st.Version, Settings: st.Settings, CurState: st.CurState,
			Started: st.Started, Stats: st.Stats, Pending: st.Pending,
			Agents: legacyAgents(t, c, strip),
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if legacy := legacyOf(false); !bytes.Equal(typed, legacy) {
		t.Fatalf("typed resume state differs from the legacy encoding:\n got %.200s\nwant %.200s", typed, legacy)
	}

	old := legacyOf(true)
	if n := bytes.Count(old, []byte(`"format_version"`)); n != 1 {
		t.Fatalf("legacy payload carries %d version stamps, want only the resume state's", n)
	}
	var back ResumeState
	if err := json.Unmarshal(old, &back); err != nil {
		t.Fatal(err)
	}
	restored := testController(t, 99)
	if err := restored.RestoreResumeState(&back); err != nil {
		t.Fatalf("legacy payload rejected: %v", err)
	}
	again, err := json.Marshal(restored.ResumeState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, typed) {
		t.Fatal("legacy payload restored a different controller")
	}
}

func TestControllerSaveLoadRoundTrip(t *testing.T) {
	a := testController(t, 31)
	trainController(a, 2400)

	b := testController(t, 99) // different rng; exploitation is deterministic
	if err := restoreInto(t, a, b); err != nil {
		t.Fatal(err)
	}

	if b.Settings() != a.Settings() {
		t.Errorf("settings %+v, want %+v", b.Settings(), a.Settings())
	}
	for k := AgentQP; k <= AgentDVFS; k++ {
		la, lb := a.Learner(k), b.Learner(k)
		for s := 0; s < NumStates; s++ {
			for ac := 0; ac < la.Config().Actions; ac++ {
				if la.Q(s, ac) != lb.Q(s, ac) {
					t.Fatalf("agent %v Q(%d,%d) differs", k, s, ac)
				}
				if la.Num(s, ac) != lb.Num(s, ac) {
					t.Fatalf("agent %v visits(%d,%d) differ", k, s, ac)
				}
			}
		}
	}

	// A state deep in exploitation must produce the same decision.
	sIdx := a.curState
	for k := AgentQP; k <= AgentDVFS; k++ {
		if pa, pb := a.Learner(k).PhaseFor(sIdx, 1000), b.Learner(k).PhaseFor(sIdx, 1000); pa != pb {
			t.Fatalf("agent %v phase differs after load: %v vs %v", k, pa, pb)
		}
	}
	if ga, gb := a.exploitAction(AgentDVFS, sIdx, 2), b.exploitAction(AgentDVFS, sIdx, 2); ga != gb {
		t.Errorf("exploit decision differs after load: %d vs %d", ga, gb)
	}
}

// TestControllerLoadRejectsBadInput: a corrupt state or one from a
// controller with different action sets is refused, and the refusing
// controller keeps its own state.
func TestControllerLoadRejectsBadInput(t *testing.T) {
	c := testController(t, 32)
	trainController(c, 240)
	before, err := json.Marshal(c.ResumeState())
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(what string) {
		t.Helper()
		after, err := json.Marshal(c.ResumeState())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("%s: rejected restore modified the controller", what)
		}
	}

	bad := c.ResumeState()
	bad.CurState = NumStates
	if err := c.RestoreResumeState(bad); err == nil {
		t.Error("out-of-range state accepted")
	}
	unchanged("out-of-range state")

	cfg := testConfig()
	cfg.QPValues = []int{22, 37}
	other, err := New(cfg, transcode.Settings{QP: 32, Threads: 6, FreqGHz: 2.6}, rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}
	trainController(other, 240)
	if err := restoreInto(t, other, c); err == nil {
		t.Error("mismatched action sets accepted")
	}
	unchanged("mismatched action sets")

	// A sound 5-state learner in place of agent 0's: its action count
	// matches, only its state count does not.
	shrunk := c.ResumeState()
	small := shrunk.Agents[AgentQP].Config
	small.States = 5
	l, err := rl.NewLearner(small)
	if err != nil {
		t.Fatal(err)
	}
	shrunk.Agents[AgentQP] = l.Snapshot()
	if err := c.RestoreResumeState(shrunk); err == nil {
		t.Error("shrunk state count accepted")
	}
	unchanged("shrunk state count")
}

// Pretrained deployment: a controller trained in one engine run can be
// restored into a fresh run, where it should start near its converged
// policy instead of relearning from scratch.
func TestControllerWarmStartBehaviour(t *testing.T) {
	warm := testController(t, 34)
	trainController(warm, 4800)

	cold := testController(t, 35)
	reloaded := testController(t, 36)
	if err := restoreInto(t, warm, reloaded); err != nil {
		t.Fatal(err)
	}

	countExploit := func(c *Controller, frames int) int {
		before := c.Stats()
		trainController(c, frames)
		after := c.Stats()
		n := 0
		for k := 0; k < 3; k++ {
			n += after.ByAgent[k].Exploitation - before.ByAgent[k].Exploitation
		}
		return n
	}
	coldExploit := countExploit(cold, 480)
	warmExploit := countExploit(reloaded, 480)
	if warmExploit <= coldExploit {
		t.Errorf("warm-started controller exploited %d decisions vs cold %d; want more",
			warmExploit, coldExploit)
	}
}
