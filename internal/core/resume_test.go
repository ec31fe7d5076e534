package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"mamut/internal/transcode"
)

// legacyAgents is how payloads nested the learners before the typed
// encoding: each agent pre-encoded by rl.Learner.Save and wrapped as a
// json.RawMessage. strip removes the learner version stamp, which gives
// the unversioned payloads of older writers.
func legacyAgents(t *testing.T, c *Controller, strip bool) [3]json.RawMessage {
	t.Helper()
	var out [3]json.RawMessage
	for k := AgentQP; k < numAgents; k++ {
		var buf bytes.Buffer
		if err := c.agents[k].learner.Save(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		if strip {
			raw = bytes.Replace(raw, []byte(`"format_version":1,`), nil, 1)
		}
		out[k] = raw
	}
	return out
}

// TestResumeStateWirePin: the typed ResumeState and Save encodings are
// byte-identical to the legacy nested-RawMessage encodings, and a legacy
// payload with unversioned learners restores the same controller.
func TestResumeStateWirePin(t *testing.T) {
	c := testController(t, 41)
	trainController(c, 1203) // stop mid-hyper-period: a pending update is in flight
	if c.pend == nil {
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

	var saved bytes.Buffer
	if err := c.Save(&saved); err != nil {
		t.Fatal(err)
	}
	legacySave, err := json.Marshal(struct {
		Settings transcode.Settings `json:"settings"`
		CurState int                `json:"cur_state"`
		Agents   [3]json.RawMessage `json:"agents"`
	}{c.settings, c.curState, legacyAgents(t, c, false)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(saved.Bytes()), legacySave) {
		t.Fatal("typed Save differs from the legacy encoding")
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
