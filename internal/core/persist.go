package core

import (
	"encoding/json"
	"fmt"
	"io"

	"mamut/internal/rl"
	"mamut/internal/transcode"
)

// controllerState is the serialised form of a Controller: the current
// knob values, the current discretized state, and the three agents'
// complete learning state.
type controllerState struct {
	Settings transcode.Settings `json:"settings"`
	CurState int                `json:"cur_state"`
	Agents   [3]rl.LearnerState `json:"agents"`
}

// Save serialises the controller's learned state (all three agents'
// Q-tables, visit counts and transition models) so a trained MAMUT
// instance can be redeployed without relearning — the production
// equivalent of the paper's tables persisting across repetitions.
// Pending (not yet finalized) updates are not saved; save between frames
// or accept losing at most one in-flight action's update.
func (c *Controller) Save(w io.Writer) error {
	st := controllerState{Settings: c.settings, CurState: c.curState}
	for k := AgentQP; k < numAgents; k++ {
		st.Agents[k] = c.agents[k].learner.State()
	}
	if err := json.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("core: save controller: %w", err)
	}
	return nil
}

// Load restores learning state saved with Save into this controller. The
// controller's configuration must declare the same action-set sizes as
// the saved one.
func (c *Controller) Load(r io.Reader) error {
	var st controllerState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("core: load controller: %w", err)
	}
	if err := st.Settings.Validate(); err != nil {
		return fmt.Errorf("core: load controller: %w", err)
	}
	if st.CurState < 0 || st.CurState >= NumStates {
		return fmt.Errorf("core: load controller: state %d out of range", st.CurState)
	}
	loaded, err := c.loadAgents(st.Agents)
	if err != nil {
		return fmt.Errorf("core: load %w", err)
	}
	for k := AgentQP; k < numAgents; k++ {
		c.agents[k].learner = loaded[k]
	}
	c.settings = st.Settings
	c.curState = st.CurState
	c.pend = nil
	return nil
}

// loadAgents rebuilds the three agents' learners from their exported
// states, checking each against this controller's action-set sizes. It
// leaves the controller untouched, so callers install the learners only
// once every other check has passed.
func (c *Controller) loadAgents(states [3]rl.LearnerState) ([3]*rl.Learner, error) {
	var loaded [3]*rl.Learner
	for k := AgentQP; k < numAgents; k++ {
		l, err := rl.LearnerFromState(states[k])
		if err != nil {
			return loaded, fmt.Errorf("agent %v: %w", k, err)
		}
		if l.Config().Actions != c.agents[k].actions() {
			return loaded, fmt.Errorf("agent %v: %d actions saved, controller has %d",
				k, l.Config().Actions, c.agents[k].actions())
		}
		loaded[k] = l
	}
	return loaded, nil
}
