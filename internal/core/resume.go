package core

import (
	"fmt"

	"mamut/internal/rl"
	"mamut/internal/transcode"
)

// resumeFormatVersion is the current ResumeState payload format.
// Restorers accept this version and older; newer payloads error cleanly.
const resumeFormatVersion = 1

// pendingState serialises the in-flight Q-update: the action awaiting its
// next-state observation plus the NULL-slot metric accumulators. A live
// migration must carry it — losing it would skip one Q-update and fork
// the learning trajectory from the non-migrated baseline.
type pendingState struct {
	Agent      int     `json:"agent"`
	State      int     `json:"state"`
	Action     int     `json:"action"`
	SumPSNR    float64 `json:"sum_psnr"`
	SumPower   float64 `json:"sum_power"`
	SumBitrate float64 `json:"sum_bitrate"`
	SumFPS     float64 `json:"sum_fps"`
	N          int     `json:"n"`
}

// ResumeState is the complete mid-stream controller state minus the rng,
// whose stream belongs to the caller that built the controller (the serve
// layer owns it as an xrand.Source and snapshots it alongside). It is a
// plain JSON-serialisable value: an owner embeds it in its own state and
// encodes everything in one pass. Agents is the controller's Snapshot,
// each agent in the rl.Snapshot checkpoint form.
type ResumeState struct {
	Version  int                `json:"format_version"`
	Settings transcode.Settings `json:"settings"`
	CurState int                `json:"cur_state"`
	Started  bool               `json:"started"`
	Stats    Stats              `json:"stats"`
	Pending  *pendingState      `json:"pending,omitempty"`
	Agents   Snapshot           `json:"agents"`
}

// ResumeState freezes the controller's complete decision state: knob
// settings, discretized state, learning telemetry, the in-flight pending
// update, and all three agents' full learning state, so it restores a
// controller mid-stream with no behavioural fork. The exploration rng is not included; the owner of the *rand.Rand passed to
// New must snapshot its stream separately.
func (c *Controller) ResumeState() *ResumeState {
	st := &ResumeState{
		Version:  resumeFormatVersion,
		Settings: c.settings,
		CurState: c.curState,
		Started:  c.started,
		Stats:    c.stats,
		Agents:   c.Snapshot(),
	}
	if c.hasPend {
		p := &c.pend
		st.Pending = &pendingState{
			Agent: int(p.agent), State: p.state, Action: p.action,
			SumPSNR: p.sumPSNR, SumPower: p.sumPower,
			SumBitrate: p.sumBitrate, SumFPS: p.sumFPS, N: p.n,
		}
	}
	return st
}

// RestoreResumeState loads a ResumeState into this controller, which
// must have been built with the same configuration (every agent's table
// dimensions are checked). On success the controller continues the
// stream exactly where the frozen one stopped; on error it is unchanged.
func (c *Controller) RestoreResumeState(st *ResumeState) error {
	if st.Version < 0 || st.Version > resumeFormatVersion {
		return fmt.Errorf("core: restore resume state: format version %d not supported (current %d)",
			st.Version, resumeFormatVersion)
	}
	if err := st.Settings.Validate(); err != nil {
		return fmt.Errorf("core: restore resume state: %w", err)
	}
	if st.CurState < 0 || st.CurState >= NumStates {
		return fmt.Errorf("core: restore resume state: state %d out of range", st.CurState)
	}
	loaded, err := c.loadAgents(st.Agents)
	if err != nil {
		return fmt.Errorf("core: restore %w", err)
	}
	var pend pending
	if p := st.Pending; p != nil {
		if p.Agent < 0 || p.Agent >= int(numAgents) {
			return fmt.Errorf("core: restore resume state: pending agent %d out of range", p.Agent)
		}
		if p.State < 0 || p.State >= NumStates {
			return fmt.Errorf("core: restore resume state: pending state %d out of range", p.State)
		}
		if p.Action < 0 || p.Action >= c.agents[p.Agent].actions() {
			return fmt.Errorf("core: restore resume state: pending action %d out of range", p.Action)
		}
		if p.N < 0 {
			return fmt.Errorf("core: restore resume state: negative pending count %d", p.N)
		}
		pend = pending{
			agent: AgentKind(p.Agent), state: p.State, action: p.Action,
			sumPSNR: p.SumPSNR, sumPower: p.SumPower,
			sumBitrate: p.SumBitrate, sumFPS: p.SumFPS, n: p.N,
		}
	}
	for k := AgentQP; k < numAgents; k++ {
		c.agents[k].learner = loaded[k]
	}
	c.settings = st.Settings
	c.curState = st.CurState
	c.started = st.Started
	c.stats = st.Stats
	c.pend, c.hasPend = pend, st.Pending != nil
	return nil
}

// loadAgents rebuilds the three agents' learners from their snapshots,
// checking each against this controller's table dimensions with the
// same Compatible that seeding uses. It leaves the controller untouched,
// so callers install the learners only once every other check has
// passed.
func (c *Controller) loadAgents(agents Snapshot) ([3]*rl.Learner, error) {
	var loaded [3]*rl.Learner
	for k := AgentQP; k < numAgents; k++ {
		if err := c.agents[k].learner.Compatible(agents[k]); err != nil {
			return loaded, fmt.Errorf("agent %v: %w", k, err)
		}
		l, err := rl.LearnerFrom(agents[k])
		if err != nil {
			return loaded, fmt.Errorf("agent %v: %w", k, err)
		}
		loaded[k] = l
	}
	return loaded, nil
}
