// Package transcode simulates a multi-user real-time transcoding server in
// virtual time.
//
// The engine runs any number of concurrent transcoding sessions, each
// encoding its own video stream with its own knob settings, on one shared
// platform model. Sessions couple through the platform: core contention
// slows everybody, and the package power every controller observes is a
// global quantity. The simulation is event-driven processor sharing:
// between frame completions every session's service rate is constant, so
// event times are exact, the simulation is deterministic for a fixed seed,
// and thousands of simulated seconds cost milliseconds of wall time.
package transcode

import "fmt"

// Settings are the three knobs MAMUT manages per session (paper SIII-A).
type Settings struct {
	// QP is the HEVC quantization parameter.
	QP int
	// Threads is the number of WPP encoding threads.
	Threads int
	// FreqGHz is the per-core DVFS frequency of the session's cores.
	FreqGHz float64
}

// Validate performs basic sanity checks; full validation (ladder rungs,
// saturation limits) happens in the platform and encoder models.
func (s Settings) Validate() error {
	if s.QP < 0 || s.QP > 51 {
		return fmt.Errorf("transcode: QP %d outside [0,51]", s.QP)
	}
	if s.Threads < 1 {
		return fmt.Errorf("transcode: threads %d < 1", s.Threads)
	}
	if s.FreqGHz <= 0 {
		return fmt.Errorf("transcode: frequency %g <= 0", s.FreqGHz)
	}
	return nil
}

// Observation is what a session's controller sees at the end of a frame:
// exactly the four observables of paper SIII-C plus bookkeeping.
type Observation struct {
	// SessionID identifies the session within the engine.
	SessionID int
	// FrameIndex is the per-session frame counter, starting at 0.
	FrameIndex int
	// Time is the simulated completion time in seconds.
	Time float64
	// DurationSec is how long this frame took to encode.
	DurationSec float64
	// FPS is the windowed throughput estimate the controller states are
	// built from; InstFPS is the single-frame reciprocal duration.
	FPS     float64
	InstFPS float64
	// PSNRdB is the frame's output quality.
	PSNRdB float64
	// BitrateMbps is the delivery bitrate: frame bits at the target frame
	// rate, in megabits per second.
	BitrateMbps float64
	// PowerW is the server package power reading at completion time; this
	// is global, not per-session.
	PowerW float64
	// OverCap reports PowerW measured at or above the server's power cap.
	OverCap bool
	// Settings are the knob values the frame was encoded with.
	Settings Settings
	// Complexity and SceneChange describe the frame content.
	Complexity  float64
	SceneChange bool
	// SequenceName is the catalog entry the frame came from.
	SequenceName string
}

// FrameStart is the information available to a controller right before a
// frame begins (paper SIV-A: agents act "right before a frame starts").
type FrameStart struct {
	// SessionID identifies the session.
	SessionID int
	// FrameIndex is the index of the frame about to be encoded.
	FrameIndex int
	// Time is the current simulated time.
	Time float64
	// Current are the settings in force.
	Current Settings
}

// Controller decides the knob settings of one session. Implementations:
// internal/core (MAMUT), internal/baseline (mono-agent QL and heuristic),
// and Static below.
type Controller interface {
	// Name returns a short identifier used in reports.
	Name() string
	// OnFrameStart returns the settings to use for the frame about to be
	// encoded. Returning the current settings keeps them unchanged.
	OnFrameStart(fs FrameStart) Settings
	// OnFrameDone delivers the end-of-frame observation.
	OnFrameDone(obs Observation)
}

// Static is a Controller that never changes its settings. The Fig. 2
// characterisation sweeps use it to measure the raw response surfaces.
type Static struct {
	S Settings
}

// Name implements Controller.
func (s *Static) Name() string { return "static" }

// OnFrameStart implements Controller.
func (s *Static) OnFrameStart(FrameStart) Settings { return s.S }

// OnFrameDone implements Controller.
func (s *Static) OnFrameDone(Observation) {}

// ControllerState implements StatefulController (migrate.go): a static
// controller's whole state is its settings.
func (s *Static) ControllerState() any { return s.S }

// RestoreControllerState implements StatefulController.
func (s *Static) RestoreControllerState(state any) error {
	set, err := ResolveControllerState[Settings](state)
	if err != nil {
		return fmt.Errorf("transcode: restore static controller: %w", err)
	}
	if err := set.Validate(); err != nil {
		return fmt.Errorf("transcode: restore static controller: %w", err)
	}
	s.S = set
	return nil
}

var _ Controller = (*Static)(nil)
