package baseline

import (
	"fmt"

	"mamut/internal/platform"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

// HeuristicConfig parametrises the rule-based baseline.
type HeuristicConfig struct {
	// Spec provides the DVFS ladder the governor steps on.
	Spec platform.Spec
	// MaxThreads bounds the thread ladder (the encoder saturation point).
	MaxThreads int
	// QPMin and QPMax bound the QP adjustments (22..37, the same interval
	// the learning managers use).
	QPMin, QPMax int
	// PSNRTargetdB is the quality set-point the QP rule chases when
	// throughput and bandwidth allow (Grellert's quality objective).
	PSNRTargetdB float64
	// FPSHeadroom is the multiplicative margin above the target at which
	// the thread rule releases a thread (hysteresis against oscillation).
	FPSHeadroom float64
	// Period is the decision cadence in frames (6, as for the mono-agent).
	Period int
	// Objectives and constraints.
	TargetFPS     float64
	BandwidthMbps float64
	PowerCapW     float64
}

// DefaultHeuristicConfig returns the configuration used in the
// experiments.
func DefaultHeuristicConfig(res video.Resolution, spec platform.Spec, maxUsefulThreads int) HeuristicConfig {
	bw := 6.0
	if res == video.LR {
		bw = 3.0
	}
	return HeuristicConfig{
		Spec:          spec,
		MaxThreads:    maxUsefulThreads,
		QPMin:         22,
		QPMax:         37,
		PSNRTargetdB:  40.5,
		FPSHeadroom:   1.08,
		Period:        6,
		TargetFPS:     transcode.DefaultTargetFPS,
		BandwidthMbps: bw,
		PowerCapW:     spec.PowerCapW,
	}
}

// Validate reports whether the configuration is usable.
func (c HeuristicConfig) Validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.MaxThreads < 1 {
		return fmt.Errorf("baseline: max threads %d invalid", c.MaxThreads)
	}
	if c.QPMin < 0 || c.QPMax > 51 || c.QPMin >= c.QPMax {
		return fmt.Errorf("baseline: QP bounds [%d,%d] invalid", c.QPMin, c.QPMax)
	}
	if c.Period < 1 {
		return fmt.Errorf("baseline: period %d invalid", c.Period)
	}
	if c.FPSHeadroom <= 1 {
		return fmt.Errorf("baseline: FPS headroom %g must exceed 1", c.FPSHeadroom)
	}
	if c.TargetFPS <= 0 || c.PowerCapW <= 0 || c.BandwidthMbps < 0 {
		return fmt.Errorf("baseline: objectives invalid")
	}
	return nil
}

// Heuristic is the Grellert-style rule-based controller: once per period
// it reacts to the averaged observations with one step per knob.
//
// Characteristic behaviour (paper SV-B): it drives quality up to its PSNR
// set-point with a *low* number of threads, relies on the *maximum*
// frequency for throughput, and only leaves it when the power cap is hit
// — the opposite strategy to MAMUT's many-threads/low-frequency policy,
// and the reason it burns 10-24% more power.
type Heuristic struct {
	cfg      HeuristicConfig
	settings transcode.Settings

	n          int
	sumFPS     float64
	sumPSNR    float64
	sumPower   float64
	sumBitrate float64

	// lastFPS and grewThreads implement Grellert's effectiveness check:
	// if adding a thread did not improve throughput (parallel efficiency
	// exhausted or the machine is saturated), the step is undone instead
	// of escalating further.
	lastFPS     float64
	grewThreads bool
}

// NewHeuristic builds the rule-based controller.
func NewHeuristic(cfg HeuristicConfig, initial transcode.Settings) (*Heuristic, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := initial.Validate(); err != nil {
		return nil, err
	}
	if initial.Threads > cfg.MaxThreads {
		initial.Threads = cfg.MaxThreads
	}
	return &Heuristic{cfg: cfg, settings: initial}, nil
}

// Name implements transcode.Controller.
func (h *Heuristic) Name() string { return "heuristic" }

// OnFrameStart implements transcode.Controller.
func (h *Heuristic) OnFrameStart(fs transcode.FrameStart) transcode.Settings {
	if fs.FrameIndex%h.cfg.Period != 0 || h.n == 0 {
		return h.settings
	}
	f := float64(h.n)
	fps := h.sumFPS / f
	psnr := h.sumPSNR / f
	power := h.sumPower / f
	bitrate := h.sumBitrate / f
	h.n, h.sumFPS, h.sumPSNR, h.sumPower, h.sumBitrate = 0, 0, 0, 0, 0

	s := h.settings

	// Power governor: back off one rung at/over the cap, otherwise run at
	// the top rung for maximum throughput headroom.
	if power >= h.cfg.PowerCapW {
		s.FreqGHz = h.cfg.Spec.StepDown(s.FreqGHz, true)
	} else {
		s.FreqGHz = h.cfg.Spec.MaxGHz()
	}

	// Thread rule: chase the FPS target one thread at a time, with
	// hysteresis before releasing, and undo a grow step that brought no
	// throughput (the effectiveness check of the original scheme — on a
	// saturated machine more threads only add contention).
	switch {
	case h.grewThreads && fps <= h.lastFPS*1.02 && s.Threads > 1:
		s.Threads--
		h.grewThreads = false
	case fps < h.cfg.TargetFPS && s.Threads < h.cfg.MaxThreads:
		s.Threads++
		h.grewThreads = true
	case fps > h.cfg.TargetFPS*h.cfg.FPSHeadroom && s.Threads > 1:
		s.Threads--
		h.grewThreads = false
	default:
		h.grewThreads = false
	}
	h.lastFPS = fps

	// QP rule: bandwidth violations dominate; then, if throughput is
	// satisfied, chase the quality set-point; if throughput fails with
	// threads exhausted, trade quality for speed.
	switch {
	case h.cfg.BandwidthMbps > 0 && bitrate > h.cfg.BandwidthMbps && s.QP < h.cfg.QPMax:
		s.QP++
	case fps < h.cfg.TargetFPS && h.settings.Threads >= h.cfg.MaxThreads && s.QP < h.cfg.QPMax:
		s.QP++
	case fps >= h.cfg.TargetFPS && psnr < h.cfg.PSNRTargetdB && s.QP > h.cfg.QPMin:
		s.QP--
	}

	h.settings = s
	return s
}

// OnFrameDone implements transcode.Controller.
func (h *Heuristic) OnFrameDone(obs transcode.Observation) {
	h.sumFPS += obs.InstFPS
	h.sumPSNR += obs.PSNRdB
	h.sumPower += obs.PowerW
	h.sumBitrate += obs.BitrateMbps
	h.n++
}

// Settings returns the knob values currently in force.
func (h *Heuristic) Settings() transcode.Settings { return h.settings }

// heuristicState serialises the controller's mutable state for live
// session migration (the config is rebuilt by the destination).
type heuristicState struct {
	Settings    transcode.Settings `json:"settings"`
	N           int                `json:"n"`
	SumFPS      float64            `json:"sum_fps"`
	SumPSNR     float64            `json:"sum_psnr"`
	SumPower    float64            `json:"sum_power"`
	SumBitrate  float64            `json:"sum_bitrate"`
	LastFPS     float64            `json:"last_fps"`
	GrewThreads bool               `json:"grew_threads"`
}

// ControllerState implements transcode.StatefulController: the complete
// decision state (current settings, window accumulators, effectiveness
// check memory), so a migrated session's rule firing is unchanged.
func (h *Heuristic) ControllerState() any {
	return heuristicState{
		Settings: h.settings, N: h.n,
		SumFPS: h.sumFPS, SumPSNR: h.sumPSNR,
		SumPower: h.sumPower, SumBitrate: h.sumBitrate,
		LastFPS: h.lastFPS, GrewThreads: h.grewThreads,
	}
}

// RestoreControllerState implements transcode.StatefulController.
func (h *Heuristic) RestoreControllerState(state any) error {
	st, err := transcode.ResolveControllerState[heuristicState](state)
	if err != nil {
		return fmt.Errorf("baseline: restore heuristic state: %w", err)
	}
	if err := st.Settings.Validate(); err != nil {
		return fmt.Errorf("baseline: restore heuristic state: %w", err)
	}
	if st.N < 0 {
		return fmt.Errorf("baseline: restore heuristic state: negative window count %d", st.N)
	}
	h.settings = st.Settings
	h.n = st.N
	h.sumFPS, h.sumPSNR, h.sumPower, h.sumBitrate = st.SumFPS, st.SumPSNR, st.SumPower, st.SumBitrate
	h.lastFPS, h.grewThreads = st.LastFPS, st.GrewThreads
	return nil
}

var _ transcode.Controller = (*Heuristic)(nil)
var _ transcode.StatefulController = (*Heuristic)(nil)
