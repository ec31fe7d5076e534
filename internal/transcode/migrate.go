package transcode

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/video"
	"mamut/internal/xrand"
)

// Live session migration: ExtractSession freezes one session into a
// SessionState and removes it; InjectSession resumes it mid-stream on
// another engine (or the same one, under a new id). The state is
// complete — frame cursor, playlist/content process, per-session energy
// and duration accumulators, every rng stream, the controller's decision
// state, and the in-flight frame's completion anchor — so a migrated
// session continues as the same logical stream, deterministically.
// Injection pays the honest settlement: the destination's accounting is
// exact for its own timeline, but a migrated fleet is a different
// physical scenario than an unmigrated one, so its floats legitimately
// differ.
//
// Both build on freeze, a pure read of one session's state: it computes
// the running segment's settlement without applying it, so the frozen
// floats are bit-identical to the ones an applied settlement would
// leave. SnapshotSession is freeze alone, for checkpoints: the engine is
// left untouched. ExtractSession is freeze followed by the removal. The
// frozen state holds the content process's typed video.SourceState and
// the controller's typed ControllerState value, so freezing runs no
// codec and no reflection, and an in-process hand-over passes the state
// straight to InjectSession. EncodeSessionState and DecodeSessionState
// are the wire form, for a state that leaves the process; a NaN or
// infinite float in the controller state is refused only there, by
// encoding/json.

// StatefulController is a Controller whose decision state can be frozen
// and restored, which is what makes its session migratable. The state
// is opaque to the engine; RestoreControllerState is called on a
// freshly built controller of the same configuration.
type StatefulController interface {
	Controller
	// ControllerState freezes the complete decision state as a typed
	// value that encoding/json marshals: nothing the controller does
	// later reaches it (it may share memory the controller never writes
	// again), so it stays valid while the controller runs on, and it
	// may be restored into any number of controllers.
	ControllerState() any
	// RestoreControllerState resumes from a ControllerState value, either
	// as ControllerState returned it (an in-process hand-over) or as its
	// JSON encoding in a json.RawMessage (a state DecodeSessionState
	// read); ResolveControllerState resolves both. It never writes to
	// the state.
	RestoreControllerState(state any) error
}

// ResolveControllerState resolves a state handed to
// RestoreControllerState to the controller's concrete state type T:
// the value itself, or T decoded from its json.RawMessage encoding.
func ResolveControllerState[T any](state any) (T, error) {
	var v T
	switch s := state.(type) {
	case T:
		return s, nil
	case json.RawMessage:
		err := json.Unmarshal(s, &v)
		return v, err
	}
	return v, fmt.Errorf("controller state of type %T, want %T", state, v)
}

// sessionFormatVersion is the current SessionState payload format.
// Decoders accept this version and older; newer payloads error cleanly.
// Payloads written when a session could retain its frames carry
// "collect_trace" and "trace" fields, and ones written when a session
// could override its encoder preset may carry "preset"; decoding
// ignores them (every session now uses hevc.PresetFor of its class), so
// the version did not change when they were retired.
const sessionFormatVersion = 1

// SessionState is a frozen session: everything InjectSession needs to
// resume the stream on another engine. SnapshotSession and
// ExtractSession return it with the source's and the controller's typed
// states; an in-process hand-over injects it as is, with the floats the
// live session held. EncodeSessionState writes it when it leaves the
// process and refuses it there if a float is NaN or infinite (encoding/json
// does). An encoded state round-trips bit-identically, so injecting the
// decoded state resumes exactly what injecting the frozen one does.
type SessionState struct {
	Version int `json:"format_version"`
	// ID is the session's id on the engine it was extracted from.
	ID int `json:"id"`
	// Res is the stream's resolution class.
	Res video.Resolution `json:"res"`

	// Session parameters (the SessionConfig minus source and controller,
	// which travel as their frozen states below).
	Initial       Settings `json:"initial"`
	BandwidthMbps float64  `json:"bandwidth_mbps"`
	TargetFPS     float64  `json:"target_fps"`
	FrameBudget   int      `json:"frame_budget"`
	StartAtSec    float64  `json:"start_at_sec"`

	// Stream cursor and in-flight frame. Running is false only for a
	// session extracted before its scheduled arrival; CompletionKey and
	// VNow anchor the in-flight frame's pending completion on the source
	// engine's virtual clock.
	Running       bool        `json:"running"`
	Settings      Settings    `json:"settings"`
	FrameIdx      int         `json:"frame_idx"`
	FrameStart    float64     `json:"frame_start"`
	CurFrame      video.Frame `json:"cur_frame"`
	CurPSNR       float64     `json:"cur_psnr"`
	CurBits       float64     `json:"cur_bits"`
	CompletionKey float64     `json:"completion_key"`
	VNow          float64     `json:"vnow"`

	// Accumulators.
	Durations   [fpsWindow]float64 `json:"durations"`
	DynEnergyJ  float64            `json:"dyn_energy_j"`
	Tally                          // its fields encode flat, in place
	FirstAction bool               `json:"first_action"`

	// Sub-states: the content process (video.StatefulSource), the
	// controller (StatefulController: its ControllerState value, or that
	// value's JSON when DecodeSessionState read the state) and the
	// encoder noise stream.
	Source     video.SourceState `json:"source"`
	Controller any               `json:"controller"`
	EncoderRNG uint64            `json:"encoder_rng"`

	// StallSec is the migration cost: extra real-time the in-flight frame
	// is stalled at injection, modelling state transfer and stream
	// re-attachment. The migration coordinator sets it before injecting;
	// the lengthened frame duration counts against the SLO like any slow
	// frame. Extraction always leaves it zero.
	StallSec float64 `json:"stall_sec,omitempty"`
}

// Validate checks the state's internal consistency. It is called by
// every freeze, InjectSession and DecodeSessionState, so a corrupted or
// hand-rolled payload fails loudly instead of desynchronising an engine.
func (st *SessionState) Validate() error {
	if st.Version < 0 || st.Version > sessionFormatVersion {
		return fmt.Errorf("transcode: session state: format version %d not supported (current %d)", st.Version, sessionFormatVersion)
	}
	if st.Res != video.HR && st.Res != video.LR {
		return fmt.Errorf("transcode: session state: unknown resolution %d", int(st.Res))
	}
	if err := st.Initial.Validate(); err != nil {
		return fmt.Errorf("transcode: session state: initial settings: %w", err)
	}
	if err := st.Settings.Validate(); err != nil {
		return fmt.Errorf("transcode: session state: settings: %w", err)
	}
	if st.FrameBudget < 1 {
		return fmt.Errorf("transcode: session state: frame budget %d < 1", st.FrameBudget)
	}
	if st.Frames < 0 || st.Frames >= st.FrameBudget {
		return fmt.Errorf("transcode: session state: %d frames done outside [0,%d)", st.Frames, st.FrameBudget)
	}
	if st.Violations < 0 || st.Violations > st.Frames {
		return fmt.Errorf("transcode: session state: %d violations outside [0,%d]", st.Violations, st.Frames)
	}
	if st.FrameIdx < st.Frames {
		return fmt.Errorf("transcode: session state: frame index %d below %d frames done", st.FrameIdx, st.Frames)
	}
	for _, v := range []struct {
		name string
		v    float64
		min  float64
	}{
		{"bandwidth", st.BandwidthMbps, 0},
		{"target fps", st.TargetFPS, math.SmallestNonzeroFloat64},
		{"start time", st.StartAtSec, 0},
		{"frame start", st.FrameStart, 0},
		{"current psnr", st.CurPSNR, 0},
		{"current bits", st.CurBits, 0},
		{"completion key", st.CompletionKey, 0},
		{"vnow", st.VNow, 0},
		{"dynamic energy", st.DynEnergyJ, 0},
		{"stall", st.StallSec, 0},
	} {
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) || v.v < v.min {
			return fmt.Errorf("transcode: session state: %s %g invalid", v.name, v.v)
		}
	}
	for _, v := range []float64{st.SumFPS, st.SumPSNR, st.SumBitrate, st.SumThreads, st.SumFreq, st.SumQP} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("transcode: session state: non-finite accumulator %g", v)
		}
	}
	n := st.Frames
	if n > fpsWindow {
		n = fpsWindow
	}
	for i := 0; i < n; i++ {
		if d := st.Durations[i]; math.IsNaN(d) || math.IsInf(d, 0) || d <= 0 {
			return fmt.Errorf("transcode: session state: frame duration %g invalid", d)
		}
	}
	if st.Running {
		if st.CompletionKey < st.VNow {
			return fmt.Errorf("transcode: session state: completion key %g before virtual clock %g", st.CompletionKey, st.VNow)
		}
	} else if st.Frames != 0 || st.FrameIdx != 0 {
		return fmt.Errorf("transcode: session state: not running but %d frames at index %d", st.Frames, st.FrameIdx)
	}
	if st.Source.Sequence == "" {
		return fmt.Errorf("transcode: session state: missing source state")
	}
	if st.Controller == nil {
		return fmt.Errorf("transcode: session state: missing controller state")
	}
	return nil
}

// sessionEnvelope is the durable encoding of a SessionState: the payload
// plus a checksum, mirroring the knowledge artifact format, so a
// truncated or bit-flipped transfer is rejected instead of resuming a
// corrupted stream.
type sessionEnvelope struct {
	Version int             `json:"format_version"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// EncodeSessionState serialises a SessionState with an integrity checksum
// for transfer between processes. DecodeSessionState is the inverse. It
// refuses a state holding a NaN or infinite float anywhere, the
// controller's learner rows included: encoding/json cannot write one.
func EncodeSessionState(st *SessionState) ([]byte, error) {
	if st == nil {
		return nil, fmt.Errorf("transcode: encode session state: nil state")
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("transcode: encode session state: %w", err)
	}
	sum := sha256.Sum256(payload)
	return json.Marshal(sessionEnvelope{Version: sessionFormatVersion, SHA256: hex.EncodeToString(sum[:]), Payload: payload})
}

// DecodeSessionState parses an EncodeSessionState artifact, verifying the
// checksum and validating the state. The source state decodes to its
// typed value; the controller state stays in its JSON form, a
// json.RawMessage, for RestoreControllerState to decode.
func DecodeSessionState(data []byte) (*SessionState, error) {
	var env sessionEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("transcode: decode session state: %w", err)
	}
	if env.Version < 0 || env.Version > sessionFormatVersion {
		return nil, fmt.Errorf("transcode: decode session state: format version %d not supported (current %d)", env.Version, sessionFormatVersion)
	}
	sum := sha256.Sum256(env.Payload)
	if got := hex.EncodeToString(sum[:]); got != env.SHA256 {
		return nil, fmt.Errorf("transcode: decode session state: payload checksum mismatch (artifact corrupted or tampered with): have %s, recorded %s", got, env.SHA256)
	}
	// The outer Controller field shadows the embedded one, so the
	// payload's controller state is kept as raw JSON.
	var w struct {
		SessionState
		Controller json.RawMessage `json:"controller"`
	}
	if err := json.Unmarshal(env.Payload, &w); err != nil {
		return nil, fmt.Errorf("transcode: decode session state: %w", err)
	}
	st := &w.SessionState
	if w.Controller != nil {
		st.Controller = w.Controller
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// ExtractSession removes one live session from the engine and returns its
// frozen state. The session's resources are released (its load leaves the
// contention pool, its pending event is unscheduled) and its id is
// retired — ids are never reused, so event determinism is unaffected. The
// session's source and controller must support state snapshots
// (video.StatefulSource, StatefulController). The state is frozen and
// checked like SnapshotSession's before anything is removed, so a
// rejected extraction leaves the engine untouched.
//
// Extraction settles the running segment first: the departing load
// contributed power and contention up to this instant, and the remaining
// sessions' accounting must reflect that.
func (e *Engine) ExtractSession(id int) (*SessionState, error) {
	st, err := e.freeze("ExtractSession", id)
	if err != nil {
		return nil, err
	}
	s := e.sessions[id]
	if s.running {
		// Settle energy and the virtual clock to now at the pre-removal
		// rates: the same settlement freeze computed.
		powerIdeal, speed := e.segRates()
		e.settle(e.now, powerIdeal, speed)
		if err := e.acct.Remove(s.load); err != nil {
			return nil, fmt.Errorf("transcode: ExtractSession(%d): %w", id, err)
		}
		e.compl.removeByID(id)
	} else {
		e.arrivals.removeByID(id)
	}
	e.totalBudget -= s.cfg.FrameBudget - s.tally.Frames
	e.sessions[id] = nil
	if e.extracted == nil {
		e.extracted = make(map[int]bool)
	}
	e.extracted[id] = true
	return st, nil
}

// SnapshotSession freezes one live session without removing it, for a
// checkpoint. It is a pure read: the engine is left exactly as it was.
// It fails with ExtractSession's errors under its own name, so a state
// it returns passes Validate and injects wherever an extracted one
// would.
func (e *Engine) SnapshotSession(id int) (*SessionState, error) {
	return e.freeze("SnapshotSession", id)
}

// freeze reads one session's state without touching the engine, with
// the source's and the controller's typed states, and checks it with
// Validate, which refuses a NaN or infinite session-level float. A
// running session's state is taken as if the running segment were
// settled to now; freeze computes that settlement with the float
// operations settle performs, so the values are bit-identical to those
// ExtractSession leaves behind. op names the caller in errors.
func (e *Engine) freeze(op string, id int) (*SessionState, error) {
	if e.finished {
		return nil, fmt.Errorf("transcode: %s(%d): sessions are frozen mid-frame in the terminal state and cannot be exported: %w", op, id, errFinished)
	}
	if id < 0 || id >= len(e.sessions) {
		return nil, fmt.Errorf("transcode: %s(%d): no such session", op, id)
	}
	s := e.sessions[id]
	if s == nil {
		if e.extracted[id] {
			return nil, fmt.Errorf("transcode: %s(%d): session already extracted", op, id)
		}
		return nil, fmt.Errorf("transcode: %s(%d): session departed and was discarded", op, id)
	}
	if s.done {
		return nil, fmt.Errorf("transcode: %s(%d): session already departed", op, id)
	}
	src, ok := s.cfg.Source.(video.StatefulSource)
	if !ok {
		return nil, fmt.Errorf("transcode: %s(%d): video source %T does not support state snapshots", op, id, s.cfg.Source)
	}
	ctrl, ok := s.cfg.Controller.(StatefulController)
	if !ok {
		return nil, fmt.Errorf("transcode: %s(%d): controller %q does not support migration", op, id, s.cfg.Controller.Name())
	}
	srcState, err := src.SourceState()
	if err != nil {
		return nil, fmt.Errorf("transcode: %s(%d): %w", op, id, err)
	}

	st := &SessionState{
		Version:       sessionFormatVersion,
		ID:            id,
		Res:           s.cfg.Source.Res(),
		Initial:       s.cfg.Initial,
		BandwidthMbps: s.cfg.BandwidthMbps,
		TargetFPS:     s.cfg.TargetFPS,
		FrameBudget:   s.cfg.FrameBudget,
		StartAtSec:    s.cfg.StartAtSec,
		Settings:      s.settings,
		FrameIdx:      s.frameIdx,
		CurFrame:      s.curFrame,
		CurPSNR:       s.curPSNR,
		CurBits:       s.curBits,
		Durations:     s.durations,
		DynEnergyJ:    s.dynEnergyJ,
		Tally:         s.tally,
		FirstAction:   s.firstAction,
		Source:        srcState,
		EncoderRNG:    s.encSrc.State(),
	}
	if s.running {
		ev, ok := e.compl.find(id)
		if !ok {
			// Unreachable: a running session always has a pending completion.
			return nil, fmt.Errorf("transcode: %s(%d): no pending completion", op, id)
		}
		// settle's virtual-clock step to now (the completion heap holds
		// ev, so it is not empty), then the session's own dynamic-energy
		// integral up to it.
		_, speed := e.segRates()
		vnow := e.vnow
		if dt := e.now - e.segStart; dt > 0 {
			vnow += speed * dt
		}
		st.Running = true
		st.CompletionKey = ev.key
		st.VNow = vnow
		st.FrameStart = s.frameStart
		st.DynEnergyJ += s.dynCoef * (vnow - s.vMark)
	} else {
		ev, ok := e.arrivals.find(id)
		if !ok {
			return nil, fmt.Errorf("transcode: %s(%d): no pending arrival", op, id)
		}
		st.StartAtSec = ev.key
	}
	st.Controller = ctrl.ControllerState()
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// InjectSession resumes an extracted session on this engine. src and ctrl
// are freshly built counterparts of the originals (same sequence, same
// controller configuration); their mid-stream state is restored from the
// payload. The returned id is the session's id on this engine; ids are
// never reused, so it is a new one even on the source engine. The
// in-flight frame's completion is re-anchored on this engine's virtual
// clock, plus StallSec of migration stall converted at the current clock
// speed.
func (e *Engine) InjectSession(src video.Source, ctrl Controller, st *SessionState) (int, error) {
	if e.finished {
		return 0, fmt.Errorf("transcode: InjectSession: %w", errFinished)
	}
	if st == nil {
		return 0, fmt.Errorf("transcode: InjectSession: nil session state")
	}
	if err := st.Validate(); err != nil {
		return 0, err
	}
	if src == nil {
		return 0, fmt.Errorf("transcode: InjectSession: nil video source")
	}
	if ctrl == nil {
		return 0, fmt.Errorf("transcode: InjectSession: nil controller")
	}
	if src.Res() != st.Res {
		return 0, fmt.Errorf("transcode: InjectSession: source is %s, state is %s", src.Res(), st.Res)
	}
	ssrc, ok := src.(video.StatefulSource)
	if !ok {
		return 0, fmt.Errorf("transcode: InjectSession: video source %T does not support state snapshots", src)
	}
	if err := ssrc.RestoreSourceState(st.Source); err != nil {
		return 0, fmt.Errorf("transcode: InjectSession: %w", err)
	}
	sctrl, ok := ctrl.(StatefulController)
	if !ok {
		return 0, fmt.Errorf("transcode: InjectSession: controller %q does not support migration", ctrl.Name())
	}
	if err := sctrl.RestoreControllerState(st.Controller); err != nil {
		return 0, fmt.Errorf("transcode: InjectSession: %w", err)
	}

	encSrc := xrand.NewSource(0)
	encSrc.SetState(st.EncoderRNG)
	enc, err := hevc.NewEncoder(st.Res, hevc.PresetFor(st.Res), e.model, rand.New(encSrc))
	if err != nil {
		return 0, fmt.Errorf("transcode: InjectSession: %w", err)
	}

	id := len(e.sessions)
	s := &session{
		cfg: SessionConfig{
			Source:        src,
			Controller:    ctrl,
			Initial:       st.Initial,
			BandwidthMbps: st.BandwidthMbps,
			TargetFPS:     st.TargetFPS,
			FrameBudget:   st.FrameBudget,
			StartAtSec:    st.StartAtSec,
		},
		id:          id,
		enc:         enc,
		encSrc:      encSrc,
		settings:    st.Settings,
		frameIdx:    st.FrameIdx,
		curFrame:    st.CurFrame,
		curPSNR:     st.CurPSNR,
		curBits:     st.CurBits,
		durations:   st.Durations,
		nDur:        st.Frames,
		dynEnergyJ:  st.DynEnergyJ,
		tally:       st.Tally,
		firstAction: st.FirstAction,
	}
	if !st.Running {
		// Extracted before its arrival: schedule it like a fresh admission.
		at := st.StartAtSec
		if at < e.now {
			at = e.now
			s.cfg.StartAtSec = at
		}
		e.sessions = append(e.sessions, s)
		e.arrivals.push(event{key: at, id: id})
		e.totalBudget += st.FrameBudget - st.Frames
		return id, nil
	}

	// Resume mid-frame. Settle the running segment at the pre-arrival
	// rates first — the incoming load only contends from this instant —
	// then anchor the in-flight completion on this engine's virtual clock:
	// the frame still needs (CompletionKey - VNow) virtual seconds.
	powerIdeal, speed := e.segRates()
	e.settle(e.now, powerIdeal, speed)
	load := platform.SessionLoad{
		Threads: st.Settings.Threads,
		FreqGHz: st.Settings.FreqGHz,
		Speedup: enc.Speedup(st.Settings.Threads),
	}
	if err := e.acct.Add(load); err != nil {
		return 0, fmt.Errorf("transcode: InjectSession: %w", err)
	}
	s.running = true
	s.load = load
	s.dynCoef = e.dynCoef(load)
	s.vMark = e.vnow
	s.frameStart = st.FrameStart
	if s.frameStart > e.now {
		s.frameStart = e.now
	}
	key := st.CompletionKey
	if e.vnow != st.VNow {
		key = e.vnow + (st.CompletionKey - st.VNow)
	}
	if st.StallSec > 0 {
		// Convert the real-time stall to virtual seconds at the clock
		// speed now in force (with the migrated load already resident).
		_, speedNow := e.segRates()
		key += st.StallSec * speedNow
	}
	e.sessions = append(e.sessions, s)
	e.compl.push(event{key: key, id: id})
	e.totalBudget += st.FrameBudget - st.Frames
	return id, nil
}
