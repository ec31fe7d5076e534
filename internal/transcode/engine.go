package transcode

import (
	"fmt"
	"math"
	"math/rand"

	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/video"
	"mamut/internal/xrand"
)

// DefaultTargetFPS is the real-time target frame rate of the paper.
const DefaultTargetFPS = 24.0

// fpsWindow is the number of recent frames the windowed FPS estimate
// averages over. Six frames matches the fastest agent period, so every
// DVFS decision sees a fresh estimate.
const fpsWindow = 6

// SessionConfig describes one user's transcoding request.
type SessionConfig struct {
	// Source provides the stream content. Required.
	Source video.Source
	// Controller drives the session's knobs. Required.
	Controller Controller
	// Initial are the knob settings for the first frame.
	Initial Settings
	// BandwidthMbps is the user's available bandwidth (the bitrate
	// constraint). Zero means unconstrained.
	BandwidthMbps float64
	// TargetFPS is the real-time target; DefaultTargetFPS when zero.
	TargetFPS float64
	// FrameBudget is how many frames to transcode; required, positive.
	FrameBudget int
	// StartAtSec delays the session's arrival: it joins the contention
	// pool at this simulated time (0 = present from the start). Models
	// the paper's SV-C "users coming and going continuously". A session
	// added while the simulation is already past this time joins
	// immediately.
	StartAtSec float64
}

// session is the engine's live state for one stream.
type session struct {
	cfg      SessionConfig
	id       int
	enc      *hevc.Encoder
	encSrc   *xrand.Source // the encoder rng's source, for migration snapshots
	settings Settings

	frameIdx   int
	frameStart float64 // sim time the current frame began
	curFrame   video.Frame
	curPSNR    float64
	curBits    float64

	// Event-scheduler state. While a session is running it holds exactly
	// one resident load in the engine's LoadAccount and exactly one
	// pending completion event in the heap.
	running bool
	load    platform.SessionLoad
	dynCoef float64 // DynPowerPerCoreW * V^2f-norm * speedup for this frame
	vMark   float64 // virtual time the dynamic-energy integral was settled at

	durations [fpsWindow]float64
	nDur      int

	done bool // departed (budget reached in stop mode)

	// accumulators for the result
	dynEnergyJ  float64
	tally       Tally
	firstAction bool
}

// SessionResult summarises one session after a run.
type SessionResult struct {
	// ID is the session's index in the engine.
	ID int
	// Name is the controller name.
	Name string
	// Res is the stream's resolution class.
	Res video.Resolution
	// Frames is the number of frames transcoded.
	Frames int
	// Violations counts frames whose windowed FPS fell below the target;
	// ViolationPct is the paper's Delta metric.
	Violations   int
	ViolationPct float64
	// DynEnergyJ is the session's share of the dynamic energy (idle power
	// is not attributed to sessions).
	DynEnergyJ float64
	// Averages over all frames.
	AvgFPS         float64
	AvgPSNRdB      float64
	AvgBitrateMbps float64
	AvgThreads     float64
	AvgFreqGHz     float64
	AvgQP          float64
}

// Tally is the per-session observation fold: the frame and violation
// counts and the per-frame sums behind a SessionResult's averages. The
// engine keeps one per session over every frame it books, and the paper
// harness keeps one per session over its measured window, so both reach
// their averages through the same float operations in the same order.
// Its fields are the session wire format's accumulators.
type Tally struct {
	Frames int `json:"frames"`
	// Violations counts frames whose windowed FPS fell below the target.
	Violations int     `json:"violations"`
	SumFPS     float64 `json:"sum_fps"`
	SumPSNR    float64 `json:"sum_psnr"`
	SumBitrate float64 `json:"sum_bitrate"`
	SumThreads float64 `json:"sum_threads"`
	SumFreq    float64 `json:"sum_freq"`
	SumQP      float64 `json:"sum_qp"`
}

// Add folds one observation; a frame whose windowed FPS is below
// targetFPS counts as a violation.
func (t *Tally) Add(o *Observation, targetFPS float64) {
	t.Frames++
	if o.FPS < targetFPS {
		t.Violations++
	}
	t.SumFPS += o.FPS
	t.SumPSNR += o.PSNRdB
	t.SumBitrate += o.BitrateMbps
	t.SumThreads += float64(o.Settings.Threads)
	t.SumFreq += o.Settings.FreqGHz
	t.SumQP += float64(o.Settings.QP)
}

// Result returns the tally as the counting fields of a SessionResult:
// frames, violations, the violation percentage and the per-frame
// averages, all zero before the first frame. The identifying fields and
// DynEnergyJ are the caller's to fill.
func (t *Tally) Result() SessionResult {
	sr := SessionResult{Frames: t.Frames, Violations: t.Violations}
	if t.Frames > 0 {
		f := float64(t.Frames)
		sr.ViolationPct = 100 * float64(t.Violations) / f
		sr.AvgFPS = t.SumFPS / f
		sr.AvgPSNRdB = t.SumPSNR / f
		sr.AvgBitrateMbps = t.SumBitrate / f
		sr.AvgThreads = t.SumThreads / f
		sr.AvgFreqGHz = t.SumFreq / f
		sr.AvgQP = t.SumQP / f
	}
	return sr
}

// Result is the outcome of an engine run.
type Result struct {
	// DurationSec is the total simulated time.
	DurationSec float64
	// EnergyJ integrates the noise-free package power over the run.
	EnergyJ float64
	// AvgPowerW is EnergyJ / DurationSec.
	AvgPowerW float64
	// Sessions holds one entry per session still in the engine, in id
	// order: extracted sessions are absent, and so are departed ones when
	// an OnSessionEnd hook is installed.
	Sessions []SessionResult
}

// SessionEnd is the departure notification delivered to the OnSessionEnd
// hook when a session reaches its frame budget and releases its resources.
type SessionEnd struct {
	// SessionID is the departing session's engine id.
	SessionID int
	// Res is the stream's resolution class.
	Res video.Resolution
	// Time is the simulated departure time (the last frame's completion).
	Time float64
	// Frames is the number of frames the session transcoded.
	Frames int
	// Result is the session's complete summary at departure — identical
	// to the entry a hookless engine's Result.Sessions holds for it. It is
	// the only copy: the session leaves the engine with this event.
	Result SessionResult
}

// Engine simulates a set of sessions sharing one server.
//
// The core is an indexed event scheduler: pending frame completions live
// in a min-heap keyed by virtual service time (see events.go), the
// platform's contention state is maintained incrementally in a
// platform.LoadAccount, and per-session dynamic energy integrates lazily
// against the virtual clock. One frame event therefore costs O(log n) in
// the number of active sessions instead of the O(n) full-platform rescan
// the linear core paid.
//
// The engine also supports a live session lifecycle: AddSession works
// mid-run (including from an OnSessionEnd hook), AdvanceTo steps the
// simulation to an absolute time so callers can interleave it with an
// outer event loop (internal/serve interleaves a whole fleet this way),
// and OnSessionEnd delivers explicit departure notifications.
//
// There is one way out for each kind of output: every Observation leaves
// through OnFrame, as it is booked, and a departed session leaves through
// OnSessionEnd when a hook is installed (otherwise it stays in the
// end-of-run Result.Sessions).
type Engine struct {
	server *platform.Server
	// spec is the server's spec, read in place (it follows Reprofile),
	// so the per-event paths never copy it.
	spec     *platform.Spec
	model    hevc.Model
	sessions []*session
	rng      *rand.Rand
	now      float64 // real simulated time
	vnow     float64 // virtual service time (integral of scale dt)
	segStart float64 // time energy and vnow are settled up to (<= now)
	energy   float64
	acct     *platform.LoadAccount
	compl    eventHeap // pending completions keyed by virtual service time
	arrivals eventHeap // pending arrivals keyed by real time
	onEnd    func(SessionEnd)
	onFrame  func(Observation)

	totalBudget int // sum of frame budgets, for the livelock guard
	framesDone  int // frames completed so far (catch-up frames included)
	events      int
	finished    bool // RunUntilAll completed; the live lifecycle is closed

	// Migration state (see migrate.go): ids removed by ExtractSession, to
	// tell them apart from departures the OnSessionEnd hook took out in
	// error messages.
	extracted map[int]bool

	batch []*session // scratch for completion batches
}

// NewEngine builds an engine over the given platform spec and encoder
// model. The seed drives all stochastic parts owned by the engine (power
// metering and encoder noise); video sources carry their own rngs. The
// engine's rng streams are xrand (splitmix64) streams: sources seed in
// O(1), so creating an engine — and admitting a session, which seeds the
// encoder's noise rng — stays cheap on a serving fleet's admission path.
func NewEngine(spec platform.Spec, model hevc.Model, seed int64) (*Engine, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(seed)
	srv, err := platform.NewServer(spec, xrand.New(rng.Int63()))
	if err != nil {
		return nil, err
	}
	return &Engine{server: srv, spec: srv.SpecInPlace(), model: model, rng: rng, acct: srv.NewLoadAccount()}, nil
}

// Server exposes the platform (used by controllers needing spec data).
func (e *Engine) Server() *platform.Server { return e.server }

// Reprofile swaps the server's platform spec live — the fault-injection
// layer uses it to cut (and later restore) a degraded machine's power
// cap mid-run. The running segment is settled at the old spec's rates
// first, so energy and the virtual clock up to this instant are exactly
// what they would have been without the swap; the new spec governs
// from now on. The spec is validated; the frequency ladder must keep
// every resident load's frequency (their contention contributions were
// resolved at admission), which holds trivially for cap-only changes.
func (e *Engine) Reprofile(spec platform.Spec) error {
	if e.finished {
		return errFinished
	}
	powerIdeal, speed := e.segRates()
	e.settle(e.now, powerIdeal, speed)
	if err := e.server.SetSpec(spec); err != nil {
		return fmt.Errorf("transcode: Reprofile: %w", err)
	}
	return nil
}

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// ActiveSessions returns the number of sessions currently holding
// resources (arrived and not departed).
func (e *Engine) ActiveSessions() int { return e.acct.Active() }

// OnSessionEnd installs the departure hook. It fires when a session
// reaches its frame budget and leaves (Run/AdvanceTo semantics; in
// RunUntilAll nobody departs, so it never fires). The SessionEnd carries
// the session's complete result, and the session then leaves the engine:
// its state is dropped and it is absent from Result.Sessions. An engine
// with a hook therefore holds O(active sessions), which is what lets a
// serving horizon of any length run in constant memory; ids are never
// reused, so event order is unaffected. The hook runs inside the event
// loop: it may call AddSession, but must not call Run, RunUntilAll or
// AdvanceTo. A nil hook disables notification, and departed sessions
// then stay in Result.Sessions.
func (e *Engine) OnSessionEnd(fn func(SessionEnd)) { e.onEnd = fn }

// OnFrame installs a per-frame observer: it receives every Observation
// the engine books, in event order, and is the only way an Observation
// leaves the engine. A consumer sees each reading once, at completion
// time: the serve layer's power integrator folds every reading, and the
// paper harness keeps only each session's measured window. The hook runs
// inside the event loop and must not call back into the engine. A nil
// hook disables observation.
func (e *Engine) OnFrame(fn func(Observation)) { e.onFrame = fn }

// AddSession registers a session and returns the session id. Before the
// first Run/AdvanceTo call this is the classic batch setup; called
// mid-run it is a live arrival — the session joins the contention pool at
// StartAtSec, or immediately when that time has already passed.
func (e *Engine) AddSession(cfg SessionConfig) (int, error) {
	if cfg.Source == nil {
		return 0, fmt.Errorf("transcode: session needs a video source")
	}
	if cfg.Controller == nil {
		return 0, fmt.Errorf("transcode: session needs a controller")
	}
	if cfg.FrameBudget < 1 {
		return 0, fmt.Errorf("transcode: frame budget %d < 1", cfg.FrameBudget)
	}
	if err := cfg.Initial.Validate(); err != nil {
		return 0, fmt.Errorf("transcode: initial settings: %w", err)
	}
	if cfg.TargetFPS == 0 {
		cfg.TargetFPS = DefaultTargetFPS
	}
	if cfg.TargetFPS < 0 {
		return 0, fmt.Errorf("transcode: negative target FPS %g", cfg.TargetFPS)
	}
	if cfg.StartAtSec < 0 {
		return 0, fmt.Errorf("transcode: negative start time %g", cfg.StartAtSec)
	}
	if e.finished {
		return 0, errFinished
	}
	if cfg.StartAtSec < e.now {
		cfg.StartAtSec = e.now
	}
	// The encoder rng is built over an owned xrand.Source (same stream as
	// xrand.New) so ExtractSession can freeze the noise stream mid-run.
	encSrc := xrand.NewSource(e.rng.Int63())
	enc, err := hevc.NewEncoder(cfg.Source.Res(), hevc.PresetFor(cfg.Source.Res()), e.model, rand.New(encSrc))
	if err != nil {
		return 0, err
	}
	id := len(e.sessions)
	e.sessions = append(e.sessions, &session{
		cfg:         cfg,
		id:          id,
		enc:         enc,
		encSrc:      encSrc,
		settings:    cfg.Initial,
		firstAction: true,
	})
	e.arrivals.push(event{key: cfg.StartAtSec, id: id})
	e.totalBudget += cfg.FrameBudget
	return id, nil
}

// maxEventsPerFrame bounds the event loop against accidental livelock.
// The budget scales with frames actually completed (not just the nominal
// frame budgets), so RunUntilAll catch-up frames — which can dwarf the
// budgets under skewed session speeds — never trip it spuriously.
const maxEventsPerFrame = 64

// Run simulates until every session exhausts its frame budget and returns
// the aggregated result. A session that reaches its budget stops encoding
// and releases its resources (the user left).
func (e *Engine) Run() (*Result, error) {
	if len(e.sessions) == 0 {
		return nil, fmt.Errorf("transcode: no sessions")
	}
	if e.finished {
		return nil, errFinished
	}
	if err := e.advance(math.Inf(1), false); err != nil {
		return nil, err
	}
	return e.buildResult(), nil
}

// errFinished guards the live lifecycle after a terminal RunUntilAll:
// sessions past their budget are frozen mid-frame with their loads still
// resident, so advancing or growing the simulation from that state would
// silently distort contention and energy for any new session.
var errFinished = fmt.Errorf("transcode: engine finished (RunUntilAll is terminal; build a new engine to continue)")

// RunUntilAll simulates until every session has reached its frame budget,
// but — unlike Run — sessions that reach their budget keep transcoding
// until the last one catches up. This models a server whose streams
// continue beyond the measurement window, so contention stays constant
// and a measured window is never polluted by departed sessions.
//
// RunUntilAll is terminal: it stops with every session frozen mid-frame
// (loads resident, completions unscheduled), so the engine afterwards
// rejects Run, AdvanceTo and AddSession. Calling RunUntilAll again just
// returns the same result.
func (e *Engine) RunUntilAll() (*Result, error) {
	if len(e.sessions) == 0 {
		return nil, fmt.Errorf("transcode: no sessions")
	}
	if err := e.advance(math.Inf(1), true); err != nil {
		return nil, err
	}
	e.finished = true
	return e.buildResult(), nil
}

// AdvanceTo steps the simulation to the given absolute time: every frame
// completion, departure and arrival at or before it is processed, and the
// clock lands exactly on t. It lets an outer event loop interleave this
// engine with other event sources — other servers of a fleet, a
// dispatcher placing arrivals — and observe actual session lifetimes as
// they happen. Times at or before the current clock are a no-op.
//
// Between events the engine's state (contention scale, power) is
// constant, so energy and virtual-clock integration is settled lazily
// at the next event rather than at every AdvanceTo call: parking the
// clock is O(1) and results are bit-identical no matter how often (or
// rarely) a caller steps an idle engine. Fleet dispatchers exploit this
// by consulting NextEventTime and skipping engines with nothing pending.
func (e *Engine) AdvanceTo(t float64) error {
	if math.IsInf(t, 1) || math.IsNaN(t) {
		return fmt.Errorf("transcode: AdvanceTo time must be finite")
	}
	if e.finished {
		return errFinished
	}
	return e.advance(t, false)
}

// NextEventTime returns the simulated wall-clock time of the engine's
// earliest pending event: the head of the completion heap translated
// through the current virtual-clock speed (the contention scale), or
// the next scheduled session arrival, whichever is sooner.
// It returns +Inf when nothing is pending — advancing an idle engine
// processes no event, so a fleet dispatcher can skip it entirely. The
// returned time is exactly the instant AdvanceTo would process the event
// at (the speed only changes when an event is processed).
func (e *Engine) NextEventTime() float64 {
	t := math.Inf(1)
	if e.finished {
		return t
	}
	if len(e.compl) > 0 {
		_, speed := e.segRates()
		if speed <= 0 {
			// Defensive: advancing will surface the no-progress error.
			return e.now
		}
		t = e.completionTime(speed)
	}
	if len(e.arrivals) > 0 && e.arrivals[0].key < t {
		t = e.arrivals[0].key
		if t < e.now {
			t = e.now
		}
	}
	return t
}

// advance is the event loop: it processes events in time order until the
// limit (exclusive of events strictly beyond it), then parks the clock at
// the limit when finite. Parking does not integrate anything: the
// energy and virtual-clock accounting of the running segment is
// settled in one step when the next event fires (or in buildResult),
// which both makes parking an idle engine O(1) and makes the simulation
// independent of how an outer loop slices its AdvanceTo calls.
func (e *Engine) advance(limit float64, untilAll bool) error {
	for {
		if untilAll && e.allReachedBudget() {
			return nil
		}
		// Power and virtual-clock speed of the current segment: both are
		// uniform across sessions and constant until the next event.
		powerIdeal, speed := e.segRates()

		// Next event: the earliest pending frame completion or arrival.
		tNext := math.Inf(1)
		completion := false
		if len(e.compl) > 0 {
			if speed <= 0 {
				return fmt.Errorf("transcode: no progress at t=%.3f", e.now)
			}
			tNext = e.completionTime(speed)
			completion = true
		}
		if len(e.arrivals) > 0 && e.arrivals[0].key < tNext {
			// A strictly earlier arrival preempts the completion; at equal
			// times the completion is processed first and the arrival joins
			// at the same instant on the next iteration.
			tNext = e.arrivals[0].key
			if tNext < e.now {
				tNext = e.now
			}
			completion = false
		}
		if math.IsInf(tNext, 1) || tNext > limit {
			// Nothing to process inside the limit: park the clock on it.
			if !math.IsInf(limit, 1) && limit > e.now {
				e.now = limit
			}
			return nil
		}

		e.events++
		if e.events > maxEventsPerFrame*(e.framesDone+e.totalBudget+len(e.sessions)+1) {
			return fmt.Errorf("transcode: event budget exhausted (%d events for %d frames)", e.events, e.framesDone)
		}

		e.settle(tNext, powerIdeal, speed)
		if tNext > e.now {
			e.now = tNext
		}
		if !completion {
			// Process every arrival due now, in (time, id) order.
			for len(e.arrivals) > 0 && e.arrivals[0].key <= e.now {
				s := e.sessions[e.arrivals.pop().id]
				if err := e.beginFrame(s); err != nil {
					return err
				}
			}
			continue
		}

		// Land the virtual clock exactly on the completing key, then drain
		// every completion due at it. The batch is popped in (key, id)
		// order, which is id order within one instant.
		e.vnow = e.compl[0].key
		batch := e.batch[:0]
		for len(e.compl) > 0 && e.compl[0].key <= e.vnow {
			batch = append(batch, e.sessions[e.compl.pop().id])
		}
		// One meter reading per event, shared by the batch — the power of
		// the interval that just elapsed, before any load changes below.
		powerRead := e.server.MeterPower(powerIdeal)
		for _, s := range batch {
			e.completeFrame(s, powerRead)
		}
		if untilAll && e.allReachedBudget() {
			e.batch = batch[:0]
			return nil
		}
		for _, s := range batch {
			if !untilAll && s.tally.Frames >= s.cfg.FrameBudget {
				if err := e.depart(s); err != nil {
					return err
				}
				continue
			}
			if err := e.beginFrame(s); err != nil {
				return err
			}
		}
		e.batch = batch[:0]
	}
}

// segRates returns the package power and virtual-clock speed of the
// current segment. Both only change when an event is processed (a load
// joins, leaves or is re-shaped), so they hold from the last settled
// point to the next event regardless of clock parks in between.
func (e *Engine) segRates() (powerIdeal, speed float64) {
	return e.spec.IdlePowerW + e.acct.DynPowerW(), e.acct.Scale()
}

// completionTime translates the completion heap's head from virtual
// service time to wall time. It anchors at the settled segment start —
// not at a possibly parked clock — so the computed instant is identical
// however the caller sliced its AdvanceTo steps.
func (e *Engine) completionTime(speed float64) float64 {
	dv := e.compl[0].key - e.vnow
	if dv < 0 {
		dv = 0
	}
	t := e.segStart + dv/speed
	if t < e.now {
		t = e.now
	}
	return t
}

// settle integrates energy and the virtual clock over
// [segStart, t] at the given (constant) segment power and speed. Because
// the whole pending span is integrated in one step, the accounting is
// independent of how many times the clock was parked inside it.
func (e *Engine) settle(t, powerIdeal, speed float64) {
	dt := t - e.segStart
	if dt > 0 {
		e.energy += powerIdeal * dt
		if len(e.compl) > 0 {
			e.vnow += speed * dt
		}
	}
	e.segStart = t
}

// allReachedBudget reports whether every session has transcoded at least
// its frame budget.
func (e *Engine) allReachedBudget() bool {
	for _, s := range e.sessions {
		if s == nil {
			continue // departed through the hook: budget reached by definition
		}
		if s.tally.Frames < s.cfg.FrameBudget {
			return false
		}
	}
	return true
}

// beginFrame consults the controller, applies validated settings, draws
// the next frame's content and quality, installs the session's load in
// the contention account and schedules the completion event.
func (e *Engine) beginFrame(s *session) error {
	proposed := s.cfg.Controller.OnFrameStart(FrameStart{
		SessionID:  s.id,
		FrameIndex: s.frameIdx,
		Time:       e.now,
		Current:    s.settings,
	})
	s.settings = e.sanitize(s, proposed)

	s.curFrame = s.cfg.Source.Next()
	work, err := s.enc.FrameWork(s.settings.QP, s.curFrame.Complexity)
	if err != nil {
		// sanitize guarantees a valid QP; a failure here means the source
		// produced an invalid frame, which is a programming error.
		panic(err)
	}
	psnr, bits, err := s.enc.FrameQuality(s.settings.QP, s.curFrame.Complexity)
	if err != nil {
		panic(err)
	}
	s.curPSNR, s.curBits = psnr, bits

	load := platform.SessionLoad{
		Threads: s.settings.Threads,
		FreqGHz: s.settings.FreqGHz,
		Speedup: s.enc.Speedup(s.settings.Threads),
	}
	if !s.running {
		if err := e.acct.Add(load); err != nil {
			return fmt.Errorf("transcode: t=%.3f session %d: %w", e.now, s.id, err)
		}
		s.running = true
		s.load = load
		s.dynCoef = e.dynCoef(load)
	} else if load != s.load {
		if err := e.acct.Update(s.load, load); err != nil {
			return fmt.Errorf("transcode: t=%.3f session %d: %w", e.now, s.id, err)
		}
		s.load = load
		s.dynCoef = e.dynCoef(load)
	}
	s.vMark = e.vnow
	s.frameStart = e.now
	e.compl.push(event{key: e.vnow + work/(load.FreqGHz*1e9*load.Speedup), id: s.id})
	return nil
}

// dynCoef is the session's dynamic-power coefficient: its busy
// core-equivalents weighted by V^2*f, so that instantaneous dynamic power
// is dynCoef * scale and dynamic energy integrates as
// dynCoef * (virtual time elapsed).
func (e *Engine) dynCoef(l platform.SessionLoad) float64 {
	vf, err := e.spec.VFNorm(l.FreqGHz)
	if err != nil {
		// sanitize guarantees a ladder rung.
		panic(err)
	}
	return e.spec.DynPowerPerCoreW * vf * l.Speedup
}

// sanitize clamps controller output to what the hardware and encoder
// accept, so a buggy or exploring controller cannot wedge the engine.
func (e *Engine) sanitize(s *session, p Settings) Settings {
	if p.QP < hevc.MinQP {
		p.QP = hevc.MinQP
	}
	if p.QP > hevc.MaxQP {
		p.QP = hevc.MaxQP
	}
	if p.Threads < 1 {
		p.Threads = 1
	}
	if max := e.spec.LogicalCPUs(); p.Threads > max {
		p.Threads = max
	}
	p.FreqGHz = e.spec.Nearest(p.FreqGHz)
	return p
}

// completeFrame settles the session's dynamic energy, books metrics and
// notifies the controller.
func (e *Engine) completeFrame(s *session, powerRead float64) {
	s.dynEnergyJ += s.dynCoef * (e.vnow - s.vMark)
	s.vMark = e.vnow

	dur := e.now - s.frameStart
	if dur <= 0 {
		dur = 1e-9
	}
	s.durations[s.nDur%fpsWindow] = dur
	s.nDur++

	n := s.nDur
	if n > fpsWindow {
		n = fpsWindow
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.durations[i]
	}
	fps := float64(n) / sum

	obs := Observation{
		SessionID:    s.id,
		FrameIndex:   s.frameIdx,
		Time:         e.now,
		DurationSec:  dur,
		FPS:          fps,
		InstFPS:      1 / dur,
		PSNRdB:       s.curPSNR,
		BitrateMbps:  s.curBits * s.cfg.TargetFPS / 1e6,
		PowerW:       powerRead,
		OverCap:      e.server.OverCap(powerRead),
		Settings:     s.settings,
		Complexity:   s.curFrame.Complexity,
		SceneChange:  s.curFrame.SceneChange,
		SequenceName: s.cfg.Source.Sequence().Name,
	}

	s.tally.Add(&obs, s.cfg.TargetFPS)
	s.frameIdx++
	e.framesDone++
	if e.onFrame != nil {
		e.onFrame(obs)
	}
	s.cfg.Controller.OnFrameDone(obs)
}

// depart releases a finished session's resources and notifies the hook.
// A notified session's state is dropped afterwards: the SessionEnd
// carried its complete result, and its dynamic energy was settled by the
// final completeFrame, so nothing buildResult would later compute differs
// from what the hook already saw. An accounting mismatch surfaces as an
// error (the run aborts) rather than a panic, so a fleet layer injecting
// faults can never take the whole process down through a release-path
// inconsistency.
func (e *Engine) depart(s *session) error {
	if err := e.acct.Remove(s.load); err != nil {
		return fmt.Errorf("transcode: t=%.3f session %d depart: %w", e.now, s.id, err)
	}
	s.running = false
	s.done = true
	if e.onEnd != nil {
		e.onEnd(SessionEnd{
			SessionID: s.id,
			Res:       s.cfg.Source.Res(),
			Time:      e.now,
			Frames:    s.tally.Frames,
			Result:    s.result(e.vnow),
		})
		e.sessions[s.id] = nil
	}
	return nil
}

func (e *Engine) buildResult() *Result {
	// A park (AdvanceTo beyond the last event) leaves the tail segment
	// unsettled; fold it in so duration, energy and in-flight dynamic
	// energy agree with the clock. Settling to the current instant is
	// idempotent, so repeated result builds stay consistent.
	powerIdeal, speed := e.segRates()
	e.settle(e.now, powerIdeal, speed)
	res := &Result{DurationSec: e.now, EnergyJ: e.energy}
	if e.now > 0 {
		res.AvgPowerW = e.energy / e.now
	}
	for _, s := range e.sessions {
		if s == nil {
			continue // departed through the OnSessionEnd hook, or extracted
		}
		res.Sessions = append(res.Sessions, s.result(e.vnow))
	}
	return res
}

// result summarises the session's state as of virtual time vnow — the
// same entry buildResult reports, shared with the departure notification
// so both paths compute identical floats.
func (s *session) result(vnow float64) SessionResult {
	dynE := s.dynEnergyJ
	if s.running {
		// Sessions still encoding (RunUntilAll tails, AdvanceTo
		// snapshots) settle their in-flight frame's energy to now.
		dynE += s.dynCoef * (vnow - s.vMark)
	}
	sr := s.tally.Result()
	sr.ID, sr.Name, sr.Res, sr.DynEnergyJ = s.id, s.cfg.Controller.Name(), s.cfg.Source.Res(), dynE
	return sr
}
