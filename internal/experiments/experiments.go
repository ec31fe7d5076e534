// Package experiments reproduces the paper's evaluation: the Fig. 2
// characterisation sweep, the Scenario I workload sweep (Fig. 4, Table I),
// the Scenario II request-batch study (Table II), the Fig. 5 execution
// trace, the mono-agent learning-time comparison (SV-B) and the
// design-choice ablations (DefaultAblations).
//
// Every run is deterministic for a fixed Options.Seed. Like the paper
// (SV-A), each configuration is repeated several times and averaged; the
// measured window excludes the warm-up/learning frames, mirroring the
// paper's averaging over five repetitions of a system whose tables persist.
package experiments

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"mamut/internal/baseline"
	"mamut/internal/core"
	"mamut/internal/hevc"
	"mamut/internal/metrics"
	"mamut/internal/platform"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

// Approach names one of the three compared run-time managers.
type Approach string

const (
	// Heuristic is the Grellert-style rule-based manager.
	Heuristic Approach = "heuristic"
	// MonoAgent is the single-agent Q-learning manager.
	MonoAgent Approach = "monoagent"
	// MAMUT is the paper's multi-agent manager.
	MAMUT Approach = "mamut"
)

// AllApproaches lists the paper's comparison order.
var AllApproaches = []Approach{Heuristic, MonoAgent, MAMUT}

// Options configures an experiment run.
type Options struct {
	// Spec is the platform model.
	Spec platform.Spec
	// Model is the encoder model.
	Model hevc.Model
	// Catalog provides the video sequences.
	Catalog *video.Catalog
	// Seed drives all randomness deterministically.
	Seed int64
	// Repetitions averages this many runs per configuration (5 in the
	// paper).
	Repetitions int
	// WarmupFrames are excluded from the measured window: the learning
	// phase of the RL managers (the heuristic needs none but is given the
	// same protocol).
	WarmupFrames int
	// MeasureFrames is the size of the measured window per session.
	MeasureFrames int
	// Workers sizes the worker pool that runs independent (workload,
	// approach, repetition) units concurrently: 0 means one worker per
	// logical CPU, 1 forces the serial path. Results are bit-identical
	// for any worker count.
	Workers int
	// Progress, when set, observes every completed unit (see ProgressFunc).
	Progress ProgressFunc
}

// DefaultOptions returns the configuration of the headline outputs
// README's "Paper claims and their verdicts" quotes.
func DefaultOptions() Options {
	return Options{
		Spec:          platform.DefaultSpec(),
		Model:         hevc.DefaultModel(),
		Catalog:       video.DefaultCatalog(),
		Seed:          1,
		Repetitions:   5,
		WarmupFrames:  36000,
		MeasureFrames: 6000,
	}
}

// QuickOptions returns a reduced configuration for benchmarks and smoke
// tests: fewer repetitions and shorter windows (the RL managers are only
// partially converged at this horizon).
func QuickOptions() Options {
	o := DefaultOptions()
	o.Repetitions = 2
	o.WarmupFrames = 12000
	o.MeasureFrames = 4000
	return o
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if err := o.Spec.Validate(); err != nil {
		return err
	}
	if err := o.Model.Validate(); err != nil {
		return err
	}
	if o.Catalog == nil || o.Catalog.Len() == 0 {
		return fmt.Errorf("experiments: empty catalog")
	}
	if o.Repetitions < 1 {
		return fmt.Errorf("experiments: repetitions %d < 1", o.Repetitions)
	}
	if o.WarmupFrames < 0 || o.MeasureFrames < 1 {
		return fmt.Errorf("experiments: window %d+%d invalid", o.WarmupFrames, o.MeasureFrames)
	}
	if o.Workers < 0 {
		return fmt.Errorf("experiments: workers %d < 0", o.Workers)
	}
	return nil
}

// WorkloadSpec is a mix of simultaneous streams.
type WorkloadSpec struct {
	// Name is the paper's shorthand, e.g. "2HR3LR".
	Name string
	// HR and LR are the stream counts per resolution class.
	HR, LR int
}

// Sessions returns the total stream count.
func (w WorkloadSpec) Sessions() int { return w.HR + w.LR }

// ScenarioIWorkloads returns the homogeneous workloads of Fig. 4:
// 1..5 simultaneous HR videos and 1..8 simultaneous LR videos.
func ScenarioIWorkloads() []WorkloadSpec {
	var out []WorkloadSpec
	for n := 1; n <= 5; n++ {
		out = append(out, WorkloadSpec{Name: fmt.Sprintf("%dHR", n), HR: n})
	}
	for n := 1; n <= 8; n++ {
		out = append(out, WorkloadSpec{Name: fmt.Sprintf("%dLR", n), LR: n})
	}
	return out
}

// ScenarioIIWorkloads returns the mixed batches of Table II.
func ScenarioIIWorkloads() []WorkloadSpec {
	mix := [][2]int{
		{1, 1}, {1, 2}, {2, 1}, {2, 2}, {2, 3}, {2, 4}, {3, 1}, {3, 2}, {3, 3},
	}
	out := make([]WorkloadSpec, 0, len(mix))
	for _, m := range mix {
		out = append(out, WorkloadSpec{Name: fmt.Sprintf("%dHR%dLR", m[0], m[1]), HR: m[0], LR: m[1]})
	}
	return out
}

// ScenarioKind distinguishes the two evaluation protocols.
type ScenarioKind int

const (
	// ScenarioI loops one catalog sequence per stream (SV-B).
	ScenarioI ScenarioKind = iota
	// ScenarioII plays an initial sequence followed by four random
	// same-resolution sequences per stream (SV-C).
	ScenarioII
)

// ResolutionAgg aggregates the sessions of one resolution class.
type ResolutionAgg struct {
	// Sessions counts contributing streams across repetitions.
	Sessions int
	// Nth and FreqGHz are the Table I quantities.
	Nth     float64
	FreqGHz float64
	// PSNRdB, FPS and DeltaPct complete the picture.
	PSNRdB   float64
	FPS      float64
	DeltaPct float64
}

// ApproachResult is one approach's measured behaviour on one workload.
type ApproachResult struct {
	Approach Approach
	// Watts is the time-averaged package power over the measured window,
	// averaged across repetitions; WattsStd is its std-dev across
	// repetitions.
	Watts    float64
	WattsStd float64
	// Session-averaged metrics (the paper's Table II columns).
	Nth         float64
	FPS         float64
	DeltaPct    float64
	PSNRdB      float64
	BitrateMbps float64
	FreqGHz     float64
	QP          float64
	// StallPct is the delivery-side QoS metric: the share of frames
	// missing their playout deadline under the paper's SIII-D buffering
	// model (metrics.Playout), averaged over sessions.
	StallPct float64
	// HR and LR aggregate the same quantities per resolution class.
	HR, LR ResolutionAgg
}

// WorkloadResult couples a workload with the per-approach results.
type WorkloadResult struct {
	Spec       WorkloadSpec
	ByApproach []ApproachResult
}

// Get returns the result for one approach.
func (w WorkloadResult) Get(a Approach) (ApproachResult, bool) {
	for _, r := range w.ByApproach {
		if r.Approach == a {
			return r, true
		}
	}
	return ApproachResult{}, false
}

// ControllerFactory builds a controller for one stream. Custom factories
// drive the ablation studies; the standard approaches use Factory.
type ControllerFactory func(res video.Resolution, initial transcode.Settings, rng *rand.Rand) (transcode.Controller, error)

// Factory returns the standard factory for an approach.
func Factory(a Approach, opts Options) (ControllerFactory, error) {
	switch a {
	case Heuristic:
		return func(res video.Resolution, initial transcode.Settings, rng *rand.Rand) (transcode.Controller, error) {
			cfg := baseline.DefaultHeuristicConfig(res, opts.Spec, opts.Model.MaxUsefulThreads(res))
			return baseline.NewHeuristic(cfg, initial)
		}, nil
	case MonoAgent:
		return func(res video.Resolution, initial transcode.Settings, rng *rand.Rand) (transcode.Controller, error) {
			cfg := baseline.DefaultMonoConfig(res, opts.Spec, opts.Model.MaxUsefulThreads(res))
			return baseline.NewMonoAgent(cfg, initial, rng)
		}, nil
	case MAMUT:
		return func(res video.Resolution, initial transcode.Settings, rng *rand.Rand) (transcode.Controller, error) {
			cfg := core.DefaultConfig(res, opts.Spec, opts.Model.MaxUsefulThreads(res))
			return core.New(cfg, initial, rng)
		}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown approach %q", a)
	}
}

// InitialSettings returns the common starting knobs used by every
// approach: a mid QP, a moderate thread count and a mid frequency.
func InitialSettings(res video.Resolution) transcode.Settings {
	threads := 6
	if res == video.LR {
		threads = 3
	}
	return transcode.Settings{QP: 32, Threads: threads, FreqGHz: 2.6}
}

// bufferPreroll is the playout pre-roll (in frames) used for the
// delivery-side stall metric: one second at the target frame rate.
const bufferPreroll = 24

// SubSeed derives a deterministic sub-seed from the experiment seed and a
// label, so adding configurations never perturbs existing ones.
func SubSeed(base int64, label string, rep int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", base, label, rep)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// RunWorkload measures one workload under one named approach.
func RunWorkload(w WorkloadSpec, kind ScenarioKind, a Approach, opts Options) (ApproachResult, error) {
	f, err := Factory(a, opts)
	if err != nil {
		return ApproachResult{}, err
	}
	res, err := RunWorkloadWithFactory(w, kind, string(a), f, opts)
	if err != nil {
		return ApproachResult{}, err
	}
	res.Approach = a
	return res, nil
}

// repOutcome is one repetition's contribution to an ApproachResult: the
// time-weighted package power plus the per-session window results
// (overall and split by resolution class) and stall percentages, in
// session order.
type repOutcome struct {
	watts  float64
	sums   []transcode.SessionResult
	hrSums []transcode.SessionResult
	lrSums []transcode.SessionResult
	stalls []float64
}

// runRep executes one fully independent repetition of one workload under
// one controller factory. It owns every piece of mutable state it touches
// (engine, rngs, controllers), deriving determinism solely from
// SubSeed(opts.Seed, w.Name+"|"+label, rep), so concurrent calls with
// distinct (workload, label, rep) tuples are race-free and order-free.
// opts must already be validated.
func runRep(w WorkloadSpec, kind ScenarioKind, label string, factory ControllerFactory, opts Options, rep int) (repOutcome, error) {
	eng, cfgs, err := buildRep(w, kind, label, factory, opts, rep)
	if err != nil {
		return repOutcome{}, err
	}
	m, err := measure(eng, len(cfgs), opts.WarmupFrames, opts.MeasureFrames)
	if err != nil {
		return repOutcome{}, err
	}
	for _, cfg := range cfgs {
		if _, err := eng.AddSession(cfg); err != nil {
			return repOutcome{}, err
		}
	}
	// RunUntilAll keeps every stream transcoding until the slowest one
	// passes its budget, so the measured windows always see the full
	// workload's contention and power. The frames of that catch-up tail
	// fall outside every window and are not folded.
	runRes, err := eng.RunUntilAll()
	if err != nil {
		return repOutcome{}, err
	}
	return m.outcome(w.HR, runRes)
}

// buildRep creates one repetition's engine and, in session-id order, the
// configuration of every session: the w.HR HR streams, then the LR ones.
// It draws from the repetition's rng in the same order as the sessions
// are listed; the caller adds them to the engine.
func buildRep(w WorkloadSpec, kind ScenarioKind, label string, factory ControllerFactory, opts Options, rep int) (*transcode.Engine, []transcode.SessionConfig, error) {
	rng := rand.New(rand.NewSource(SubSeed(opts.Seed, w.Name+"|"+label, rep)))
	eng, err := transcode.NewEngine(opts.Spec, opts.Model, rng.Int63())
	if err != nil {
		return nil, nil, err
	}
	cfgs := make([]transcode.SessionConfig, 0, w.Sessions())
	for i := 0; i < w.Sessions(); i++ {
		res, idx := video.HR, i
		if i >= w.HR {
			res, idx = video.LR, i-w.HR
		}
		src, err := buildSource(kind, res, idx, opts, rng)
		if err != nil {
			return nil, nil, err
		}
		initial := InitialSettings(res)
		ctrl, err := factory(res, initial, rand.New(rand.NewSource(rng.Int63())))
		if err != nil {
			return nil, nil, err
		}
		cfgs = append(cfgs, transcode.SessionConfig{
			Source:        src,
			Controller:    ctrl,
			Initial:       initial,
			BandwidthMbps: core.DefaultBandwidth(res),
			FrameBudget:   opts.WarmupFrames + opts.MeasureFrames,
		})
	}
	return eng, cfgs, nil
}

// window folds one session's measured frames: the per-session Tally the
// engine also keeps, the playout-buffer stall count, and the completion
// times of the window's first and last frames.
type window struct {
	tally       transcode.Tally
	playout     metrics.Playout
	first, last float64
}

// powerSample is the server power reading of one measured frame.
type powerSample struct{ t, w float64 }

// measured folds one repetition's measured windows as the engine emits
// its frames: the frames with FrameIndex in [warmup, end) of each session
// (ids dense from 0), plus every such frame's power reading in emission
// order, which is time order. The readings wait for the end of the run,
// which fixes the interval their power is averaged over.
type measured struct {
	warmup, end int
	windows     []window
	power       []powerSample
}

// measure installs eng's per-frame observer, folding a window of frames
// frames after the first warmup of each of sessions sessions.
func measure(eng *transcode.Engine, sessions, warmup, frames int) (*measured, error) {
	playout, err := metrics.NewPlayout(transcode.DefaultTargetFPS, bufferPreroll)
	if err != nil {
		return nil, err
	}
	m := &measured{
		warmup:  warmup,
		end:     warmup + frames,
		windows: make([]window, sessions),
		power:   make([]powerSample, 0, sessions*frames),
	}
	for i := range m.windows {
		m.windows[i].playout = playout
	}
	eng.OnFrame(m.add)
	return m, nil
}

// add folds one observation if it falls inside its session's window.
func (m *measured) add(o transcode.Observation) {
	if o.FrameIndex < m.warmup || o.FrameIndex >= m.end {
		return
	}
	w := &m.windows[o.SessionID]
	if w.tally.Frames == 0 {
		w.first = o.Time
	}
	w.last = o.Time
	w.tally.Add(&o, transcode.DefaultTargetFPS)
	w.playout.Add(o.Time)
	m.power = append(m.power, powerSample{o.Time, o.PowerW})
}

// outcome reduces the folded windows (the first hr sessions are HR
// streams) to the repetition's outcome. The time-weighted power is taken
// over the interval during which every session was inside its window.
func (m *measured) outcome(hr int, runRes *transcode.Result) (repOutcome, error) {
	var out repOutcome
	from, to := 0.0, runRes.DurationSec
	for id := range m.windows {
		w := &m.windows[id]
		if w.tally.Frames == 0 {
			return repOutcome{}, fmt.Errorf("empty measured window for session %d", id)
		}
		from, to = max(from, w.first), min(to, w.last)
		s := w.tally.Result()
		out.sums = append(out.sums, s)
		out.stalls = append(out.stalls, w.playout.StallPct())
		if id < hr {
			out.hrSums = append(out.hrSums, s)
		} else {
			out.lrSums = append(out.lrSums, s)
		}
	}
	p := metrics.NewPowerIntegrator(from, to)
	for _, s := range m.power {
		p.Add(s.t, s.w)
	}
	watts, err := p.Average()
	if err != nil {
		// Degenerate overlap (sessions progressing at very different
		// speeds): fall back to the run average.
		watts = runRes.AvgPowerW
	}
	out.watts = watts
	return out, nil
}

// repUnits builds the scheduler units for every repetition of one
// (workload, factory) pair, in repetition order.
func repUnits(w WorkloadSpec, kind ScenarioKind, label string, factory ControllerFactory, opts Options) []Unit[repOutcome] {
	units := make([]Unit[repOutcome], opts.Repetitions)
	for rep := range units {
		units[rep] = Unit[repOutcome]{
			Label: fmt.Sprintf("%s/%s rep %d", w.Name, label, rep),
			Run: func() (repOutcome, error) {
				return runRep(w, kind, label, factory, opts, rep)
			},
		}
	}
	return units
}

// aggregateReps folds repetition outcomes into an ApproachResult. Outcomes
// must be in repetition order: the fold concatenates the per-session
// summaries exactly as the historical serial loop did, so every mean and
// std-dev is bit-identical regardless of how many workers produced them.
func aggregateReps(outs []repOutcome) ApproachResult {
	var (
		wattsReps []float64
		sums      []transcode.SessionResult
		hrSums    []transcode.SessionResult
		lrSums    []transcode.SessionResult
		stalls    []float64
	)
	for _, o := range outs {
		wattsReps = append(wattsReps, o.watts)
		sums = append(sums, o.sums...)
		hrSums = append(hrSums, o.hrSums...)
		lrSums = append(lrSums, o.lrSums...)
		stalls = append(stalls, o.stalls...)
	}
	mean := metrics.MeanSummary(sums)
	return ApproachResult{
		StallPct:    metrics.Mean(stalls),
		Watts:       metrics.Mean(wattsReps),
		WattsStd:    metrics.StdDev(wattsReps),
		Nth:         mean.AvgThreads,
		FPS:         mean.AvgFPS,
		DeltaPct:    mean.ViolationPct,
		PSNRdB:      mean.AvgPSNRdB,
		BitrateMbps: mean.AvgBitrateMbps,
		FreqGHz:     mean.AvgFreqGHz,
		QP:          mean.AvgQP,
		HR:          aggRes(hrSums),
		LR:          aggRes(lrSums),
	}
}

// RunWorkloadWithFactory measures one workload under a custom controller
// factory (used by the ablations). The label keys the deterministic
// sub-seeding. Repetitions run concurrently on the Options.Workers pool.
func RunWorkloadWithFactory(w WorkloadSpec, kind ScenarioKind, label string, factory ControllerFactory, opts Options) (ApproachResult, error) {
	if err := opts.Validate(); err != nil {
		return ApproachResult{}, err
	}
	if w.Sessions() < 1 {
		return ApproachResult{}, fmt.Errorf("experiments: workload %q has no sessions", w.Name)
	}
	outs, err := RunUnits(opts.Workers, repUnits(w, kind, label, factory, opts), opts.Progress)
	if err != nil {
		return ApproachResult{}, err
	}
	return aggregateReps(outs), nil
}

func aggRes(sums []transcode.SessionResult) ResolutionAgg {
	if len(sums) == 0 {
		return ResolutionAgg{}
	}
	m := metrics.MeanSummary(sums)
	return ResolutionAgg{
		Sessions: len(sums),
		Nth:      m.AvgThreads,
		FreqGHz:  m.AvgFreqGHz,
		PSNRdB:   m.AvgPSNRdB,
		FPS:      m.AvgFPS,
		DeltaPct: m.ViolationPct,
	}
}

// buildSource creates the stream content for session idx of a workload.
func buildSource(kind ScenarioKind, res video.Resolution, idx int, opts Options, rng *rand.Rand) (video.Source, error) {
	pool := opts.Catalog.ByResolution(res)
	if len(pool) == 0 {
		return nil, fmt.Errorf("experiments: catalog has no %s sequences", res)
	}
	initial := pool[idx%len(pool)]
	srcRNG := rand.New(rand.NewSource(rng.Int63()))
	switch kind {
	case ScenarioI:
		return video.NewGenerator(initial, srcRNG)
	case ScenarioII:
		return video.ScenarioIIPlaylist(opts.Catalog, initial, 4, srcRNG)
	default:
		return nil, fmt.Errorf("experiments: unknown scenario kind %d", kind)
	}
}

// RunScenario measures every workload under every approach. The full
// (workload x approach x repetition) grid fans out over one shared worker
// pool, so wide scenarios saturate every core instead of draining one
// workload at a time; aggregation consumes outcomes in (workload,
// approach, repetition) order, making the results bit-identical to
// running each workload serially.
func RunScenario(workloads []WorkloadSpec, kind ScenarioKind, opts Options) ([]WorkloadResult, error) {
	if len(workloads) == 0 {
		return nil, fmt.Errorf("experiments: no workloads")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	factories := make(map[Approach]ControllerFactory, len(AllApproaches))
	for _, a := range AllApproaches {
		f, err := Factory(a, opts)
		if err != nil {
			return nil, err
		}
		factories[a] = f
	}
	var units []Unit[repOutcome]
	for _, w := range workloads {
		if w.Sessions() < 1 {
			return nil, fmt.Errorf("experiments: workload %q has no sessions", w.Name)
		}
		for _, a := range AllApproaches {
			units = append(units, repUnits(w, kind, string(a), factories[a], opts)...)
		}
	}
	outs, err := RunUnits(opts.Workers, units, opts.Progress)
	if err != nil {
		return nil, err
	}
	out := make([]WorkloadResult, 0, len(workloads))
	next := 0
	for _, w := range workloads {
		wr := WorkloadResult{Spec: w}
		for _, a := range AllApproaches {
			r := aggregateReps(outs[next : next+opts.Repetitions])
			next += opts.Repetitions
			r.Approach = a
			wr.ByApproach = append(wr.ByApproach, r)
		}
		out = append(out, wr)
	}
	return out, nil
}
