package mamut

import (
	"fmt"
	"io"
	"math/rand"

	"mamut/internal/baseline"
	"mamut/internal/core"
	"mamut/internal/experiments"
	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/serve"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

// Catalog is a collection of source-video sequences.
type Catalog = video.Catalog

// Approach identifies a run-time management strategy.
type Approach = experiments.Approach

// The three approaches compared in the paper.
const (
	ApproachHeuristic = experiments.Heuristic
	ApproachMonoAgent = experiments.MonoAgent
	ApproachMAMUT     = experiments.MAMUT
)

// TargetFPS is the paper's real-time objective.
const TargetFPS = transcode.DefaultTargetFPS

// SimulationConfig configures a multi-stream transcoding simulation on
// the paper's server and encoder models.
type SimulationConfig struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
}

// StreamConfig describes one user's transcoding request.
type StreamConfig struct {
	// Sequence names a catalog entry; the stream loops it.
	Sequence string
	// Approach selects the controller (ApproachMAMUT when empty).
	Approach Approach
	// Frames is the number of frames to transcode. Required.
	Frames int
}

// SimulationResult is the outcome of Run.
type SimulationResult = transcode.Result

// Observation is one transcoded frame as the engine books it: the
// stream's id and frame index, timing, quality, power and knob settings.
type Observation = transcode.Observation

// Simulation assembles streams on one simulated server.
type Simulation struct {
	eng     *transcode.Engine
	catalog *video.Catalog
	spec    platform.Spec
	model   hevc.Model
	rng     *rand.Rand
}

// NewSimulation builds an empty simulation.
func NewSimulation(cfg SimulationConfig) (*Simulation, error) {
	spec, model := platform.DefaultSpec(), hevc.DefaultModel()
	rng := rand.New(rand.NewSource(cfg.Seed))
	eng, err := transcode.NewEngine(spec, model, rng.Int63())
	if err != nil {
		return nil, err
	}
	return &Simulation{eng: eng, catalog: video.DefaultCatalog(), spec: spec, model: model, rng: rng}, nil
}

// AddStream registers one transcoding request.
func (s *Simulation) AddStream(cfg StreamConfig) error {
	if cfg.Sequence == "" {
		return fmt.Errorf("mamut: stream needs a sequence name")
	}
	seq, err := s.catalog.Get(cfg.Sequence)
	if err != nil {
		return err
	}
	if cfg.Approach == "" {
		cfg.Approach = ApproachMAMUT
	}
	src, err := video.NewGenerator(seq, rand.New(rand.NewSource(s.rng.Int63())))
	if err != nil {
		return err
	}
	ctrl, err := s.newController(cfg.Approach, seq.Res)
	if err != nil {
		return err
	}
	_, err = s.eng.AddSession(transcode.SessionConfig{
		Source:        src,
		Controller:    ctrl,
		Initial:       experiments.InitialSettings(seq.Res),
		BandwidthMbps: core.DefaultBandwidth(seq.Res),
		FrameBudget:   cfg.Frames,
	})
	return err
}

func (s *Simulation) newController(a Approach, res video.Resolution) (transcode.Controller, error) {
	rng := rand.New(rand.NewSource(s.rng.Int63()))
	initial := experiments.InitialSettings(res)
	switch a {
	case ApproachHeuristic:
		return baseline.NewHeuristic(baseline.DefaultHeuristicConfig(res, s.spec, s.model.MaxUsefulThreads(res)), initial)
	case ApproachMonoAgent:
		return baseline.NewMonoAgent(baseline.DefaultMonoConfig(res, s.spec, s.model.MaxUsefulThreads(res)), initial, rng)
	case ApproachMAMUT:
		return core.New(core.DefaultConfig(res, s.spec, s.model.MaxUsefulThreads(res)), initial, rng)
	default:
		return nil, fmt.Errorf("mamut: unknown approach %q", a)
	}
}

// OnFrame installs an observer that receives every transcoded frame of
// every stream, in simulated-time order, as Run books it. A nil
// observer disables observation.
func (s *Simulation) OnFrame(fn func(Observation)) { s.eng.OnFrame(fn) }

// Run simulates until every stream finishes its frame budget.
func (s *Simulation) Run() (*SimulationResult, error) { return s.eng.Run() }

// Serving-layer re-exports: internal/serve turns the batch simulator into
// a continuously loaded service (stochastic session churn dispatched
// across a multi-server fleet under a pluggable placement policy, with
// steady-state SLO/power/rejection metrics). Setting
// ServeConfig.KnowledgeReuse shares learned transcoding knowledge across
// sessions (KaaS-style warm starts): departing MAMUT sessions contribute
// their tables to a per-resolution-class KnowledgeStore and new
// admissions are seeded from it — see ServeResult.KnowledgeContributions
// and ServeResult.KnowledgeSeeded for the store's activity.
type (
	// ServeConfig configures one service run (fleet, policy, workload,
	// measurement protocol).
	ServeConfig = serve.Config
	// ServeWorkload describes the offered session arrival/departure
	// process (Poisson, diurnal, ramp, or trace replay).
	ServeWorkload = serve.Workload
	// ServeSessionRequest is one arrival of the offered load.
	ServeSessionRequest = serve.SessionRequest
	// ServeLoadCurve selects how the arrival rate evolves over a run.
	ServeLoadCurve = serve.LoadCurve
	// ServeResult is the steady-state outcome of a service run.
	ServeResult = serve.Result
	// ServeClassStats aggregates measured sessions of one resolution class.
	ServeClassStats = serve.ClassStats
	// ServeClassDistributions carries a class's FPS and session-duration
	// quantile summaries, estimated online from fixed-bin sketches.
	ServeClassDistributions = serve.ClassDistributions
	// ServeGridSpec spans a (policy x arrival-rate x seed) grid.
	ServeGridSpec = serve.GridSpec
	// ServeGridCell couples one grid coordinate with its result.
	ServeGridCell = serve.GridCell
	// ServeAutoscale parametrises target-utilization fleet autoscaling
	// (ServeConfig.Autoscale).
	ServeAutoscale = serve.AutoscaleConfig
	// ServeDrainEvent schedules one server decommission: stop admitting,
	// live-migrate the residents off, remove the server once empty.
	ServeDrainEvent = serve.DrainEvent
	// ServeQueueConfig bounds the fleet-level admission waiting room
	// (ServeConfig.Queue): capacity, per-entry deadline, and the
	// resolution-class priority order.
	ServeQueueConfig = serve.QueueConfig
	// ServeQueuePriority orders the admission queue across resolution
	// classes (FIFO within a class).
	ServeQueuePriority = serve.QueuePriority
	// ServeFaultConfig schedules deterministic fault injection into a
	// service run (ServeConfig.Faults): the fault plan, the periodic
	// session-checkpoint interval, and the crash-recovery pipeline.
	ServeFaultConfig = serve.FaultConfig
	// ServeFaultEvent is one scheduled fault: a server crash at an
	// instant, or a degrade/blip window.
	ServeFaultEvent = serve.FaultEvent
	// ServeFaultRecovery configures what happens to sessions a crash
	// interrupts: drop them, or re-admit through the waiting room within
	// a recovery deadline.
	ServeFaultRecovery = serve.FaultRecovery
	// KnowledgeStore is the per-resolution-class shared knowledge base a
	// knowledge-reuse service run maintains.
	KnowledgeStore = serve.KnowledgeStore
	// ServeCheckpoint is a durable, append-only grid checkpoint: assign
	// one to ServeGridSpec.Checkpoint and an interrupted grid resumes
	// bit-identically, recomputing only the missing cells.
	ServeCheckpoint = experiments.FileCheckpoint[*serve.Result]
)

// ImportKnowledge reads a versioned, hash-stamped knowledge artifact
// written by KnowledgeStore.Export, verifying its digest before
// restoring the store. Pass the result as ServeConfig.Knowledge (with
// KnowledgeReuse set) to warm-start a fleet from an earlier run.
func ImportKnowledge(r io.Reader) (*KnowledgeStore, error) { return serve.ImportKnowledge(r) }

// OpenServeCheckpoint opens (or creates) the grid checkpoint file at
// path, loading every cell already on file.
func OpenServeCheckpoint(path string) (*ServeCheckpoint, error) {
	return experiments.OpenFileCheckpoint[*serve.Result](path)
}

// Placement policies.
const (
	PolicyRoundRobin  = serve.PolicyRoundRobin
	PolicyLeastLoaded = serve.PolicyLeastLoaded
	PolicyPowerAware  = serve.PolicyPowerAware
)

// Load curves for ServeWorkload.
const (
	LoadConstant = serve.LoadConstant
	LoadDiurnal  = serve.LoadDiurnal
	LoadRamp     = serve.LoadRamp
	LoadBurst    = serve.LoadBurst
)

// Admission-queue priority orders (ServeQueueConfig.Priority), plus the
// deadline the queue falls back to when none is configured.
const (
	QueuePrioHRFirst = serve.QueuePrioHRFirst
	QueuePrioLRFirst = serve.QueuePrioLRFirst
	QueuePrioFIFO    = serve.QueuePrioFIFO

	DefaultQueueDeadlineSec = serve.DefaultQueueDeadlineSec
)

// Fault kinds (ServeFaultEvent.Kind).
const (
	FaultCrash   = serve.FaultCrash
	FaultDegrade = serve.FaultDegrade
	FaultBlip    = serve.FaultBlip
)

// ServePolicyNames lists the registered placement policies.
func ServePolicyNames() []string { return serve.PolicyNames() }

// ServeQueuePriorities lists the admission-queue priority orders in
// deterministic order.
func ServeQueuePriorities() []ServeQueuePriority { return serve.QueuePriorities() }

// ParseServeFaultPlan parses a comma-separated fault plan in the CLI
// spec syntax, e.g. "crash@120:0,degrade@60-180:2:0.5,blip@90-95:1".
func ParseServeFaultPlan(s string) ([]ServeFaultEvent, error) { return serve.ParseFaultPlan(s) }

// RunService executes one service simulation: generate (or replay) the
// arrival process, dispatch every arrival across the fleet, simulate each
// server on the worker pool and aggregate steady-state metrics. Results
// are bit-identical for any ServeConfig.Workers value.
func RunService(cfg ServeConfig) (*ServeResult, error) { return serve.Run(cfg) }

// RunServiceGrid fans a (policy x arrival-rate x seed) grid of service
// runs across the worker pool, in deterministic cell order.
func RunServiceGrid(spec ServeGridSpec) ([]ServeGridCell, error) { return serve.RunGrid(spec) }

// ServeArrivals generates (or replays) the arrival stream a ServeConfig
// with this workload and seed would dispatch — the same stream RunService
// consumes. A nil catalog uses the default.
func ServeArrivals(w ServeWorkload, catalog *Catalog, seed int64) ([]ServeSessionRequest, error) {
	if catalog == nil {
		catalog = video.DefaultCatalog()
	}
	return serve.GenerateArrivals(w, catalog, seed)
}
