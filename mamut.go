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

// Re-exported substrate types. Aliases keep the public API small while the
// implementation stays in internal packages.
type (
	// Settings are the three knobs a controller manages per stream.
	Settings = transcode.Settings
	// Observation is the per-frame feedback a controller receives.
	Observation = transcode.Observation
	// Controller decides the knob settings of one stream.
	Controller = transcode.Controller
	// Resolution is a stream's resolution class (HR or LR).
	Resolution = video.Resolution
	// Sequence is a catalog entry describing one source video.
	Sequence = video.Sequence
	// Catalog is a collection of sequences.
	Catalog = video.Catalog
	// PlatformSpec describes the server hardware model.
	PlatformSpec = platform.Spec
	// EncoderModel holds the HEVC encoder calibration constants.
	EncoderModel = hevc.Model
	// MAMUTConfig parametrises the multi-agent controller.
	MAMUTConfig = core.Config
	// MAMUTStats is the controller's learning telemetry.
	MAMUTStats = core.Stats
)

// Resolution classes.
const (
	HR = video.HR
	LR = video.LR
)

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

// DefaultPlatform returns the paper's server model (dual Xeon E5-2667 v4).
func DefaultPlatform() PlatformSpec { return platform.DefaultSpec() }

// DefaultEncoderModel returns the calibrated Kvazaar-style encoder model.
func DefaultEncoderModel() EncoderModel { return hevc.DefaultModel() }

// DefaultCatalog returns the JCT-VC-style sequence catalog.
func DefaultCatalog() *Catalog { return video.DefaultCatalog() }

// NewController builds a controller of the given approach for one stream
// of the given resolution, with the paper's default configuration.
func NewController(a Approach, res Resolution, seed int64) (Controller, error) {
	spec := platform.DefaultSpec()
	model := hevc.DefaultModel()
	initial := experiments.InitialSettings(res)
	rng := rand.New(rand.NewSource(seed))
	switch a {
	case ApproachHeuristic:
		return baseline.NewHeuristic(baseline.DefaultHeuristicConfig(res, spec, model.MaxUsefulThreads(res)), initial)
	case ApproachMonoAgent:
		return baseline.NewMonoAgent(baseline.DefaultMonoConfig(res, spec, model.MaxUsefulThreads(res)), initial, rng)
	case ApproachMAMUT:
		return core.New(core.DefaultConfig(res, spec, model.MaxUsefulThreads(res)), initial, rng)
	default:
		return nil, fmt.Errorf("mamut: unknown approach %q", a)
	}
}

// SimulationConfig configures a multi-stream transcoding simulation.
type SimulationConfig struct {
	// Platform overrides the default server model when non-nil.
	Platform *PlatformSpec
	// Encoder overrides the default encoder model when non-nil.
	Encoder *EncoderModel
	// Catalog overrides the default sequence catalog when non-nil.
	Catalog *Catalog
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
	// BandwidthMbps is the user's bandwidth; the resolution default
	// (6 Mb/s HR, 3 Mb/s LR) when zero.
	BandwidthMbps float64
	// StartAtSec delays the stream's arrival to the given simulated time,
	// modelling users joining an already-busy server.
	StartAtSec float64
	// CollectTrace keeps per-frame observations in the result.
	CollectTrace bool
}

// StreamResult summarises one stream after Run.
type StreamResult = transcode.SessionResult

// SimulationResult is the outcome of Run.
type SimulationResult = transcode.Result

// StreamEnd is the departure notification delivered to an OnStreamEnd
// hook when a stream finishes its frame budget and leaves the server.
type StreamEnd = transcode.SessionEnd

// Simulation assembles streams on one simulated server.
type Simulation struct {
	eng     *transcode.Engine
	catalog *Catalog
	spec    PlatformSpec
	model   EncoderModel
	rng     *rand.Rand
	streams int
}

// NewSimulation builds an empty simulation.
func NewSimulation(cfg SimulationConfig) (*Simulation, error) {
	spec := platform.DefaultSpec()
	if cfg.Platform != nil {
		spec = *cfg.Platform
	}
	model := hevc.DefaultModel()
	if cfg.Encoder != nil {
		model = *cfg.Encoder
	}
	catalog := cfg.Catalog
	if catalog == nil {
		catalog = video.DefaultCatalog()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	eng, err := transcode.NewEngine(spec, model, rng.Int63())
	if err != nil {
		return nil, err
	}
	return &Simulation{eng: eng, catalog: catalog, spec: spec, model: model, rng: rng}, nil
}

// AddStream registers one transcoding request. It may also be called
// while the simulation is running — from between AdvanceTo steps or from
// an OnStreamEnd hook — as a live arrival: the stream then joins at
// StartAtSec, or immediately when that time has already passed.
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
	bw := cfg.BandwidthMbps
	if bw == 0 {
		bw = core.DefaultBandwidth(seq.Res)
	}
	_, err = s.eng.AddSession(transcode.SessionConfig{
		Source:        src,
		Controller:    ctrl,
		Initial:       experiments.InitialSettings(seq.Res),
		BandwidthMbps: bw,
		FrameBudget:   cfg.Frames,
		StartAtSec:    cfg.StartAtSec,
		CollectTrace:  cfg.CollectTrace,
	})
	if err != nil {
		return err
	}
	s.streams++
	return nil
}

func (s *Simulation) newController(a Approach, res Resolution) (Controller, error) {
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

// Streams returns the number of registered streams.
func (s *Simulation) Streams() int { return s.streams }

// ActiveStreams returns the number of streams currently holding server
// resources (arrived and not yet departed).
func (s *Simulation) ActiveStreams() int { return s.eng.ActiveSessions() }

// Now returns the current simulated time.
func (s *Simulation) Now() float64 { return s.eng.Now() }

// OnStreamEnd installs a hook that fires when a stream reaches its frame
// budget and departs. The hook runs inside the event loop; it may call
// AddStream (continuous churn), but not Run/RunUntilAll/AdvanceTo.
func (s *Simulation) OnStreamEnd(fn func(StreamEnd)) { s.eng.OnSessionEnd(fn) }

// AdvanceTo steps the simulation to the given absolute time, processing
// every frame completion, departure and arrival at or before it. It lets
// callers interleave the simulation with an outer event loop; Run picks
// up from wherever the clock stands.
func (s *Simulation) AdvanceTo(t float64) error { return s.eng.AdvanceTo(t) }

// Run simulates until every stream finishes its frame budget.
func (s *Simulation) Run() (*SimulationResult, error) { return s.eng.Run() }

// RunUntilAll simulates with all streams kept busy until the slowest one
// reaches its budget (constant contention; see transcode.RunUntilAll). It
// is terminal: afterwards the simulation rejects Run, AdvanceTo and
// AddStream — build a new Simulation to continue.
func (s *Simulation) RunUntilAll() (*SimulationResult, error) { return s.eng.RunUntilAll() }

// Experiment re-exports: the full harness that regenerates the paper's
// evaluation lives in internal/experiments; these aliases expose it.
type (
	// ExperimentOptions configures the reproduction experiments.
	ExperimentOptions = experiments.Options
	// WorkloadSpec is a mix of simultaneous streams, e.g. 2HR3LR.
	WorkloadSpec = experiments.WorkloadSpec
	// WorkloadResult couples a workload with per-approach results.
	WorkloadResult = experiments.WorkloadResult
	// ApproachResult is one approach's measured behaviour on a workload.
	ApproachResult = experiments.ApproachResult
	// Fig2Point is one operating point of the Fig. 2 characterisation.
	Fig2Point = experiments.Fig2Point
	// Fig5Result is the Fig. 5 execution trace.
	Fig5Result = experiments.Fig5Result
	// TableIRow is one row of the paper's Table I.
	TableIRow = experiments.TableIRow
	// LearningTimeResult quantifies the SV-B learning-time comparison.
	LearningTimeResult = experiments.LearningTimeResult
	// AblationResult is one MAMUT-variant measurement.
	AblationResult = experiments.AblationResult
)

// Scenario kinds (paper SV-B and SV-C).
const (
	ScenarioI  = experiments.ScenarioI
	ScenarioII = experiments.ScenarioII
)

// DefaultExperimentOptions returns the options used for EXPERIMENTS.md.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// QuickExperimentOptions returns reduced options for quick runs.
func QuickExperimentOptions() ExperimentOptions { return experiments.QuickOptions() }

// ScenarioIWorkloads returns the Fig. 4 workload list.
func ScenarioIWorkloads() []WorkloadSpec { return experiments.ScenarioIWorkloads() }

// ScenarioIIWorkloads returns the Table II workload list.
func ScenarioIIWorkloads() []WorkloadSpec { return experiments.ScenarioIIWorkloads() }

// RunScenario measures every workload under every approach.
func RunScenario(workloads []WorkloadSpec, kind experiments.ScenarioKind, opts ExperimentOptions) ([]WorkloadResult, error) {
	return experiments.RunScenario(workloads, kind, opts)
}

// RunWorkload measures one workload under one approach.
func RunWorkload(w WorkloadSpec, kind experiments.ScenarioKind, a Approach, opts ExperimentOptions) (ApproachResult, error) {
	return experiments.RunWorkload(w, kind, a, opts)
}

// Fig2Sweep regenerates the Fig. 2 characterisation points.
func Fig2Sweep(opts ExperimentOptions) ([]Fig2Point, error) { return experiments.Fig2Sweep(opts) }

// Fig5Trace regenerates the Fig. 5 execution trace.
func Fig5Trace(opts ExperimentOptions, window int) (*Fig5Result, error) {
	return experiments.Fig5Trace(opts, window)
}

// TableI aggregates Scenario I results into the paper's Table I.
func TableI(results []WorkloadResult) ([]TableIRow, error) { return experiments.TableI(results) }

// LearningTime runs the SV-B learning-time comparison.
func LearningTime(opts ExperimentOptions, frames int) (*LearningTimeResult, error) {
	return experiments.LearningTime(opts, frames)
}

// RunAblations measures the DESIGN.md S5 MAMUT variants.
func RunAblations(w WorkloadSpec, opts ExperimentOptions) ([]AblationResult, error) {
	return experiments.RunAblations(w, opts, nil)
}

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
	// ServeSessionOutcome is the service-level record of one arrival.
	ServeSessionOutcome = serve.SessionOutcome
	// ServeServerResult aggregates one server of the fleet.
	ServeServerResult = serve.ServerResult
	// ServeClassStats aggregates measured sessions of one resolution class.
	ServeClassStats = serve.ClassStats
	// ServeQuantileSummary reports streamed p50/p95/p99 of one metric.
	ServeQuantileSummary = serve.QuantileSummary
	// ServeClassDistributions carries a class's FPS and session-duration
	// quantile summaries, estimated online from fixed-bin sketches.
	ServeClassDistributions = serve.ClassDistributions
	// ServeWindowedStats reports time-decayed (recent-window) service
	// health alongside the whole-window averages.
	ServeWindowedStats = serve.WindowedStats
	// PlacementPolicy decides which server admits an arrival.
	PlacementPolicy = serve.Policy
	// PlacementFleetIndexer marks a PlacementPolicy that can place from
	// an incrementally maintained fleet index (O(log n) placement); all
	// built-in policies implement it.
	PlacementFleetIndexer = serve.FleetIndexer
	// PlacementFleetIndex is a policy's incremental view of the fleet.
	PlacementFleetIndex = serve.FleetIndex
	// ServerState is the dispatcher's view a policy decides from.
	ServerState = serve.ServerState
	// ServeGridSpec spans a (policy x arrival-rate x seed) grid.
	ServeGridSpec = serve.GridSpec
	// ServeGridCell couples one grid coordinate with its result.
	ServeGridCell = serve.GridCell
	// ServeRebalancer plans live session migrations on the service's
	// control-epoch schedule (ServeConfig.Rebalance enables the built-in
	// power-hotspot implementation; ServeConfig.RebalancerFactory
	// installs a custom one).
	ServeRebalancer = serve.Rebalancer
	// ServeMove is one rebalancing step: migrate Sessions live sessions
	// from server From to server To.
	ServeMove = serve.Move
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
	// ServeFleetState is the fleet-level (queue backlog) context a
	// backlog-observing policy sees before each placement decision.
	ServeFleetState = serve.FleetState
	// ServeFaultConfig schedules deterministic fault injection into a
	// service run (ServeConfig.Faults): the fault plan, the periodic
	// session-checkpoint interval, and the crash-recovery pipeline.
	ServeFaultConfig = serve.FaultConfig
	// ServeFaultEvent is one scheduled fault: a server crash at an
	// instant, or a degrade/blip window.
	ServeFaultEvent = serve.FaultEvent
	// ServeFaultKind identifies a failure mode (crash, degrade, blip).
	ServeFaultKind = serve.FaultKind
	// ServeFaultRecovery configures what happens to sessions a crash
	// interrupts: drop them, or re-admit through the waiting room with
	// per-class retry/backoff/deadline bounds.
	ServeFaultRecovery = serve.FaultRecovery
	// ServeFaultRecoveryClass bounds one resolution class's recovery
	// effort (backoff, retries, deadline).
	ServeFaultRecoveryClass = serve.FaultRecoveryClass
	// ServeBacklogObserver marks a PlacementPolicy that observes queue
	// backlog state (ServeFleetState) before each placement decision.
	ServeBacklogObserver = serve.BacklogObserver
	// MAMUTSnapshot is the portable learned state of one MAMUT controller
	// (all three agents' Q-tables, visit counts and transition models) —
	// the unit of cross-session knowledge reuse.
	MAMUTSnapshot = core.Snapshot
	// KnowledgeStore is the per-resolution-class shared knowledge base a
	// knowledge-reuse service run maintains.
	KnowledgeStore = serve.KnowledgeStore
	// ServeCheckpoint is a durable, append-only grid checkpoint: assign
	// one to ServeGridSpec.Checkpoint and an interrupted grid resumes
	// bit-identically, recomputing only the missing cells.
	ServeCheckpoint = experiments.FileCheckpoint[*serve.Result]
)

// NewKnowledgeStore returns an empty cross-session knowledge base.
// RunService builds its own when ServeConfig.KnowledgeReuse is set; a
// standalone store is for callers folding MAMUTSnapshots themselves.
func NewKnowledgeStore() *KnowledgeStore { return serve.NewKnowledgeStore() }

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

// Fault kinds (ServeFaultEvent.Kind), plus the recovery bounds crash
// recovery falls back to when none are configured.
const (
	FaultCrash   = serve.FaultCrash
	FaultDegrade = serve.FaultDegrade
	FaultBlip    = serve.FaultBlip

	DefaultFaultBackoffSec      = serve.DefaultFaultBackoffSec
	DefaultFaultRetryMax        = serve.DefaultFaultRetryMax
	DefaultFaultDeadlineSec     = serve.DefaultFaultDeadlineSec
	DefaultFaultRestoreStallSec = serve.DefaultFaultRestoreStallSec
)

// ServePolicyNames lists the registered placement policies.
func ServePolicyNames() []string { return serve.PolicyNames() }

// ServeQueuePriorities lists the admission-queue priority orders in
// deterministic order.
func ServeQueuePriorities() []ServeQueuePriority { return serve.QueuePriorities() }

// ServeFaultKinds lists the fault-injection failure modes in
// deterministic order.
func ServeFaultKinds() []ServeFaultKind { return serve.FaultKinds() }

// ParseServeFaultPlan parses a comma-separated fault plan in the CLI
// spec syntax, e.g. "crash@120:0,degrade@60-180:2:0.5,blip@90-95:1".
func ParseServeFaultPlan(s string) ([]ServeFaultEvent, error) { return serve.ParseFaultPlan(s) }

// FormatServeFaultPlan renders a fault plan back into the spec syntax;
// the result re-parses to an equal plan.
func FormatServeFaultPlan(plan []ServeFaultEvent) string { return serve.FormatFaultPlan(plan) }

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

// SplitServeArrivals partitions an arrival stream into interleaved
// round-robin substreams (request r to substream r.ID mod shards): each
// substream preserves time order, sizes differ by at most one, and the
// ID-ordered union is exactly the input — the workload-side primitive
// for driving independent per-region runs over one generated stream.
func SplitServeArrivals(arrivals []ServeSessionRequest, shards int) ([][]ServeSessionRequest, error) {
	return serve.SplitArrivals(arrivals, shards)
}
