// Package mamut is a Go reproduction of "MAMUT: Multi-Agent Reinforcement
// Learning for Efficient Real-Time Multi-User Video Transcoding" (Costero,
// Iranfar, Zapater, Igual, Olcoz, Atienza - DATE 2019).
//
// MAMUT manages a multi-user HEVC transcoding server at run time. For each
// video stream three cooperating Q-learning agents each own one knob - the
// HEVC quantization parameter (AGqp), the number of WPP encoding threads
// (AGthread) and the per-core DVFS frequency (AGdvfs) - and share a
// discrete state space built from the four observables PSNR, power,
// bitrate and throughput. The goal is real-time throughput (24 FPS) and
// high quality under user-bandwidth and server-power constraints.
//
// Because this repository must run anywhere, the paper's physical testbed
// (Kvazaar encoder on a dual Xeon E5-2667 v4 with per-core DVFS) is
// replaced by calibrated analytic models with the same response surfaces;
// see DESIGN.md for the substitution table and calibration anchors. The
// controllers themselves - MAMUT and both baselines - are implemented
// exactly as the paper describes.
//
// This package is the public facade, cut to what the repository's
// commands and examples use. NewSimulation runs managed streams on one
// simulated server; RunService, RunServiceGrid, ServeArrivals,
// SplitServeArrivals, ImportKnowledge, OpenServeCheckpoint and
// ParseServeFaultPlan drive the serving layer, configured through the
// Serve* type aliases and the policy, load-curve, queue-priority and
// fault-kind constants. The paper's experiments run from
// cmd/mamut-experiments. The implementation lives under internal/:
//
//   - internal/core: the MAMUT controller (agents, schedule, rewards,
//     Algorithm 1 cooperative exploitation)
//   - internal/baseline: the mono-agent QL and heuristic baselines
//   - internal/rl: tabular Q-learning machinery (eq. 3 learning rate,
//     per-state phases, and the empirical transition model in one
//     compressed sparse row layout shared by the live learner, knowledge
//     snapshots and checkpoints)
//   - internal/hevc, internal/platform, internal/video: the simulated
//     substrates
//   - internal/transcode: the event-scheduled multi-session engine (see
//     below)
//   - internal/experiments: everything needed to regenerate the paper's
//     figures and tables
//   - internal/serve: the continuous-serving layer (see below)
//
// # Simulation core
//
// The engine simulates all sessions of one server as an indexed event
// scheduler. Active sessions share one contention scale (and thermal
// throttle factor), so service rates only ever rescale uniformly; the
// engine exploits this by keeping a virtual service clock that advances
// at scale*throttle times real time, and a min-heap of pending frame
// completions keyed by virtual time that never needs re-keying. A frame
// event — completion, controller decision, next-frame admission — costs
// O(log n) in the number of active sessions; aggregate contention state
// and package power are maintained incrementally (platform.LoadAccount),
// and per-session dynamic energy integrates lazily against the virtual
// clock. Sessions have a live lifecycle: the engine's AddSession works
// mid-run, AdvanceTo steps it to an absolute time for interleaving with
// outer event loops (the serving layer's dispatcher is one), and
// OnSessionEnd delivers explicit departure notifications. Output leaves
// the engine one way per kind: every per-frame Observation through the
// OnFrame hook as it is booked, and a departed session's result through
// the OnSessionEnd hook when one is installed (the engine then forgets
// the session; without a hook it stays in the end-of-run result).
//
// # Serving layer
//
// Beyond the paper's fixed stream mixes, the serving layer runs the
// system as a continuously loaded service: a workload generator emits
// session arrivals (Poisson with a configurable HR/LR mix and
// exponential session lengths, optionally shaped by a diurnal or ramp
// load curve, or replayed from a deterministic trace), a dispatcher
// places each arrival on one server of a simulated fleet under a
// pluggable placement policy (round-robin, least-loaded, or
// power/thermal-aware) with per-server admission limits, and
// steady-state service metrics — per-class real-time SLO attainment,
// rejection rate, fleet power, per-server utilization — are aggregated
// over a measurement window after warm-up. The fleet runs as one
// event-interleaved simulation: every server engine is stepped to each
// arrival instant before the placement decision, so the dispatcher
// observes actual, contention-stretched session departures rather than
// nominal session lengths. Entry points: RunService for one run,
// RunServiceGrid for (policy x arrival-rate x seed) sweeps, and
// cmd/mamut-serve on the command line. After the last arrival the
// engines drain across the experiment scheduler's worker pool; results
// are bit-identical for any worker count.
//
// # Fleet-scale dispatch
//
// The dispatcher itself is indexed, so fleets of thousands of servers
// place arrivals in O(log n): engines expose the wall-clock time of
// their next pending event (NextEventTime — exact, because the engine
// settles energy/thermal/virtual-clock integration at events rather
// than at clock parks), a min-heap keyed by those times advances only
// the servers with events due before each arrival — idle engines are
// never touched — and per-server dispatch state (occupancy, estimated
// power) is maintained incrementally on admission and departure instead
// of being rebuilt per arrival. The built-in policies place through
// incremental fleet indexes (serve.FleetIndexer): round-robin from
// its cursor, least-loaded from an occupancy bucket queue, power-aware
// from a power-headroom heap, each reproducing its O(n) scan — the same
// comparisons on the same floats, ties to the lowest server index. The
// O(servers) scan dispatcher is test-only now: it survives inside
// internal/serve as the semantic reference, and equivalence tests run
// it against the indexed dispatcher on every committed golden config.
// BenchmarkFleetScale tracks the per-arrival cost: near-flat from 10 to
// 5000 servers, where the seed's O(servers) sweep grew linearly.
//
// # Sharded fleet dispatch
//
// Indexing removes the O(servers) placement cost; what remains serial
// is advancing the engine simulations themselves, and that
// parallelises. ServeConfig.Shards splits the fleet into shards (server
// i belongs to shard i mod S) in a phased design; an unsharded run is one
// inline shard. Each shard exclusively owns its servers' engines, its
// partition of the engine event heap, and a departure buffer (each record
// carries its knowledge harvest). The coordinator steps through the run's
// one timeline — arrivals, epochs, checkpoints, fault edges and the
// queue's horizon pass are its moments — serially and, at each sweep,
// opens a barrier under which due shards advance their disjoint engines
// concurrently (the coordinator advances shard 0 itself, shards 1..S-1
// run on their own goroutines), then reconciles the buffers in shard-ID
// order before any decision. Departures are always buffered and
// reconciled, also from the serial-phase engine steps. Shared state
// — the KnowledgeStore, global accounting, streaming aggregates, policy
// fleet indexes — is only ever touched in the serial phase, so no locks
// exist anywhere. Determinism is by construction: the shard heaps
// exactly partition the global heap (every engine sees the identical
// AdvanceTo sequence), departure folds sort by arrival ID (erasing the
// merge order), and the policy indexes are layout-independent — so
// Shards=S output is byte-identical to Shards<=1 for every policy,
// knowledge reuse and full elasticity (equivalence tests,
// race-detector stress and CI goldens pin this). cmd/mamut-fleetbench
// measures ns/arrival across (fleet size x shard count) and writes a
// machine-readable artifact stamped with the measuring environment;
// SplitArrivals is the workload-side counterpart, dealing one arrival
// stream into interleaved per-region substreams.
//
// # Queued admission
//
// With ServeConfig.Queue the fleet stops dropping arrivals that find no
// capacity: the arrival path is an explicit admission pipeline with a
// bounded fleet-level waiting room. Each decision point — every
// arrival, every elastic epoch, and a final pass at the workload
// horizon — first syncs the fleet (step engines, fold departures), then
// drops queue entries whose per-entry deadline passed, then re-attempts
// admission for the waiting entries against the freed capacity: FIFO
// within a configurable resolution-class priority order (HR-first by
// default), strictly head-of-line, with draining servers admitting
// nothing. The outcome taxonomy splits four ways — admitted, queued
// (then re-admitted or deadline-dropped), and rejected, which keeps
// meaning capacity-rejected only (queue full, or queueing off) — so
// Offered == Admitted + Rejected + QueueDropped always holds, and
// latency becomes a first-class metric: queue-wait and
// time-to-first-frame p50/p95/p99 stream through the same fixed-bin
// sketches as FPS, with a time-decayed recent-backlog view alongside.
// Policies written inside this module can observe the backlog (queue
// depth, capacity, oldest wait) through the optional
// serve.BacklogObserver extension. The pipeline
// runs entirely in the dispatcher's serial phase, so queued runs stay
// bit-identical across worker and shard counts — and with the queue off
// (the empty-queue case of the same pipeline) the dispatcher
// byte-reproduces the pre-queue output. Under a burst workload (ServeWorkload LoadBurst —
// a flash-crowd spike window) the deadline-bounded queue strictly beats
// drop-on-full on completed and SLO-attained sessions at equal fleet
// size, because capacity that frees after the spike serves arrivals
// drop-on-full lost forever (test-pinned).
//
// # Cross-session knowledge reuse
//
// Short-lived sessions are where a real transcoding service lives — and
// where from-scratch Q-learning fails: a 60-second session (~1440
// frames) barely finishes exploring. With ServeConfig.KnowledgeReuse
// the fleet shares learned knowledge across sessions, following the
// paper's KaaS follow-up line of work: when a session departs during
// the arrival phase, its three agents' Q-tables, visit counts and
// transition models are folded into a per-resolution-class
// KnowledgeStore with count-weighted averaging, and every later
// admission seeds its fresh controller from the accumulated snapshot.
// The eq. (3) learning-rate machinery then does the rest — states whose
// pooled visit counts push every action's learning rate below the phase
// thresholds start directly in exploitation, so warm sessions spend
// their short lives applying learned settings instead of re-exploring.
//
// Knowledge folding is deterministic by construction: contributions
// fold in arrival-ID order at the event-interleaved departure instants
// (pinning the floating-point fold sequence), and departures during the
// post-arrival drain phase are never folded — no admission could
// observe them, and excluding them keeps the drain embarrassingly
// parallel, so knowledge-reuse runs stay bit-identical for any worker
// count. Warm-started sessions contribute deltas — the seed-time counts
// are subtracted at harvest, so the pool grows linearly with genuinely
// gathered experience instead of re-compounding the seed each
// generation. Warm starts apply only to the MAMUT approach (the
// baselines have no tables worth sharing); classes without a prior
// departure start cold.
//
// # Quick start
//
//	sim, err := mamut.NewSimulation(mamut.SimulationConfig{Seed: 1})
//	if err != nil { ... }
//	err = sim.AddStream(mamut.StreamConfig{
//		Sequence: "Kimono",
//		Approach: mamut.ApproachMAMUT,
//		Frames:   2000,
//	})
//	result, err := sim.Run()
//
// See examples/ for runnable programs and cmd/mamut-experiments for the
// harness that regenerates every table and figure of the paper.
package mamut
