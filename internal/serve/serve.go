package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"mamut/internal/core"
	"mamut/internal/experiments"
	"mamut/internal/hevc"
	"mamut/internal/metrics"
	"mamut/internal/platform"
	"mamut/internal/transcode"
	"mamut/internal/video"
	"mamut/internal/xrand"
)

// Config defaults.
const (
	// DefaultMaxSessionsPerServer matches the paper's single-server
	// capacity envelope (up to 5 HR or 8 LR streams stay real-time).
	DefaultMaxSessionsPerServer = 8
	// DefaultSLOFPSFactor is the per-session real-time SLO: a session
	// attains the SLO when its lifetime average FPS reaches this
	// fraction of the target frame rate. (The per-frame windowed-FPS
	// violation share is reported alongside, but controllers regulate
	// *around* the target, so average throughput is the quantity that
	// separates a keeping-up server from an overloaded one.)
	DefaultSLOFPSFactor = 0.95
)

// Config describes one service run: the fleet, the placement policy, the
// offered workload and the measurement protocol.
type Config struct {
	// Servers is the fleet size. Default 1.
	Servers int
	// MaxSessionsPerServer is the per-server admission limit.
	// DefaultMaxSessionsPerServer when 0.
	MaxSessionsPerServer int
	// Policy names the placement policy (see PolicyNames).
	// PolicyLeastLoaded when empty.
	Policy string
	// PolicyFactory overrides Policy with a custom policy constructor
	// (a fresh instance is requested per run).
	PolicyFactory func() Policy
	// Approach selects the per-session controller. MAMUT when empty.
	Approach experiments.Approach
	// KnowledgeReuse enables cross-session knowledge sharing (KaaS-style
	// warm starts): a per-resolution-class KnowledgeStore harvests the
	// learned state of every session that departs during the arrival
	// phase and seeds each new admission from it, so short-lived sessions
	// skip past exploration for states the service has already learned.
	// Requires the MAMUT approach. Results stay bit-identical for any
	// Workers count: contributions fold in arrival-ID order at the
	// event-interleaved departure instants, and drain-phase departures
	// (after the last arrival) never affect an admission.
	KnowledgeReuse bool
	// Knowledge pre-seeds the run's knowledge store from a previously
	// exported one (see KnowledgeStore.Export / ImportKnowledge), so a
	// fleet warm-starts from knowledge gathered by earlier runs instead
	// of from scratch. The store is copied — the run never mutates the
	// caller's — and the run's own final store (imported + this run's
	// contributions) is returned in Result.Knowledge. Requires
	// KnowledgeReuse.
	Knowledge *KnowledgeStore
	// Workload is the offered load.
	Workload Workload
	// WarmupSec starts the measurement window: sessions arriving before
	// it and power drawn before it are excluded from the steady-state
	// metrics. The window ends at the workload horizon.
	WarmupSec float64
	// SLOFPSFactor is the session SLO threshold as a fraction of the
	// target frame rate. DefaultSLOFPSFactor when 0.
	SLOFPSFactor float64
	// Spec and Catalog override the simulated substrate.
	Spec    *platform.Spec
	Catalog *video.Catalog
	// Seed drives all randomness; equal seeds give identical results.
	Seed int64
	// Workers sizes the pool the per-server simulations fan out on
	// (0 = one per CPU, 1 = serial). Results are bit-identical for any
	// worker count.
	Workers int
	// Shards splits the fleet into shards: server i belongs to shard
	// i mod Shards, and each shard advances its own engines (with its
	// own slice of the event heap) in the parallel phase of every
	// dispatcher step, reconciling with the coordinator at a barrier
	// before any placement, epoch or fault decision — see shard.go. The
	// coordinator advances shard 0 itself and every other shard runs on
	// its own goroutine, so 0 or 1 (unsharded) is the one-shard case of
	// the same code: one inline shard. Departures are always buffered
	// and reconciled by the coordinator. Results are bit-identical for
	// every shard count, policy, knowledge reuse and the elastic
	// features; shards only buy wall clock on multi-core hosts once
	// fleets are large enough that advancing engines dominates
	// placement.
	Shards int
	// reference selects the O(servers)-per-arrival scan dispatcher the
	// equivalence tests compare the production dispatcher against:
	// every live engine is advanced to each decision instant, the full
	// state slice is rebuilt before every placement and epoch, and the
	// policy scans it. Its results are bit-identical to the default
	// path; it is reachable from this package's tests only.
	reference bool
	// RetainSessions keeps the per-arrival SessionOutcome log in
	// Result.Sessions. Off by default: every aggregate is folded
	// streamingly at each session's departure event, so the default path
	// allocates O(active sessions) — the property that makes month-long
	// horizons feasible — and Result.Sessions is nil. Retention changes
	// no other result field.
	RetainSessions bool
	// EpochSec is the control-epoch interval driving the elasticity
	// features below (rebalancing, autoscaling, scheduled drains).
	// DefaultEpochSec when 0 and any of them is enabled; ignored — no
	// epochs run — otherwise. Epochs interleave with the arrival stream
	// on the one merged clock (an epoch due at an arrival's instant runs
	// before the arrival) and continue to the workload horizon, so every
	// elasticity decision lands at a deterministic point of the event
	// order and results stay bit-identical for any Workers count. An
	// interval that would put more than 2^20 epochs on the horizon is
	// rejected.
	EpochSec float64
	// Rebalance enables hotspot rebalancing: each epoch one session is
	// live-migrated away from every server whose estimated package power
	// exceeds its power budget, onto the server with the most power
	// headroom. Elasticity requires migratable sessions, so the MonoAgent
	// approach is rejected.
	Rebalance bool
	// MigrationStallSec is the stall each live migration charges the
	// moved session: its in-flight frame is delayed this many real
	// seconds, counting against throughput — and therefore the SLO —
	// like any slow frame. DefaultMigrationStallSec when 0 and an
	// elasticity feature is enabled.
	MigrationStallSec float64
	// Autoscale enables target-utilization fleet autoscaling on the
	// epoch schedule: scale-out adds servers when utilization crosses
	// the high watermark, scale-in drains (migrate-then-decommission)
	// the highest-index server when it falls below the low one.
	Autoscale AutoscaleConfig
	// Drain schedules explicit server decommissions: at the first epoch
	// at or after each event's AtSec the server stops admitting, its
	// sessions are live-migrated off, and it leaves the fleet once
	// empty.
	Drain []DrainEvent
	// Queue bounds the fleet-level admission waiting room (see
	// admission.go): arrivals that find no server wait — FIFO within a
	// resolution-class priority order — and are re-attempted at every
	// decision point (arrivals, elastic epochs, the workload horizon)
	// until a server frees up or their deadline passes. The zero value
	// keeps the drop-on-full behaviour and byte-identical output.
	Queue QueueConfig
	// Faults schedules deterministic fault injection (see faults.go):
	// server crashes, power-cap degradations and availability blips land
	// at precomputed control moments of the serial phase, with periodic
	// session checkpoints and a queue-based recovery pipeline bringing
	// crash-interrupted sessions back. The zero value disables fault
	// code entirely and keeps byte-identical output.
	Faults FaultConfig
}

// SessionOutcome is the service-level record of one arrival.
type SessionOutcome struct {
	// Req is the arrival as dispatched.
	Req SessionRequest
	// Server is the admitting server's index, or -1 when rejected.
	Server int
	// Measured reports whether the arrival fell inside the measurement
	// window (at or after warm-up).
	Measured bool
	// Queued reports the arrival entered the admission queue instead of
	// being placed (or rejected) immediately; queueing enabled only.
	Queued bool
	// QueueWaitSec is the wait between arrival and admission — 0 for
	// direct admissions, and for entries that never got a server.
	QueueWaitSec float64
	// Dropped reports a queued arrival that left the queue without a
	// server (deadline passed, or the run ended while it waited). Such
	// arrivals are counted in Result.QueueDropped, never in Rejected.
	Dropped bool
	// Interrupted reports the session was resident on a server when it
	// crashed; fault injection only.
	Interrupted bool
	// Recovered reports an interrupted session that was restored onto a
	// surviving server (Server then holds the restoring server).
	Recovered bool
	// Lost reports an interrupted session that was never restored:
	// dropped with its server, shed from the recovery queue, out of
	// retries, or past its recovery deadline.
	Lost bool
	// The remaining fields are zero for rejected arrivals.
	// Frames is the number of frames actually transcoded.
	Frames int
	// ViolationPct is the share of frames whose windowed FPS fell below
	// the target over the session's lifetime.
	ViolationPct float64
	// SLOMet reports AvgFPS >= SLOFPSFactor * target.
	SLOMet bool
	// Averages over the session's lifetime.
	AvgFPS         float64
	AvgPSNRdB      float64
	AvgBitrateMbps float64
}

// ServerResult aggregates one server of the fleet.
type ServerResult struct {
	// Index identifies the server.
	Index int
	// Sessions is the number of sessions admitted over the whole run.
	Sessions int
	// PeakActive is the highest number of simultaneously resident
	// sessions observed (by actual session lifetimes). The dispatcher
	// admits on those same event-interleaved lifetimes, so it never
	// exceeds the admission limit.
	PeakActive int
	// AvgPowerW is the package power averaged over the measurement
	// window (idle power when the server saw no load).
	AvgPowerW float64
	// UtilizationPct is the time-averaged resident-session count over
	// the measurement window, as a percentage of the admission limit.
	UtilizationPct float64
}

// ClassStats aggregates the measured sessions of one resolution class.
type ClassStats struct {
	// Sessions is the number of measured (admitted, in-window) sessions.
	Sessions int
	// SLOAttainedPct is the share of them that met the real-time SLO.
	SLOAttainedPct float64
	// AvgViolationPct, AvgFPS and AvgPSNRdB average over them.
	AvgViolationPct float64
	AvgFPS          float64
	AvgPSNRdB       float64
}

// QuantileSummary reports streaming quantile estimates over one metric
// of the measured sessions, read from a fixed-bin histogram sketch
// (deterministic and order-independent, so results stay bit-identical
// across worker and shard counts).
type QuantileSummary struct {
	// Count is the number of sessions folded into the sketch.
	Count int
	// P50, P95 and P99 are the estimated quantiles.
	P50, P95, P99 float64
}

// ClassDistributions holds the per-class distribution sketches: means
// hide tail behaviour, and the tail is where SLOs are lost.
type ClassDistributions struct {
	// FPS sketches each measured session's lifetime average FPS over
	// [0, 2x target), so P50/P95/P99 locate the slow tail of the class.
	FPS QuantileSummary
	// DurationSec sketches each measured session's actual residency time
	// (departure minus admission, contention-stretched; admission is the
	// arrival instant unless the session waited in the queue).
	DurationSec QuantileSummary
}

// WindowedStats reports exponentially time-decayed views of the core
// service metrics: each sample's weight decays as exp(-age/TauSec), so
// the values describe how the service was doing toward the end of the
// run rather than averaged over its whole history. Long horizons with
// drifting load (diurnal curves, ramps) read very differently here than
// in the lifetime averages.
type WindowedStats struct {
	// TauSec is the decay time constant (a quarter of the measurement
	// window).
	TauSec float64
	// SLOAttainedPct decays over measured session departures.
	SLOAttainedPct float64
	// RejectionPct decays over all arrivals.
	RejectionPct float64
	// UtilizationPct decays over the fleet occupancy sampled at each
	// arrival decision (resident sessions as a share of fleet capacity).
	UtilizationPct float64
	// QueueDepth decays over the admission-queue backlog sampled at each
	// arrival decision — the recent waiting-room pressure. Zero when
	// queueing is off.
	QueueDepth float64
	// AvailabilityPct decays over the share of the initial-or-crashed
	// fleet that was in service (not crashed, not blipped), sampled at
	// each arrival decision. Zero when fault injection is off.
	AvailabilityPct float64
}

// Result is the steady-state outcome of a service run.
type Result struct {
	// Policy is the placement policy that ran.
	Policy string
	// DurationSec is the workload horizon; WarmupSec is the measurement
	// window start. (Simulation continues past the horizon until every
	// admitted session finishes.)
	DurationSec float64
	WarmupSec   float64
	// Offered / Admitted / Rejected count every arrival of the run;
	// RejectionPct is Rejected/Offered. Rejected means capacity-rejected
	// at arrival — with queueing enabled, an arrival that waits in the
	// queue is later counted admitted or queue-dropped, never rejected,
	// and Offered == Admitted + Rejected + QueueDropped always holds.
	Offered      int
	Admitted     int
	Rejected     int
	RejectionPct float64
	// Queued / QueueAdmitted / QueueDropped account the admission
	// queue's activity when Config.Queue enables it (all zero
	// otherwise): arrivals that entered the waiting room, entries later
	// admitted from it, and entries dropped without a server (deadline
	// passed, or still waiting at the end of the run).
	Queued        int
	QueueAdmitted int
	QueueDropped  int
	// QueueDroppedPct is QueueDropped/Offered — the complement of
	// RejectionPct in the loss accounting (an offered session is lost
	// either at the door or in the queue, never both).
	QueueDroppedPct float64
	// AvgQueueWaitSec averages the admission wait over the measured
	// admitted sessions; direct admissions wait 0, so this is the
	// fleet-wide added latency, not the per-queued-session wait.
	AvgQueueWaitSec float64
	// MeasuredOffered and MeasuredRejected restrict the accounting to
	// the measurement window; MeasuredRejectionPct is their ratio.
	MeasuredOffered      int
	MeasuredRejected     int
	MeasuredRejectionPct float64
	// Measured is the number of admitted in-window sessions the SLO
	// statistics cover; SLOAttainedPct is the share that met the SLO.
	Measured       int
	SLOAttainedPct float64
	// HR and LR split the SLO statistics by resolution class.
	HR, LR ClassStats
	// FleetAvgPowerW is the mean per-server window power.
	FleetAvgPowerW float64
	// KnowledgeContributions and KnowledgeSeeded report the knowledge
	// store's activity when Config.KnowledgeReuse was on (zero
	// otherwise): sessions whose learned state was folded into the store
	// during the arrival phase, and admissions seeded from at least one
	// prior contribution (warm starts).
	KnowledgeContributions int
	KnowledgeSeeded        int
	// HRDist and LRDist sketch the distribution (not just the mean) of
	// per-session FPS and residency time for each class's measured
	// sessions.
	HRDist, LRDist ClassDistributions
	// QueueWaitDist and TTFFDist are the latency-first views a queued
	// service is judged by (zero-valued when queueing is off):
	// QueueWaitDist sketches the admission wait of every measured
	// admitted session (0 for direct admissions), TTFFDist the
	// time-to-first-frame — first transcoded frame minus arrival, i.e.
	// queue wait plus the first frame's contention-stretched service
	// time — of every measured session that departed.
	QueueWaitDist QuantileSummary
	TTFFDist      QuantileSummary
	// Windowed reports time-decayed views of SLO attainment, rejection
	// and utilization — the service "lately" rather than on average.
	Windowed WindowedStats
	// Migrations counts live session migrations (evacuations off
	// draining servers plus rebalancer moves); ServersAdded and
	// ServersRemoved count fleet topology changes; PeakServers is the
	// largest in-service fleet observed. With no elasticity feature
	// enabled, the counters are zero and PeakServers is the configured
	// fleet size.
	Migrations     int
	ServersAdded   int
	ServersRemoved int
	PeakServers    int
	// The fault block accounts Config.Faults activity (all zero when no
	// plan is configured). FaultsInjected counts fault events that
	// struck; ServersCrashed the servers lost for good. Interrupted
	// counts sessions resident on a crashing server; of those, Recovered
	// were restored onto surviving capacity and Lost never were —
	// Interrupted == Recovered + Lost once the run drains. LostWorkSec
	// totals the transcoding seconds lost between each victim's last
	// checkpoint (or start) and the crash. MTTRSec is the mean
	// crash-to-restore latency over recovered sessions, and
	// RecoveryLatency sketches its distribution. AvailabilityPct is the
	// time-averaged share of the initial fleet in service: crashed
	// servers are out from the crash to the horizon, blipped servers for
	// their windows.
	FaultsInjected  int
	ServersCrashed  int
	Interrupted     int
	Recovered       int
	Lost            int
	LostWorkSec     float64
	MTTRSec         float64
	RecoveryLatency QuantileSummary
	AvailabilityPct float64
	// Knowledge is the run's final knowledge store (imported snapshot
	// plus this run's contributions) when Config.KnowledgeReuse was on,
	// nil otherwise. Export it for a later run's Config.Knowledge.
	Knowledge *KnowledgeStore
	// Servers holds one entry per server, in index order.
	Servers []ServerResult
	// Sessions holds one entry per arrival, in arrival order — only when
	// Config.RetainSessions is set (nil otherwise; the default path does
	// not retain per-session state).
	Sessions []SessionOutcome
}

// withDefaults resolves zero config fields.
func (c Config) withDefaults() Config {
	if c.Servers == 0 {
		c.Servers = 1
	}
	if c.MaxSessionsPerServer == 0 {
		c.MaxSessionsPerServer = DefaultMaxSessionsPerServer
	}
	if c.Policy == "" {
		c.Policy = PolicyLeastLoaded
	}
	if c.Approach == "" {
		c.Approach = experiments.MAMUT
	}
	if c.SLOFPSFactor == 0 {
		c.SLOFPSFactor = DefaultSLOFPSFactor
	}
	if c.Elastic() {
		if c.EpochSec == 0 {
			c.EpochSec = DefaultEpochSec
		}
		if c.MigrationStallSec == 0 {
			c.MigrationStallSec = DefaultMigrationStallSec
		}
		if c.Autoscale.Enabled {
			if c.Autoscale.MinServers == 0 {
				c.Autoscale.MinServers = 1
			}
			if c.Autoscale.MaxServers == 0 {
				c.Autoscale.MaxServers = 4 * c.Servers
			}
			if c.Autoscale.TargetUtilPct == 0 {
				c.Autoscale.TargetUtilPct = 70
			}
			if c.Autoscale.HighPct == 0 {
				c.Autoscale.HighPct = 85
			}
			if c.Autoscale.LowPct == 0 {
				c.Autoscale.LowPct = 40
			}
		}
	}
	if c.Queue.Capacity > 0 {
		if c.Queue.DeadlineSec == 0 {
			c.Queue.DeadlineSec = DefaultQueueDeadlineSec
		}
		if c.Queue.Priority == "" {
			c.Queue.Priority = QueuePrioHRFirst
		}
	}
	c.Faults = c.Faults.withDefaults()
	c.Workload = c.Workload.withDefaults()
	return c
}

// namedValue is one float config field and the name a validation error
// reports it under.
type namedValue struct {
	name string
	v    float64
}

// checkFinite rejects the first NaN or ±Inf value, naming its field.
// Validators call it before their range checks: every comparison with
// NaN is false, so a NaN would slip past all of them.
func checkFinite(vals []namedValue) error {
	for _, nv := range vals {
		if !isFinite(nv.v) {
			return fmt.Errorf("serve: %s %g is not finite", nv.name, nv.v)
		}
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// maxPeriodicMoments bounds the moments one periodic schedule (control
// epochs, checkpoint passes) may put on a run's timeline. The timeline
// holds every moment up front, so an interval tiny against the horizon
// would exhaust memory before the run began.
const maxPeriodicMoments = 1 << 20

// checkPeriod rejects a positive interval whose schedule over horizon
// exceeds maxPeriodicMoments, naming its field.
func checkPeriod(name string, interval, horizon float64) error {
	if n := horizon / interval; interval > 0 && n > maxPeriodicMoments {
		return fmt.Errorf("serve: %s %g puts %.3g moments on the %gs horizon, more than %d", name, interval, n, horizon, maxPeriodicMoments)
	}
	return nil
}

// Validate reports whether the config is usable (after defaults).
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Servers < 1 {
		return fmt.Errorf("serve: fleet size %d < 1", c.Servers)
	}
	if c.MaxSessionsPerServer < 1 {
		return fmt.Errorf("serve: admission limit %d < 1", c.MaxSessionsPerServer)
	}
	if c.PolicyFactory == nil {
		if _, err := NewPolicy(c.Policy); err != nil {
			return err
		}
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if err := checkFinite([]namedValue{
		{"warm-up", c.WarmupSec},
		{"SLO factor", c.SLOFPSFactor},
		{"epoch interval", c.EpochSec},
		{"migration stall", c.MigrationStallSec},
		{"autoscale target utilization", c.Autoscale.TargetUtilPct},
		{"autoscale high watermark", c.Autoscale.HighPct},
		{"autoscale low watermark", c.Autoscale.LowPct},
	}); err != nil {
		return err
	}
	for i, ev := range c.Drain {
		if !isFinite(ev.AtSec) {
			return fmt.Errorf("serve: drain event %d time %g is not finite", i, ev.AtSec)
		}
	}
	if c.WarmupSec < 0 {
		return fmt.Errorf("serve: negative warm-up %g", c.WarmupSec)
	}
	if d := c.Workload.withDefaults().DurationSec; c.WarmupSec >= d && d > 0 {
		return fmt.Errorf("serve: warm-up %gs consumes the whole %gs horizon", c.WarmupSec, d)
	}
	if c.SLOFPSFactor < 0 {
		return fmt.Errorf("serve: negative SLO factor %g", c.SLOFPSFactor)
	}
	if c.SLOFPSFactor > 1 {
		// Controllers regulate *around* the target frame rate, so a
		// factor above 1 demands a sustained average beyond the target —
		// an unattainable SLO that silently zeroes SLOAttainedPct.
		return fmt.Errorf("serve: SLO factor %g > 1 is unattainable (sessions regulate around the target FPS)", c.SLOFPSFactor)
	}
	if c.Workers < 0 {
		return fmt.Errorf("serve: workers %d < 0", c.Workers)
	}
	if c.Shards < 0 {
		return fmt.Errorf("serve: shards %d < 0", c.Shards)
	}
	if c.Spec != nil {
		// A malformed custom spec is a config error; surfacing it here
		// keeps the dispatcher's power estimation from crashing mid-run.
		if err := c.Spec.Validate(); err != nil {
			return fmt.Errorf("serve: platform spec: %w", err)
		}
	}
	if c.KnowledgeReuse && c.Approach != experiments.MAMUT {
		return fmt.Errorf("serve: knowledge reuse requires the %s approach, got %q", experiments.MAMUT, c.Approach)
	}
	if c.Knowledge != nil && !c.KnowledgeReuse {
		return fmt.Errorf("serve: imported knowledge requires KnowledgeReuse")
	}
	if err := c.Queue.validate(); err != nil {
		return err
	}
	if err := c.Faults.validate(c.Servers, c.Workload.withDefaults().DurationSec, c.Queue.Capacity); err != nil {
		return err
	}
	if c.Faults.Enabled() && c.Approach == experiments.MonoAgent {
		// Checkpoints and crash recovery extract full session state, and
		// degradation reprofiles live engines — both need the stateful
		// session machinery the mono-agent baseline does not expose.
		return fmt.Errorf("serve: fault injection requires migratable sessions; %s sessions are not migratable", experiments.MonoAgent)
	}
	if c.Elastic() {
		if c.Approach == experiments.MonoAgent {
			// Live migration needs the controller's full decision state;
			// the mono-agent baseline does not expose it.
			return fmt.Errorf("serve: elasticity (rebalance/autoscale/drain) requires migratable sessions; %s sessions are not migratable", experiments.MonoAgent)
		}
		if c.EpochSec < 0 {
			return fmt.Errorf("serve: negative epoch interval %g", c.EpochSec)
		}
		if err := checkPeriod("epoch interval", c.EpochSec, c.Workload.withDefaults().DurationSec); err != nil {
			return err
		}
		if c.MigrationStallSec < 0 {
			return fmt.Errorf("serve: negative migration stall %g", c.MigrationStallSec)
		}
		for _, ev := range c.Drain {
			if ev.AtSec < 0 {
				return fmt.Errorf("serve: drain event at negative time %g", ev.AtSec)
			}
			if ev.Server < 0 || ev.Server >= c.Servers {
				return fmt.Errorf("serve: drain event for server %d outside initial fleet 0..%d", ev.Server, c.Servers-1)
			}
		}
		if as := c.Autoscale; as.Enabled {
			if as.MinServers < 1 {
				return fmt.Errorf("serve: autoscale min %d < 1", as.MinServers)
			}
			if as.MinServers > c.Servers || as.MaxServers < c.Servers {
				return fmt.Errorf("serve: initial fleet %d outside autoscale bounds [%d,%d]", c.Servers, as.MinServers, as.MaxServers)
			}
			if as.TargetUtilPct <= 0 || as.TargetUtilPct > 100 {
				return fmt.Errorf("serve: autoscale target utilization %g%% outside (0,100]", as.TargetUtilPct)
			}
			if as.LowPct < 0 || as.LowPct >= as.HighPct || as.HighPct > 100 {
				return fmt.Errorf("serve: autoscale watermarks low=%g high=%g invalid (need 0 <= low < high <= 100)", as.LowPct, as.HighPct)
			}
		}
	}
	return nil
}

// departRec is the dispatcher's record of one completed session — the
// only per-session state that survives a departure: the resident record
// it departed under plus what the engine reports for it. It is buffered
// by the engine's OnSessionEnd hook and folded — knowledge contribution,
// then streaming aggregates — in arrival-ID order (at the next sync
// point, or at finish for the drain phase), so the fold sequence — and
// therefore every accumulated float — depends only on the workload and
// seed, never on server iteration order, shard count or the worker pool.
// The embedded record's knowledge harvest (ctrl, seeded) is cleared for
// drain departures, which are never harvested.
type departRec struct {
	residentRec
	server                                    int
	endAt                                     float64 // actual, contention-stretched departure time
	frames                                    int
	violationPct, avgFPS, avgPSNR, avgBitrate float64
}

// fleetServer is the dispatcher's live view of one server: its engine
// (created on first admission) and the sessions actually resident on it.
// The resident counts are maintained by the engine's OnSessionEnd hook,
// so the dispatcher sees contention-stretched lifetimes, not the nominal
// arrival + Frames/TargetFPS approximation.
type fleetServer struct {
	eng *transcode.Engine
	// n counts the resident sessions per resolution class.
	n [2]int

	// resident maps engine session ids to the arrival bookkeeping the
	// departure record needs; entries live exactly as long as the
	// session does.
	resident map[int]residentRec
	// peak maintains PeakActive online: departures at or before an
	// arrival instant are processed before its admission, so the counter
	// reproduces the close-before-open convention of the retired
	// end-of-run interval event-sort.
	peak int
	// power integrates this server's package-power readings over the
	// measurement window as they are emitted (engine OnFrame hook) —
	// streaming replacement for the end-of-run trace replay.
	power *metrics.PowerIntegrator
	// drained collects departure records from the post-arrival drain:
	// the server's own window of the dispatcher's departure batch. The
	// drain runs engines concurrently, so each engine appends only to
	// its own window, and finish sorts the whole batch. draining is set
	// before the drain: drain departures are not harvested (no admission
	// can observe them), which keeps the drained engines independent and
	// the output identical for any worker count.
	drained  []departRec
	draining bool

	// decom marks the server decommissioning (no admissions; evacuated by
	// migration at epochs); retired marks it out of the fleet — emptied
	// after a drain, or crashed. Retired servers keep their accumulated
	// results and their index — it is never reused.
	decom   bool
	retired bool

	// Fault state (fault injection only). blipped marks the server
	// unavailable for a blip window (its state reports Draining, so
	// placement and rebalancing skip it while its engine keeps running).
	// spec is the degraded platform spec while a degrade window is open
	// (nil = nominal), and budgetW the per-server power budget placement
	// reads — d.budget except inside a degrade window.
	blipped bool
	spec    *platform.Spec
	budgetW float64

	// sh is the shard owning this server. During the parallel sweep
	// window only the owning shard touches this server; the departure
	// hook buffers into sh, never into the dispatcher (see shard.go).
	sh *shard
}

// active is the number of sessions resident on the server.
func (fs *fleetServer) active() int { return fs.n[video.HR] + fs.n[video.LR] }

// residentRec is the arrival-side half of a future departRec. seq is the
// catalog sequence the session plays — needed to rebuild its content
// process shell if the session is live-migrated. startAt is when the
// session was actually admitted (after its queue wait, if any);
// firstFrameAt records the first frame completion the OnFrame hook
// observes (queued runs only — both survive live migration with the
// record).
type residentRec struct {
	reqID        int
	res          video.Resolution
	seq          string
	arriveAt     float64
	startAt      float64
	firstFrameAt float64
	measured     bool
	// req is the original arrival, kept only under fault injection: a
	// crash victim re-enters the admission queue as a recovery entry and
	// needs the full request to re-place (and possibly cold-restart).
	req SessionRequest
	// Knowledge harvest identity (knowledge reuse only): ctrl is the
	// session's learner, seeded the snapshot it was warm-started from
	// (nil for a cold start). At harvest the seed's counts are
	// subtracted from the departing snapshot so the session contributes
	// only its own experience — re-contributing seeded mass would
	// compound the pool exponentially across generations of warm starts.
	// Both move with the session through migrations and restores.
	ctrl   *core.Controller
	seeded *core.Snapshot
}

// shell builds a session's content source and controller: the catalog
// sequence's stateful generator, and the approach's controller over an
// explicit rng source, wrapped so live migration can carry both rng
// states. seed is the knowledge snapshot the controller factory
// warm-starts from (nil when knowledge reuse is off or the class is
// still cold). An injected session takes its shells' mid-stream state
// from its payload, so it builds them from zero seeds and no warm start.
func (d *dispatcher) shell(seqName string, res video.Resolution, srcSeed, ctrlSeed int64, seed *core.Snapshot) (video.Source, transcode.Controller, error) {
	seq, err := d.catalog.Get(seqName)
	if err != nil {
		return nil, nil, err
	}
	// Session rngs are xrand (splitmix64) streams: seeding a stdlib rand
	// source costs a ~600-word table initialisation, which profiled as
	// the single largest per-admission cost at fleet scale. The stateful
	// generator and the explicit source construction draw the identical
	// streams the plain xrand.New forms would — they additionally expose
	// the rng state live migration carries across servers.
	src, err := video.NewStatefulGenerator(seq, srcSeed)
	if err != nil {
		return nil, nil, err
	}
	ctrlSrc := xrand.NewSource(ctrlSeed)
	if d.knowledge != nil {
		// The factory seeds from the exact snapshot the admission records
		// as its subtraction baseline, so baseline == seed by
		// construction — delta harvesting cannot drift from what the
		// controller actually absorbed, even if fold points move.
		d.knowledge.pending = seed
	}
	ctrl, err := d.factory(res, experiments.InitialSettings(res), rand.New(ctrlSrc))
	if err != nil {
		return nil, nil, err
	}
	return src, wrapStateful(ctrl, ctrlSrc), nil
}

// addSession builds the arrival's source and controller from its fixed
// per-session seeds and registers it on server i's engine as a live
// arrival at its admission time startAt (the arrival instant, unless
// the session waited in the admission queue first). seed is the
// knowledge snapshot the controller warm-starts from, recorded for
// delta harvesting. Returns the engine session id.
func (d *dispatcher) addSession(i int, req SessionRequest, seed *core.Snapshot, startAt float64) (int, error) {
	src, ctrl, err := d.shell(req.Sequence, req.Res, req.SourceSeed, req.ControllerSeed, seed)
	if err != nil {
		return 0, err
	}
	fs := d.servers[i]
	id, err := fs.eng.AddSession(transcode.SessionConfig{
		Source:        src,
		Controller:    ctrl,
		Initial:       experiments.InitialSettings(req.Res),
		BandwidthMbps: req.BandwidthMbps,
		TargetFPS:     d.cfg.Workload.TargetFPS,
		FrameBudget:   req.Frames,
		StartAtSec:    startAt,
	})
	if err != nil {
		return 0, err
	}
	rec := residentRec{
		reqID:    req.ID,
		res:      req.Res,
		seq:      req.Sequence,
		arriveAt: req.ArriveAtSec,
		startAt:  startAt,
		// Measurement keys off the arrival, not the admission: a session
		// that arrived in-window is measured however long it queued.
		measured: req.ArriveAtSec >= d.cfg.WarmupSec,
		seeded:   seed,
	}
	if d.faults != nil {
		// Keep the full request only when a crash could force this
		// session back through the admission queue.
		rec.req = req
	}
	fs.book(id, rec, ctrl, d.knowledge != nil)
	return id, nil
}

// book registers engine session id as resident under rec: the class
// counts, the peak counter, and — when harvest is on — the session's
// learner as its knowledge-harvest identity. Shared by fresh admissions
// and injected (migrated or restored) sessions.
func (fs *fleetServer) book(id int, rec residentRec, ctrl transcode.Controller, harvest bool) {
	if harvest {
		rec.ctrl = mamutController(ctrl)
	}
	fs.resident[id] = rec
	fs.n[rec.res]++
	if a := fs.active(); a > fs.peak {
		fs.peak = a
	}
}

// Run executes one service simulation as a single event-interleaved fleet:
// the arrival process and every server's frame-level simulation advance on
// one merged clock. Every dispatcher step — an arrival, an elastic epoch,
// a checkpoint pass, a fault edge, the horizon pass — is a moment of one
// precomputed timeline, and Run steps through it in order. Before each
// decision the fleet is stepped to the moment's instant, so departures at
// or before it — at their *actual*, contention-stretched times — have
// already freed their slots, and the policy decides from true occupancy.
// The dispatcher does this in O(k log servers) per arrival: a min-heap
// keyed by each engine's next event time pops only the k servers with
// events due (idle engines are never touched), server states update
// incrementally on admission/departure, and the built-in policies place
// through their fleet index. After the timeline the engines have no
// further interaction and drain to completion across the worker pool;
// results are bit-identical for any worker count.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &dispatcher{cfg: cfg, spec: platform.DefaultSpec(), catalog: cfg.Catalog}
	if cfg.Spec != nil {
		d.spec = *cfg.Spec
	}
	if d.catalog == nil {
		d.catalog = video.DefaultCatalog()
	}
	exOpts := experiments.Options{Spec: d.spec, Model: hevc.DefaultModel()}
	if cfg.KnowledgeReuse {
		d.knowledge = newKnowledge(cfg.Knowledge)
		exOpts.WarmStart = func(video.Resolution) *core.Snapshot { return d.knowledge.pending }
	}
	factory, err := experiments.Factory(cfg.Approach, exOpts)
	if err != nil {
		return nil, err
	}
	d.factory = factory
	if cfg.PolicyFactory != nil {
		d.pol = cfg.PolicyFactory()
		if d.pol == nil {
			return nil, fmt.Errorf("serve: policy factory returned nil")
		}
	} else if d.pol, err = NewPolicy(cfg.Policy); err != nil {
		return nil, err
	}

	arrivals, err := GenerateArrivals(cfg.Workload, d.catalog, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := d.init(len(arrivals)); err != nil {
		return nil, err
	}
	// Join the shard goroutines however the run ends (including mid-run
	// errors).
	defer d.stopShards()
	for _, m := range d.timeline(arrivals) {
		if err := d.step(m); err != nil {
			return nil, err
		}
	}
	return d.finish()
}

// momentKind orders timeline moments landing at the same instant: epochs
// first (topology decisions precede faults), then checkpoints (a snapshot
// taken at the instant of a crash is taken *before* it — the operator
// scheduling both deserves the save), then faults, then arrivals (drain,
// scale and fault effects apply to an arrival at their instant), and the
// horizon pass last.
type momentKind uint8

const (
	momentEpoch momentKind = iota
	momentCheckpoint
	momentFault
	momentArrival
	momentHorizon
)

// moment is one precomputed entry of the run's timeline: an elastic
// epoch, a periodic checkpoint pass, a fault event edge (start, or the
// end of a degrade/blip window), an arrival, or the queue's horizon pass.
type moment struct {
	at    float64
	ev    *FaultEvent     // momentFault only
	req   *SessionRequest // momentArrival only
	kind  momentKind
	start bool // fault window start (crash counts as a start)
}

// timeline precomputes the run's whole timeline: every epoch instant,
// every checkpoint instant and both edges of every fault window, sorted
// by time with the fixed kind order (fault edges at one instant: window
// ends first, then by server), merged with the arrivals — already in
// time order, ties in ID order — and closed by the horizon pass. The
// horizon pass is a queue decision point, emitted only when the queue is
// configured: on a queue-off run it would split the final fold batch and
// add knowledge contributions.
func (d *dispatcher) timeline(arrivals []SessionRequest) []moment {
	var ctl []moment
	horizon := d.cfg.Workload.DurationSec
	periodic := func(interval float64, kind momentKind) {
		for k := 1; ; k++ {
			t := float64(k) * interval
			if t > horizon {
				return
			}
			ctl = append(ctl, moment{at: t, kind: kind})
		}
	}
	if d.cfg.Elastic() {
		// Validate guarantees a positive interval here.
		periodic(d.cfg.EpochSec, momentEpoch)
	}
	if f := d.cfg.Faults; f.Enabled() {
		if f.CheckpointSec > 0 {
			periodic(f.CheckpointSec, momentCheckpoint)
		}
		for i := range f.Plan {
			ev := &f.Plan[i]
			ctl = append(ctl, moment{at: ev.AtSec, kind: momentFault, ev: ev, start: true})
			if ev.Kind != FaultCrash {
				ctl = append(ctl, moment{at: ev.EndSec, kind: momentFault, ev: ev})
			}
		}
	}
	sort.SliceStable(ctl, func(i, j int) bool {
		a, b := ctl[i], ctl[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.kind != b.kind || a.kind != momentFault {
			return a.kind < b.kind
		}
		if a.start != b.start {
			// A window ending exactly where another starts on the same
			// server releases it first.
			return !a.start
		}
		return a.ev.Server < b.ev.Server
	})
	ms := make([]moment, 0, len(ctl)+len(arrivals)+1)
	for i := range arrivals {
		at := arrivals[i].ArriveAtSec
		for len(ctl) > 0 && ctl[0].at <= at {
			ms, ctl = append(ms, ctl[0]), ctl[1:]
		}
		ms = append(ms, moment{at: at, kind: momentArrival, req: &arrivals[i]})
	}
	ms = append(ms, ctl...)
	if d.cfg.Queue.Capacity > 0 {
		ms = append(ms, moment{at: horizon, kind: momentHorizon})
	}
	return ms
}

// step executes one timeline moment.
func (d *dispatcher) step(m moment) error {
	switch m.kind {
	case momentEpoch:
		return d.epoch(m.at)
	case momentCheckpoint:
		return d.checkpointFleet(m.at)
	case momentFault:
		return d.applyFault(m)
	case momentArrival:
		return d.place(*m.req)
	default: // momentHorizon
		// Departures between the last arrival and the end of the run
		// free capacity the queue is still entitled to. Whatever cannot
		// admit here drops — nothing runs the pipeline after the
		// horizon. (Park-invariance makes the extra sweep exact.)
		if err := d.syncPoint(m.at); err != nil {
			return err
		}
		if err := d.queueStep(m.at); err != nil {
			return err
		}
		d.flushQueue()
		return nil
	}
}

// dispatcher is the live state of one service run's interleaved phase:
// the fleet and its placement core — the policy (with its optional
// index), the incrementally maintained server states, the sharded engine
// event heap and the departure batch — plus one owned block per feature,
// each declared, built and reported in its feature's file.
type dispatcher struct {
	cfg     Config
	spec    platform.Spec
	catalog *video.Catalog
	factory experiments.ControllerFactory
	pol     Policy

	// indexed selects the event-heap sweep and incremental server
	// states (false only for the test reference, Config.reference); idx
	// is additionally non-nil when the policy places through a fleet
	// index.
	indexed bool
	idx     FleetIndex

	// estW is the per-session power estimate of each resolution class,
	// budget the nominal per-server power budget.
	estW   [2]float64
	budget float64

	servers []*fleetServer
	states  []ServerState
	nextEvt []float64 // current heap key per server (+Inf = idle, not in heap)
	active  int       // fleet-wide resident sessions
	liveSrv int       // in-service (non-retired) servers
	// departs is the departure batch: every record reconciled since the
	// last fold, folded sorted by arrival ID at the next sync point.
	departs []departRec
	// scratch backs the live-states view scan-mode policies place from
	// once the fleet has retired servers.
	scratch []ServerState

	shards    shards     // the fleet partitions (shard.go)
	stats     stats      // streaming aggregates (below)
	queue     queue      // the admission waiting room (admission.go)
	elastic   elastic    // drain schedule and topology counters (elastic.go)
	faults    *faults    // nil without a fault plan (faults.go)
	knowledge *knowledge // nil without knowledge reuse (knowledge.go)
}

// stats is the run's streaming aggregation state. Sessions fold in at
// their departure events (the dispatcher's departure batch, sorted by
// arrival ID per fold batch); the scalar counters update at placement
// time. Nothing here grows with the number of sessions served, except
// the outcome log Config.RetainSessions asks for.
type stats struct {
	sloFPS                              float64 // SLO threshold: SLOFPSFactor * target FPS
	offered, admitted, rejected         int
	measOffered, measRejected, measured int
	admitCount                          []int     // per-server admissions
	busy                                []float64 // per-server in-window residency seconds
	// agg, fps and dur are indexed by resolution class: the session sums
	// and the FPS and residency-time sketches.
	agg                     [2]classAgg
	fps, dur                [2]*metrics.Histogram
	sloWin, rejWin, utilWin *metrics.DecayedMean
	outcomes                []SessionOutcome // only when cfg.RetainSessions
}

// newStats builds the aggregates for a run of the given arrival count;
// tau is the decay constant of the windowed views.
func newStats(cfg Config, arrivals int, tau float64) (stats, error) {
	s := stats{
		sloFPS:     cfg.SLOFPSFactor * cfg.Workload.TargetFPS,
		admitCount: make([]int, cfg.Servers),
		busy:       make([]float64, cfg.Servers),
	}
	// Distribution sketches: FPS over [0, 2x target) — sessions regulate
	// around the target, so the range brackets it symmetrically — and
	// residency over [0, 8x mean session length), which covers the p99 of
	// the exponential session-length distribution with room for
	// contention stretch; the tails clamp.
	for r := range s.fps {
		var err error
		if s.fps[r], err = metrics.NewHistogram(0, 2*cfg.Workload.TargetFPS, 256); err != nil {
			return s, err
		}
		if s.dur[r], err = metrics.NewHistogram(0, 8*cfg.Workload.MeanSessionSec, 512); err != nil {
			return s, err
		}
	}
	for _, m := range []**metrics.DecayedMean{&s.sloWin, &s.rejWin, &s.utilWin} {
		var err error
		if *m, err = metrics.NewDecayedMean(tau); err != nil {
			return s, err
		}
	}
	if cfg.RetainSessions {
		s.outcomes = make([]SessionOutcome, arrivals)
	}
	return s, nil
}

// report fills the result's arrival accounting, SLO statistics,
// distributions, windowed views and retained outcomes.
func (s *stats) report(res *Result) {
	res.Offered, res.Admitted, res.Rejected = s.offered, s.admitted, s.rejected
	res.MeasuredOffered, res.MeasuredRejected, res.Measured = s.measOffered, s.measRejected, s.measured
	if res.Offered > 0 {
		res.RejectionPct = 100 * float64(res.Rejected) / float64(res.Offered)
	}
	if res.MeasuredOffered > 0 {
		res.MeasuredRejectionPct = 100 * float64(res.MeasuredRejected) / float64(res.MeasuredOffered)
	}
	hr, lr := &s.agg[video.HR], &s.agg[video.LR]
	res.HR, res.LR = hr.stats(), lr.stats()
	if res.Measured > 0 {
		res.SLOAttainedPct = 100 * float64(hr.met+lr.met) / float64(res.Measured)
	}
	res.HRDist = ClassDistributions{FPS: quantiles(s.fps[video.HR]), DurationSec: quantiles(s.dur[video.HR])}
	res.LRDist = ClassDistributions{FPS: quantiles(s.fps[video.LR]), DurationSec: quantiles(s.dur[video.LR])}
	res.Windowed.TauSec = s.sloWin.Tau()
	res.Windowed.SLOAttainedPct = s.sloWin.Value()
	res.Windowed.RejectionPct = s.rejWin.Value()
	res.Windowed.UtilizationPct = s.utilWin.Value()
	res.Sessions = s.outcomes
}

// classAgg streams the per-class session sums ClassStats is derived from.
type classAgg struct {
	n, met                   int
	sumViol, sumFPS, sumPSNR float64
}

// stats derives the reported ClassStats with the same arithmetic the
// retired end-of-run fold used.
func (a classAgg) stats() ClassStats {
	cs := ClassStats{Sessions: a.n}
	if a.n == 0 {
		return cs
	}
	n := float64(a.n)
	cs.SLOAttainedPct = 100 * float64(a.met) / n
	cs.AvgViolationPct = a.sumViol / n
	cs.AvgFPS = a.sumFPS / n
	cs.AvgPSNRdB = a.sumPSNR / n
	return cs
}

// init builds the per-server structures, the feature blocks and the
// policy index.
func (d *dispatcher) init(arrivals int) error {
	cfg := d.cfg
	d.budget = powerBudgetW(d.spec)
	for _, r := range []video.Resolution{video.HR, video.LR} {
		w, err := estSessionPowerW(d.spec, r)
		if err != nil {
			return err
		}
		d.estW[r] = w
	}
	d.servers = make([]*fleetServer, cfg.Servers)
	for i := range d.servers {
		d.servers[i] = &fleetServer{resident: make(map[int]residentRec), budgetW: d.budget}
	}
	d.states = make([]ServerState, cfg.Servers)
	for i := range d.states {
		d.states[i] = ServerState{
			Index:       i,
			MaxSessions: cfg.MaxSessionsPerServer,
			// Idle power exactly: the incremental refresh expression with
			// zero resident sessions reduces to the same float.
			EstPowerW:    d.spec.IdlePowerW,
			PowerBudgetW: d.budget,
		}
	}
	d.liveSrv = cfg.Servers
	// Decayed windows span a quarter of the measurement window, so the
	// values describe the last stretch of the run.
	tau := (cfg.Workload.DurationSec - cfg.WarmupSec) / 4
	var err error
	if d.stats, err = newStats(cfg, arrivals, tau); err != nil {
		return err
	}
	if d.queue, err = newQueue(cfg.Queue, tau, d.pol); err != nil {
		return err
	}
	if d.faults, err = newFaults(cfg.Faults, tau); err != nil {
		return err
	}
	d.elastic = newElastic(cfg)
	d.indexed = !cfg.reference
	d.nextEvt = make([]float64, cfg.Servers)
	for i := range d.nextEvt {
		d.nextEvt[i] = math.Inf(1)
	}
	if fi, ok := d.pol.(FleetIndexer); ok && d.indexed {
		d.idx = fi.NewFleetIndex(d.states)
	}
	d.initShards()
	return nil
}

// place is the arrival moment's step, the admission pipeline for one
// arrival: sync the fleet to the arrival instant, run a queue decision
// point against the freed capacity, then dispatch the arrival itself —
// admit, queue, or reject (see admission.go for the pipeline and the
// outcome taxonomy).
func (d *dispatcher) place(req SessionRequest) error {
	t := req.ArriveAtSec
	if err := d.syncPoint(t); err != nil {
		return err
	}
	// Waiting entries get first claim on the capacity this sweep's
	// departures freed — the arrival may not overtake them. With the
	// queue off the queue is always empty and this is a no-op.
	if err := d.queueStep(t); err != nil {
		return err
	}
	waiting := len(d.queue.entries)
	choice := -1
	if waiting == 0 {
		// A non-empty queue means its head just failed to place at this
		// very instant: the arrival goes behind it, no placement attempt.
		var err error
		if choice, err = d.choose(req, t); err != nil {
			return err
		}
	}
	st := &d.stats
	st.offered++
	measured := t >= d.cfg.WarmupSec
	if measured {
		st.measOffered++
	}
	switch {
	case choice >= 0:
		if err := d.admit(req, choice, t, measured); err != nil {
			return err
		}
	case waiting < d.cfg.Queue.Capacity:
		d.enqueue(req, measured)
	default:
		st.rejected++
		if measured {
			st.measRejected++
		}
		if st.outcomes != nil {
			st.outcomes[req.ID] = SessionOutcome{Req: req, Server: -1, Measured: measured}
		}
		d.sampleWindows(t, true)
		return nil
	}
	d.sampleWindows(t, false)
	return nil
}

// sampleWindows feeds the decayed views with this arrival's decision and
// the fleet occupancy it left behind.
func (d *dispatcher) sampleWindows(t float64, rejected bool) {
	if rejected {
		d.stats.rejWin.Add(t, 100)
	} else {
		d.stats.rejWin.Add(t, 0)
	}
	d.queue.sample(t)
	capacity := float64(d.liveSrv * d.cfg.MaxSessionsPerServer)
	if capacity > 0 {
		d.stats.utilWin.Add(t, 100*float64(d.active)/capacity)
	} else {
		// The whole fleet is decommissioned: no capacity reads as fully
		// utilized, not as idle.
		d.stats.utilWin.Add(t, 100)
	}
	d.faults.sample(t, d.liveSrv)
}

// foldBatch folds every departure surfaced since the last fold, in
// arrival-ID order across the whole fleet: each record contributes its
// knowledge harvest to the store, then folds into the streaming
// aggregates. The fixed order pins the floating-point fold sequence, so
// the store contents — and every snapshot later admissions are seeded
// from — and every aggregate depend only on the workload and seed. t is
// the fold instant (the sync point, or the horizon for the drain batch),
// used as the decay timestamp of the windowed views.
func (d *dispatcher) foldBatch(t float64) error {
	if len(d.departs) == 0 {
		return nil
	}
	sort.Slice(d.departs, func(i, j int) bool { return d.departs[i].reqID < d.departs[j].reqID })
	for _, r := range d.departs {
		if err := d.knowledge.harvest(r.residentRec); err != nil {
			return err
		}
		d.foldDepart(r, t)
	}
	clear(d.departs) // release the folded learners
	d.departs = d.departs[:0]
	return nil
}

// chargeBusy credits server srv with the part of its residency [lo, hi)
// inside the measurement window.
func (d *dispatcher) chargeBusy(srv int, lo, hi float64) {
	if lo < d.cfg.WarmupSec {
		lo = d.cfg.WarmupSec
	}
	if hi > d.cfg.Workload.DurationSec {
		hi = d.cfg.Workload.DurationSec
	}
	if hi > lo {
		d.stats.busy[srv] += hi - lo
	}
}

// foldDepart folds one completed session into the streaming aggregates:
// busy time, per-class sums, distribution sketches, decayed windows and
// (when retained) its outcome entry.
func (d *dispatcher) foldDepart(r departRec, t float64) {
	st := &d.stats
	sloMet := r.avgFPS >= st.sloFPS
	// Busy time starts at admission (startAt), not arrival: a queued
	// session occupied no server while it waited. With queueing off the
	// two instants coincide.
	d.chargeBusy(r.server, r.startAt, r.endAt)
	if st.outcomes != nil {
		so := &st.outcomes[r.reqID]
		so.Frames = r.frames
		so.ViolationPct = r.violationPct
		so.SLOMet = sloMet
		so.AvgFPS = r.avgFPS
		so.AvgPSNRdB = r.avgPSNR
		so.AvgBitrateMbps = r.avgBitrate
	}
	if !r.measured {
		return
	}
	agg := &st.agg[r.res]
	agg.n++
	if sloMet {
		agg.met++
	}
	agg.sumViol += r.violationPct
	agg.sumFPS += r.avgFPS
	agg.sumPSNR += r.avgPSNR
	st.fps[r.res].Add(r.avgFPS)
	st.dur[r.res].Add(r.endAt - r.startAt)
	d.queue.foldTTFF(r)
	if sloMet {
		st.sloWin.Add(t, 100)
	} else {
		st.sloWin.Add(t, 0)
	}
}

// scheduleServer re-keys one engine in the event heap from its next
// pending event; idle engines (+Inf) leave the heap entirely. Old heap
// entries are invalidated by the key change and discarded when popped.
// The engine is keyed into its owning shard's partition of the heap. The
// reference sweep keeps no heap, so there it does nothing.
func (d *dispatcher) scheduleServer(i int) {
	if !d.indexed {
		return
	}
	next := d.servers[i].eng.NextEventTime()
	d.nextEvt[i] = next
	if !math.IsInf(next, 1) {
		d.servers[i].sh.evts.Push(fleetEvent{key: next, id: i})
	}
}

// refreshState rebuilds one server's incrementally maintained state from
// its resident counts and forwards it to the policy's fleet index —
// unless the server is retired: the index is rebuilt without it, and a
// fault window closing on it must not reach the index. The test
// reference rebuilds every live state with it before any placement or
// epoch reads one (refreshLive), so both paths compare identical floats.
func (d *dispatcher) refreshState(i int) {
	fs := d.servers[i]
	s := &d.states[i]
	hr, lr := fs.n[video.HR], fs.n[video.LR]
	s.Active = hr + lr
	s.HRActive = hr
	s.LRActive = lr
	s.EstPowerW = d.spec.IdlePowerW + float64(hr)*d.estW[video.HR] + float64(lr)*d.estW[video.LR]
	// A blipped server reports Draining (hence Full): placement and
	// rebalancing skip it for the window without a dedicated state bit.
	s.Draining = fs.decom || fs.blipped
	s.PowerBudgetW = fs.budgetW
	if d.idx != nil && !fs.retired {
		d.idx.Update(*s)
	}
}

// refreshLive is the test reference's per-decision rebuild: every
// in-service server's state from its resident counts.
func (d *dispatcher) refreshLive() {
	for i, fs := range d.servers {
		if !fs.retired {
			d.refreshState(i)
		}
	}
}

// refreshScanStates prepares the state slice a scanning policy places
// from. Occupancy and power are already current, so only the arrival's
// class-specific EstArrivalW needs stamping; the test reference instead
// rebuilds the slice from the resident counts per placement. Once the
// fleet has retired servers the policy receives the in-service view
// only (matching what the fleet indexes are rebuilt from), so e.g.
// round-robin's modulus cycles over the same servers on both paths.
func (d *dispatcher) refreshScanStates(req SessionRequest) []ServerState {
	if !d.indexed {
		d.refreshLive()
	}
	aw := d.estW[req.Res]
	for i := range d.states {
		d.states[i].EstArrivalW = aw
	}
	if d.liveSrv == len(d.servers) {
		return d.states
	}
	live := d.scratch[:0]
	for i, fs := range d.servers {
		if !fs.retired {
			live = append(live, d.states[i])
		}
	}
	d.scratch = live
	return live
}

// createEngine builds server i's engine on first admission and installs
// the streaming hooks: the departure hook releases the server's slot and
// buffers the session's departure record — knowledge harvest included —
// in the owning shard for the coordinator to reconcile; the frame hook
// feeds the server's window-power integrator. A session the departure
// hook sees leaves the engine with it — the departure record carries
// everything the aggregates need — so server memory stays O(resident
// sessions) over any horizon.
func (d *dispatcher) createEngine(i int) error {
	fs := d.servers[i]
	spec := d.spec
	if fs.spec != nil {
		// First admission lands inside a degrade window: the engine is
		// born with the derated spec and reprofiles back at the window
		// close.
		spec = *fs.spec
	}
	eng, err := transcode.NewEngine(spec, hevc.DefaultModel(), experiments.SubSeed(d.cfg.Seed, "serve|server", i))
	if err != nil {
		return err
	}
	fs.eng = eng
	fs.power = metrics.NewPowerIntegrator(d.cfg.WarmupSec, d.cfg.Workload.DurationSec)
	stampFirst := d.queue.ttffH != nil
	eng.OnFrame(func(obs transcode.Observation) {
		fs.power.Add(obs.Time, obs.PowerW)
		if stampFirst && obs.FrameIndex == 0 {
			// First frame of a session: record the instant for the
			// time-to-first-frame fold at departure. Per-server state
			// only, so the hook stays shard-safe; the record (and the
			// stamp) migrates with the session. The zero-check keeps an
			// earlier stamp authoritative if frame numbering ever
			// restarts (e.g. after a migration).
			if rec, ok := fs.resident[obs.SessionID]; ok && rec.firstFrameAt == 0 {
				rec.firstFrameAt = obs.Time
				fs.resident[obs.SessionID] = rec
			}
		}
	})
	eng.OnSessionEnd(func(end transcode.SessionEnd) {
		fs.n[end.Res]--
		rec, ok := fs.resident[end.SessionID]
		if !ok {
			// Defensive: every admitted session was registered.
			return
		}
		delete(fs.resident, end.SessionID)
		dr := departRec{
			residentRec:  rec,
			server:       i,
			endAt:        end.Time,
			frames:       end.Result.Frames,
			violationPct: end.Result.ViolationPct,
			avgFPS:       end.Result.AvgFPS,
			avgPSNR:      end.Result.AvgPSNRdB,
			avgBitrate:   end.Result.AvgBitrateMbps,
		}
		if fs.draining {
			// No placement can observe drain departures, and the drain
			// runs engines concurrently: nothing shared may be touched
			// from here, and the record is not harvested — it goes to the
			// server's own drained window and folds, sorted, at finish.
			dr.ctrl, dr.seeded = nil, nil
			fs.drained = append(fs.drained, dr)
			return
		}
		// The hook may run on the owning shard's goroutine, so only
		// shard-local state is touched; the coordinator applies the
		// global side when it reconciles the shard.
		fs.sh.departs = append(fs.sh.departs, dr)
	})
	return nil
}

// finish drains the loaded engines across the worker pool, folds the
// drain-phase departures and builds the service result from the
// streaming aggregates. No placement decisions remain, so the engines
// are independent; the knowledge harvest closes here — drain departures
// can no longer affect an admission, and not folding them keeps the
// engines free of shared state.
func (d *dispatcher) finish() (*Result, error) {
	cfg := d.cfg
	// Run drains every resident session, so each server's drain
	// departures exactly fill a window of the batch sized by its resident
	// count: the engines write disjoint memory, and no merge copy holds
	// the batch twice.
	off, n := len(d.departs), len(d.departs)
	for _, fs := range d.servers {
		n += len(fs.resident)
	}
	d.departs = slices.Grow(d.departs, n-off)[:n]
	for _, fs := range d.servers {
		end := off + len(fs.resident)
		fs.drained, off = d.departs[off:off:end], end
		fs.draining = true
	}
	var units []experiments.Unit[*transcode.Result]
	for i, fs := range d.servers {
		if fs.eng == nil {
			continue
		}
		units = append(units, experiments.Unit[*transcode.Result]{
			Label: fmt.Sprintf("server %d (%d sessions)", i, d.stats.admitCount[i]),
			Run:   fs.eng.Run,
		})
	}
	// The engine results themselves carry nothing the aggregates need:
	// every session folded (or will fold) through its departure record,
	// and the power integrators streamed each reading at completion time.
	if _, err := experiments.RunUnits(cfg.Workers, units, nil); err != nil {
		return nil, err
	}
	// Fold the drain batch in arrival-ID order at the horizon, the same
	// deterministic fold discipline as the timeline, independent of the
	// worker pool.
	if err := d.foldBatch(cfg.Workload.DurationSec); err != nil {
		return nil, err
	}
	return d.buildResult()
}

// buildResult reads the streaming aggregates out into the Result: each
// feature block reports its own fields, the fleet its per-server rows.
func (d *dispatcher) buildResult() (*Result, error) {
	cfg := d.cfg
	horizon := cfg.Workload.DurationSec
	res := &Result{Policy: d.pol.Name(), DurationSec: horizon, WarmupSec: cfg.WarmupSec}
	d.stats.report(res)
	d.queue.report(res)
	d.faults.report(res, cfg.Servers)
	d.elastic.report(res)
	d.knowledge.report(res)

	winLen := horizon - cfg.WarmupSec
	for i, fs := range d.servers {
		sr := ServerResult{Index: i, Sessions: d.stats.admitCount[i], PeakActive: fs.peak, AvgPowerW: d.spec.IdlePowerW}
		if fs.power != nil {
			switch w, err := fs.power.Average(); {
			case err == nil:
				sr.AvgPowerW = w
			case errors.Is(err, metrics.ErrNoSamples):
				// No power reading inside the window (the server's
				// sessions all ran outside it): the idle-power fallback
				// is the truth, not an accident.
			default:
				// Anything else is a real accounting bug; reporting a
				// loaded server at idle power would silently skew the
				// fleet energy numbers.
				return nil, fmt.Errorf("serve: server %d window power: %w", i, err)
			}
		}
		if winLen > 0 {
			sr.UtilizationPct = 100 * d.stats.busy[i] / (winLen * float64(cfg.MaxSessionsPerServer))
		}
		res.FleetAvgPowerW += sr.AvgPowerW
		res.Servers = append(res.Servers, sr)
	}
	res.FleetAvgPowerW /= float64(len(d.servers))
	return res, nil
}

// quantiles reads a sketch's summary.
func quantiles(h *metrics.Histogram) QuantileSummary {
	return QuantileSummary{Count: h.N(), P50: h.Quantile(0.5), P95: h.Quantile(0.95), P99: h.Quantile(0.99)}
}

// fleetEvent is one engine-heap entry: the next event time a server's
// engine reported when it was (re-)keyed.
type fleetEvent struct {
	key float64
	id  int
}

// Less orders the dispatcher's engine heap by next event time, server
// index tie-break.
func (e fleetEvent) Less(o fleetEvent) bool {
	if e.key != o.key {
		return e.key < o.key
	}
	return e.id < o.id
}
