package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

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
	// Spec, Model and Catalog override the simulated substrate.
	Spec    *platform.Spec
	Model   *hevc.Model
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
	// Rebalance enables the built-in power-hotspot rebalancer (see
	// RebalancerPowerHotspot): each epoch it live-migrates sessions away
	// from servers whose estimated package power exceeds their power
	// budget. Elasticity requires migratable sessions, so the MonoAgent
	// approach is rejected.
	Rebalance bool
	// RebalancerFactory overrides Rebalance with a custom Rebalancer
	// constructor (a fresh instance is requested per run). The
	// implementation must be deterministic — plan only from the fleet
	// states it is handed.
	RebalancerFactory func() Rebalancer
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
	// Progress observes completed per-server simulations.
	Progress experiments.ProgressFunc
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
// only per-session state that survives a departure. It is buffered by the
// engine's OnSessionEnd hook and folded — knowledge contribution, then
// streaming aggregates — in arrival-ID order (at the next sync point, or
// at finish for the drain phase), so the fold sequence — and therefore
// every accumulated float — depends only on the workload and seed, never
// on server iteration order, shard count or the worker pool.
type departRec struct {
	reqID                                     int
	server                                    int
	res                                       video.Resolution
	arriveAt                                  float64
	startAt                                   float64 // admission time (== arriveAt unless queued)
	firstFrameAt                              float64 // first frame completion (0 = none observed; queueing only)
	endAt                                     float64 // actual, contention-stretched departure time
	measured                                  bool
	frames                                    int
	violationPct, avgFPS, avgPSNR, avgBitrate float64
	// ctrl and seeded are the session's knowledge harvest (nil unless
	// knowledge reuse is on and the session departed before the drain).
	ctrl   *core.Controller
	seeded *core.Snapshot
}

// fleetServer is the dispatcher's live view of one server: its engine
// (created on first admission) and the sessions actually resident on it.
// The resident counts are maintained by the engine's OnSessionEnd hook,
// so the dispatcher sees contention-stretched lifetimes, not the nominal
// arrival + Frames/TargetFPS approximation.
type fleetServer struct {
	eng    *transcode.Engine
	hr, lr int

	// resident maps engine session ids to the arrival bookkeeping the
	// departure record needs; entries live exactly as long as the
	// session does.
	resident map[int]residentRec
	// cur/peak maintain PeakActive online: departures at or before an
	// arrival instant are processed before its admission, so the counter
	// reproduces the close-before-open convention of the retired
	// end-of-run interval event-sort.
	cur, peak int
	// power integrates this server's package-power readings over the
	// measurement window as they are emitted (engine OnFrame hook) —
	// streaming replacement for the end-of-run trace replay.
	power *metrics.PowerIntegrator
	// drained collects departure records from the post-arrival drain.
	// The drain runs engines concurrently, so each engine appends only
	// to its own server's slice; finish merges and sorts them. draining
	// is set before the drain: drain departures are not harvested (no
	// admission can observe them), which keeps the drained engines
	// independent and the output identical for any worker count.
	drained  []departRec
	draining bool

	// decom marks the server decommissioning (no admissions; evacuated by
	// migration at epochs); retired marks it emptied and out of the fleet.
	// Retired servers keep their accumulated results and their index — it
	// is never reused.
	decom   bool
	retired bool

	// Fault state (fault injection only). blipped marks the server
	// unavailable for a blip window (its state reports Draining, so
	// placement and rebalancing skip it while its engine keeps running);
	// crashed marks it killed by a crash fault — retired with its
	// sessions interrupted rather than drained. spec is the degraded
	// platform spec while a degrade window is open (nil = nominal), and
	// budgetW the per-server power budget placement reads — d.budget
	// except inside a degrade window.
	blipped bool
	crashed bool
	spec    *platform.Spec
	budgetW float64

	// sh is the shard owning this server. During the parallel sweep
	// window only the owning shard touches this server; the departure
	// hook buffers into sh, never into the dispatcher (see shard.go).
	sh *shard
}

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

// addSession builds the arrival's source and controller from its fixed
// per-session seeds and registers it on the server's engine as a live
// arrival at its admission time startAt (the arrival instant, unless
// the session waited in the admission queue first). seeded is the
// knowledge snapshot the controller factory warm-starts from (nil when
// knowledge reuse is off or the class is still cold), recorded for
// delta harvesting. Returns the engine session id.
func (fs *fleetServer) addSession(req SessionRequest, cfg Config, catalog *video.Catalog,
	factory experiments.ControllerFactory, seeded *core.Snapshot, startAt float64) (int, error) {
	seq, err := catalog.Get(req.Sequence)
	if err != nil {
		return 0, err
	}
	// Session rngs are xrand (splitmix64) streams: seeding a stdlib rand
	// source costs a ~600-word table initialisation, which profiled as
	// the single largest per-admission cost at fleet scale. The stateful
	// generator and the explicit source construction draw the identical
	// streams the plain xrand.New forms would — they additionally expose
	// the rng state live migration carries across servers.
	src, err := video.NewStatefulGenerator(seq, req.SourceSeed)
	if err != nil {
		return 0, err
	}
	initial := experiments.InitialSettings(req.Res)
	ctrlSrc := xrand.NewSource(req.ControllerSeed)
	ctrl, err := factory(req.Res, initial, rand.New(ctrlSrc))
	if err != nil {
		return 0, err
	}
	ctrl = wrapStateful(ctrl, ctrlSrc)
	id, err := fs.eng.AddSession(transcode.SessionConfig{
		Source:        src,
		Controller:    ctrl,
		Initial:       initial,
		BandwidthMbps: req.BandwidthMbps,
		TargetFPS:     cfg.Workload.TargetFPS,
		FrameBudget:   req.Frames,
		StartAtSec:    startAt,
		// No trace retention: every aggregate folds streamingly at the
		// departure event, and the engine discards departed sessions, so
		// server memory is O(resident sessions) however long the run.
		CollectTrace: false,
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
		measured: req.ArriveAtSec >= cfg.WarmupSec,
		seeded:   seeded,
	}
	if cfg.Faults.Enabled() {
		// Keep the full request only when a crash could force this
		// session back through the admission queue.
		rec.req = req
	}
	fs.book(id, rec, ctrl, cfg.KnowledgeReuse)
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
	fs.cur++
	if fs.cur > fs.peak {
		fs.peak = fs.cur
	}
	if rec.res == video.HR {
		fs.hr++
	} else {
		fs.lr++
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
	d := &dispatcher{cfg: cfg, spec: platform.DefaultSpec(), model: hevc.DefaultModel(), catalog: cfg.Catalog}
	if cfg.Spec != nil {
		d.spec = *cfg.Spec
	}
	if cfg.Model != nil {
		d.model = *cfg.Model
	}
	if d.catalog == nil {
		d.catalog = video.DefaultCatalog()
	}
	exOpts := experiments.Options{Spec: d.spec, Model: d.model}
	if cfg.KnowledgeReuse {
		if cfg.Knowledge != nil {
			// Warm-start the whole run from imported knowledge. The copy
			// keeps the run from mutating the caller's store; the run's
			// final store is handed back via Result.Knowledge.
			d.store = cfg.Knowledge.clone()
		} else {
			d.store = NewKnowledgeStore()
		}
		d.seeds = make(map[video.Resolution]sharedSeed)
		// The factory seeds from the exact snapshot the dispatcher
		// records as the admission's subtraction baseline (set right
		// before each addSession), so baseline == seed by construction —
		// delta harvesting cannot drift from what the controller
		// actually absorbed, even if fold points move.
		exOpts.WarmStart = func(video.Resolution) *core.Snapshot { return d.pendingSeed }
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
	if d.epochSec > 0 {
		for k := 1; ; k++ {
			t := float64(k) * d.epochSec
			if t > horizon {
				break
			}
			ctl = append(ctl, moment{at: t, kind: momentEpoch})
		}
	}
	if d.faultsOn {
		if cp := d.cfg.Faults.CheckpointSec; cp > 0 {
			for k := 1; ; k++ {
				t := float64(k) * cp
				if t > horizon {
					break
				}
				ctl = append(ctl, moment{at: t, kind: momentCheckpoint})
			}
		}
		for i := range d.cfg.Faults.Plan {
			ev := &d.cfg.Faults.Plan[i]
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
	if d.queueOn {
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
// the fleet, the policy (with its optional index), the sharded engine
// event heap and the departure pipeline.
type dispatcher struct {
	cfg     Config
	spec    platform.Spec
	model   hevc.Model
	catalog *video.Catalog
	factory experiments.ControllerFactory
	pol     Policy

	// indexed selects the event-heap sweep and incremental server
	// states (false only for the test reference, Config.reference); idx
	// is additionally non-nil when the policy places through a fleet
	// index.
	indexed bool
	idx     FleetIndex

	estW   map[video.Resolution]float64
	budget float64

	servers []*fleetServer
	states  []ServerState
	nextEvt []float64 // current heap key per server (+Inf = idle, not in heap)

	// Sharded sweep (see shard.go): the fleet partitions (at least one),
	// the barrier acknowledgement channel, the goroutine join, and the
	// pprof label context shard 0's inline advance runs under.
	shards    []*shard
	shardAcks chan shardAck
	shardWG   sync.WaitGroup
	shard0Ctx context.Context

	// Knowledge reuse: the store, the seed snapshot the WarmStart
	// closure hands the next controller, the warm-start count, and each
	// class's shared seed copy (seedAdmission).
	store       *KnowledgeStore
	pendingSeed *core.Snapshot
	seeded      int
	seeds       map[video.Resolution]sharedSeed

	// Elasticity (epochSec > 0 only): the rebalancer, the scheduled
	// decommissions still to apply, the in-service (non-retired) server
	// count with its peak, the event counters, and a scratch slice for
	// the live-states view scan-mode policies place from once the fleet
	// has retired servers.
	reb        Rebalancer
	epochSec   float64
	drainQueue []DrainEvent
	liveSrv    int
	peakSrv    int
	migrations int
	addedSrv   int
	removedSrv int
	scratch    []ServerState

	// Streaming aggregation state. Sessions fold in at their departure
	// events (departs, sorted by arrival ID per fold batch); the scalar
	// counters update at placement time. Nothing here grows with the
	// number of sessions served.
	sloFPS       float64 // SLO threshold: SLOFPSFactor * target FPS
	active       int     // fleet-wide resident sessions
	offered      int
	admitted     int
	rejected     int
	measOffered  int
	measRejected int
	measured     int
	admitCount   []int     // per-server admissions
	busy         []float64 // per-server in-window residency seconds
	hrAgg, lrAgg classAgg
	hrFPS, lrFPS *metrics.Histogram
	hrDur, lrDur *metrics.Histogram
	sloWin       *metrics.DecayedMean
	rejWin       *metrics.DecayedMean
	utilWin      *metrics.DecayedMean
	departs      []departRec
	outcomes     []SessionOutcome // only when cfg.RetainSessions

	// Queued admission (cfg.Queue.Capacity > 0 only; see admission.go):
	// the waiting room in arrival order, its outcome counters, the
	// queue-wait and time-to-first-frame sketches, the decayed backlog
	// view, and the optional backlog-observing side of the policy.
	queueOn       bool
	queue         []queueEntry
	qOrder        []int // scratch for queueOrder
	queuedTotal   int
	queueAdmitted int
	queueDropped  int
	qwSum         float64
	qwH, ttffH    *metrics.Histogram
	depthWin      *metrics.DecayedMean
	backlogObs    BacklogObserver

	// Fault injection (cfg.Faults.Enabled() only; see faults.go): the
	// per-session checkpoint snapshots, the initial fleet size the
	// availability accounting normalises by, the fault/outage counters,
	// and the recovery-latency sketches.
	faultsOn    bool
	snaps       map[int]faultSnap // keyed by arrival ID
	initialSrv  int
	crashedSrv  int
	blippedCnt  int
	faultCount  int
	interrupted int
	recovered   int
	lostSess    int
	lostWorkSec float64
	unavailSec  float64
	mttrSum     float64
	recH        *metrics.Histogram
	availWin    *metrics.DecayedMean
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

// init builds the per-server structures and the policy index.
func (d *dispatcher) init(arrivals int) error {
	cfg := d.cfg
	d.budget = powerBudgetW(d.spec)
	hrW, err := estSessionPowerW(d.spec, video.HR)
	if err != nil {
		return err
	}
	lrW, err := estSessionPowerW(d.spec, video.LR)
	if err != nil {
		return err
	}
	d.estW = map[video.Resolution]float64{video.HR: hrW, video.LR: lrW}
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
	d.sloFPS = cfg.SLOFPSFactor * cfg.Workload.TargetFPS
	d.admitCount = make([]int, cfg.Servers)
	d.busy = make([]float64, cfg.Servers)
	d.liveSrv = cfg.Servers
	d.peakSrv = cfg.Servers
	if cfg.Elastic() {
		d.epochSec = cfg.EpochSec
		if cfg.RebalancerFactory != nil {
			if d.reb = cfg.RebalancerFactory(); d.reb == nil {
				return fmt.Errorf("serve: rebalancer factory returned nil")
			}
		} else if cfg.Rebalance {
			d.reb = powerHotspot{}
		}
		d.drainQueue = append([]DrainEvent(nil), cfg.Drain...)
		sort.Slice(d.drainQueue, func(i, j int) bool {
			if d.drainQueue[i].AtSec != d.drainQueue[j].AtSec {
				return d.drainQueue[i].AtSec < d.drainQueue[j].AtSec
			}
			return d.drainQueue[i].Server < d.drainQueue[j].Server
		})
	}
	// Distribution sketches: FPS over [0, 2x target) — sessions regulate
	// around the target, so the range brackets it symmetrically — and
	// residency over [0, 8x mean session length), which covers the p99 of
	// the exponential session-length distribution with room for
	// contention stretch; the tails clamp.
	for _, h := range []**metrics.Histogram{&d.hrFPS, &d.lrFPS} {
		var err error
		if *h, err = metrics.NewHistogram(0, 2*cfg.Workload.TargetFPS, 256); err != nil {
			return err
		}
	}
	for _, h := range []**metrics.Histogram{&d.hrDur, &d.lrDur} {
		var err error
		if *h, err = metrics.NewHistogram(0, 8*cfg.Workload.MeanSessionSec, 512); err != nil {
			return err
		}
	}
	// Decayed windows: a quarter of the measurement window, so the
	// values describe the last stretch of the run.
	tau := (cfg.Workload.DurationSec - cfg.WarmupSec) / 4
	for _, m := range []**metrics.DecayedMean{&d.sloWin, &d.rejWin, &d.utilWin} {
		var err error
		if *m, err = metrics.NewDecayedMean(tau); err != nil {
			return err
		}
	}
	if q := cfg.Queue; q.Capacity > 0 {
		d.queueOn = true
		d.queue = make([]queueEntry, 0, q.Capacity)
		var err error
		// Queue wait is bounded by the deadline; time-to-first-frame adds
		// the first frame's contention-stretched service time on top, so
		// its range doubles the deadline (the tails clamp).
		if d.qwH, err = metrics.NewHistogram(0, q.DeadlineSec, 256); err != nil {
			return err
		}
		if d.ttffH, err = metrics.NewHistogram(0, 2*(q.DeadlineSec+1), 512); err != nil {
			return err
		}
		if d.depthWin, err = metrics.NewDecayedMean(tau); err != nil {
			return err
		}
		// Backlog observation is a queued-admission feature: with the
		// queue off the pipeline never consults the fleet state, keeping
		// the pre-queue arrival path untouched.
		if ob, ok := d.pol.(BacklogObserver); ok {
			d.backlogObs = ob
		}
	}
	if cfg.Faults.Enabled() {
		d.faultsOn = true
		d.initialSrv = cfg.Servers
		d.snaps = make(map[int]faultSnap)
		// Recovery latency is bounded by the slower class deadline (the
		// default even under Recovery.Drop, where nothing recovers and
		// the sketch stays empty).
		bound := DefaultFaultDeadlineSec
		for _, cl := range []FaultRecoveryClass{cfg.Faults.Recovery.HR, cfg.Faults.Recovery.LR} {
			if cl.DeadlineSec > bound {
				bound = cl.DeadlineSec
			}
		}
		var err error
		if d.recH, err = metrics.NewHistogram(0, bound, 256); err != nil {
			return err
		}
		if d.availWin, err = metrics.NewDecayedMean(tau); err != nil {
			return err
		}
	}
	if cfg.RetainSessions {
		d.outcomes = make([]SessionOutcome, arrivals)
	}
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
	choice := -1
	if len(d.queue) == 0 {
		// A non-empty queue means its head just failed to place at this
		// very instant: the arrival goes behind it, no placement attempt.
		var err error
		if choice, err = d.choose(req, t); err != nil {
			return err
		}
	}
	d.offered++
	measured := t >= d.cfg.WarmupSec
	if measured {
		d.measOffered++
	}
	switch {
	case choice >= 0:
		if err := d.admit(req, choice, t, measured); err != nil {
			return err
		}
	case len(d.queue) < d.cfg.Queue.Capacity:
		d.enqueue(req, measured)
	default:
		d.rejected++
		if measured {
			d.measRejected++
		}
		if d.outcomes != nil {
			d.outcomes[req.ID] = SessionOutcome{Req: req, Server: -1, Measured: measured}
		}
		d.sampleWindows(t, true)
		return nil
	}
	d.sampleWindows(t, false)
	return nil
}

// sampleWindows feeds the decayed rejection and utilization views with
// this arrival's decision and the fleet occupancy it left behind.
func (d *dispatcher) sampleWindows(t float64, rejected bool) {
	if rejected {
		d.rejWin.Add(t, 100)
	} else {
		d.rejWin.Add(t, 0)
	}
	if d.queueOn {
		d.depthWin.Add(t, float64(len(d.queue)))
	}
	capacity := float64(d.liveSrv * d.cfg.MaxSessionsPerServer)
	if capacity > 0 {
		d.utilWin.Add(t, 100*float64(d.active)/capacity)
	} else {
		// The whole fleet is decommissioned: no capacity reads as fully
		// utilized, not as idle.
		d.utilWin.Add(t, 100)
	}
	if d.faultsOn {
		// Availability over the servers faults can touch: the live fleet
		// plus what crashed out of it, so elastic scale-in does not read
		// as an outage.
		if denom := d.liveSrv + d.crashedSrv; denom > 0 {
			d.availWin.Add(t, 100*float64(d.liveSrv-d.blippedCnt)/float64(denom))
		}
	}
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
		if r.ctrl != nil {
			snap := r.ctrl.Snapshot()
			if r.seeded != nil {
				// Contribute the session's own experience only: keep its
				// final Q estimates but weight them by the visits it made
				// itself, not by the recycled seed mass.
				if err := snap.SubtractCounts(*r.seeded); err != nil {
					return err
				}
			}
			if err := d.store.Contribute(r.res, snap); err != nil {
				return err
			}
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
		d.busy[srv] += hi - lo
	}
}

// foldDepart folds one completed session into the streaming aggregates:
// busy time, per-class sums, distribution sketches, decayed windows and
// (when retained) its outcome entry.
func (d *dispatcher) foldDepart(r departRec, t float64) {
	sloMet := r.avgFPS >= d.sloFPS
	// Busy time starts at admission (startAt), not arrival: a queued
	// session occupied no server while it waited. With queueing off the
	// two instants coincide.
	d.chargeBusy(r.server, r.startAt, r.endAt)
	if d.outcomes != nil {
		so := &d.outcomes[r.reqID]
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
	agg, fpsH, durH := &d.hrAgg, d.hrFPS, d.hrDur
	if r.res != video.HR {
		agg, fpsH, durH = &d.lrAgg, d.lrFPS, d.lrDur
	}
	agg.n++
	if sloMet {
		agg.met++
	}
	agg.sumViol += r.violationPct
	agg.sumFPS += r.avgFPS
	agg.sumPSNR += r.avgPSNR
	fpsH.Add(r.avgFPS)
	durH.Add(r.endAt - r.startAt)
	if d.queueOn {
		// Time-to-first-frame: from the user's arrival (not admission) to
		// the first frame completion; a session that never completed a
		// frame is charged its whole span.
		ttff := r.endAt - r.arriveAt
		if r.firstFrameAt > 0 {
			ttff = r.firstFrameAt - r.arriveAt
		}
		d.ttffH.Add(ttff)
	}
	if sloMet {
		d.sloWin.Add(t, 100)
	} else {
		d.sloWin.Add(t, 0)
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
	s.Active = fs.hr + fs.lr
	s.HRActive = fs.hr
	s.LRActive = fs.lr
	s.EstPowerW = d.spec.IdlePowerW + float64(fs.hr)*d.estW[video.HR] + float64(fs.lr)*d.estW[video.LR]
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
	if d.removedSrv+d.crashedSrv == 0 {
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
// feeds the server's window-power integrator. The engine discards
// departed sessions — the departure record carries everything the
// aggregates need — so server memory stays O(resident sessions) over any
// horizon.
func (d *dispatcher) createEngine(i int) error {
	fs := d.servers[i]
	spec := d.spec
	if fs.spec != nil {
		// First admission lands inside a degrade window: the engine is
		// born with the derated spec and reprofiles back at the window
		// close.
		spec = *fs.spec
	}
	eng, err := transcode.NewEngine(spec, d.model, experiments.SubSeed(d.cfg.Seed, "serve|server", i))
	if err != nil {
		return err
	}
	fs.eng = eng
	fs.power = metrics.NewPowerIntegrator(d.cfg.WarmupSec, d.cfg.Workload.DurationSec)
	eng.DiscardDeparted(true)
	eng.OnFrame(func(obs transcode.Observation) {
		// The engine emits observations in non-decreasing time order and
		// equal-time completions share one meter reading, so streaming
		// integration reproduces the retired sorted-trace replay bitwise.
		fs.power.Add(obs.Time, obs.PowerW)
		if d.queueOn && obs.FrameIndex == 0 {
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
		if end.Res == video.HR {
			fs.hr--
		} else {
			fs.lr--
		}
		fs.cur--
		rec, ok := fs.resident[end.SessionID]
		if !ok {
			// Defensive: every admitted session was registered.
			return
		}
		delete(fs.resident, end.SessionID)
		dr := departRec{
			reqID:        rec.reqID,
			server:       i,
			res:          rec.res,
			arriveAt:     rec.arriveAt,
			startAt:      rec.startAt,
			firstFrameAt: rec.firstFrameAt,
			endAt:        end.Time,
			measured:     rec.measured,
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
			// server's own drained slice and folds, sorted, at finish.
			fs.drained = append(fs.drained, dr)
			return
		}
		// The hook may run on the owning shard's goroutine, so only
		// shard-local state is touched; the coordinator applies the
		// global side when it reconciles the shard.
		dr.ctrl, dr.seeded = rec.ctrl, rec.seeded
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
	for _, fs := range d.servers {
		fs.draining = true
	}
	var units []experiments.Unit[*transcode.Result]
	for i, fs := range d.servers {
		if fs.eng == nil {
			continue
		}
		units = append(units, experiments.Unit[*transcode.Result]{
			Label: fmt.Sprintf("server %d (%d sessions)", i, d.admitCount[i]),
			Run:   fs.eng.Run,
		})
	}
	// The engine results themselves carry nothing the aggregates need:
	// every session folded (or will fold) through its departure record,
	// and the power integrators streamed each reading at completion time.
	if _, err := experiments.RunUnits(cfg.Workers, units, cfg.Progress); err != nil {
		return nil, err
	}
	// Merge the per-server drain batches — into one allocation: the
	// batch holds every session still resident after the timeline — and
	// fold them in arrival-ID order at the horizon, the same
	// deterministic fold discipline as the timeline, independent of the
	// worker pool.
	n := 0
	for _, fs := range d.servers {
		n += len(fs.drained)
	}
	d.departs = slices.Grow(d.departs, n)
	for _, fs := range d.servers {
		d.departs = append(d.departs, fs.drained...)
		fs.drained = nil
	}
	if err := d.foldBatch(cfg.Workload.DurationSec); err != nil {
		return nil, err
	}
	return d.buildResult()
}

// buildResult reads the streaming aggregates out into the Result.
func (d *dispatcher) buildResult() (*Result, error) {
	cfg := d.cfg
	horizon := cfg.Workload.DurationSec
	res := &Result{
		Policy:           d.pol.Name(),
		DurationSec:      horizon,
		WarmupSec:        cfg.WarmupSec,
		Offered:          d.offered,
		Admitted:         d.admitted,
		Rejected:         d.rejected,
		MeasuredOffered:  d.measOffered,
		MeasuredRejected: d.measRejected,
		Measured:         d.measured,
	}
	if res.Offered > 0 {
		res.RejectionPct = 100 * float64(res.Rejected) / float64(res.Offered)
	}
	if res.MeasuredOffered > 0 {
		res.MeasuredRejectionPct = 100 * float64(res.MeasuredRejected) / float64(res.MeasuredOffered)
	}
	res.HR = d.hrAgg.stats()
	res.LR = d.lrAgg.stats()
	if res.Measured > 0 {
		res.SLOAttainedPct = 100 * float64(d.hrAgg.met+d.lrAgg.met) / float64(res.Measured)
	}
	res.HRDist = ClassDistributions{FPS: quantiles(d.hrFPS), DurationSec: quantiles(d.hrDur)}
	res.LRDist = ClassDistributions{FPS: quantiles(d.lrFPS), DurationSec: quantiles(d.lrDur)}
	res.Windowed = WindowedStats{
		TauSec:         d.sloWin.Tau(),
		SLOAttainedPct: d.sloWin.Value(),
		RejectionPct:   d.rejWin.Value(),
		UtilizationPct: d.utilWin.Value(),
	}
	if d.queueOn {
		res.Queued = d.queuedTotal
		res.QueueAdmitted = d.queueAdmitted
		res.QueueDropped = d.queueDropped
		if res.Offered > 0 {
			res.QueueDroppedPct = 100 * float64(res.QueueDropped) / float64(res.Offered)
		}
		if res.Measured > 0 {
			res.AvgQueueWaitSec = d.qwSum / float64(res.Measured)
		}
		res.QueueWaitDist = quantiles(d.qwH)
		res.TTFFDist = quantiles(d.ttffH)
		res.Windowed.QueueDepth = d.depthWin.Value()
	}
	if d.faultsOn {
		res.FaultsInjected = d.faultCount
		res.ServersCrashed = d.crashedSrv
		res.Interrupted = d.interrupted
		res.Recovered = d.recovered
		res.Lost = d.lostSess
		res.LostWorkSec = d.lostWorkSec
		if d.recovered > 0 {
			res.MTTRSec = d.mttrSum / float64(d.recovered)
		}
		res.RecoveryLatency = quantiles(d.recH)
		if denom := horizon * float64(d.initialSrv); denom > 0 {
			pct := 100 * (1 - d.unavailSec/denom)
			if pct < 0 {
				pct = 0
			}
			res.AvailabilityPct = pct
		}
		res.Windowed.AvailabilityPct = d.availWin.Value()
	}

	winLen := horizon - cfg.WarmupSec
	for i, fs := range d.servers {
		sr := ServerResult{Index: i, Sessions: d.admitCount[i], PeakActive: fs.peak, AvgPowerW: d.spec.IdlePowerW}
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
			sr.UtilizationPct = 100 * d.busy[i] / (winLen * float64(cfg.MaxSessionsPerServer))
		}
		res.FleetAvgPowerW += sr.AvgPowerW
		res.Servers = append(res.Servers, sr)
	}
	res.FleetAvgPowerW /= float64(len(d.servers))
	res.Migrations = d.migrations
	res.ServersAdded = d.addedSrv
	res.ServersRemoved = d.removedSrv
	res.PeakServers = d.peakSrv
	if d.store != nil {
		res.KnowledgeContributions = d.store.Contributions(video.HR) + d.store.Contributions(video.LR)
		res.KnowledgeSeeded = d.seeded
		res.Knowledge = d.store
	}
	if cfg.RetainSessions {
		res.Sessions = d.outcomes
	}
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
