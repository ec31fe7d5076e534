// Package serve turns the batch transcoding simulator into a continuously
// loaded transcoding *service*: sessions arrive and depart stochastically,
// a dispatcher places each arrival on one server of a simulated fleet
// under a pluggable placement policy and per-server admission limits, and
// quality of service is measured in steady state over a window after
// warm-up. This is the regime the paper's follow-up work (KaaS resource
// management, digital-twin collaborative transcoding) studies, and the
// foundation for balancing experiments at fleet scale.
//
// The fleet runs as one event-interleaved simulation: every server's
// engine is stepped to each arrival instant before the placement
// decision, and session departures are observed at their actual,
// contention-stretched times through the engine's OnSessionEnd hook — not
// approximated from nominal session lengths. SLO, rejection and
// utilization metrics therefore reflect true occupancy.
//
// With Config.KnowledgeReuse the fleet shares learned transcoding
// knowledge across sessions (KaaS-style warm starts): departing MAMUT
// sessions fold their tables into a per-resolution-class KnowledgeStore
// and new admissions are seeded from it, so short-lived sessions skip
// past exploration (see knowledge.go). The store is durable: Export
// writes it as a versioned, hash-stamped artifact and ImportKnowledge
// restores it for Config.Knowledge, warm-starting a later fleet from an
// earlier run's experience (see knowledge_io.go).
//
// With Config.Queue arrivals that find no capacity wait in a bounded
// fleet-level admission queue instead of being rejected: FIFO within a
// resolution-class priority order, per-entry deadline drop, re-admission
// at departures, elastic epochs and the horizon, with queue-wait and
// time-to-first-frame streaming as first-class latency metrics (see
// admission.go for the pipeline and the outcome taxonomy).
//
// Metrics stream. Every aggregate — per-server power, busy time, class
// statistics, FPS/duration quantile sketches, time-decayed window
// means — folds into constant-size accumulators (internal/metrics) at
// each session's departure, in deterministic arrival-ID order, and a
// departed session leaves its engine through the departure hook. The
// dispatcher therefore holds O(active sessions) state however long the
// horizon runs; the per-arrival outcome log is opt-in via
// Config.RetainSessions and changes no other result field.
//
// The fleet is elastic (see elastic.go). Sessions are migratable: the
// transcode package's ExtractSession/InjectSession freeze a live session
// mid-frame — learner tables, rng cursors, energy accumulators and all —
// and resume it on another engine, bit-identically for a same-server
// round trip. On top of that primitive the dispatcher runs an epoch
// schedule (Config.EpochSec) that interleaves with arrivals and applies,
// in a fixed order: scheduled drains (Config.Drain — a draining server
// admits nothing, its sessions are evacuated and it is decommissioned
// once empty), autoscaling (Config.Autoscale — target-utilization
// watermarks add servers mid-run or drain the highest-index one), and
// hotspot rebalancing (Config.Rebalance — the planner migrates sessions
// away from power-hotspot servers).
// Every migration charges DefaultMigrationStallSec to the moved
// session's in-flight frame. Epoch decisions run in the sequential
// phase and pick sessions in arrival-ID order, so elastic runs stay
// byte-identical across worker counts; with every
// elastic feature off the dispatcher is byte-identical to the
// fixed-fleet implementation it grew from (CI-pinned goldens).
//
// Failure domains and recovery (see faults.go). Config.Faults injects a
// pre-declared fault plan into the same serial control phase: crash (a
// server dies at an instant — engine torn down, in-flight sessions
// interrupted, the server never returns), degrade (a power-cap derate
// window, applied live through the platform spec and an engine
// re-profile) and blip (an unavailability window during which the server
// admits nothing but its sessions keep running). Periodic checkpoints
// (Config.Faults.CheckpointSec) snapshot live sessions with the same
// state read migration uses, kept as typed in-memory copies that only a
// restore encodes; crash-interrupted sessions re-enter
// the admission queue as recovery entries with backoff, retry and
// deadline budgets, restoring from their last snapshot — or
// cold-restarting, warm-seeded from the KnowledgeStore when enabled —
// on the next server with capacity, and shedding by class priority when
// recovery demand exceeds queue capacity. Fault edges, checkpoints and
// elastic epochs merge with the arrivals into one deterministic
// timeline (dispatcher.timeline), so chaos runs stay byte-identical
// across worker counts and dispatchers; with no plan
// configured the subsystem is inert and output byte-matches the
// pre-fault goldens.
// MTTR, recovery-latency quantiles, lost work and fleet availability are
// first-class result fields.
//
// Everything is deterministic for a fixed seed: the arrival process, the
// placement decisions and every per-server simulation derive their
// randomness from experiments.SubSeed. The interleaved phase is
// sequential by construction; once the last arrival is placed the engines
// are independent and drain across the experiments.RunUnits worker pool,
// so results are bit-identical for any worker count.
package serve

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mamut/internal/core"
	"mamut/internal/experiments"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

// SessionRequest is one arrival of the offered load: a user asking the
// service to transcode one stream for a while.
type SessionRequest struct {
	// ID numbers arrivals in time order, starting at 0.
	ID int
	// ArriveAtSec is the arrival time on the service clock.
	ArriveAtSec float64
	// Res is the requested resolution class.
	Res video.Resolution
	// Sequence is the catalog entry the session transcodes (looped).
	Sequence string
	// Frames is the session length: the user departs after this many
	// frames have been transcoded.
	Frames int
	// BandwidthMbps is the user's bandwidth (resolution default when 0).
	BandwidthMbps float64
	// SourceSeed and ControllerSeed drive the session's private
	// randomness, fixed at generation time so placement never perturbs
	// session content.
	SourceSeed     int64
	ControllerSeed int64
}

// LoadCurve selects how the arrival rate evolves over the run.
type LoadCurve string

const (
	// LoadConstant holds the arrival rate fixed (homogeneous Poisson).
	LoadConstant LoadCurve = "constant"
	// LoadDiurnal modulates the rate sinusoidally around the base rate,
	// modelling a day/night traffic cycle compressed into the run.
	LoadDiurnal LoadCurve = "diurnal"
	// LoadRamp ramps the rate linearly from the base rate to
	// base*RampEndFactor over the run, modelling a traffic surge.
	LoadRamp LoadCurve = "ramp"
	// LoadBurst holds the base rate except inside the window
	// [BurstStartSec, BurstEndSec), where the rate jumps to
	// base*BurstFactor — a flash-crowd spike. The shape the admission
	// queue exists for: capacity that frees after the spike can still
	// serve what arrived during it.
	LoadBurst LoadCurve = "burst"
)

// Workload describes the offered load: a stochastic session
// arrival/departure process, or a deterministic trace to replay.
type Workload struct {
	// ArrivalRate is the base arrival rate in sessions per second.
	ArrivalRate float64
	// DurationSec is the horizon of the arrival process: no session
	// arrives at or after this time.
	DurationSec float64
	// HRFraction is the probability an arrival requests HR (the rest
	// request LR). DefaultHRFraction when 0 and negative to force 0.
	HRFraction float64
	// MeanSessionSec is the mean session length in seconds; lengths are
	// exponentially distributed (memoryless viewers) and floored at
	// MinSessionSec. DefaultMeanSessionSec when 0.
	MeanSessionSec float64
	// MinSessionSec floors the session length. DefaultMinSessionSec
	// when 0.
	MinSessionSec float64
	// Curve selects the load shape (LoadConstant when empty).
	Curve LoadCurve
	// CurveAmplitude is the diurnal modulation depth in [0,1):
	// rate(t) = base * (1 + amplitude*sin(2*pi*t/DurationSec)), one
	// period over the horizon. DefaultCurveAmplitude when 0.
	CurveAmplitude float64
	// RampEndFactor is the final/base rate ratio of LoadRamp.
	// DefaultRampEndFactor when 0.
	RampEndFactor float64
	// BurstFactor is the burst/base rate ratio of LoadBurst.
	// DefaultBurstFactor when 0.
	BurstFactor float64
	// BurstStartSec and BurstEndSec bound the LoadBurst spike window
	// [start, end). When both are 0 the window defaults to the second
	// quarter of the run: [DurationSec/4, DurationSec/2).
	BurstStartSec, BurstEndSec float64
	// Trace, when non-empty, is replayed verbatim (sorted by arrival
	// time) instead of sampling the stochastic process; the fields above
	// are ignored except DurationSec, which defaults to the last arrival
	// plus one second when 0. Entries with an explicit Sequence take
	// their Res from the catalog entry; entries without one draw a
	// sequence of their Res deterministically.
	Trace []SessionRequest
}

// Workload defaults.
const (
	DefaultHRFraction     = 0.4
	DefaultMeanSessionSec = 60.0
	DefaultMinSessionSec  = 5.0
	DefaultCurveAmplitude = 0.5
	DefaultRampEndFactor  = 2.0
	DefaultBurstFactor    = 3.0
)

// withDefaults fills zero fields in.
func (w Workload) withDefaults() Workload {
	if w.HRFraction == 0 {
		w.HRFraction = DefaultHRFraction
	}
	// A negative HRFraction (the "force pure LR" escape hatch) is kept
	// as-is so withDefaults stays idempotent; hrFraction() clamps it at
	// the point of use.
	if w.MeanSessionSec == 0 {
		w.MeanSessionSec = DefaultMeanSessionSec
	}
	if w.MinSessionSec == 0 {
		w.MinSessionSec = DefaultMinSessionSec
	}
	if w.Curve == "" {
		w.Curve = LoadConstant
	}
	if w.CurveAmplitude == 0 {
		w.CurveAmplitude = DefaultCurveAmplitude
	}
	if w.RampEndFactor == 0 {
		w.RampEndFactor = DefaultRampEndFactor
	}
	if w.Curve == LoadBurst {
		if w.BurstFactor == 0 {
			w.BurstFactor = DefaultBurstFactor
		}
		if w.BurstStartSec == 0 && w.BurstEndSec == 0 {
			w.BurstStartSec = w.DurationSec / 4
			w.BurstEndSec = w.DurationSec / 2
		}
	}
	if len(w.Trace) > 0 && w.DurationSec == 0 {
		last := 0.0
		for _, r := range w.Trace {
			if r.ArriveAtSec > last {
				last = r.ArriveAtSec
			}
		}
		w.DurationSec = last + 1
	}
	return w
}

// Validate reports whether the workload is usable (after defaults).
func (w Workload) Validate() error {
	w = w.withDefaults()
	if err := checkFinite([]namedValue{
		{"arrival rate", w.ArrivalRate},
		{"duration", w.DurationSec},
		{"HR fraction", w.HRFraction},
		{"mean session length", w.MeanSessionSec},
		{"min session length", w.MinSessionSec},
		{"diurnal amplitude", w.CurveAmplitude},
		{"ramp end factor", w.RampEndFactor},
		{"burst factor", w.BurstFactor},
		{"burst start", w.BurstStartSec},
		{"burst end", w.BurstEndSec},
	}); err != nil {
		return err
	}
	if len(w.Trace) > 0 {
		for i, r := range w.Trace {
			if !isFinite(r.ArriveAtSec) || !isFinite(r.BandwidthMbps) {
				return fmt.Errorf("serve: trace entry %d: arrival %g or bandwidth %g is not finite", i, r.ArriveAtSec, r.BandwidthMbps)
			}
			if r.ArriveAtSec < 0 {
				return fmt.Errorf("serve: trace entry %d: negative arrival %g", i, r.ArriveAtSec)
			}
			if r.Frames < 1 {
				return fmt.Errorf("serve: trace entry %d: frame budget %d < 1", i, r.Frames)
			}
		}
		return nil
	}
	if w.ArrivalRate <= 0 {
		return fmt.Errorf("serve: arrival rate %g must be positive", w.ArrivalRate)
	}
	if w.DurationSec <= 0 {
		return fmt.Errorf("serve: duration %g must be positive", w.DurationSec)
	}
	if w.HRFraction > 1 {
		return fmt.Errorf("serve: HR fraction %g outside [0,1]", w.HRFraction)
	}
	if w.MeanSessionSec <= 0 || w.MinSessionSec <= 0 {
		return fmt.Errorf("serve: session lengths must be positive (mean %g, min %g)", w.MeanSessionSec, w.MinSessionSec)
	}
	switch w.Curve {
	case LoadConstant, LoadRamp:
	case LoadBurst:
		if w.BurstFactor <= 0 {
			return fmt.Errorf("serve: burst factor %g must be positive", w.BurstFactor)
		}
		if w.BurstStartSec < 0 || w.BurstEndSec <= w.BurstStartSec {
			return fmt.Errorf("serve: burst window [%g, %g) must satisfy 0 <= start < end", w.BurstStartSec, w.BurstEndSec)
		}
	case LoadDiurnal:
		if w.CurveAmplitude < 0 || w.CurveAmplitude >= 1 {
			return fmt.Errorf("serve: diurnal amplitude %g outside [0,1)", w.CurveAmplitude)
		}
	default:
		return fmt.Errorf("serve: unknown load curve %q", w.Curve)
	}
	if w.Curve == LoadRamp && w.RampEndFactor <= 0 {
		return fmt.Errorf("serve: ramp end factor %g must be positive", w.RampEndFactor)
	}
	return nil
}

// hrFraction resolves the effective HR probability (negative means 0).
func (w Workload) hrFraction() float64 {
	if w.HRFraction < 0 {
		return 0
	}
	return w.HRFraction
}

// rateAt returns the instantaneous arrival rate at time t.
func (w Workload) rateAt(t float64) float64 {
	switch w.Curve {
	case LoadDiurnal:
		return w.ArrivalRate * (1 + w.CurveAmplitude*math.Sin(2*math.Pi*t/w.DurationSec))
	case LoadRamp:
		frac := t / w.DurationSec
		return w.ArrivalRate * (1 + (w.RampEndFactor-1)*frac)
	case LoadBurst:
		if t >= w.BurstStartSec && t < w.BurstEndSec {
			return w.ArrivalRate * w.BurstFactor
		}
		return w.ArrivalRate
	default:
		return w.ArrivalRate
	}
}

// peakRate bounds rateAt over [0, DurationSec] for thinning.
func (w Workload) peakRate() float64 {
	switch w.Curve {
	case LoadDiurnal:
		return w.ArrivalRate * (1 + w.CurveAmplitude)
	case LoadRamp:
		if w.RampEndFactor > 1 {
			return w.ArrivalRate * w.RampEndFactor
		}
		return w.ArrivalRate
	case LoadBurst:
		if w.BurstFactor > 1 {
			return w.ArrivalRate * w.BurstFactor
		}
		return w.ArrivalRate
	default:
		return w.ArrivalRate
	}
}

// GenerateArrivals samples the workload's session arrival process. The
// result is fully determined by (w, catalog, seed): a non-homogeneous
// Poisson process sampled by thinning against the peak rate, with the
// HR/LR mix, sequence choice, session length and per-session seeds all
// drawn from one seeded rng. In trace mode the trace is replayed: entries
// are sorted by arrival time, re-numbered, and zero fields (bandwidth,
// seeds) are filled in deterministically.
func GenerateArrivals(w Workload, catalog *video.Catalog, seed int64) ([]SessionRequest, error) {
	w = w.withDefaults()
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if catalog == nil || catalog.Len() == 0 {
		return nil, fmt.Errorf("serve: empty catalog")
	}
	if len(w.Trace) > 0 {
		return normalizeTrace(w, catalog, seed)
	}

	rng := rand.New(rand.NewSource(experiments.SubSeed(seed, "serve|arrivals", 0)))
	peak := w.peakRate()
	var out []SessionRequest
	t := 0.0
	for {
		t += rng.ExpFloat64() / peak
		if t >= w.DurationSec {
			break
		}
		// Thinning: keep the candidate with probability rate(t)/peak.
		if rng.Float64() >= w.rateAt(t)/peak {
			continue
		}
		res := video.LR
		if rng.Float64() < w.hrFraction() {
			res = video.HR
		}
		seq, err := catalog.Pick(res, rng)
		if err != nil {
			return nil, err
		}
		lengthSec := w.MeanSessionSec * rng.ExpFloat64()
		if lengthSec < w.MinSessionSec {
			lengthSec = w.MinSessionSec
		}
		frames := int(lengthSec*transcode.DefaultTargetFPS + 0.5)
		if frames < 1 {
			frames = 1
		}
		out = append(out, SessionRequest{
			ID:             len(out),
			ArriveAtSec:    t,
			Res:            res,
			Sequence:       seq.Name,
			Frames:         frames,
			BandwidthMbps:  core.DefaultBandwidth(res),
			SourceSeed:     rng.Int63(),
			ControllerSeed: rng.Int63(),
		})
	}
	return out, nil
}

// normalizeTrace prepares a user-supplied trace for dispatch.
func normalizeTrace(w Workload, catalog *video.Catalog, seed int64) ([]SessionRequest, error) {
	out := make([]SessionRequest, len(w.Trace))
	copy(out, w.Trace)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ArriveAtSec < out[j].ArriveAtSec })
	for i := range out {
		r := &out[i]
		r.ID = i
		if r.Sequence == "" {
			seq, err := catalog.Pick(r.Res, rand.New(rand.NewSource(experiments.SubSeed(seed, "serve|traceseq", i))))
			if err != nil {
				return nil, err
			}
			r.Sequence = seq.Name
		} else {
			seq, err := catalog.Get(r.Sequence)
			if err != nil {
				return nil, err
			}
			// The sequence is authoritative for the resolution class:
			// Res's zero value (HR) cannot be told apart from "unset",
			// so a mismatching Res would silently skew dispatch power
			// estimates and per-class stats.
			r.Res = seq.Res
		}
		if r.BandwidthMbps == 0 {
			r.BandwidthMbps = core.DefaultBandwidth(r.Res)
		}
		if r.SourceSeed == 0 {
			r.SourceSeed = experiments.SubSeed(seed, "serve|tracesrc", i)
		}
		if r.ControllerSeed == 0 {
			r.ControllerSeed = experiments.SubSeed(seed, "serve|tracectl", i)
		}
	}
	return out, nil
}
