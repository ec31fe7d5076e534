// Package platform models the multicore server the transcoder runs on.
//
// The paper's testbed is a dual-socket Intel Xeon E5-2667 v4 machine:
// 16 physical cores, 32 hardware threads, per-core DVFS from 1.2 to
// 3.2 GHz. The controller couples to the platform through exactly three
// effects, all reproduced here:
//
//   - throughput scales with the per-core frequency chosen for a session's
//     threads;
//   - sessions contend for cores: hyperthread siblings are slower than a
//     whole core, and oversubscription time-shares what is left;
//   - package power is idle power plus a dynamic term per busy core,
//     proportional to V^2*f (the CMOS dynamic-power law), which is what a
//     RAPL-style meter would report against the server's power cap.
package platform

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// FreqVolt is one rung of the DVFS ladder: an operating frequency and the
// core voltage the P-state runs at.
type FreqVolt struct {
	GHz   float64
	Volts float64
}

// Spec describes the hardware and its calibrated power constants.
type Spec struct {
	// Sockets, CoresPerSocket and ThreadsPerCore define the topology
	// (2 x 8 x 2 for the paper's machine).
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int
	// Ladder is the DVFS ladder in ascending frequency order.
	Ladder []FreqVolt
	// MinRealTimeGHz is the lowest frequency able to sustain real-time
	// transcoding; the paper discards rungs below 1.6 GHz (SIII-B).
	MinRealTimeGHz float64
	// IdlePowerW is package power with all cores idle.
	IdlePowerW float64
	// DynPowerPerCoreW is the dynamic power of one fully-busy core at the
	// top of the ladder; other rungs scale by V^2*f.
	DynPowerPerCoreW float64
	// HTEfficiency is the extra throughput a core gains from its second
	// hardware thread. The default folds in the shared-cache and
	// memory-bandwidth contention video encoders suffer at high thread
	// counts, so it is lower than a pure-compute hyperthreading gain.
	HTEfficiency float64
	// PowerCapW is the cap the server manager sets (Pcap in the paper).
	PowerCapW float64
	// PowerNoiseW is the std-dev of the power-meter reading jitter.
	PowerNoiseW float64
}

// DefaultSpec returns the paper's platform: dual Xeon E5-2667 v4 with the
// power constants calibrated to the wattage scale of Fig. 4 / Table II.
func DefaultSpec() Spec {
	return Spec{
		Sockets:        2,
		CoresPerSocket: 8,
		ThreadsPerCore: 2,
		Ladder: []FreqVolt{
			{1.2, 0.80}, {1.4, 0.82}, {1.6, 0.85}, {1.9, 0.90},
			{2.3, 0.95}, {2.6, 1.00}, {2.9, 1.05}, {3.2, 1.10},
		},
		MinRealTimeGHz:   1.6,
		IdlePowerW:       50,
		DynPowerPerCoreW: 4.2,
		HTEfficiency:     0.25,
		PowerCapW:        140,
		PowerNoiseW:      0.8,
	}
}

// Validate reports whether the spec is usable.
func (s *Spec) Validate() error {
	if s.Sockets < 1 || s.CoresPerSocket < 1 || s.ThreadsPerCore < 1 {
		return fmt.Errorf("platform: topology %dx%dx%d invalid", s.Sockets, s.CoresPerSocket, s.ThreadsPerCore)
	}
	if len(s.Ladder) == 0 {
		return fmt.Errorf("platform: empty DVFS ladder")
	}
	prev := 0.0
	for _, fv := range s.Ladder {
		if fv.GHz <= prev {
			return fmt.Errorf("platform: ladder not strictly ascending at %g GHz", fv.GHz)
		}
		if fv.Volts <= 0 {
			return fmt.Errorf("platform: non-positive voltage %g at %g GHz", fv.Volts, fv.GHz)
		}
		prev = fv.GHz
	}
	if s.IdlePowerW < 0 || s.DynPowerPerCoreW <= 0 {
		return fmt.Errorf("platform: power constants invalid (idle %g, dyn %g)", s.IdlePowerW, s.DynPowerPerCoreW)
	}
	if s.HTEfficiency < 0 || s.HTEfficiency > 1 {
		return fmt.Errorf("platform: HT efficiency %g outside [0,1]", s.HTEfficiency)
	}
	if s.PowerCapW <= s.IdlePowerW {
		return fmt.Errorf("platform: power cap %g not above idle %g", s.PowerCapW, s.IdlePowerW)
	}
	if s.PowerNoiseW < 0 {
		return fmt.Errorf("platform: negative power noise")
	}
	if !s.freqOnLadder(s.MinRealTimeGHz) {
		return fmt.Errorf("platform: MinRealTimeGHz %g not on ladder", s.MinRealTimeGHz)
	}
	return nil
}

func (s *Spec) freqOnLadder(f float64) bool {
	for _, fv := range s.Ladder {
		if fv.GHz == f {
			return true
		}
	}
	return false
}

// PhysicalCores returns the number of physical cores.
func (s *Spec) PhysicalCores() int { return s.Sockets * s.CoresPerSocket }

// LogicalCPUs returns the number of hardware threads.
func (s *Spec) LogicalCPUs() int { return s.PhysicalCores() * s.ThreadsPerCore }

// MaxGHz returns the top rung of the ladder.
func (s *Spec) MaxGHz() float64 { return s.Ladder[len(s.Ladder)-1].GHz }

// Frequencies returns all ladder frequencies in ascending order.
func (s *Spec) Frequencies() []float64 {
	out := make([]float64, len(s.Ladder))
	for i, fv := range s.Ladder {
		out[i] = fv.GHz
	}
	return out
}

// RealTimeFrequencies returns the rungs usable for real-time transcoding
// (>= MinRealTimeGHz); this is the DVFS agent's action set.
func (s *Spec) RealTimeFrequencies() []float64 {
	var out []float64
	for _, fv := range s.Ladder {
		if fv.GHz >= s.MinRealTimeGHz {
			out = append(out, fv.GHz)
		}
	}
	return out
}

// voltage returns the ladder voltage for an exact rung frequency.
func (s *Spec) voltage(f float64) (float64, error) {
	for _, fv := range s.Ladder {
		if fv.GHz == f {
			return fv.Volts, nil
		}
	}
	return 0, fmt.Errorf("platform: frequency %g GHz not on ladder", f)
}

// VFNorm returns the dynamic-power scale V^2*f of a rung, normalised to the
// top of the ladder (VFNorm(MaxGHz) == 1).
func (s *Spec) VFNorm(f float64) (float64, error) {
	v, err := s.voltage(f)
	if err != nil {
		return 0, err
	}
	top := s.Ladder[len(s.Ladder)-1]
	return (v * v * f) / (top.Volts * top.Volts * top.GHz), nil
}

// StepUp returns the next rung above f (or f if already at the top),
// restricted to real-time rungs when rt is true.
func (s *Spec) StepUp(f float64, rt bool) float64 {
	for _, fv := range s.Ladder {
		if g := fv.GHz; g > f && (!rt || g >= s.MinRealTimeGHz) {
			return g
		}
	}
	return f
}

// StepDown returns the next rung below f (or f if already at the bottom),
// restricted to real-time rungs when rt is true.
func (s *Spec) StepDown(f float64, rt bool) float64 {
	best := f
	for _, fv := range s.Ladder {
		if g := fv.GHz; g < f && (best == f || g > best) && (!rt || g >= s.MinRealTimeGHz) {
			best = g
		}
	}
	return best
}

// Nearest returns the ladder rung closest to f.
func (s *Spec) Nearest(f float64) float64 {
	l := s.Ladder
	i := sort.Search(len(l), func(i int) bool { return l[i].GHz >= f })
	if i == 0 {
		return l[0].GHz
	}
	if i == len(l) {
		return l[len(l)-1].GHz
	}
	if f-l[i-1].GHz <= l[i].GHz-f {
		return l[i-1].GHz
	}
	return l[i].GHz
}

// SessionLoad is one transcoding session's demand on the platform.
type SessionLoad struct {
	// Threads is the number of logical CPUs the session's encoder uses.
	Threads int
	// FreqGHz is the per-core DVFS setting of the session's cores; it must
	// be a ladder rung.
	FreqGHz float64
	// Speedup is the session's parallel efficiency in busy-core
	// equivalents (hevc.Encoder.Speedup); 0 < Speedup <= Threads.
	Speedup float64
}

// Snapshot is the platform state for a fixed set of session loads.
type Snapshot struct {
	// TotalThreads is the total logical-CPU demand.
	TotalThreads int
	// CapacityCores is the machine's effective compute capacity in
	// core-equivalents for this thread placement.
	CapacityCores float64
	// UsefulDemand is the sum of the sessions' parallel speedups: the
	// core-equivalents they could usefully consume.
	UsefulDemand float64
	// Scale in (0,1] is the contention factor every session's service is
	// multiplied by: 1 when the useful demand fits the capacity.
	Scale float64
	// Rates is the effective service rate of each session in cycles/sec.
	Rates []float64
	// DynPowerW is each session's share of the dynamic power (its busy
	// core-equivalents weighted by its V^2*f); idle power is not
	// attributed.
	DynPowerW []float64
	// PowerW is the package power a meter would read (includes jitter when
	// the server was built with an rng).
	PowerW float64
	// PowerIdealW is the noise-free model power.
	PowerIdealW float64
}

// Server evaluates platform snapshots. It is deliberately stateless apart
// from the metering rng: allocation follows a fair work-conserving OS
// scheduler, so the snapshot is a pure function of the loads.
type Server struct {
	spec Spec
	rng  *rand.Rand
}

// NewServer builds a server from a validated spec. A nil rng disables
// power-meter jitter.
func NewServer(spec Spec, rng *rand.Rand) (*Server, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Server{spec: spec, rng: rng}, nil
}

// Spec returns the server's hardware description.
func (srv *Server) Spec() Spec { return srv.spec }

// SpecInPlace returns the server's hardware description in place, for
// per-event readers that must not copy it: it follows SetSpec, and the
// caller must not write through it.
func (srv *Server) SpecInPlace() *Spec { return &srv.spec }

// SetSpec swaps the server's hardware description live, after validating
// the replacement. It models operational events that change a machine's
// envelope mid-run — a firmware power-cap cut, or the cap's later
// restoration. Resident loads are untouched: callers that cache
// spec-derived values (frequency ladders, power budgets) must refresh
// them, and callers integrating power over time must settle the running
// segment at the old spec before swapping.
func (srv *Server) SetSpec(spec Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	srv.spec = spec
	return nil
}

// capacityCores returns the machine's effective compute capacity in
// core-equivalents when `total` logical CPUs are occupied: one core per
// thread up to the physical core count, then each extra sibling thread
// adds only HTEfficiency of a core (hyperthreading plus shared-cache and
// memory-bandwidth contention), and threads beyond the logical CPU count
// add nothing.
func (srv *Server) capacityCores(total int) float64 {
	cores := srv.spec.PhysicalCores()
	logical := srv.spec.LogicalCPUs()
	if total <= 0 {
		return 0
	}
	if total <= cores {
		return float64(total)
	}
	if total > logical {
		total = logical
	}
	return float64(cores) + srv.spec.HTEfficiency*float64(total-cores)
}

// Evaluate computes the platform snapshot for the given loads.
//
// Sharing model: WPP encoder threads block on wavefront dependencies
// rather than spin, so a stalled thread releases its core to other
// sessions. Capacity is therefore shared in proportion to each session's
// *useful* demand (its parallel speedup), not its raw thread count: when
// the total useful demand exceeds the capacity, every session's service is
// scaled by capacity/demand. Dynamic power follows the busy
// core-equivalents actually served, weighted by each session's V^2*f.
func (srv *Server) Evaluate(loads []SessionLoad) (Snapshot, error) {
	total := 0
	demand := 0.0
	for i, l := range loads {
		if l.Threads < 1 {
			return Snapshot{}, fmt.Errorf("platform: session %d requests %d threads", i, l.Threads)
		}
		if l.Speedup <= 0 || l.Speedup > float64(l.Threads)+1e-9 {
			return Snapshot{}, fmt.Errorf("platform: session %d speedup %g outside (0,threads]", i, l.Speedup)
		}
		if !srv.spec.freqOnLadder(l.FreqGHz) {
			return Snapshot{}, fmt.Errorf("platform: session %d frequency %g not on ladder", i, l.FreqGHz)
		}
		total += l.Threads
		demand += l.Speedup
	}
	capacity := srv.capacityCores(total)
	scale := 1.0
	if demand > capacity {
		scale = capacity / demand
	}
	snap := Snapshot{
		TotalThreads:  total,
		CapacityCores: capacity,
		UsefulDemand:  demand,
		Scale:         scale,
		Rates:         make([]float64, len(loads)),
		DynPowerW:     make([]float64, len(loads)),
	}
	power := srv.spec.IdlePowerW
	for i, l := range loads {
		vf, err := srv.spec.VFNorm(l.FreqGHz)
		if err != nil {
			return Snapshot{}, err
		}
		busy := l.Speedup * scale
		snap.Rates[i] = l.FreqGHz * 1e9 * busy
		snap.DynPowerW[i] = srv.spec.DynPowerPerCoreW * vf * busy
		power += snap.DynPowerW[i]
	}
	snap.PowerIdealW = power
	snap.PowerW = srv.MeterPower(power)
	return snap, nil
}

// MeterPower returns the package power a RAPL-style meter would report for
// the given noise-free model power: jitter is added when the server was
// built with an rng, and the reading is floored at zero. Each call
// consumes one rng draw, mirroring a discrete meter sample.
func (srv *Server) MeterPower(idealW float64) float64 {
	if srv.rng != nil && srv.spec.PowerNoiseW > 0 {
		return math.Max(0, idealW+srv.spec.PowerNoiseW*srv.rng.NormFloat64())
	}
	return idealW
}

// OverCap reports whether a power reading violates the server's cap.
func (srv *Server) OverCap(powerW float64) bool {
	return powerW >= srv.spec.PowerCapW
}
