package platform

import "fmt"

// LoadAccount maintains the aggregate contention state of a server
// incrementally, so that admitting, releasing or re-shaping one session's
// load costs O(1) instead of re-evaluating every resident load the way
// Server.Evaluate does. It tracks exactly the three aggregates the sharing
// model needs:
//
//   - the total logical-CPU demand (for the capacity curve);
//   - the total useful demand, i.e. the sum of parallel speedups (for the
//     contention scale);
//   - the V^2*f-weighted useful demand (for dynamic package power).
//
// The event-scheduled transcode engine keeps one LoadAccount per server
// and touches only the session whose frame event fired; everything a
// Snapshot would report about the *aggregate* state is available from the
// accessors at O(1).
type LoadAccount struct {
	srv          *Server
	active       int
	totalThreads int
	demand       float64 // sum of Speedup over resident loads
	dynNorm      float64 // sum of VFNorm(FreqGHz)*Speedup over resident loads
}

// NewLoadAccount returns an empty account for the server.
func (srv *Server) NewLoadAccount() *LoadAccount { return &LoadAccount{srv: srv} }

// check validates a load exactly like Evaluate does and resolves its
// dynamic-power norm.
func (a *LoadAccount) check(l SessionLoad) (vf float64, err error) {
	if l.Threads < 1 {
		return 0, fmt.Errorf("platform: load requests %d threads", l.Threads)
	}
	if l.Speedup <= 0 || l.Speedup > float64(l.Threads)+1e-9 {
		return 0, fmt.Errorf("platform: load speedup %g outside (0,threads]", l.Speedup)
	}
	vf, err = a.srv.spec.VFNorm(l.FreqGHz)
	if err != nil {
		return 0, err
	}
	return vf, nil
}

// Add admits one session load into the aggregate state.
func (a *LoadAccount) Add(l SessionLoad) error {
	vf, err := a.check(l)
	if err != nil {
		return err
	}
	a.active++
	a.totalThreads += l.Threads
	a.demand += l.Speedup
	a.dynNorm += vf * l.Speedup
	return nil
}

// Remove releases a load previously admitted with Add (or installed by
// Update). The caller must pass the same load value; Remove returns an
// error — without touching the aggregates — on a load that cannot have
// been admitted, since completing the removal would silently corrupt the
// account. When the last load leaves, the float aggregates reset to exact
// zero so rounding drift cannot accumulate across load epochs.
func (a *LoadAccount) Remove(l SessionLoad) error {
	vf, err := a.check(l)
	if err != nil || a.active < 1 {
		return fmt.Errorf("platform: removing load %+v never admitted (%v)", l, err)
	}
	a.active--
	a.totalThreads -= l.Threads
	if a.active == 0 {
		a.totalThreads = 0
		a.demand = 0
		a.dynNorm = 0
		return nil
	}
	a.demand -= l.Speedup
	a.dynNorm -= vf * l.Speedup
	if a.demand < 0 {
		a.demand = 0
	}
	if a.dynNorm < 0 {
		a.dynNorm = 0
	}
	return nil
}

// Update replaces a resident load with a new shape in one step. A no-op
// when the shapes are equal, so callers may invoke it unconditionally per
// frame without paying the ladder lookup.
func (a *LoadAccount) Update(old, new SessionLoad) error {
	if old == new {
		return nil
	}
	if _, err := a.check(new); err != nil {
		return err
	}
	if err := a.Remove(old); err != nil {
		return err
	}
	return a.Add(new)
}

// Active returns the number of resident loads.
func (a *LoadAccount) Active() int { return a.active }

// TotalThreads returns the aggregate logical-CPU demand.
func (a *LoadAccount) TotalThreads() int { return a.totalThreads }

// UsefulDemand returns the aggregate parallel speedup in core-equivalents.
func (a *LoadAccount) UsefulDemand() float64 { return a.demand }

// CapacityCores returns the machine's effective capacity for the current
// thread placement.
func (a *LoadAccount) CapacityCores() float64 { return a.srv.capacityCores(a.totalThreads) }

// Scale returns the contention factor in (0,1] every resident session's
// service is multiplied by: 1 when the useful demand fits the capacity.
func (a *LoadAccount) Scale() float64 {
	if a.active == 0 || a.demand <= 0 {
		return 1
	}
	capacity := a.CapacityCores()
	if a.demand > capacity {
		return capacity / a.demand
	}
	return 1
}

// DynPowerW returns the aggregate dynamic package power at the current
// contention scale (excluding idle power).
func (a *LoadAccount) DynPowerW() float64 {
	if a.active == 0 {
		return 0
	}
	return a.srv.spec.DynPowerPerCoreW * a.dynNorm * a.Scale()
}

// PowerIdealW returns the noise-free model package power.
func (a *LoadAccount) PowerIdealW() float64 { return a.srv.spec.IdlePowerW + a.DynPowerW() }
