package serve

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"mamut/internal/core"
	"mamut/internal/transcode"
	"mamut/internal/xrand"
)

// Fleet elasticity: live session migration, server drain/decommission and
// autoscaling. The dispatcher's timeline carries a fixed epoch schedule
// interleaved with the arrivals (an epoch due at an arrival's instant
// fires before the arrival, and epochs continue past the last arrival to
// the workload horizon); at each epoch it steps the fleet to the epoch
// instant, applies scheduled drains and the autoscaler's watermark
// decisions, migrates sessions off draining servers, and plans hotspot
// migrations. Everything happens in the sequential phase of the run —
// never during the concurrent post-horizon drain — and sessions are
// always selected in arrival-ID order, so results stay bit-identical for
// any worker count.
//
// A migration moves the live session — frame cursor, playlist/content
// process, controller decision state, every rng stream, accumulators — via
// transcode.ExtractSession/InjectSession, paying DefaultMigrationStallSec
// of in-flight-frame stall on the destination. The session keeps its
// arrival identity: its eventual departure record (and therefore its SLO
// outcome, busy time and per-class statistics) is attributed to the server
// it departs from.

// Elasticity constants.
const (
	// DefaultEpochSec is the control-epoch interval when a Config enables
	// an elasticity feature without setting EpochSec.
	DefaultEpochSec = 30.0
	// DefaultMigrationStallSec is the per-migration stall penalty: the
	// in-flight frame of a migrated session is delayed this many real
	// seconds (state transfer and stream re-attachment), counting against
	// the SLO like any slow frame.
	DefaultMigrationStallSec = 0.25

	// The autoscaler's fleet floor, the utilization a scale-out sizes the
	// fleet for, and its scale-out/scale-in watermarks (percent).
	autoscaleMinServers    = 1
	autoscaleTargetUtilPct = 70.0
	autoscaleHighPct       = 85.0
	autoscaleLowPct        = 40.0
)

// move is one rebalancing step: migrate one session from server from to
// server to.
type move struct{ from, to int }

// hotspotMoves plans one migration away from each server whose estimated
// package power exceeds its power budget, onto the coolest server with
// room — mirroring the power-aware placement policy's ranking quantity
// so the two pull the fleet toward the same equilibrium. states is the
// in-service fleet, ordered by index (draining servers included with
// Draining set). The plan depends only on states, so it is identical for
// any worker count.
func hotspotMoves(states []ServerState) []move {
	var moves []move
	for _, s := range states {
		if s.Draining || s.Active == 0 || s.EstPowerW <= s.PowerBudgetW {
			continue
		}
		// Coolest target with room, lowest index among ties (the
		// power-aware scan's argmax-with-first-wins discipline).
		best, bestHead := -1, 0.0
		for _, t := range states {
			if t.Full() || t.Index == s.Index {
				continue
			}
			if head := t.PowerBudgetW - t.EstPowerW; best == -1 || head > bestHead {
				best, bestHead = t.Index, head
			}
		}
		// Only migrate toward genuinely cooler ground: a target no better
		// than the hotspot itself would just move the hotspot around.
		if best == -1 || bestHead <= s.PowerBudgetW-s.EstPowerW {
			continue
		}
		moves = append(moves, move{from: s.Index, to: best})
	}
	return moves
}

// AutoscaleConfig parametrises target-utilization fleet autoscaling.
// Utilization is resident sessions as a share of the admittable fleet's
// capacity (non-draining in-service servers x the admission limit),
// evaluated at each control epoch: above 85% the fleet scales out to
// the size that brings utilization back to 70% (bounded by
// MaxServers); below 40% it drains the highest-index admittable server
// (one per epoch, keeping at least one), which is then emptied by
// migration and decommissioned once empty.
type AutoscaleConfig struct {
	// Enabled turns the autoscaler on.
	Enabled bool
	// MaxServers bounds the in-service fleet size; 4x the initial fleet
	// when 0. Setting it with the autoscaler off is rejected.
	MaxServers int
}

// DrainEvent schedules one server decommission: at the first control
// epoch at or after AtSec the server stops admitting, its sessions are
// migrated off (in arrival-ID order, as capacity allows), and it is
// removed from the fleet once empty.
type DrainEvent struct {
	// AtSec is the service time the decommission is requested at.
	AtSec float64
	// Server is the index of the server to decommission (an initial
	// fleet index, 0..Servers-1).
	Server int
}

// Elastic reports whether the config enables any elasticity feature
// (rebalancing, autoscaling or scheduled drains) — and therefore the
// epoch schedule that drives them.
func (c Config) Elastic() bool {
	return c.Rebalance || c.Autoscale.Enabled || len(c.Drain) > 0
}

// elastic is a run's elasticity state: the scheduled decommissions
// still to apply, in (AtSec, Server) order, the peak in-service fleet
// size, and the topology and migration counters.
type elastic struct {
	drains                           []DrainEvent
	peak, added, removed, migrations int
}

// newElastic schedules cfg's drain events; the peak starts at the
// initial fleet.
func newElastic(cfg Config) elastic {
	e := elastic{peak: cfg.Servers, drains: slices.Clone(cfg.Drain)}
	sort.Slice(e.drains, func(i, j int) bool {
		if e.drains[i].AtSec != e.drains[j].AtSec {
			return e.drains[i].AtSec < e.drains[j].AtSec
		}
		return e.drains[i].Server < e.drains[j].Server
	})
	return e
}

// report fills the result's elastic fields. With no elasticity feature
// enabled the counters are zero and the peak is the configured fleet.
func (e *elastic) report(res *Result) {
	res.Migrations = e.migrations
	res.ServersAdded = e.added
	res.ServersRemoved = e.removed
	res.PeakServers = e.peak
}

// --- stateful controller wrapper -------------------------------------

// statefulMAMUT couples a core.Controller with the rng source its
// exploration draws from, implementing transcode.StatefulController so
// MAMUT sessions are migratable: the resume payload (settings, learner
// tables, in-flight pending update) and the rng stream position together
// are the controller's complete state. Wrapping is transparent — the
// embedded controller sees the identical rng stream it would own
// directly, so non-elastic results are unchanged.
type statefulMAMUT struct {
	*core.Controller
	src *xrand.Source
}

// mamutCtrlState is the wrapper's typed state: the resume state is
// already frozen (its learners share rows the controller copies before
// writing), so a checkpoint holds it as is, a restore or migration in
// process rebuilds the learners straight from it, and only a state that
// leaves the process encodes the learner tables.
type mamutCtrlState struct {
	Resume *core.ResumeState `json:"resume"`
	RNG    uint64            `json:"rng"`
}

// ControllerState implements transcode.StatefulController.
func (c *statefulMAMUT) ControllerState() any {
	return mamutCtrlState{Resume: c.ResumeState(), RNG: c.src.State()}
}

// RestoreControllerState implements transcode.StatefulController.
func (c *statefulMAMUT) RestoreControllerState(state any) error {
	st, err := transcode.ResolveControllerState[mamutCtrlState](state)
	if err != nil {
		return fmt.Errorf("serve: restore mamut controller: %w", err)
	}
	if st.Resume == nil {
		return fmt.Errorf("serve: restore mamut controller: missing resume payload")
	}
	if err := c.RestoreResumeState(st.Resume); err != nil {
		return err
	}
	c.src.SetState(st.RNG)
	return nil
}

var _ transcode.StatefulController = (*statefulMAMUT)(nil)

// wrapStateful makes a factory-built controller migratable where the
// factory alone cannot: a core.Controller is paired with the rng source
// it was built over. Other controllers pass through (the heuristic is
// stateful by itself; the mono-agent is rejected for elastic configs by
// Validate).
func wrapStateful(ctrl transcode.Controller, src *xrand.Source) transcode.Controller {
	if mc, ok := ctrl.(*core.Controller); ok {
		return &statefulMAMUT{Controller: mc, src: src}
	}
	return ctrl
}

// mamutController unwraps the knowledge-harvest target from a session's
// controller.
func mamutController(ctrl transcode.Controller) *core.Controller {
	switch c := ctrl.(type) {
	case *statefulMAMUT:
		return c.Controller
	case *core.Controller:
		return c
	}
	return nil
}

// --- epoch machinery --------------------------------------------------

// epoch runs one control step at time t: step the fleet there, fold what
// departed, then drain/scale/migrate. It is a timeline moment, run in the
// sequential phase, so every decision and migration lands at a
// deterministic point of the one merged event order.
func (d *dispatcher) epoch(t float64) error {
	if err := d.syncPoint(t); err != nil {
		return err
	}
	// The test reference rebuilds states per decision rather than
	// incrementally; sync them here so epoch decisions read the same
	// occupancy/power floats the production path maintains.
	if !d.indexed {
		d.refreshLive()
	}
	for el := &d.elastic; len(el.drains) > 0 && el.drains[0].AtSec <= t; el.drains = el.drains[1:] {
		d.markDraining(el.drains[0].Server)
	}
	if d.cfg.Autoscale.Enabled {
		d.autoscale()
	}
	if err := d.evacuate(t); err != nil {
		return err
	}
	if d.cfg.Rebalance {
		if err := d.rebalance(t); err != nil {
			return err
		}
	}
	d.retireEmpty()
	// Epoch boundaries are queue decision points: autoscale may just
	// have added capacity, and retirement/draining changed the
	// admittable set (draining servers report Full, so the queue never
	// lands on them).
	return d.queueStep(t)
}

// markDraining decommissions server i: no further admissions (its state
// reports Full), and evacuate will migrate its sessions off until it can
// be retired. Idempotent; retired servers are left alone.
func (d *dispatcher) markDraining(i int) {
	fs := d.servers[i]
	if fs.decom || fs.retired {
		return
	}
	fs.decom = true
	d.refreshState(i)
}

// autoscale applies the watermark policy against current utilization.
func (d *dispatcher) autoscale() {
	maxServers := d.cfg.Autoscale.MaxServers
	admittable := 0
	for _, fs := range d.servers {
		if !fs.retired && !fs.decom {
			admittable++
		}
	}
	capacity := admittable * d.cfg.MaxSessionsPerServer
	switch {
	case capacity == 0 || 100*float64(d.active) > autoscaleHighPct*float64(capacity):
		if admittable >= maxServers {
			return
		}
		// Size for the target: the smallest admittable fleet that brings
		// utilization back to the target utilization.
		desired := int(math.Ceil(100 * float64(d.active) / (autoscaleTargetUtilPct * float64(d.cfg.MaxSessionsPerServer))))
		if desired <= admittable {
			desired = admittable + 1
		}
		if desired > maxServers {
			desired = maxServers
		}
		for n := admittable; n < desired; n++ {
			d.addServer()
		}
	case 100*float64(d.active) < autoscaleLowPct*float64(capacity):
		if admittable <= autoscaleMinServers {
			return
		}
		// Drain the highest-index admittable server, one per epoch —
		// scale-in is deliberately slower than scale-out so a transient
		// lull cannot collapse the fleet under a returning peak.
		for i := len(d.servers) - 1; i >= 0; i-- {
			if fs := d.servers[i]; !fs.retired && !fs.decom {
				d.markDraining(i)
				return
			}
		}
	}
}

// addServer grows the fleet by one server (engine built lazily on first
// admission, seeded by its index exactly like an initial server).
func (d *dispatcher) addServer() {
	i := len(d.servers)
	fs := &fleetServer{resident: make(map[int]residentRec)}
	d.servers = append(d.servers, fs)
	d.states = append(d.states, ServerState{
		Index:        i,
		MaxSessions:  d.cfg.MaxSessionsPerServer,
		EstPowerW:    d.spec.IdlePowerW,
		PowerBudgetW: d.spec.PowerCapW,
	})
	d.stats.admitCount = append(d.stats.admitCount, 0)
	d.stats.busy = append(d.stats.busy, 0)
	d.nextEvt = append(d.nextEvt, math.Inf(1))
	d.liveSrv++
	d.elastic.peak = max(d.elastic.peak, d.liveSrv)
	d.elastic.added++
	d.rebuildIndex()
}

// retireEmpty removes emptied draining servers from the fleet.
func (d *dispatcher) retireEmpty() {
	changed := false
	for i, fs := range d.servers {
		if fs.decom && !fs.retired && fs.active() == 0 {
			d.retire(i)
			d.elastic.removed++
			changed = true
		}
	}
	if changed {
		d.rebuildIndex()
	}
}

// retire takes server i out of the fleet for good — emptied by a drain,
// or crashed. Its accumulated results (admissions, power window, peak)
// stay in the final report; its index is never reused. A server retiring
// inside a blip window leaves the blipped count — it is out of the
// fleet, not out of service — and its window end then finds nothing to
// restore. The caller rebuilds the policy index.
func (d *dispatcher) retire(i int) {
	fs := d.servers[i]
	if fs.blipped {
		fs.blipped = false
		d.faults.blipped--
	}
	fs.decom, fs.retired = true, true
	d.liveSrv--
	d.refreshState(i)
}

// rebuildIndex rebuilds the policy's fleet index over the in-service
// servers after a topology change (a server added or retired). Marking a
// server draining needs no rebuild: its state update invalidates its
// index entries lazily.
func (d *dispatcher) rebuildIndex() {
	if d.idx != nil {
		d.idx = d.pol.(FleetIndexer).NewFleetIndex(d.planStates())
	}
}

// planStates snapshots the in-service fleet's states, ordered by index —
// what the hotspot planner plans from and rebuilt indexes initialise
// from.
func (d *dispatcher) planStates() []ServerState {
	out := make([]ServerState, 0, d.liveSrv)
	for i, fs := range d.servers {
		if !fs.retired {
			out = append(out, d.states[i])
		}
	}
	return out
}

// evacuate migrates sessions off every draining server, lowest arrival
// ID first, onto the least-loaded admittable server (lowest index among
// ties; draining and retired servers report Full). Sessions that do not
// fit anywhere stay and are retried at the next epoch.
func (d *dispatcher) evacuate(t float64) error {
	for i, fs := range d.servers {
		if !fs.decom || fs.retired || fs.active() == 0 {
			continue
		}
		for _, id := range sessionsByArrival(fs, len(fs.resident)) {
			to := leastLoaded{}.Place(SessionRequest{}, d.states)
			if to < 0 {
				break
			}
			if err := d.migrate(t, i, id, to); err != nil {
				return err
			}
		}
	}
	return nil
}

// sessionsByArrival returns up to n of the server's resident session ids,
// ordered by arrival ID — the deterministic migration order.
func sessionsByArrival(fs *fleetServer, n int) []int {
	ids := make([]int, 0, len(fs.resident))
	for id := range fs.resident {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return fs.resident[ids[a]].reqID < fs.resident[ids[b]].reqID })
	if n < len(ids) {
		ids = ids[:n]
	}
	return ids
}

// rebalance executes the hotspot plan over the in-service fleet, in
// plan order: each move migrates the source's lowest-arrival-ID session,
// and is skipped once earlier moves have filled its destination.
func (d *dispatcher) rebalance(t float64) error {
	for _, m := range hotspotMoves(d.planStates()) {
		for _, id := range sessionsByArrival(d.servers[m.from], 1) {
			if d.states[m.to].Full() {
				break
			}
			if err := d.migrate(t, m.from, id, m.to); err != nil {
				return err
			}
		}
	}
	return nil
}

// migrate moves one live session between servers at time t: extract on
// the source engine and inject on the destination with the configured
// stall penalty. All dispatcher-side bookkeeping (resident maps, class
// counts, knowledge-harvest identity, incremental states, the engine
// event heap) moves with it.
func (d *dispatcher) migrate(t float64, from, sessID, to int) error {
	src := d.servers[from]
	rec, ok := src.resident[sessID]
	if !ok {
		return fmt.Errorf("serve: migrate: server %d has no session %d", from, sessID)
	}
	if err := d.advance(from, t); err != nil {
		return err
	}
	st, err := src.eng.ExtractSession(sessID)
	if err != nil {
		return fmt.Errorf("serve: migrate session %d off server %d: %w", sessID, from, err)
	}
	st.StallSec = DefaultMigrationStallSec
	// The record carries the knowledge-harvest identity across, keeping
	// the baseline the session was seeded with.
	if err := d.injectSession(to, t, rec, st); err != nil {
		return fmt.Errorf("serve: migrate session %d to server %d: %w", sessID, to, err)
	}
	delete(src.resident, sessID)
	src.n[rec.res]--
	d.elastic.migrations++
	d.refreshState(from)
	d.refreshState(to)
	d.scheduleServer(from)
	d.scheduleServer(to)
	return nil
}

// injectSession lands an extracted (migration) or checkpointed (crash
// restore) session state on server i at time t: the engine is created on
// first use and advanced to t, fresh source and controller shells take
// the payload's mid-stream state, and the session is booked resident
// under rec — whose seeded snapshot stays the warm-start baseline its
// eventual contribution subtracts. The caller refreshes the server's
// state and event-heap key.
func (d *dispatcher) injectSession(i int, t float64, rec residentRec, st *transcode.SessionState) error {
	if err := d.engineAt(i, t); err != nil {
		return err
	}
	src, ctrl, err := d.shell(rec.seq, rec.res, 0, 0, nil)
	if err != nil {
		return err
	}
	fs := d.servers[i]
	id, err := fs.eng.InjectSession(src, ctrl, st)
	if err != nil {
		return err
	}
	fs.book(id, rec, ctrl, d.knowledge != nil)
	return nil
}

// engineAt readies server i's engine for a session landing at t: built
// on first use, then advanced to t.
func (d *dispatcher) engineAt(i int, t float64) error {
	fs := d.servers[i]
	if fs.eng == nil {
		if err := d.createEngine(i); err != nil {
			return err
		}
	}
	return d.advance(i, t)
}
