package serve

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"mamut/internal/metrics"
	"mamut/internal/platform"
	"mamut/internal/transcode"
)

// Fault injection and session recovery: a deterministic fault plan
// (Config.Faults) injects server failures into the serial control phase
// of a service run, and a recovery pipeline built from the existing
// machinery — PR 7's session freeze/restore, PR 9's waiting room, the
// knowledge store's warm starts — brings interrupted sessions back.
//
// Three fault kinds:
//
//   - crash: the server dies at AtSec and never returns. Every resident
//     session's in-flight state is lost; sessions restore from their
//     last periodic checkpoint (Config.Faults.CheckpointSec) through the
//     admission queue, or are lost with the server when Recovery.Drop is
//     set.
//   - degrade: the server's firmware power cap is cut to Factor of
//     nominal for the window [AtSec, EndSec) — the platform spec is
//     swapped live (platform.Server.SetSpec via transcode.Reprofile),
//     and the dispatcher's per-server power budget shrinks with it, so
//     power-aware placement and the hotspot rebalancer steer load away
//     for the duration.
//   - blip: the server is unavailable for [AtSec, EndSec) — it admits
//     nothing and is skipped by rebalancing — but returns with its
//     sessions intact (their frames kept transcoding; only the control
//     plane lost it).
//
// Recovery is a queue-of-last-resort pipeline: a crash victim re-enters
// the PR 9 waiting room as a *recovery entry* carrying its last
// checkpoint snapshot (or nothing, for a cold restart seeded from the
// knowledge store), with bounded retries, a backoff between them and a
// recovery deadline. Re-admission restores the snapshot on the chosen
// server — charging DefaultFaultRestoreStallSec to the interrupted
// frame, like a migration stall — or re-admits the session from scratch
// when no snapshot exists. When post-fault capacity cannot hold the
// backlog the waiting room sheds from the tail of the class-priority
// order, so low-priority recoveries are lost before high-priority ones.
//
// Every fault edge is a precomputed moment of the run's one timeline
// (see dispatcher.timeline), run strictly in the serial phase, so
// fault runs keep the repo invariant: byte-identical results across
// worker counts — and with no plan configured, no fault code
// runs and output byte-matches the pre-fault goldens.

// Fault-recovery bounds, the same for both resolution classes; only the
// deadline is configurable (FaultRecovery.DeadlineSec).
const (
	// DefaultFaultBackoffSec is the wait between failed re-admission
	// attempts of a recovery entry.
	DefaultFaultBackoffSec = 2.0
	// DefaultFaultRetryMax bounds the placement attempts per recovery
	// entry before it is lost.
	DefaultFaultRetryMax = 5
	// DefaultFaultDeadlineSec bounds the total time from crash to
	// restore when FaultRecovery.DeadlineSec is 0; an entry still waiting
	// this long after its crash is lost.
	DefaultFaultDeadlineSec = 30.0
	// DefaultFaultRestoreStallSec is charged to a restored session's
	// interrupted frame (state download and re-attachment), counting
	// against its SLO like a migration stall.
	DefaultFaultRestoreStallSec = 0.5
)

// FaultKind identifies one failure mode.
type FaultKind string

const (
	// FaultCrash kills a server at AtSec: in-flight frame state is lost
	// and the server never returns.
	FaultCrash FaultKind = "crash"
	// FaultDegrade cuts a server's power cap to Factor of nominal for
	// [AtSec, EndSec).
	FaultDegrade FaultKind = "degrade"
	// FaultBlip makes a server unavailable for [AtSec, EndSec); it
	// returns with its sessions intact.
	FaultBlip FaultKind = "blip"
)

// FaultKinds lists the failure modes in deterministic order.
func FaultKinds() []FaultKind { return []FaultKind{FaultCrash, FaultDegrade, FaultBlip} }

// FaultEvent is one scheduled fault. Crash is a point event (EndSec and
// Factor zero); degrade and blip are windows [AtSec, EndSec), and only
// degrade carries a Factor.
type FaultEvent struct {
	// Kind is the failure mode.
	Kind FaultKind
	// Server is the victim's index in the initial fleet.
	Server int
	// AtSec is when the fault strikes.
	AtSec float64
	// EndSec closes the window for degrade/blip (exclusive); 0 for crash.
	EndSec float64
	// Factor is the degraded power cap as a fraction of nominal, in
	// (0,1); 0 for the other kinds.
	Factor float64
}

// String formats the event in the spec syntax ParseFaultPlan accepts, so
// plans round-trip exactly.
func (ev FaultEvent) String() string {
	switch ev.Kind {
	case FaultCrash:
		return fmt.Sprintf("crash@%g:%d", ev.AtSec, ev.Server)
	case FaultBlip:
		return fmt.Sprintf("blip@%g-%g:%d", ev.AtSec, ev.EndSec, ev.Server)
	default:
		return fmt.Sprintf("degrade@%g-%g:%d:%g", ev.AtSec, ev.EndSec, ev.Server, ev.Factor)
	}
}

// ParseFaultPlan parses a comma-separated fault plan in the -faults spec
// syntax:
//
//	crash@T:SRV            server SRV dies at T
//	blip@A-B:SRV           server SRV unavailable for [A,B)
//	degrade@A-B:SRV:F      server SRV's power cap cut to F of nominal for [A,B)
//
// e.g. "crash@120:0,degrade@60-180:2:0.5,blip@90-95:1". The parse is
// purely syntactic; Config.Validate applies the semantic rules (bounds,
// overlaps, ordering against the horizon and fleet).
func ParseFaultPlan(s string) ([]FaultEvent, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var plan []FaultEvent
	for _, part := range strings.Split(s, ",") {
		ev, err := parseFaultEvent(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		plan = append(plan, ev)
	}
	return plan, nil
}

// FormatFaultPlan renders a plan back into the spec syntax; the result
// re-parses to an equal plan.
func FormatFaultPlan(plan []FaultEvent) string {
	parts := make([]string, len(plan))
	for i, ev := range plan {
		parts[i] = ev.String()
	}
	return strings.Join(parts, ",")
}

// parseFaultEvent parses one kind@spec entry.
func parseFaultEvent(s string) (FaultEvent, error) {
	var ev FaultEvent
	kind, rest, ok := strings.Cut(s, "@")
	if !ok || rest == "" {
		return ev, fmt.Errorf("serve: fault %q: want kind@spec (e.g. crash@120:0)", s)
	}
	parts := strings.Split(rest, ":")
	parseSrv := func(p string) error {
		srv, err := strconv.Atoi(p)
		if err != nil {
			return fmt.Errorf("serve: fault %q: server index %q: %v", s, p, err)
		}
		if srv < 0 {
			return fmt.Errorf("serve: fault %q: negative server index %d", s, srv)
		}
		ev.Server = srv
		return nil
	}
	parseSec := func(p, what string) (float64, error) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return 0, fmt.Errorf("serve: fault %q: %s %q: %v", s, what, p, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("serve: fault %q: %s %q is not finite", s, what, p)
		}
		return v, nil
	}
	parseWindow := func(p string) error {
		a, b, ok := strings.Cut(p, "-")
		if !ok {
			return fmt.Errorf("serve: fault %q: want a start-end window (e.g. 60-180)", s)
		}
		var err error
		if ev.AtSec, err = parseSec(a, "window start"); err != nil {
			return err
		}
		if ev.EndSec, err = parseSec(b, "window end"); err != nil {
			return err
		}
		return nil
	}
	switch FaultKind(kind) {
	case FaultCrash:
		ev.Kind = FaultCrash
		if len(parts) != 2 {
			return ev, fmt.Errorf("serve: fault %q: want crash@T:SRV", s)
		}
		var err error
		if ev.AtSec, err = parseSec(parts[0], "time"); err != nil {
			return ev, err
		}
		if err := parseSrv(parts[1]); err != nil {
			return ev, err
		}
	case FaultBlip:
		ev.Kind = FaultBlip
		if len(parts) != 2 {
			return ev, fmt.Errorf("serve: fault %q: want blip@A-B:SRV", s)
		}
		if err := parseWindow(parts[0]); err != nil {
			return ev, err
		}
		if err := parseSrv(parts[1]); err != nil {
			return ev, err
		}
	case FaultDegrade:
		ev.Kind = FaultDegrade
		if len(parts) != 3 {
			return ev, fmt.Errorf("serve: fault %q: want degrade@A-B:SRV:FACTOR", s)
		}
		if err := parseWindow(parts[0]); err != nil {
			return ev, err
		}
		if err := parseSrv(parts[1]); err != nil {
			return ev, err
		}
		var err error
		if ev.Factor, err = parseSec(parts[2], "factor"); err != nil {
			return ev, err
		}
	default:
		return ev, fmt.Errorf("serve: fault %q: unknown kind %q (have %v)", s, kind, FaultKinds())
	}
	return ev, nil
}

// FaultRecovery configures what happens to sessions a crash interrupts.
type FaultRecovery struct {
	// Drop loses interrupted sessions with their server — the baseline
	// the recovery pipeline is measured against. With Drop unset, crash
	// victims re-enter the admission queue as recovery entries.
	Drop bool
	// DeadlineSec bounds crash-to-restore; a session still waiting this
	// long after its crash is lost. DefaultFaultDeadlineSec when 0. It
	// needs a crash in the plan and Drop unset: setting it otherwise is
	// rejected.
	DeadlineSec float64
}

// FaultConfig schedules deterministic fault injection into a service
// run. The zero value disables it entirely (no fault code runs and
// output byte-matches fault-free builds).
type FaultConfig struct {
	// Plan is the fault schedule (see ParseFaultPlan for the CLI spec
	// syntax). Empty disables fault injection.
	Plan []FaultEvent
	// CheckpointSec periodically freezes every resident session's state
	// (transcode.Engine.SnapshotSession, a typed in-memory copy) so crash
	// victims restore from their last snapshot instead of restarting
	// cold; the restore injects that state as is, and no wire codec
	// runs. 0 disables checkpoints: crash victims restart from scratch,
	// warm-seeded from the knowledge store when Config.KnowledgeReuse is
	// on. A restored session is charged DefaultFaultRestoreStallSec on
	// its interrupted frame. Setting it without a Plan, or to an interval
	// that would put more than 2^20 checkpoint passes on the horizon, is
	// rejected.
	CheckpointSec float64
	// Recovery configures the crash-recovery pipeline.
	Recovery FaultRecovery
}

// Enabled reports whether any fault is scheduled.
func (f FaultConfig) Enabled() bool { return len(f.Plan) > 0 }

// crashes reports whether the plan takes a server out for good, so
// that the recovery pipeline runs.
func (f FaultConfig) crashes() bool {
	return slices.ContainsFunc(f.Plan, func(ev FaultEvent) bool { return ev.Kind == FaultCrash })
}

// withDefaults resolves the zero recovery deadline where a crash victim
// can wait out its recovery: a plan with a crash and Drop unset.
func (f FaultConfig) withDefaults() FaultConfig {
	if f.crashes() && !f.Recovery.Drop && f.Recovery.DeadlineSec == 0 {
		f.Recovery.DeadlineSec = DefaultFaultDeadlineSec
	}
	return f
}

// validate applies the semantic plan rules (after defaults): every event
// in bounds, no overlapping windows or post-crash events per server, and
// a recovery path that can actually run.
func (f FaultConfig) validate(servers int, horizon float64, queueCapacity int) error {
	if err := checkFinite([]namedValue{
		{"fault checkpoint interval", f.CheckpointSec},
		{"fault-recovery deadline", f.Recovery.DeadlineSec},
	}); err != nil {
		return err
	}
	for i, ev := range f.Plan {
		if !isFinite(ev.AtSec) || !isFinite(ev.EndSec) || !isFinite(ev.Factor) {
			return fmt.Errorf("serve: fault %d: time %g, window end %g or factor %g is not finite", i, ev.AtSec, ev.EndSec, ev.Factor)
		}
	}
	if !f.Enabled() {
		if f.CheckpointSec != 0 || f.Recovery != (FaultRecovery{}) {
			return fmt.Errorf("serve: fault checkpoint/recovery set but no fault plan (fault injection disabled)")
		}
		return nil
	}
	if f.CheckpointSec < 0 {
		return fmt.Errorf("serve: negative fault checkpoint interval %g", f.CheckpointSec)
	}
	if err := checkPeriod("fault checkpoint interval", f.CheckpointSec, horizon); err != nil {
		return err
	}
	if f.Recovery.DeadlineSec < 0 {
		return fmt.Errorf("serve: negative fault-recovery deadline %g", f.Recovery.DeadlineSec)
	}
	for _, ev := range f.Plan {
		switch ev.Kind {
		case FaultCrash, FaultDegrade, FaultBlip:
		default:
			return fmt.Errorf("serve: fault %v: unknown kind %q (have %v)", ev, ev.Kind, FaultKinds())
		}
		if ev.Server < 0 || ev.Server >= servers {
			return fmt.Errorf("serve: fault %v: server %d outside initial fleet 0..%d", ev, ev.Server, servers-1)
		}
		if ev.AtSec < 0 || ev.AtSec >= horizon {
			return fmt.Errorf("serve: fault %v: time %g outside the [0,%g) horizon", ev, ev.AtSec, horizon)
		}
		if ev.Kind == FaultCrash {
			if ev.EndSec != 0 || ev.Factor != 0 {
				return fmt.Errorf("serve: fault %v: crash takes no window or factor", ev)
			}
			continue
		}
		if ev.EndSec <= ev.AtSec || ev.EndSec > horizon {
			return fmt.Errorf("serve: fault %v: window [%g,%g) must be ordered and end by the %g horizon",
				ev, ev.AtSec, ev.EndSec, horizon)
		}
		if ev.Kind == FaultDegrade {
			if ev.Factor <= 0 || ev.Factor >= 1 {
				return fmt.Errorf("serve: fault %v: degrade factor %g outside (0,1)", ev, ev.Factor)
			}
		} else if ev.Factor != 0 {
			return fmt.Errorf("serve: fault %v: blip takes no factor", ev)
		}
	}
	// Per-server ordering: sort by start time and walk consecutive pairs.
	// Nothing may follow a crash, windows may not overlap (touching —
	// one window ending exactly where the next starts — is fine), and
	// two events may not strike the same server at the same instant.
	byServer := map[int][]FaultEvent{}
	for _, ev := range f.Plan {
		byServer[ev.Server] = append(byServer[ev.Server], ev)
	}
	for _, evs := range byServer {
		sort.Slice(evs, func(i, j int) bool { return evs[i].AtSec < evs[j].AtSec })
		for i := 1; i < len(evs); i++ {
			prev, next := evs[i-1], evs[i]
			if prev.Kind == FaultCrash {
				return fmt.Errorf("serve: fault %v: server %d already crashed at %g", next, next.Server, prev.AtSec)
			}
			if next.AtSec == prev.AtSec {
				return fmt.Errorf("serve: faults %v and %v strike server %d at the same instant", prev, next, prev.Server)
			}
			if next.AtSec < prev.EndSec {
				return fmt.Errorf("serve: faults %v and %v overlap on server %d", prev, next, prev.Server)
			}
		}
	}
	crash := f.crashes()
	if crash && !f.Recovery.Drop && queueCapacity <= 0 {
		return fmt.Errorf("serve: crash recovery re-enters sessions through the admission queue; set Queue.Capacity (or Recovery.Drop to lose interrupted sessions)")
	}
	if f.Recovery.DeadlineSec != 0 && (!crash || f.Recovery.Drop) {
		return fmt.Errorf("serve: fault-recovery deadline %g set but no crash victim waits for recovery (no crash in the plan, or Recovery.Drop)", f.Recovery.DeadlineSec)
	}
	return nil
}

// faults is a run's fault-injection state (nil without a plan): the
// per-session checkpoint snapshots, the fault and outage counters, and
// the recovery-latency sketch and decayed availability view.
type faults struct {
	snaps map[int]faultSnap // keyed by arrival ID
	// injected counts the fault events that struck, crashes the servers
	// they took out for good, and blipped the servers now inside a blip
	// window.
	injected, crashes, blipped   int
	interrupted, recovered, lost int
	lostWorkSec, unavailSec      float64
	mttrSum                      float64
	recH                         *metrics.Histogram
	availWin                     *metrics.DecayedMean
}

// newFaults builds the fault state for cfg (nil when no plan is set);
// tau is the decay constant of the availability view.
func newFaults(cfg FaultConfig, tau float64) (*faults, error) {
	if !cfg.Enabled() {
		return nil, nil
	}
	f := &faults{snaps: make(map[int]faultSnap)}
	// Recovery latency is bounded by the recovery deadline (the default
	// even under Recovery.Drop, where nothing recovers and the sketch
	// stays empty).
	bound := max(DefaultFaultDeadlineSec, cfg.Recovery.DeadlineSec)
	var err error
	if f.recH, err = metrics.NewHistogram(0, bound, 256); err != nil {
		return nil, err
	}
	if f.availWin, err = metrics.NewDecayedMean(tau); err != nil {
		return nil, err
	}
	return f, nil
}

// sample feeds the decayed availability view at an arrival decision,
// over the servers faults can touch: the live fleet plus what crashed
// out of it, so elastic scale-in does not read as an outage.
func (f *faults) sample(t float64, live int) {
	if f == nil {
		return
	}
	if denom := live + f.crashes; denom > 0 {
		f.availWin.Add(t, 100*float64(live-f.blipped)/float64(denom))
	}
}

// report fills the result's fault block (a plan configured only);
// servers is the initial fleet size availability is normalised by.
func (f *faults) report(res *Result, servers int) {
	if f == nil {
		return
	}
	res.FaultsInjected = f.injected
	res.ServersCrashed = f.crashes
	res.Interrupted = f.interrupted
	res.Recovered = f.recovered
	res.Lost = f.lost
	res.LostWorkSec = f.lostWorkSec
	if f.recovered > 0 {
		res.MTTRSec = f.mttrSum / float64(f.recovered)
	}
	res.RecoveryLatency = quantiles(f.recH)
	if denom := res.DurationSec * float64(servers); denom > 0 {
		res.AvailabilityPct = max(0, 100*(1-f.unavailSec/denom))
	}
	res.Windowed.AvailabilityPct = f.availWin.Value()
}

// faultSnap is one session's last periodic checkpoint, keyed by arrival
// ID in faults.snaps: the frozen state a crash victim's restore injects,
// and the checkpoint instant for the lost-work accounting.
type faultSnap struct {
	snap *transcode.SessionState
	at   float64
}

// applyFault executes one fault edge: sync the fleet to the instant,
// apply the fault, then run a queue decision point — a crash just
// enqueued recovery entries that want the surviving capacity, and a
// window end just returned some.
func (d *dispatcher) applyFault(m moment) error {
	t := m.at
	if err := d.syncPoint(t); err != nil {
		return err
	}
	if m.start {
		d.faults.injected++
	}
	var err error
	switch {
	case m.ev.Kind == FaultCrash:
		d.crashServer(t, m.ev.Server)
	case m.ev.Kind == FaultBlip && m.start:
		d.blipStart(m.ev.Server)
	case m.ev.Kind == FaultBlip:
		d.blipEnd(*m.ev)
	case m.start:
		err = d.degradeStart(t, *m.ev)
	default:
		err = d.degradeEnd(t, m.ev.Server)
	}
	if err != nil {
		return err
	}
	return d.queueStep(t)
}

// --- crash ------------------------------------------------------------

// crashServer kills server srv at time t: every resident session is
// interrupted (re-queued for recovery, or lost under Recovery.Drop), the
// engine is torn down, and the server leaves the fleet for good. The
// waiting room then sheds from the tail of the class-priority order if
// the crash pushed it over capacity.
func (d *dispatcher) crashServer(t float64, srv int) {
	fs := d.servers[srv]
	if fs.retired {
		return // already out of the fleet (drained empty before the fault)
	}
	f := d.faults
	for _, id := range sessionsByArrival(fs, len(fs.resident)) {
		rec := fs.resident[id]
		f.interrupted++
		// The span served before the crash is real busy time on this
		// server; the restored remainder accrues on the new server.
		d.chargeBusy(srv, rec.startAt, t)
		snap, hasSnap := f.snaps[rec.reqID]
		snapAt := rec.startAt
		if hasSnap {
			snapAt = snap.at
			delete(f.snaps, rec.reqID)
		}
		if t > snapAt {
			f.lostWorkSec += t - snapAt
		}
		if d.stats.outcomes != nil {
			d.stats.outcomes[rec.reqID].Interrupted = true
		}
		// Validate requires a queue for crash recovery, so with the queue
		// off Drop is set and nothing is enqueued.
		if d.cfg.Faults.Recovery.Drop {
			f.lost++
			if d.stats.outcomes != nil {
				d.stats.outcomes[rec.reqID].Lost = true
			}
			continue
		}
		// The recovery entry joins the waiting room at the crash instant
		// — behind the arrivals already waiting in its class, ahead of
		// later ones — eligible immediately (backoff starts only after a
		// failed attempt) and bounded by the recovery deadline.
		d.queue.entries = append(d.queue.entries, queueEntry{
			req:        rec.req,
			measured:   rec.measured,
			deadline:   t + d.cfg.Faults.Recovery.DeadlineSec,
			recovery:   true,
			rec:        rec,
			snap:       snap.snap,
			eligibleAt: t,
			crashAt:    t,
		})
	}
	// Tear the server down. The engine reference is dropped (its heap
	// entries go stale through the +Inf key and are discarded on pop);
	// the power integrator and counters keep their history for the final
	// report. Crashes are reported separately from drain decommissions.
	d.active -= fs.active()
	fs.resident = make(map[int]residentRec)
	fs.n = [2]int{}
	fs.eng = nil
	fs.spec = nil
	d.nextEvt[srv] = math.Inf(1)
	d.retire(srv)
	f.crashes++
	if horizon := d.cfg.Workload.DurationSec; t < horizon {
		f.unavailSec += horizon - t
	}
	d.rebuildIndex()
	// Shed if the recovery entries pushed the waiting room over
	// capacity: drop from the tail of the class-priority order, so the
	// lowest-priority latest entries go first (Fu & van der Schaar-style
	// priority shedding when capacity < demand).
	if over := len(d.queue.entries) - d.cfg.Queue.Capacity; over > 0 {
		order := d.queueOrder()
		for _, qi := range order[len(order)-over:] {
			d.dropEntry(&d.queue.entries[qi])
		}
		d.queue.compact()
	}
}

// --- blip -------------------------------------------------------------

// blipStart takes the server out of service for the window: it admits
// nothing (its state reports Draining, hence Full) and rebalancing skips
// it, but its engine keeps transcoding — the sessions never notice.
func (d *dispatcher) blipStart(srv int) {
	fs := d.servers[srv]
	if fs.retired {
		return
	}
	fs.blipped = true
	d.faults.blipped++
	d.refreshState(srv)
}

// blipEnd returns the server to service and charges the window to the
// availability accounting.
func (d *dispatcher) blipEnd(ev FaultEvent) {
	fs := d.servers[ev.Server]
	if !fs.blipped {
		return // retired (or crashed) while blipped; nothing to restore
	}
	fs.blipped = false
	d.faults.blipped--
	d.faults.unavailSec += ev.EndSec - ev.AtSec
	d.refreshState(ev.Server)
}

// --- degrade ----------------------------------------------------------

// degradedSpec derates a platform spec's power cap to factor of nominal,
// floored just above idle so the spec stays valid.
func degradedSpec(spec platform.Spec, factor float64) platform.Spec {
	spec.PowerCapW *= factor
	if floor := spec.IdlePowerW + 1; spec.PowerCapW < floor {
		spec.PowerCapW = floor
	}
	return spec
}

// degradeStart cuts the server's power cap for the window: the engine's
// platform spec is swapped live (future frame completions meter against
// the derated cap) and the dispatcher's per-server power budget shrinks,
// steering power-aware placement and the hotspot rebalancer away.
func (d *dispatcher) degradeStart(t float64, ev FaultEvent) error {
	if d.servers[ev.Server].retired {
		return nil
	}
	dspec := degradedSpec(d.spec, ev.Factor)
	return d.reprofile(t, ev.Server, &dspec)
}

// degradeEnd restores the nominal spec and budget at the window close.
func (d *dispatcher) degradeEnd(t float64, srv int) error {
	if d.servers[srv].spec == nil {
		return nil // crashed while degraded, or the start never applied
	}
	return d.reprofile(t, srv, nil)
}

// reprofile sets server srv's platform spec (nil = nominal), whose power
// cap is the server's power budget. A live engine is advanced to t
// first, so the settlement anchor is t however lazily the sweep advanced
// it.
func (d *dispatcher) reprofile(t float64, srv int, spec *platform.Spec) error {
	fs := d.servers[srv]
	fs.spec = spec
	if fs.eng != nil && !fs.retired {
		if err := d.advance(srv, t); err != nil {
			return err
		}
		if err := fs.eng.Reprofile(*d.specOf(fs)); err != nil {
			return fmt.Errorf("serve: reprofile server %d: %w", srv, err)
		}
		d.scheduleServer(srv)
	}
	d.refreshState(srv)
	return nil
}

// --- checkpoint & restore ---------------------------------------------

// checkpointFleet freezes every resident session's state at time t for
// crash recovery. Each session's snapshot is a typed in-memory value
// (transcode.Engine.SnapshotSession: the source's and the controller's
// typed states), a pure read of the engine, so the engine after the pass
// is bit-identical to never having checkpointed; no codec and no
// reflection run. A session whose state cannot be snapshotted keeps its
// previous checkpoint, if any.
func (d *dispatcher) checkpointFleet(t float64) error {
	if err := d.syncPoint(t); err != nil {
		return err
	}
	for i, fs := range d.servers {
		if fs.eng == nil || len(fs.resident) == 0 || fs.retired {
			continue
		}
		// Align the engine clock with the checkpoint instant so every
		// snapshot freezes the state at t, however lazily the sweep
		// advanced the engine.
		if err := d.advance(i, t); err != nil {
			return err
		}
		for _, id := range sessionsByArrival(fs, len(fs.resident)) {
			rec, ok := fs.resident[id]
			if !ok {
				continue // departed during the AdvanceTo above
			}
			if snap, err := fs.eng.SnapshotSession(id); err == nil {
				d.faults.snaps[rec.reqID] = faultSnap{snap: snap, at: t}
			}
		}
		d.scheduleServer(i)
	}
	return nil
}

// restoreSession re-admits one recovery entry on server choice at time
// t: from its checkpoint when it has one (the session resumes
// mid-stream from the frozen state, charged DefaultFaultRestoreStallSec
// on the interrupted frame), or from scratch otherwise (warm-seeded from
// the knowledge store like any fresh admission, keeping its original
// arrival identity). The checkpoint passed SnapshotSession's checks, so
// it is injected as is, with no codec; an injection error is a run
// error, as in a migration. Recovery is migration-like on the books: the
// session was already counted admitted and measured at its original
// admission, so only the recovery counters and the MTTR sketch move
// here.
func (d *dispatcher) restoreSession(e *queueEntry, choice int, t float64) error {
	rec := e.rec
	if st := e.snap; st != nil {
		st.StallSec = DefaultFaultRestoreStallSec
		// Busy time restarts here: the pre-crash span was credited to the
		// crashed server at the crash. The original seed baseline stays:
		// the session's eventual contribution must subtract what it was
		// seeded with, not re-donate it.
		rec.startAt = t
		if err := d.injectSession(choice, t, rec, st); err != nil {
			return fmt.Errorf("serve: restore session %d on server %d: %w", rec.reqID, choice, err)
		}
	} else {
		// Cold restart: a fresh admission under the original arrival
		// identity, warm-seeded from the knowledge store when on.
		if err := d.engineAt(choice, t); err != nil {
			return err
		}
		id, err := d.addSession(choice, e.req, d.knowledge.seed(rec.res), t)
		if err != nil {
			return err
		}
		fs := d.servers[choice]
		// Keep the original first-frame stamp: time-to-first-frame is a
		// user-facing latency and the user saw their first frame before
		// the crash.
		r := fs.resident[id]
		r.firstFrameAt = rec.firstFrameAt
		fs.resident[id] = r
	}
	d.active++
	f := d.faults
	f.recovered++
	f.mttrSum += t - e.crashAt
	f.recH.Add(t - e.crashAt)
	if d.stats.outcomes != nil {
		so := &d.stats.outcomes[rec.reqID]
		so.Recovered = true
		so.Server = choice
	}
	d.refreshState(choice)
	d.scheduleServer(choice)
	return nil
}
