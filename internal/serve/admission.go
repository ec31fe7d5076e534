package serve

import (
	"fmt"

	"mamut/internal/core"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

// Queued admission: the arrival path is an explicit pipeline instead of
// the monolithic place-or-reject decision the serving layer grew up
// with. Every arrival moment of the run's timeline flows
//
//	arrival ──► syncPoint ──► queueStep ──► placement attempt
//	                                            │
//	               ┌────── admitted ◄───────────┤ server found
//	               │                            │ fleet full
//	               │          ┌── queued ◄──────┤ (queue has room)
//	               │          │                 │ (queue full / off)
//	               │          │        rejected ◄┘
//	               │          ▼
//	               │   bounded waiting room — FIFO within a
//	               │   resolution-class priority order
//	               │          │
//	               ◄── admitted at a later decision point
//	               │          │
//	               │   deadline passes / run ends
//	               │          ▼
//	               │   deadline-dropped
//
// syncPoint steps the fleet to the decision instant and folds every
// departure that surfaced on the way (per record in arrival-ID order:
// knowledge contribution, then the streaming aggregates); queueStep then
// drops queue entries whose deadline passed and re-attempts admission
// for the waiting entries against the freed capacity. Decision points
// are the timeline moments at which the fleet state can have changed:
// every arrival (departures at or before it have freed slots), every
// elastic epoch (autoscale scale-out adds admittable servers, retirement
// removes them), every fault edge, and the horizon moment — a final pass
// at the workload horizon before the post-arrival drain.
//
// The outcome taxonomy is therefore queued / admitted /
// deadline-dropped / rejected: Rejected keeps meaning capacity-rejected
// at arrival (queue full, or queueing off), a queued arrival is later
// counted admitted or dropped — never rejected — and
// Offered == Admitted + Rejected + QueueDropped always holds.
//
// Everything here runs in the serial phase of the dispatcher (at a
// timeline moment), never during a parallel shard window, so queued
// runs keep the repo's determinism contract:
// bit-identical results for any worker and shard count. With
// Capacity == 0 the queue stays empty, every queue step is a no-op, and
// the dispatcher byte-reproduces the pre-queue output.

// Queued-admission defaults.
const (
	// DefaultQueueDeadlineSec is the per-entry queueing deadline when a
	// Config enables the queue without setting one: an arrival still
	// waiting this long after it arrived is dropped at the next decision
	// point.
	DefaultQueueDeadlineSec = 30.0
)

// QueuePriority orders the waiting room's admission attempts across
// resolution classes. Within a class the order is always FIFO (arrival
// ID), and admission is strictly head-of-line: the first entry of the
// priority order that fails to place ends the attempt round, so no
// waiting entry is ever overtaken.
type QueuePriority string

const (
	// QueuePrioHRFirst admits waiting HR sessions before LR ones — the
	// default: HR sessions carry the service's premium traffic and the
	// higher per-slot revenue.
	QueuePrioHRFirst QueuePriority = "hr-first"
	// QueuePrioLRFirst admits waiting LR sessions first (they fit more
	// easily and drain the backlog faster).
	QueuePrioLRFirst QueuePriority = "lr-first"
	// QueuePrioFIFO ignores classes entirely: strict arrival order.
	QueuePrioFIFO QueuePriority = "fifo"
)

// QueuePriorities lists the admission orders in deterministic order.
func QueuePriorities() []QueuePriority {
	return []QueuePriority{QueuePrioHRFirst, QueuePrioLRFirst, QueuePrioFIFO}
}

// QueueConfig bounds the fleet-level admission waiting room. The zero
// value disables queueing (drop-on-full, the pre-queue behaviour).
type QueueConfig struct {
	// Capacity is the maximum number of arrivals waiting at once; an
	// arrival that finds no server while the queue is at capacity is
	// rejected. 0 disables the queue entirely.
	Capacity int
	// DeadlineSec is the longest an entry may wait: entries whose
	// deadline has passed are dropped (QueueDropped, not Rejected) at
	// the next decision point. DefaultQueueDeadlineSec when 0.
	DeadlineSec float64
	// Priority orders admission attempts across resolution classes.
	// QueuePrioHRFirst when empty.
	Priority QueuePriority
}

// validate rejects unusable queue configs (after defaults).
func (q QueueConfig) validate() error {
	if err := checkFinite([]namedValue{{"queue deadline", q.DeadlineSec}}); err != nil {
		return err
	}
	if q.Capacity < 0 {
		return fmt.Errorf("serve: negative queue capacity %d", q.Capacity)
	}
	if q.Capacity == 0 {
		if q.DeadlineSec != 0 || q.Priority != "" {
			return fmt.Errorf("serve: queue deadline/priority set but queue capacity is 0 (queueing disabled)")
		}
		return nil
	}
	if q.DeadlineSec < 0 {
		return fmt.Errorf("serve: negative queue deadline %g", q.DeadlineSec)
	}
	switch q.Priority {
	case QueuePrioHRFirst, QueuePrioLRFirst, QueuePrioFIFO:
	default:
		return fmt.Errorf("serve: unknown queue priority %q (have %v)", q.Priority, QueuePriorities())
	}
	return nil
}

// queueEntry is one arrival waiting for capacity — or, under fault
// injection, a crash-interrupted session waiting to be restored. The
// queue slice keeps entry order (ascending arrival IDs for ordinary
// entries; recovery entries join at the tail at their crash instant, so
// FIFO means first-queued-first within a class either way) and
// FIFO-within-class needs no sorting.
type queueEntry struct {
	req      SessionRequest
	measured bool
	deadline float64
	settled  bool // scratch flag for the current attempt round (admitted, restored or dropped)

	// Recovery fields (crash recovery only; see faults.go). rec is the
	// victim's resident bookkeeping at the crash (its warm-start baseline
	// included), snap its last checkpoint (nil = cold restart),
	// attempt/eligibleAt the retry-with-backoff state, and crashAt the
	// instant the MTTR clock started.
	recovery   bool
	rec        residentRec
	snap       *transcode.SessionSnapshot
	attempt    int
	eligibleAt float64
	crashAt    float64
}

// syncPoint steps the fleet to the decision instant t and folds the
// one batch of departures surfaced on the way, in arrival-ID order.
// Shared by every timeline moment that decides, so every decision
// (placement, queue admission, scaling, faults) reads the same
// post-departure fleet state discipline.
func (d *dispatcher) syncPoint(t float64) error {
	if err := d.sweepTo(t); err != nil {
		return err
	}
	return d.foldBatch(t)
}

// queueStep runs one queue decision point at time t: expired entries
// drop, then waiting entries re-attempt admission against whatever
// capacity the departures (or topology changes) since the last point
// freed. Caller must have synced the fleet to t first.
func (d *dispatcher) queueStep(t float64) error {
	d.dropExpired(t)
	return d.admitQueued(t)
}

// dropExpired drops every entry whose deadline has passed (strictly
// before t: an entry is still admittable at its deadline instant),
// preserving the arrival order of the survivors.
func (d *dispatcher) dropExpired(t float64) {
	if len(d.queue) == 0 {
		return
	}
	kept := d.queue[:0]
	for _, e := range d.queue {
		if e.deadline < t {
			d.dropEntry(e)
			continue
		}
		kept = append(kept, e)
	}
	d.queue = kept
}

// dropEntry accounts one queue entry leaving without a server: an
// ordinary arrival is queue-dropped; a recovery entry is a lost session
// (it was admitted long ago — the crash, not the waiting room, took it).
func (d *dispatcher) dropEntry(e queueEntry) {
	if e.recovery {
		d.lostSess++
		if d.outcomes != nil {
			d.outcomes[e.req.ID].Lost = true
		}
		return
	}
	d.queueDropped++
	if d.outcomes != nil {
		d.outcomes[e.req.ID].Dropped = true
	}
}

// admitQueued attempts admission for the waiting entries in priority
// order (FIFO within class). The attempt is strictly head-of-line: the
// first eligible entry the policy cannot place ends the round, so a
// later entry never overtakes an earlier one of the same or a preferred
// class. Recovery entries differ in two ways: one backing off between
// retries is skipped without holding the line (it declined this round;
// nothing is overtaking it), and one that exhausts its retry budget is
// dropped in place — the entry is gone, so ending the round for it
// would starve everything behind a permanently unplaceable session.
// Draining servers admit nothing (their states report Full), and with
// the whole fleet decommissioned there is nothing to consult.
func (d *dispatcher) admitQueued(t float64) error {
	if len(d.queue) == 0 || d.liveSrv == 0 {
		return nil
	}
	settled := 0
	for _, qi := range d.queueOrder() {
		e := &d.queue[qi]
		if e.recovery && e.eligibleAt > t {
			continue
		}
		choice, err := d.choose(e.req, t)
		if err != nil {
			return err
		}
		if choice < 0 {
			if e.recovery {
				e.attempt++
				cl := d.recoveryClass(e.req.Res)
				if e.attempt >= cl.RetryMax {
					d.dropEntry(*e)
					e.settled = true
					settled++
					continue
				}
				e.eligibleAt = t + cl.BackoffSec
			}
			break
		}
		if e.recovery {
			if err := d.restoreSession(e, choice, t); err != nil {
				return err
			}
		} else {
			if err := d.admit(e.req, choice, t, e.measured); err != nil {
				return err
			}
			d.queueAdmitted++
		}
		e.settled = true
		settled++
	}
	if settled > 0 {
		kept := d.queue[:0]
		for _, e := range d.queue {
			if !e.settled {
				kept = append(kept, e)
			}
		}
		d.queue = kept
	}
	return nil
}

// queueOrder returns the indexes of the waiting entries in admission
// order: the preferred class's entries in arrival order, then the other
// class's (or plain arrival order for QueuePrioFIFO). The queue slice
// itself is already arrival-ordered.
func (d *dispatcher) queueOrder() []int {
	order := d.qOrder[:0]
	appendClass := func(hr bool) {
		for i := range d.queue {
			if (d.queue[i].req.Res == video.HR) == hr {
				order = append(order, i)
			}
		}
	}
	switch d.cfg.Queue.Priority {
	case QueuePrioFIFO:
		for i := range d.queue {
			order = append(order, i)
		}
	case QueuePrioLRFirst:
		appendClass(false)
		appendClass(true)
	default: // QueuePrioHRFirst
		appendClass(true)
		appendClass(false)
	}
	d.qOrder = order
	return order
}

// enqueue parks an arrival in the waiting room.
func (d *dispatcher) enqueue(req SessionRequest, measured bool) {
	d.queue = append(d.queue, queueEntry{
		req:      req,
		measured: measured,
		deadline: req.ArriveAtSec + d.cfg.Queue.DeadlineSec,
	})
	d.queuedTotal++
	if d.outcomes != nil {
		d.outcomes[req.ID] = SessionOutcome{Req: req, Server: -1, Measured: measured, Queued: true}
	}
}

// flushQueue drops every entry still waiting — the run ended and no
// capacity will ever free up for them.
func (d *dispatcher) flushQueue() {
	for _, e := range d.queue {
		d.dropEntry(e)
	}
	d.queue = d.queue[:0]
}

// choose asks the policy for req's server at decision instant now. A
// backlog-observing policy sees the fleet-level context first. Returns
// the chosen index, or -1 when the policy rejects or the chosen server
// is full; out-of-range returns are the contract violation the caller
// must fail loudly on, surfaced before any accounting.
func (d *dispatcher) choose(req SessionRequest, now float64) (int, error) {
	choice := -1
	if d.liveSrv > 0 {
		// With the whole fleet decommissioned (drain events can do that)
		// there is nothing to consult — and the round-robin modulus would
		// see an empty live view.
		if d.backlogObs != nil {
			d.backlogObs.ObserveFleet(d.fleetState(now))
		}
		if d.idx != nil {
			choice = d.idx.Place(req)
		} else {
			choice = d.pol.Place(req, d.refreshScanStates(req))
		}
	}
	if choice < -1 || choice >= len(d.states) {
		// A deliberate reject is -1 and every other return must be a
		// real server index: folding garbage into the rejection count
		// would silently corrupt RejectionPct for buggy policies.
		return -1, fmt.Errorf("serve: policy %q violated the placement contract: returned %d for arrival %d (valid: -1 to reject, 0..%d to place)",
			d.pol.Name(), choice, req.ID, len(d.states)-1)
	}
	if choice >= 0 && d.states[choice].Full() {
		choice = -1
	}
	return choice, nil
}

// admit places req on server choice at time startAt (the arrival instant
// for a direct admission, the decision instant for a queued one — the
// engine-side session starts then, while SLO measurement keeps keying
// off the arrival time).
func (d *dispatcher) admit(req SessionRequest, choice int, startAt float64, measured bool) error {
	fs := d.servers[choice]
	if fs.eng == nil {
		if err := d.createEngine(choice); err != nil {
			return err
		}
	}
	if _, err := fs.addSession(req, d.cfg, d.catalog, d.factory, d.seedAdmission(req.Res), startAt); err != nil {
		return err
	}
	d.admitted++
	if measured {
		d.measured++
	}
	d.admitCount[choice]++
	d.active++
	if d.queueOn && measured {
		// Queue wait folds at admission (0 for direct admissions), so the
		// sketch and the mean cover every measured admitted session.
		wait := startAt - req.ArriveAtSec
		d.qwSum += wait
		d.qwH.Add(wait)
	}
	if d.outcomes != nil {
		// Field-wise: a queued arrival's entry already carries Queued.
		// The departure fold completes it (frames, averages, SLO).
		so := &d.outcomes[req.ID]
		so.Req = req
		so.Server = choice
		so.Measured = measured
		so.QueueWaitSec = startAt - req.ArriveAtSec
	}
	d.refreshState(choice)
	// The admission scheduled an arrival event at this very instant on
	// the server's engine; re-key it so the next sweep steps the engine
	// through the session start.
	d.scheduleServer(choice)
	return nil
}

// sharedSeed is the read-only seed copy a class's admissions share, and
// the class's contribution count it was cloned at.
type sharedSeed struct {
	snap    *core.Snapshot
	version int
}

// seedAdmission picks the knowledge seed for one admission of class res
// and hands it to the controller factory (nil when knowledge reuse is
// off or the class is still cold). The store keeps merging afterwards,
// so the admission needs a frozen copy of the class's current snapshot,
// which serves both as the controller's seed (via the WarmStart
// closure) and as the baseline its departing contribution is measured
// against.
//
// The copy is shared: every admission of the class until its next
// contribution gets the same one, instead of holding a clone each. The
// class's contribution count versions it, and sessions seeded before a
// contribution keep the old copy, which nothing mutates (core.NewWarm
// and SubtractCounts only read their seed).
func (d *dispatcher) seedAdmission(res video.Resolution) *core.Snapshot {
	var seed *core.Snapshot
	if d.store != nil {
		if cur := d.store.Seed(res); cur != nil {
			version := d.store.Contributions(res)
			if sh, ok := d.seeds[res]; ok && sh.version == version {
				seed = sh.snap
			} else {
				cp := cur.Clone()
				seed = &cp
				d.seeds[res] = sharedSeed{snap: seed, version: version}
			}
			d.seeded++
		}
	}
	d.pendingSeed = seed
	return seed
}

// fleetState snapshots the fleet-level decision context for a
// backlog-observing policy. The queue slice is arrival-ordered, so its
// head is the oldest waiting entry.
func (d *dispatcher) fleetState(now float64) FleetState {
	st := FleetState{
		Now:           now,
		QueueDepth:    len(d.queue),
		QueueCapacity: d.cfg.Queue.Capacity,
	}
	if len(d.queue) > 0 {
		st.QueueOldestWaitSec = now - d.queue[0].req.ArriveAtSec
	}
	return st
}
