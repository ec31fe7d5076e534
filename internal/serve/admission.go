package serve

import (
	"fmt"

	"mamut/internal/metrics"
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
// timeline moment), never during the parallel drain, so queued
// runs keep the repo's determinism contract:
// bit-identical results for any worker count. With
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

// queue is the admission waiting room (queued admission only): the
// entries in arrival order, the order scratch, the outcome counters, the
// queue-wait and time-to-first-frame sketches, the decayed backlog view,
// and the backlog-observing side of the policy. With queueing off the
// entries stay empty and the sketches nil.
type queue struct {
	entries []queueEntry
	order   []int // scratch for queueOrder
	// settled counts the entries marked settled since the last compact.
	settled                   int
	queued, admitted, dropped int
	waitSum                   float64
	waitH, ttffH              *metrics.Histogram
	depthWin                  *metrics.DecayedMean
	observer                  BacklogObserver
}

// newQueue builds the waiting room for cfg (empty and inert when
// Capacity is 0); tau is the decay constant of the backlog view.
func newQueue(cfg QueueConfig, tau float64, pol Policy) (queue, error) {
	var q queue
	if cfg.Capacity == 0 {
		return q, nil
	}
	q.entries = make([]queueEntry, 0, cfg.Capacity)
	var err error
	// Queue wait is bounded by the deadline; time-to-first-frame adds
	// the first frame's contention-stretched service time on top, so
	// its range doubles the deadline (the tails clamp).
	if q.waitH, err = metrics.NewHistogram(0, cfg.DeadlineSec, 256); err != nil {
		return q, err
	}
	if q.ttffH, err = metrics.NewHistogram(0, 2*(cfg.DeadlineSec+1), 512); err != nil {
		return q, err
	}
	if q.depthWin, err = metrics.NewDecayedMean(tau); err != nil {
		return q, err
	}
	// Backlog observation is a queued-admission feature: with the queue
	// off the pipeline never consults the fleet state, keeping the
	// pre-queue arrival path untouched.
	q.observer, _ = pol.(BacklogObserver)
	return q, nil
}

// report fills the result's queue accounting (queueing on only).
func (q *queue) report(res *Result) {
	if q.waitH == nil {
		return
	}
	res.Queued, res.QueueAdmitted, res.QueueDropped = q.queued, q.admitted, q.dropped
	if res.Offered > 0 {
		res.QueueDroppedPct = 100 * float64(res.QueueDropped) / float64(res.Offered)
	}
	if res.Measured > 0 {
		res.AvgQueueWaitSec = q.waitSum / float64(res.Measured)
	}
	res.QueueWaitDist = quantiles(q.waitH)
	res.TTFFDist = quantiles(q.ttffH)
	res.Windowed.QueueDepth = q.depthWin.Value()
}

// sample feeds the decayed backlog view at an arrival decision.
func (q *queue) sample(t float64) {
	if q.depthWin != nil {
		q.depthWin.Add(t, float64(len(q.entries)))
	}
}

// foldTTFF folds a measured departure's time-to-first-frame: from the
// user's arrival (not admission) to the first frame completion; a
// session that never completed a frame is charged its whole span.
func (q *queue) foldTTFF(r departRec) {
	if q.ttffH == nil {
		return
	}
	ttff := r.endAt - r.arriveAt
	if r.firstFrameAt > 0 {
		ttff = r.firstFrameAt - r.arriveAt
	}
	q.ttffH.Add(ttff)
}

// settle marks an entry admitted, restored or dropped; the next compact
// removes it.
func (q *queue) settle(e *queueEntry) {
	e.settled = true
	q.settled++
}

// compact removes the settled entries, preserving the arrival order of
// the survivors — the one filter every path that settles entries ends
// with. It does nothing when no entry settled.
func (q *queue) compact() {
	if q.settled == 0 {
		return
	}
	kept := q.entries[:0]
	for _, e := range q.entries {
		if !e.settled {
			kept = append(kept, e)
		}
	}
	q.entries = kept
	q.settled = 0
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
	settled  bool // admitted, restored or dropped; removed at the next compact

	// Recovery fields (crash recovery only; see faults.go). rec is the
	// victim's resident bookkeeping at the crash (its warm-start baseline
	// included), snap its last checkpoint (nil = cold restart),
	// attempt/eligibleAt the retry-with-backoff state, and crashAt the
	// instant the MTTR clock started.
	recovery   bool
	rec        residentRec
	snap       *transcode.SessionState
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
	// An entry is still admittable at its deadline instant.
	for i := range d.queue.entries {
		if e := &d.queue.entries[i]; e.deadline < t {
			d.dropEntry(e)
		}
	}
	d.queue.compact()
	return d.admitQueued(t)
}

// dropEntry settles one queue entry leaving without a server: an
// ordinary arrival is queue-dropped; a recovery entry is a lost session
// (it was admitted long ago — the crash, not the waiting room, took it).
func (d *dispatcher) dropEntry(e *queueEntry) {
	d.queue.settle(e)
	if e.recovery {
		d.faults.lost++
		if d.stats.outcomes != nil {
			d.stats.outcomes[e.req.ID].Lost = true
		}
		return
	}
	d.queue.dropped++
	if d.stats.outcomes != nil {
		d.stats.outcomes[e.req.ID].Dropped = true
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
	if len(d.queue.entries) == 0 || d.liveSrv == 0 {
		return nil
	}
	for _, qi := range d.queueOrder() {
		e := &d.queue.entries[qi]
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
				if e.attempt >= DefaultFaultRetryMax {
					d.dropEntry(e)
					continue
				}
				e.eligibleAt = t + DefaultFaultBackoffSec
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
			d.queue.admitted++
		}
		d.queue.settle(e)
	}
	d.queue.compact()
	return nil
}

// queueOrder returns the indexes of the waiting entries in admission
// order: the preferred class's entries in arrival order, then the other
// class's (or plain arrival order for QueuePrioFIFO). The queue slice
// itself is already arrival-ordered.
func (d *dispatcher) queueOrder() []int {
	q := &d.queue
	order := q.order[:0]
	appendClass := func(hr bool) {
		for i := range q.entries {
			if (q.entries[i].req.Res == video.HR) == hr {
				order = append(order, i)
			}
		}
	}
	switch d.cfg.Queue.Priority {
	case QueuePrioFIFO:
		for i := range q.entries {
			order = append(order, i)
		}
	case QueuePrioLRFirst:
		appendClass(false)
		appendClass(true)
	default: // QueuePrioHRFirst
		appendClass(true)
		appendClass(false)
	}
	q.order = order
	return order
}

// enqueue parks an arrival in the waiting room.
func (d *dispatcher) enqueue(req SessionRequest, measured bool) {
	d.queue.entries = append(d.queue.entries, queueEntry{
		req:      req,
		measured: measured,
		deadline: req.ArriveAtSec + d.cfg.Queue.DeadlineSec,
	})
	d.queue.queued++
	if d.stats.outcomes != nil {
		d.stats.outcomes[req.ID] = SessionOutcome{Req: req, Server: -1, Measured: measured, Queued: true}
	}
}

// flushQueue drops every entry still waiting — the run ended and no
// capacity will ever free up for them.
func (d *dispatcher) flushQueue() {
	for i := range d.queue.entries {
		d.dropEntry(&d.queue.entries[i])
	}
	d.queue.compact()
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
		if d.queue.observer != nil {
			d.queue.observer.ObserveFleet(d.fleetState(now))
		}
		if d.idx != nil {
			choice = d.idx.Place(req)
		} else {
			choice = d.pol.Place(req, d.refreshScanStates())
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
	if d.servers[choice].eng == nil {
		if err := d.createEngine(choice); err != nil {
			return err
		}
	}
	if _, err := d.addSession(choice, req, d.knowledge.seed(req.Res), startAt); err != nil {
		return err
	}
	st := &d.stats
	st.admitted++
	if measured {
		st.measured++
	}
	st.admitCount[choice]++
	d.active++
	if q := &d.queue; q.waitH != nil && measured {
		// Queue wait folds at admission (0 for direct admissions), so the
		// sketch and the mean cover every measured admitted session.
		wait := startAt - req.ArriveAtSec
		q.waitSum += wait
		q.waitH.Add(wait)
	}
	if st.outcomes != nil {
		// Field-wise: a queued arrival's entry already carries Queued.
		// The departure fold completes it (frames, averages, SLO).
		so := &st.outcomes[req.ID]
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

// fleetState snapshots the fleet-level decision context for a
// backlog-observing policy. The queue slice is arrival-ordered, so its
// head is the oldest waiting entry.
func (d *dispatcher) fleetState(now float64) FleetState {
	st := FleetState{
		Now:           now,
		QueueDepth:    len(d.queue.entries),
		QueueCapacity: d.cfg.Queue.Capacity,
	}
	if len(d.queue.entries) > 0 {
		st.QueueOldestWaitSec = now - d.queue.entries[0].req.ArriveAtSec
	}
	return st
}
