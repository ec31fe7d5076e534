package serve

// The fleet sweep: the expensive half of every dispatcher step is
// advancing the frame-level engine simulations to the next decision
// instant, and every decision that reads shared state waits for it. The
// run phases strictly:
//
//   - Advance: sweepTo pops the engines with due events off the
//     dispatcher's event heap and advances each to the decision instant.
//     A departure surfacing meanwhile touches only its server's state;
//     the OnSessionEnd hook buffers the record in d.ended, so the fleet
//     state and policy index are refreshed once the sweep is done, in
//     the order the committed goldens were recorded under.
//   - Reconcile: the dispatcher applies the global side of each buffered
//     departure (active count, the departure batch, incremental state and
//     policy-index refresh), then proceeds with placement, the batch
//     fold, and any elastic or fault work.
//
// Departures are reconciled at the end of every sweep and on return from
// advance for the serial-phase engine steps (migrations, degrade edges,
// checkpoints, engines readied for an injected session).
//
// Determinism is by construction: every engine receives the AdvanceTo
// sequence its own events call for, and the departure batch is sorted by
// arrival ID before folding. The one parallel phase of a run is the
// post-timeline drain in finish, on the Workers pool.

// sweepTo advances the fleet to the decision instant t and reconciles
// the departures that surfaced. The production sweep pops only the
// engines with due events — idle or empty engines are never touched — so
// it costs O(k log servers) for the k servers with events. Advancing an
// engine lazily is exact: the transcode engine settles its energy and
// virtual-clock integration at events, never at parks, so skipped parks
// cannot shift any result (see transcode.Engine.AdvanceTo). The test
// reference keeps no heap and advances every live engine instead, in
// server order.
func (d *dispatcher) sweepTo(t float64) error {
	if !d.indexed {
		for _, fs := range d.servers {
			if fs.eng != nil {
				if err := fs.eng.AdvanceTo(t); err != nil {
					return err
				}
			}
		}
	}
	for d.evts.Len() > 0 && d.evts.Peek().key <= t {
		ent := d.evts.Pop()
		if ent.key != d.nextEvt[ent.id] {
			continue // stale: the engine was re-keyed after this push
		}
		if err := d.servers[ent.id].eng.AdvanceTo(t); err != nil {
			return err
		}
		d.scheduleServer(ent.id)
	}
	d.reconcile()
	return nil
}

// advance steps server i's engine to t in the serial phase and
// reconciles the departures that surfaced, so they are applied on
// return exactly as at the end of a sweep.
func (d *dispatcher) advance(i int, t float64) error {
	if err := d.servers[i].eng.AdvanceTo(t); err != nil {
		return err
	}
	d.reconcile()
	return nil
}

// reconcile applies the global side of every departure the hook
// buffered: the active count, the departure batch (folded, sorted by
// arrival ID, at the next sync point), the dead checkpoint, and the
// server's dispatch state. refreshState is idempotent over the final
// counts, so coalescing the per-departure refreshes is invisible.
func (d *dispatcher) reconcile() {
	for _, dr := range d.ended {
		d.active--
		d.departs = append(d.departs, dr)
		if d.faults != nil {
			// The session completed; its crash checkpoint is dead weight.
			delete(d.faults.snaps, dr.reqID)
		}
		d.refreshState(dr.server)
	}
	// Drop the buffered harvest pointers so departed learners can be
	// collected before the buffer slots are reused.
	clear(d.ended)
	d.ended = d.ended[:0]
}
