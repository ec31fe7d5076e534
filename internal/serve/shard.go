package serve

import (
	"context"
	"runtime/pprof"
	"strconv"

	"mamut/internal/heaps"
)

// Sharded fleet dispatch: the expensive half of every dispatcher step —
// advancing the frame-level engine simulations to the next arrival or
// epoch instant — parallelises across per-shard goroutines, while every
// decision that reads shared state stays on the coordinator. Config.Shards
// splits the fleet by server index (server i belongs to shard i mod S;
// autoscaled servers join on the same rule), and each shard owns, for its
// servers only, the engines, the resident bookkeeping, its slice of the
// engine event heap, and two reconciliation buffers.
//
// The run phases strictly:
//
//   - Advance (parallel): the coordinator opens a barrier and commands
//     every shard with due work to advance its engines to the target
//     instant. Shards touch disjoint state — their own engines, heaps,
//     per-server counters and buffers — so no lock is needed anywhere.
//     Departures surfaced here are buffered shard-locally by the
//     OnSessionEnd hook instead of touching the dispatcher.
//   - Reconcile (serial): after every shard acknowledges, the coordinator
//     drains the buffers in shard-ID order, applying the global side of
//     each departure (active count, stats batch, incremental state and
//     policy-index refresh, knowledge-harvest hand-off), then proceeds
//     with placement, knowledge folds, streaming aggregation, and any
//     elastic epoch work — exactly the single-goroutine code.
//
// Determinism is by construction, not by tolerance: each engine receives
// the identical AdvanceTo sequence it would unsharded (the shard heaps
// are an exact partition of the global heap, and engines are advanced to
// the same instants); the departure batches are sorted by arrival ID
// before folding, which erases the buffer merge order; the coalesced
// refreshState calls rebuild states idempotently from final per-server
// counts, and the policy indexes validate entry freshness on Place, so
// index-internal layout differences cannot change a placement. Hence
// `-shards S` output is bit-identical to `-shards 1` for every policy
// (including custom ones), knowledge reuse, and the elastic features —
// the equivalence tests and CI goldens pin this.
//
// Elastic epochs need no special casing: drains, autoscaling and
// migrations already run in the serial phase, where the hook behaves
// inline (the parallel-window flag is down), so a migration's mid-epoch
// AdvanceTo surfaces departures with immediately visible effects.

// shard is one fleet partition and the channel endpoint of its goroutine.
type shard struct {
	id int
	// srv lists the owned server indexes (i mod shard count == id), in
	// ascending order; appended to by the coordinator when the fleet
	// scales out (serial phase only).
	srv []int
	// evts is the shard's partition of the engine event heap: exactly
	// the global heap's entries for owned servers.
	evts heaps.Heap[fleetEvent]
	// cmd carries "advance to t" barrier commands; closing it stops the
	// goroutine.
	cmd chan float64
	// departs and harvest buffer the parallel window's hook output until
	// the coordinator drains them at the barrier close.
	departs []departRec
	harvest []harvestEntry
}

// shardAck is one shard's barrier acknowledgement.
type shardAck struct {
	id  int
	err error
}

// initShards partitions the fleet and spawns the shard goroutines. With
// Shards <= 1 (or a fleet smaller than the shard count rounding down to
// one) the dispatcher stays single-goroutine and this is a no-op.
func (d *dispatcher) initShards() {
	n := d.cfg.Shards
	if n > len(d.servers) {
		n = len(d.servers)
	}
	if n <= 1 {
		return
	}
	d.shards = make([]*shard, n)
	d.shardAcks = make(chan shardAck, n)
	for s := range d.shards {
		d.shards[s] = &shard{id: s, cmd: make(chan float64, 1)}
	}
	for i, fs := range d.servers {
		sh := d.shards[i%n]
		fs.sh = sh
		sh.srv = append(sh.srv, i)
	}
	d.shardWG.Add(n)
	for _, sh := range d.shards {
		go d.shardLoop(sh)
	}
}

// stopShards closes the barrier channels and joins the goroutines. Safe
// to call on an unsharded dispatcher and after a mid-run error.
func (d *dispatcher) stopShards() {
	if d.shards == nil {
		return
	}
	for _, sh := range d.shards {
		close(sh.cmd)
	}
	d.shardWG.Wait()
	d.shards = nil
}

// shardLoop is one shard goroutine: it advances the shard on each
// barrier command and acknowledges with the result. The pprof labels
// make -cpuprofile attribute sweep samples per shard.
func (d *dispatcher) shardLoop(sh *shard) {
	defer d.shardWG.Done()
	pprof.Do(context.Background(), pprof.Labels("mamut_shard", strconv.Itoa(sh.id)), func(context.Context) {
		for t := range sh.cmd {
			d.shardAcks <- shardAck{id: sh.id, err: d.advanceShard(sh, t)}
		}
	})
}

// advanceShard advances the shard's engines to t — the shard-owned slice
// of exactly what the unsharded sweepTo does. The production sweep pops
// only the owned engines with due events; the test reference advances
// every owned live engine. Runs on the shard goroutine during the barrier window; all
// state touched (engines, the shard heap, the owned nextEvt entries, and
// — through the hooks — per-server counters and the shard buffers) is
// owned by this shard.
func (d *dispatcher) advanceShard(sh *shard, t float64) error {
	if !d.indexed {
		for _, i := range sh.srv {
			if eng := d.servers[i].eng; eng != nil {
				if err := eng.AdvanceTo(t); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for sh.evts.Len() > 0 && sh.evts.Peek().key <= t {
		ent := sh.evts.Pop()
		if ent.key != d.nextEvt[ent.id] {
			continue // stale: the engine was re-keyed after this push
		}
		if err := d.servers[ent.id].eng.AdvanceTo(t); err != nil {
			return err
		}
		d.scheduleServer(ent.id)
	}
	return nil
}

// sweepShards is the sharded sweepTo: advance in parallel, reconcile in
// shard-ID order.
func (d *dispatcher) sweepShards(t float64) error {
	// Open the barrier window. The flag flips only here, on the
	// coordinator, with happens-before to every shard through the cmd
	// send and back through the ack receive.
	d.parallel = true
	woken := 0
	for _, sh := range d.shards {
		// Wake only shards with an event due by t; the reference sweep
		// wakes every shard (each owns at least one server).
		if !d.indexed || sh.evts.Len() > 0 && sh.evts.Peek().key <= t {
			sh.cmd <- t
			woken++
		}
	}
	var firstErr error
	errShard := -1
	for ; woken > 0; woken-- {
		// Drain every ack even after an error — the barrier must close
		// with all shards quiescent — and keep the lowest-shard error so
		// the failure surfaced is deterministic too.
		if ack := <-d.shardAcks; ack.err != nil && (errShard < 0 || ack.id < errShard) {
			firstErr, errShard = ack.err, ack.id
		}
	}
	d.parallel = false
	if firstErr != nil {
		return firstErr
	}
	// Reconcile: apply the global side of every buffered departure. The
	// shard-ID merge order is fixed, and the downstream folds sort by
	// arrival ID anyway; refreshState is idempotent over the final
	// counts, so coalescing the per-departure refreshes is invisible.
	for _, sh := range d.shards {
		for _, dr := range sh.departs {
			d.applyDeparture(dr)
		}
		sh.departs = sh.departs[:0]
		if len(sh.harvest) > 0 {
			d.pending = append(d.pending, sh.harvest...)
			sh.harvest = sh.harvest[:0]
		}
	}
	return nil
}
