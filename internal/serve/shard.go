package serve

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"

	"mamut/internal/heaps"
)

// Sharded fleet dispatch: the expensive half of every dispatcher step —
// advancing the frame-level engine simulations to the next decision
// instant — parallelises across shards, while every decision that reads
// shared state stays on the coordinator. Every run has at least one
// shard: Config.Shards splits the fleet by server index (server i
// belongs to shard i mod S; autoscaled servers join on the same rule),
// and an unsharded run is the one-shard case of the same code. Each
// shard owns, for its servers only, the engines, the resident
// bookkeeping, its slice of the engine event heap, and a departure
// buffer. The coordinator advances shard 0 itself; shards 1..S-1 each
// run on a goroutine of their own.
//
// The run phases strictly:
//
//   - Advance (parallel): the coordinator opens a barrier, commands
//     every other shard with due work to advance its engines to the
//     target instant, and advances shard 0 inline meanwhile. Shards touch
//     disjoint state — their own engines, heaps, per-server counters and
//     buffers — so no lock is needed anywhere.
//   - Reconcile (serial): after every shard acknowledges, the coordinator
//     drains the buffers in shard-ID order, applying the global side of
//     each departure (active count, the departure batch, incremental
//     state and policy-index refresh), then proceeds with placement, the
//     batch fold, and any elastic or fault work.
//
// Departures are always buffered by the OnSessionEnd hook and
// reconciled by the coordinator: at the barrier close for a sweep, and
// on return from advance for the serial-phase engine steps (migrations,
// degrade edges, checkpoints, engines readied for an injected session).
//
// Determinism is by construction, not by tolerance: each engine receives
// the identical AdvanceTo sequence for any shard count (the shard heaps
// are an exact partition of one fleet heap, and engines are advanced to
// the same instants); the departure batch is sorted by arrival ID
// before folding, which erases the buffer merge order; the coalesced
// refreshState calls rebuild states idempotently from final per-server
// counts, and the policy indexes validate entry freshness on Place, so
// index-internal layout differences cannot change a placement. Hence
// `-shards S` output is bit-identical to `-shards 1` for every policy
// (including custom ones), knowledge reuse, and the elastic features —
// the equivalence tests and CI goldens pin this.

// shard is one fleet partition and, for shards 1..S-1, the channel
// endpoint of its goroutine.
type shard struct {
	id int
	// srv lists the owned server indexes (i mod shard count == id), in
	// ascending order; appended to by the coordinator when the fleet
	// scales out (serial phase only).
	srv []int
	// evts is the shard's partition of the engine event heap: the
	// entries of owned servers.
	evts heaps.Heap[fleetEvent]
	// cmd carries "advance to t" barrier commands; closing it stops the
	// goroutine. Nil for shard 0, which the coordinator advances.
	cmd chan float64
	// departs buffers the hook's departure records until the
	// coordinator reconciles them.
	departs []departRec
}

// shards is the dispatcher's sharded sweep: the fleet partitions (at
// least one), the barrier acknowledgement channel, the goroutine join,
// and the pprof label context shard 0's inline advance runs under.
type shards struct {
	list []*shard
	acks chan shardAck
	wg   sync.WaitGroup
	ctx0 context.Context
}

// shardAck is one shard's barrier acknowledgement.
type shardAck struct {
	id  int
	err error
}

// initShards partitions the fleet into max(1, min(Shards, servers))
// shards and spawns the goroutines of shards 1..S-1.
func (d *dispatcher) initShards() {
	n := max(1, min(d.cfg.Shards, len(d.servers)))
	sh := &d.shards
	sh.list = make([]*shard, n)
	sh.acks = make(chan shardAck, n-1) // one slot per shard goroutine
	for s := range sh.list {
		sh.list[s] = &shard{id: s}
	}
	for i, fs := range d.servers {
		d.joinShard(i, fs)
	}
	// Shard 0's engine time carries the same pprof label as a shard
	// goroutine's; the context is built once so the sweep allocates
	// nothing to set it.
	sh.ctx0 = pprof.WithLabels(context.Background(), pprof.Labels("mamut_shard", "0"))
	sh.wg.Add(n - 1)
	for _, s := range sh.list[1:] {
		s.cmd = make(chan float64, 1)
		go d.shardLoop(s)
	}
}

// joinShard assigns server i to shard i mod S (serial phase only).
func (d *dispatcher) joinShard(i int, fs *fleetServer) {
	sh := d.shards.list[i%len(d.shards.list)]
	fs.sh = sh
	sh.srv = append(sh.srv, i)
}

// stopShards closes the barrier channels and joins the goroutines. Safe
// to call after a mid-run error.
func (d *dispatcher) stopShards() {
	for _, sh := range d.shards.list[1:] {
		close(sh.cmd)
	}
	d.shards.wg.Wait()
}

// shardLoop is one shard goroutine: it advances the shard on each
// barrier command and acknowledges with the result. The pprof labels
// make -cpuprofile attribute sweep samples per shard.
func (d *dispatcher) shardLoop(sh *shard) {
	defer d.shards.wg.Done()
	pprof.Do(context.Background(), pprof.Labels("mamut_shard", strconv.Itoa(sh.id)), func(context.Context) {
		for t := range sh.cmd {
			d.shards.acks <- shardAck{id: sh.id, err: d.advanceShard(sh, t)}
		}
	})
}

// due reports whether the sweep to t has work for the shard: an owned
// engine event at or before t, or — for the test reference, which
// advances every live engine — always.
func (d *dispatcher) due(sh *shard, t float64) bool {
	return !d.indexed || sh.evts.Len() > 0 && sh.evts.Peek().key <= t
}

// advanceShard advances the shard's engines to t. The production sweep
// pops only the owned engines with due events — idle or empty engines
// are never touched — so it costs O(k log servers) for the k servers
// with events. Advancing an engine lazily is exact: the transcode engine
// settles its energy and virtual-clock integration at events, never
// at parks, so skipped parks cannot shift any result (see
// transcode.Engine.AdvanceTo). The test reference advances every owned
// live engine instead. All state touched (engines, the shard heap, the
// owned nextEvt entries, and — through the hooks — per-server counters
// and the shard buffer) is owned by this shard.
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

// sweepTo advances the fleet to the decision instant t: advance in
// parallel, reconcile in shard-ID order.
func (d *dispatcher) sweepTo(t float64) error {
	woken := 0
	for _, sh := range d.shards.list[1:] {
		if d.due(sh, t) {
			sh.cmd <- t
			woken++
		}
	}
	var firstErr error
	errShard := -1
	if sh0 := d.shards.list[0]; d.due(sh0, t) {
		pprof.SetGoroutineLabels(d.shards.ctx0)
		if err := d.advanceShard(sh0, t); err != nil {
			firstErr, errShard = err, 0
		}
		pprof.SetGoroutineLabels(context.Background())
	}
	for ; woken > 0; woken-- {
		// Drain every ack even after an error — the barrier must close
		// with all shards quiescent — and keep the lowest-shard error so
		// the failure surfaced is deterministic too.
		if ack := <-d.shards.acks; ack.err != nil && (errShard < 0 || ack.id < errShard) {
			firstErr, errShard = ack.err, ack.id
		}
	}
	if firstErr != nil {
		return firstErr
	}
	for _, sh := range d.shards.list {
		d.reconcile(sh)
	}
	return nil
}

// advance steps server i's engine to t in the serial phase and
// reconciles the departures that surfaced, so they are applied on
// return exactly as at a sweep's barrier close.
func (d *dispatcher) advance(i int, t float64) error {
	fs := d.servers[i]
	if err := fs.eng.AdvanceTo(t); err != nil {
		return err
	}
	d.reconcile(fs.sh)
	return nil
}

// reconcile applies the global side of every departure the shard
// buffered: the active count, the departure batch (folded, sorted by
// arrival ID, at the next sync point), the dead checkpoint, and the
// server's dispatch state. refreshState is idempotent over the final
// counts, so coalescing the per-departure refreshes is invisible.
func (d *dispatcher) reconcile(sh *shard) {
	for _, dr := range sh.departs {
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
	clear(sh.departs)
	sh.departs = sh.departs[:0]
}
