package transcode

// Event scheduling primitives of the engine: one hand-rolled binary
// min-heap type, instantiated twice — for frame completions keyed by
// *virtual service time* and for session arrivals keyed by real time. It
// is concrete (no container/heap interface boxing) because push/pop sit
// on the hottest path of the simulator.
//
// Virtual service time is the engine clock that makes the completion heap
// stable under contention: it advances at the contention scale times
// real time, the uniform factor every active session's service rate is
// multiplied by. A frame that needs W cycles on a session with unscaled rate r
// completes exactly when the virtual clock reaches v_start + W/r, no
// matter how the contention scale moves while it encodes — so arrivals,
// departures and setting changes never re-key pending events, and an
// event costs O(log n).

// event is one pending occurrence: a frame completion (key = virtual
// service time) or a session arrival (key = real time).
type event struct {
	key float64
	// id is the session; it tie-breaks equal keys for determinism.
	id int
}

type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].id < h[j].id
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	h.siftDown(0)
	return top
}

// find returns the pending event of one session without removing it.
// Session migration is the only caller: the scan is O(n) but runs once
// per snapshot or extraction, never on the per-frame path.
func (h eventHeap) find(id int) (event, bool) {
	for _, ev := range h {
		if ev.id == id {
			return ev, true
		}
	}
	return event{}, false
}

// removeByID deletes the pending event of one session, if any. Like
// find, it is migration-only. Heap pop order depends only on the
// (key, id) total order, not on the array layout, so a removal leaves
// the remaining events' sequence unchanged.
func (h *eventHeap) removeByID(id int) {
	for i := range *h {
		if (*h)[i].id != id {
			continue
		}
		last := len(*h) - 1
		(*h)[i] = (*h)[last]
		*h = (*h)[:last]
		if i < last {
			h.fix(i)
		}
		return
	}
}

// fix restores the heap property around index i after its element was
// replaced: sift up if it beats its parent, otherwise sift down.
func (h *eventHeap) fix(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
	h.siftDown(i)
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		child := left
		if right := left + 1; right < n && h.less(right, left) {
			child = right
		}
		if !h.less(child, i) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}
