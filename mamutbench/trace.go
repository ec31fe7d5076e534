package main

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"mamut/internal/experiments"
	"mamut/internal/serve"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

// tracer collects the traced pass's per-layer numbers. Spans are coarse
// (one per call into a layer) and kept in memory; the fine boundaries —
// controller callbacks and fleet-index calls — are per-call aggregates,
// never per-frame spans. A nil *tracer is the untraced path: span returns
// a no-op and nothing is wrapped.
type tracer struct {
	start time.Time
	spans []span

	mu    sync.Mutex
	ctrls []*ctrlStats // one per wrapped controller, for the fold

	index indexStats

	frames int64 // frames of the fleets' session log; paper frames are in ctrls
}

// span is one coarse call into a layer, relative to the tracer's start.
type span struct {
	name       string
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	begin := time.Since(t.start)
	return func() {
		t.spans = append(t.spans, span{name: name, start: begin, end: time.Since(t.start)})
	}
}

// busy sums the durations of the spans whose name has the prefix.
func (t *tracer) busy(prefix string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if strings.HasPrefix(s.name, prefix) {
			d += s.end - s.start
		}
	}
	return d
}

// writeSpans prints the spans, one a line, under the pass span.
func (t *tracer) writeSpans(w io.Writer) {
	for _, s := range t.spans {
		fmt.Fprintf(w, "span %-52s parent=pass start_ms=%.3f dur_ms=%.3f\n",
			s.name, s.start.Seconds()*1e3, (s.end-s.start).Seconds()*1e3)
	}
}

// --- controllers (core and baseline layers) ---------------------------

// ctrlStats is a per-call aggregate: of one controller, or of a layer.
type ctrlStats struct {
	core          bool // MAMUT (core layer) rather than a baseline
	calls, frames int64
	busy          time.Duration
}

// tracedController counts and times a controller's callbacks. Each
// controller runs on one goroutine, so its counters are plain fields;
// the tracer keeps only the counters, so the controller is freed when
// its session ends, as it is unwrapped, and folds them after the pass.
type tracedController struct {
	inner transcode.Controller
	st    *ctrlStats
}

func (c *tracedController) Name() string { return c.inner.Name() }

func (c *tracedController) OnFrameStart(fs transcode.FrameStart) transcode.Settings {
	t := time.Now()
	s := c.inner.OnFrameStart(fs)
	c.st.busy += time.Since(t)
	c.st.calls++
	return s
}

func (c *tracedController) OnFrameDone(obs transcode.Observation) {
	t := time.Now()
	c.inner.OnFrameDone(obs)
	c.st.busy += time.Since(t)
	c.st.calls++
	c.st.frames++
}

// wrapFactory decorates experiments.Factory output. Repetitions build
// controllers concurrently, so registration takes the lock.
func (t *tracer) wrapFactory(core bool, f experiments.ControllerFactory) experiments.ControllerFactory {
	return func(res video.Resolution, initial transcode.Settings, rng *rand.Rand) (transcode.Controller, error) {
		ctrl, err := f(res, initial, rng)
		if err != nil {
			return nil, err
		}
		st := &ctrlStats{core: core}
		t.mu.Lock()
		t.ctrls = append(t.ctrls, st)
		t.mu.Unlock()
		return &tracedController{inner: ctrl, st: st}, nil
	}
}

// ctrlTotals folds the wrapped controllers into the core and baseline
// layers.
func (t *tracer) ctrlTotals() (core, base ctrlStats) {
	for _, c := range t.ctrls {
		dst := &base
		if c.core {
			dst = &core
		}
		dst.calls += c.calls
		dst.frames += c.frames
		dst.busy += c.busy
	}
	return core, base
}

// totalFrames is transcode.frames: every frame the traced pass simulated.
func (t *tracer) totalFrames() int64 {
	core, base := t.ctrlTotals()
	return t.frames + core.frames + base.frames
}

// --- placement (serve.index layer) ------------------------------------

// indexStats aggregates the fleet index's calls. The dispatcher calls
// the index from its serial phase only.
type indexStats struct {
	place, update int64
	busy          time.Duration
}

// wrapPolicy decorates a built-in policy. The wrapper implements
// serve.FleetIndexer — without it the dispatcher would fall back to its
// scan path — and forwards serve.BacklogObserver only when the wrapped
// policy implements it, so the dispatcher sees exactly the capabilities
// it would see unwrapped.
func (t *tracer) wrapPolicy(p serve.Policy) serve.Policy {
	fi, ok := p.(serve.FleetIndexer)
	if !ok {
		// All built-in policies index; a policy that does not is placed
		// by the scan path, and wrapping cannot change that.
		return p
	}
	tp := &tracedPolicy{FleetIndexer: fi, st: &t.index}
	if ob, ok := p.(serve.BacklogObserver); ok {
		return &observingPolicy{tracedPolicy: tp, ob: ob}
	}
	return tp
}

type tracedPolicy struct {
	serve.FleetIndexer
	st *indexStats
}

func (p *tracedPolicy) NewFleetIndex(states []serve.ServerState) serve.FleetIndex {
	return &tracedIndex{inner: p.FleetIndexer.NewFleetIndex(states), st: p.st}
}

type observingPolicy struct {
	*tracedPolicy
	ob serve.BacklogObserver
}

func (p *observingPolicy) ObserveFleet(fs serve.FleetState) { p.ob.ObserveFleet(fs) }

type tracedIndex struct {
	inner serve.FleetIndex
	st    *indexStats
}

func (x *tracedIndex) Update(s serve.ServerState) {
	t := time.Now()
	x.inner.Update(s)
	x.st.busy += time.Since(t)
	x.st.update++
}

func (x *tracedIndex) Place(req serve.SessionRequest) int {
	t := time.Now()
	i := x.inner.Place(req)
	x.st.busy += time.Since(t)
	x.st.place++
	return i
}
