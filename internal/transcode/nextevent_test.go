package transcode

import (
	"math"
	"reflect"
	"testing"

	"mamut/internal/video"
)

// countingController wraps Static and counts completed frames, so tests
// can observe event processing without waiting for a final result.
type countingController struct {
	Static
	done int
}

func (c *countingController) OnFrameDone(Observation) { c.done++ }

// TestNextEventTime pins the contract the fleet dispatcher relies on:
// +Inf for an idle engine, the exact arrival time for a scheduled
// session, and the exact instant the next frame completion fires —
// advancing to just before it processes nothing, advancing to it
// processes the event.
func TestNextEventTime(t *testing.T) {
	eng, err := NewEngine(quietSpec(), quietModel(), 31)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.NextEventTime(); !math.IsInf(got, 1) {
		t.Fatalf("empty engine NextEventTime = %g, want +Inf", got)
	}

	set := Settings{QP: 32, Threads: 6, FreqGHz: 2.9}
	ctrl := &countingController{Static: Static{S: set}}
	if _, err := eng.AddSession(SessionConfig{
		Source: testSource(t, video.HR, 32), Controller: ctrl,
		Initial: set, FrameBudget: 5, StartAtSec: 2.0,
	}); err != nil {
		t.Fatal(err)
	}
	if got := eng.NextEventTime(); got != 2.0 {
		t.Fatalf("pending arrival NextEventTime = %g, want 2.0", got)
	}

	// Park well before the arrival: still nothing to process.
	if err := eng.AdvanceTo(1.5); err != nil {
		t.Fatal(err)
	}
	if got := eng.NextEventTime(); got != 2.0 {
		t.Fatalf("after park, NextEventTime = %g, want 2.0", got)
	}

	// Process the arrival; the next event is the first frame completion.
	if err := eng.AdvanceTo(2.0); err != nil {
		t.Fatal(err)
	}
	next := eng.NextEventTime()
	if math.IsInf(next, 1) || next <= 2.0 {
		t.Fatalf("first completion NextEventTime = %g, want finite > 2.0", next)
	}
	if err := eng.AdvanceTo(next * (1 - 1e-12)); err != nil {
		t.Fatal(err)
	}
	if ctrl.done != 0 {
		t.Fatalf("advancing short of the event completed %d frames", ctrl.done)
	}
	if got := eng.NextEventTime(); got != next {
		t.Fatalf("NextEventTime moved %g -> %g without an event", next, got)
	}
	if err := eng.AdvanceTo(next); err != nil {
		t.Fatal(err)
	}
	if ctrl.done != 1 {
		t.Fatalf("advancing to the event completed %d frames, want 1", ctrl.done)
	}

	// Drain: once every session departed, the engine is idle again.
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := eng.NextEventTime(); !math.IsInf(got, 1) {
		t.Fatalf("drained engine NextEventTime = %g, want +Inf", got)
	}
}

// TestParkInvarianceExact: slicing a run into arbitrary AdvanceTo steps
// must not change the result AT ALL — integration is settled lazily at
// events, so park boundaries cannot split the energy/thermal/virtual
// clock FP reductions. This exactness is what lets the serve dispatcher
// skip idle engines and still reproduce the all-server sweep
// byte-identically.
func TestParkInvarianceExact(t *testing.T) {
	spec := quietSpec()
	spec.Thermal = DefaultThermalForTest()
	build := func() *Engine {
		eng, err := NewEngine(spec, quietModel(), 85)
		if err != nil {
			t.Fatal(err)
		}
		sets := []Settings{
			{QP: 32, Threads: 10, FreqGHz: 3.2},
			{QP: 27, Threads: 8, FreqGHz: 2.6},
			{QP: 37, Threads: 4, FreqGHz: 2.3},
		}
		for i, set := range sets {
			if _, err := eng.AddSession(SessionConfig{
				Source: testSource(t, video.HR, int64(86+i)), Controller: &Static{S: set},
				Initial: set, FrameBudget: 100, StartAtSec: float64(i) * 1.3,
			}); err != nil {
				t.Fatal(err)
			}
		}
		return eng
	}

	whole := build()
	wantTr := recordTraces(whole)
	want, err := whole.Run()
	if err != nil {
		t.Fatal(err)
	}

	chunked := build()
	gotTr := recordTraces(chunked)
	for step := 0.3; step < want.DurationSec; step += 0.3 {
		if err := chunked.AdvanceTo(step); err != nil {
			t.Fatal(err)
		}
	}
	got, err := chunked.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) || !reflect.DeepEqual(wantTr, gotTr) {
		t.Error("chunked AdvanceTo run differs from the continuous run")
	}
}
