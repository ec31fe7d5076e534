package transcode

import (
	"testing"

	"mamut/internal/video"
)

// TestAddSessionMidRunMatchesPreRegistered: adding a session while the
// simulation is already running must be indistinguishable from having
// registered it with the same StartAtSec up front — the engine rng is
// consumed in AddSession order either way.
func TestAddSessionMidRunMatchesPreRegistered(t *testing.T) {
	set1 := Settings{QP: 32, Threads: 8, FreqGHz: 2.9}
	set2 := Settings{QP: 27, Threads: 6, FreqGHz: 3.2}
	mk := func(seed int64, s Settings, start float64) SessionConfig {
		return SessionConfig{
			Source: testSource(t, video.HR, seed), Controller: &Static{S: s},
			Initial: s, FrameBudget: 80, StartAtSec: start,
		}
	}

	// Batch setup: both sessions registered before the run.
	batch, err := NewEngine(quietSpec(), quietModel(), 77)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batch.AddSession(mk(201, set1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := batch.AddSession(mk(202, set2, 2.5)); err != nil {
		t.Fatal(err)
	}
	wantTr := recordTraces(batch)
	want, err := batch.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Live setup: the second session is added mid-run, before its arrival.
	live, err := NewEngine(quietSpec(), quietModel(), 77)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.AddSession(mk(201, set1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := live.AddSession(mk(202, set2, 2.5)); err != nil {
		t.Fatal(err)
	}
	gotTr := recordTraces(live)
	if err := live.AdvanceTo(1.0); err != nil {
		t.Fatal(err)
	}
	if live.Now() != 1.0 {
		t.Fatalf("Now() = %g after AdvanceTo(1)", live.Now())
	}
	got, err := live.Run()
	if err != nil {
		t.Fatal(err)
	}
	// AdvanceTo splits the energy integral at t=1 but changes no event, so
	// the runs agree bit-for-bit except for that one extra FP rounding.
	compareToGolden(t, toGolden(want, wantTr), got, gotTr, 1e-12)

	// A mid-run add whose StartAtSec already passed joins immediately.
	lateAdd, err := NewEngine(quietSpec(), quietModel(), 78)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lateAdd.AddSession(mk(203, set1, 0)); err != nil {
		t.Fatal(err)
	}
	lateTr := recordTraces(lateAdd)
	if err := lateAdd.AdvanceTo(2.0); err != nil {
		t.Fatal(err)
	}
	id, err := lateAdd.AddSession(mk(204, set2, 0.5)) // in the past
	if err != nil {
		t.Fatal(err)
	}
	res, err := lateAdd.Run()
	if err != nil {
		t.Fatal(err)
	}
	first := lateTr[id][0]
	if first.Time < 2.0 {
		t.Errorf("late-added session completed a frame at %.3fs, before it was added", first.Time)
	}
	if res.Sessions[id].Frames != 80 {
		t.Errorf("late-added session frames = %d, want 80", res.Sessions[id].Frames)
	}
}

// TestOnSessionEndHook: departures fire the hook exactly once per
// session, in completion order, with the departure time matching the last
// observation and the frame count matching a hookless run's; the hooked
// run retains no departed session. RunUntilAll never fires it (nobody
// departs).
func TestOnSessionEndHook(t *testing.T) {
	build := func() *Engine {
		eng, err := NewEngine(quietSpec(), quietModel(), 81)
		if err != nil {
			t.Fatal(err)
		}
		set := Settings{QP: 32, Threads: 6, FreqGHz: 2.9}
		for i, budget := range []int{30, 60, 90} {
			if _, err := eng.AddSession(SessionConfig{
				Source: testSource(t, video.HR, int64(82+i)), Controller: &Static{S: set},
				Initial: set, FrameBudget: budget,
			}); err != nil {
				t.Fatal(err)
			}
		}
		return eng
	}

	// The hookless run keeps every session for comparison.
	res, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	eng := build()
	tr := recordTraces(eng)
	var ends []SessionEnd
	eng.OnSessionEnd(func(end SessionEnd) { ends = append(ends, end) })
	hooked, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(hooked.Sessions) != 0 {
		t.Errorf("hooked run retained %d departed sessions", len(hooked.Sessions))
	}
	if len(ends) != 3 {
		t.Fatalf("hook fired %d times, want 3", len(ends))
	}
	prev := 0.0
	seen := map[int]bool{}
	for _, end := range ends {
		if end.Time < prev {
			t.Errorf("departures out of order at t=%g", end.Time)
		}
		prev = end.Time
		if seen[end.SessionID] {
			t.Errorf("session %d departed twice", end.SessionID)
		}
		seen[end.SessionID] = true
		sr := res.Sessions[end.SessionID]
		if end.Frames != sr.Frames {
			t.Errorf("session %d hook frames %d != result %d", end.SessionID, end.Frames, sr.Frames)
		}
		if last := tr[end.SessionID][len(tr[end.SessionID])-1].Time; end.Time != last {
			t.Errorf("session %d departed at %g, last frame at %g", end.SessionID, end.Time, last)
		}
		if end.Res != video.HR {
			t.Errorf("session %d hook res %v", end.SessionID, end.Res)
		}
	}

	all := build()
	fired := 0
	all.OnSessionEnd(func(SessionEnd) { fired++ })
	if _, err := all.RunUntilAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Errorf("RunUntilAll fired the departure hook %d times", fired)
	}
}

// TestAdvanceToChunksMatchSingleRun: stepping the simulation through many
// AdvanceTo calls must process the same events as one continuous run; the
// chunk boundaries only split the energy integration segments.
func TestAdvanceToChunksMatchSingleRun(t *testing.T) {
	spec := quietSpec()
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

	// Chunk strictly inside the run: parking the clock beyond the last
	// event would (correctly) extend the duration with idle time.
	chunked := build()
	gotTr := recordTraces(chunked)
	for step := 0.7; step < want.DurationSec; step += 0.7 {
		if err := chunked.AdvanceTo(step); err != nil {
			t.Fatal(err)
		}
		if chunked.Now() != step {
			t.Fatalf("Now() = %g after AdvanceTo(%g)", chunked.Now(), step)
		}
	}
	got, err := chunked.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Chunking splits FP reductions; events themselves are identical.
	compareToGolden(t, toGolden(want, wantTr), got, gotTr, 1e-9)
}

// TestHookDrivenAddSession: an OnSessionEnd hook that immediately refills
// the server with a fresh session — the continuous-churn pattern the serve
// layer builds on.
func TestHookDrivenAddSession(t *testing.T) {
	eng, err := NewEngine(quietSpec(), quietModel(), 91)
	if err != nil {
		t.Fatal(err)
	}
	set := Settings{QP: 32, Threads: 6, FreqGHz: 2.9}
	if _, err := eng.AddSession(SessionConfig{
		Source: testSource(t, video.LR, 92), Controller: &Static{S: set},
		Initial: set, FrameBudget: 40,
	}); err != nil {
		t.Fatal(err)
	}
	tr := recordTraces(eng)
	var results []SessionResult
	refills := 0
	eng.OnSessionEnd(func(end SessionEnd) {
		results = append(results, end.Result)
		if refills >= 2 {
			return
		}
		refills++
		if _, err := eng.AddSession(SessionConfig{
			Source: testSource(t, video.LR, int64(93+refills)), Controller: &Static{S: set},
			Initial: set, FrameBudget: 40, StartAtSec: end.Time,
		}); err != nil {
			t.Errorf("refill add failed: %v", err)
		}
	})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sessions) != 0 {
		t.Errorf("hooked run retained %d departed sessions", len(res.Sessions))
	}
	if len(results) != 3 {
		t.Fatalf("sessions = %d, want 3 (1 seed + 2 refills)", len(results))
	}
	for i, sr := range results {
		if sr.ID != i {
			t.Errorf("departure %d is session %d", i, sr.ID)
		}
		if sr.Frames != 40 {
			t.Errorf("session %d frames = %d, want 40", i, sr.Frames)
		}
	}
	// Refill i starts where its predecessor ended.
	for i := 1; i < 3; i++ {
		prevEnd := tr[i-1][39].Time
		firstDone := tr[i][0].Time
		if firstDone <= prevEnd {
			t.Errorf("refill %d completed a frame at %g, before predecessor ended at %g", i, firstDone, prevEnd)
		}
	}
}
