package transcode

import (
	"reflect"
	"testing"

	"mamut/internal/video"
)

// streamEngine builds a three-session engine for the streaming-hook
// tests.
func streamEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := NewEngine(quietSpec(), quietModel(), 91)
	if err != nil {
		t.Fatal(err)
	}
	set := Settings{QP: 32, Threads: 6, FreqGHz: 2.9}
	for i, budget := range []int{30, 60, 90} {
		if _, err := eng.AddSession(SessionConfig{
			Source: testSource(t, video.HR, int64(92+i)), Controller: &Static{S: set},
			Initial: set, FrameBudget: budget,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// departureRuns runs streamEngine twice over the same mix: once without
// hooks (want) and once with an OnSessionEnd hook that collects each
// departed session's result by ID (got, alongside the hooked run's own
// Result).
func departureRuns(t *testing.T) (want, hooked *Result, got map[int]SessionResult) {
	t.Helper()
	want, err := streamEngine(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Sessions) != 3 {
		t.Fatalf("hookless run kept %d sessions, want 3", len(want.Sessions))
	}

	eng := streamEngine(t)
	got = map[int]SessionResult{}
	eng.OnSessionEnd(func(end SessionEnd) {
		if _, dup := got[end.SessionID]; dup {
			t.Errorf("session %d departed twice", end.SessionID)
		}
		got[end.SessionID] = end.Result
	})
	hooked, err = eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Sessions) {
		t.Fatalf("hook delivered %d results, want %d", len(got), len(want.Sessions))
	}
	return want, hooked, got
}

// TestSessionEndResult: each result a departure hook delivers equals the
// session's entry in a hookless run's Result.Sessions bit for bit — the
// property that lets a dispatcher fold sessions at departure.
func TestSessionEndResult(t *testing.T) {
	want, _, got := departureRuns(t)
	for _, sr := range want.Sessions {
		if !reflect.DeepEqual(got[sr.ID], sr) {
			t.Errorf("session %d: depart-time result differs from the hookless run's", sr.ID)
		}
	}
}

// TestDiscardDeparted: an engine with a departure hook hands every
// departed session out through the hook only, so the hooked run's
// Result.Sessions is empty, and the engine aggregates are the same as a
// hookless run's.
func TestDiscardDeparted(t *testing.T) {
	want, res, _ := departureRuns(t)
	if len(res.Sessions) != 0 {
		t.Errorf("hooked run retained %d session results", len(res.Sessions))
	}
	if res.EnergyJ != want.EnergyJ || res.DurationSec != want.DurationSec {
		t.Errorf("the hook changed engine aggregates: energy %g vs %g, duration %g vs %g",
			res.EnergyJ, want.EnergyJ, res.DurationSec, want.DurationSec)
	}
}

// TestOnFrameStreamsEveryObservation: the per-frame hook sees every
// frame the engine books, once, in emission order. It is checked against
// the end-of-run summaries, which the engine accumulates apart from the
// hook: each session's observation count equals its Frames, its frame
// indices run 0, 1, 2, ..., and folding its observations in order
// reproduces its Violations and AvgFPS exactly.
func TestOnFrameStreamsEveryObservation(t *testing.T) {
	eng := streamEngine(t)
	var streamed []Observation
	eng.OnFrame(func(obs Observation) { streamed = append(streamed, obs) })
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sr := range res.Sessions {
		total += sr.Frames
	}
	if len(streamed) != total {
		t.Fatalf("streamed %d observations, sessions transcoded %d frames", len(streamed), total)
	}
	// Emission times are non-decreasing — the property the streaming
	// power integrator relies on.
	for i := 1; i < len(streamed); i++ {
		if streamed[i].Time < streamed[i-1].Time {
			t.Fatalf("observation %d at t=%g emitted after t=%g", i, streamed[i].Time, streamed[i-1].Time)
		}
	}
	perSession := map[int][]Observation{}
	for _, obs := range streamed {
		perSession[obs.SessionID] = append(perSession[obs.SessionID], obs)
	}
	for _, sr := range res.Sessions {
		obs := perSession[sr.ID]
		if len(obs) != sr.Frames {
			t.Errorf("session %d: streamed %d observations, result has %d frames", sr.ID, len(obs), sr.Frames)
			continue
		}
		violations, sumFPS := 0, 0.0
		for i, o := range obs {
			if o.FrameIndex != i {
				t.Errorf("session %d: observation %d has frame index %d", sr.ID, i, o.FrameIndex)
			}
			if o.FPS < DefaultTargetFPS {
				violations++
			}
			sumFPS += o.FPS
		}
		if violations != sr.Violations || sumFPS/float64(len(obs)) != sr.AvgFPS {
			t.Errorf("session %d: streamed fold gives %d violations, avg FPS %v; result %d, %v",
				sr.ID, violations, sumFPS/float64(len(obs)), sr.Violations, sr.AvgFPS)
		}
	}
}
