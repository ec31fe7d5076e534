package experiments

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"mamut/internal/transcode"
)

// The oracle below reduces fully retained traces the way the harness did
// before it folded its windows as frames stream: clip each session's
// trace to the window, summarise it, replay it against the playout
// buffer, and integrate the merged, time-sorted power readings. It shares
// no code with the fold it checks.

// offlineSummary averages one clipped trace.
func offlineSummary(trace []transcode.Observation, target float64) transcode.SessionResult {
	s := transcode.SessionResult{Frames: len(trace)}
	if len(trace) == 0 {
		return s
	}
	for _, o := range trace {
		if o.FPS < target {
			s.Violations++
		}
		s.AvgFPS += o.FPS
		s.AvgPSNRdB += o.PSNRdB
		s.AvgBitrateMbps += o.BitrateMbps
		s.AvgThreads += float64(o.Settings.Threads)
		s.AvgFreqGHz += o.Settings.FreqGHz
		s.AvgQP += float64(o.Settings.QP)
	}
	n := float64(len(trace))
	s.ViolationPct = 100 * float64(s.Violations) / n
	s.AvgFPS /= n
	s.AvgPSNRdB /= n
	s.AvgBitrateMbps /= n
	s.AvgThreads /= n
	s.AvgFreqGHz /= n
	s.AvgQP /= n
	return s
}

// offlineStallPct replays one clipped trace against a playout that starts
// when frame startupFrames-1 (or the last frame) is transcoded.
func offlineStallPct(trace []transcode.Observation, target float64, startupFrames int) float64 {
	if len(trace) == 0 {
		return 0
	}
	period := 1 / target
	preroll := min(startupFrames-1, len(trace)-1)
	start := trace[preroll].Time
	stalls := 0
	for i, o := range trace {
		deadline := start
		if i > preroll {
			deadline = start + float64(i-preroll)*period
		}
		if late := o.Time - deadline; late > 1e-9 {
			stalls++
		}
	}
	return 100 * float64(stalls) / float64(len(trace))
}

// errOfflineNoSamples marks an interval the merged readings do not cover.
var errOfflineNoSamples = errors.New("no power samples")

// offlinePower integrates the step function of the merged, time-sorted
// power readings of traces over [from, to].
func offlinePower(traces [][]transcode.Observation, from, to float64) (float64, error) {
	if to <= from {
		return 0, fmt.Errorf("empty interval [%g,%g]", from, to)
	}
	type sample struct{ t, w float64 }
	var samples []sample
	for _, tr := range traces {
		for _, o := range tr {
			samples = append(samples, sample{o.Time, o.PowerW})
		}
	}
	if len(samples) == 0 {
		return 0, errOfflineNoSamples
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].t < samples[j].t })
	var energy, covered float64
	for i, s := range samples {
		segStart, segEnd := s.t, to
		if i+1 < len(samples) {
			segEnd = samples[i+1].t
		}
		if segEnd <= from || segStart >= to {
			continue
		}
		if segStart < from {
			segStart = from
		}
		if segEnd > to {
			segEnd = to
		}
		if segEnd > segStart {
			energy += s.w * (segEnd - segStart)
			covered += segEnd - segStart
		}
	}
	if first := samples[0].t; first > from {
		if lead := math.Min(first, to) - from; lead > 0 {
			energy += samples[0].w * lead
			covered += lead
		}
	}
	if covered <= 0 {
		return 0, errOfflineNoSamples
	}
	return energy / covered, nil
}

// offlineOutcome reduces clipped traces (indexed by session id; the
// first hr are HR streams) to a repetition's outcome, with power over the
// interval during which every session was inside its window.
func offlineOutcome(t *testing.T, clipped [][]transcode.Observation, hr int, runRes *transcode.Result) repOutcome {
	t.Helper()
	var out repOutcome
	from, to := 0.0, runRes.DurationSec
	for id, win := range clipped {
		if len(win) == 0 {
			t.Fatalf("session %d has an empty window", id)
		}
		from = math.Max(from, win[0].Time)
		to = math.Min(to, win[len(win)-1].Time)
		s := offlineSummary(win, transcode.DefaultTargetFPS)
		out.sums = append(out.sums, s)
		out.stalls = append(out.stalls, offlineStallPct(win, transcode.DefaultTargetFPS, bufferPreroll))
		if id < hr {
			out.hrSums = append(out.hrSums, s)
		} else {
			out.lrSums = append(out.lrSums, s)
		}
	}
	watts, err := offlinePower(clipped, from, to)
	if err != nil {
		watts = runRes.AvgPowerW
	}
	out.watts = watts
	return out
}

// runMeasured runs one repetition's sessions the way runRep does and
// returns what its frame observer folded.
func runMeasured(t *testing.T, w WorkloadSpec, label string, factory ControllerFactory, opts Options) *measured {
	t.Helper()
	eng, cfgs, err := buildRep(w, ScenarioII, label, factory, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := measure(eng, len(cfgs), opts.WarmupFrames, opts.MeasureFrames)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		if _, err := eng.AddSession(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.RunUntilAll(); err != nil {
		t.Fatal(err)
	}
	return m
}

// The harness folds each session's measured window as the engine emits
// its frames. Its outcome must equal the one the offline oracle computes
// from fully retained traces clipped to [WarmupFrames,
// WarmupFrames+MeasureFrames), and the power readings must fill their
// preallocated buffer without regrowing it.
func TestMeasuredWindowsMatchRetainedTraces(t *testing.T) {
	opts := tinyOptions()
	opts.WarmupFrames, opts.MeasureFrames = 300, 200
	w := WorkloadSpec{Name: "2HR1LR", HR: 2, LR: 1}
	from, to := opts.WarmupFrames, opts.WarmupFrames+opts.MeasureFrames
	integrated := 0 // approaches whose windows overlap, so power is integrated
	for _, a := range AllApproaches {
		t.Run(string(a), func(t *testing.T) {
			factory, err := Factory(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runRep(w, ScenarioII, string(a), factory, opts, 0)
			if err != nil {
				t.Fatal(err)
			}

			m := runMeasured(t, w, string(a), factory, opts)
			for id, win := range m.windows {
				if win.tally.Frames != opts.MeasureFrames || win.playout.Frames != opts.MeasureFrames {
					t.Errorf("session %d folded %d frames (%d in playout), want %d",
						id, win.tally.Frames, win.playout.Frames, opts.MeasureFrames)
				}
			}
			if want := w.Sessions() * opts.MeasureFrames; len(m.power) != want || cap(m.power) != want {
				t.Errorf("power readings len %d cap %d, want both %d", len(m.power), cap(m.power), want)
			}

			// Reference: a second engine's observer retains every frame,
			// then each session's trace is clipped.
			eng, cfgs, err := buildRep(w, ScenarioII, string(a), factory, opts, 0)
			if err != nil {
				t.Fatal(err)
			}
			traces := make([][]transcode.Observation, len(cfgs))
			eng.OnFrame(func(o transcode.Observation) { traces[o.SessionID] = append(traces[o.SessionID], o) })
			for _, cfg := range cfgs {
				if _, err := eng.AddSession(cfg); err != nil {
					t.Fatal(err)
				}
			}
			res, err := eng.RunUntilAll()
			if err != nil {
				t.Fatal(err)
			}
			clipped := make([][]transcode.Observation, len(res.Sessions))
			tail := false
			for i, trace := range traces {
				tail = tail || len(trace) > to
				for _, o := range trace {
					if o.FrameIndex >= from && o.FrameIndex < to {
						clipped[i] = append(clipped[i], o)
					}
				}
			}
			if !tail {
				t.Fatal("no session ran past its budget: the catch-up tail is untested")
			}
			if got.watts != res.AvgPowerW {
				integrated++
			}
			if want := offlineOutcome(t, clipped, w.HR, res); !reflect.DeepEqual(got, want) {
				t.Errorf("runRep outcome differs from the retained-trace reference:\n got %+v\nwant %+v", got, want)
			}
		})
	}
	if integrated == 0 {
		t.Error("every approach fell back to the run-average power: the window integration is untested")
	}
}

// Folding one measured frame allocates nothing: the tally and the stall
// count are in place, and the power readings fill a buffer sized for the
// whole window up front.
func TestMeasuredFoldAllocatesNothing(t *testing.T) {
	opts := tinyOptions()
	eng, err := transcode.NewEngine(opts.Spec, opts.Model, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := measure(eng, 1, 10, 200)
	if err != nil {
		t.Fatal(err)
	}
	o := transcode.Observation{FrameIndex: 10, Time: 1, FPS: 24, PowerW: 80}
	if allocs := testing.AllocsPerRun(100, func() {
		o.Time += 1.0 / 24
		m.add(o)
	}); allocs != 0 {
		t.Errorf("folding one frame allocates %v times, want 0", allocs)
	}
	if m.windows[0].tally.Frames != 101 {
		t.Errorf("folded %d frames, want 101", m.windows[0].tally.Frames)
	}
}
