package experiments

import (
	"reflect"
	"testing"

	"mamut/internal/transcode"
)

// runWindows runs one repetition's sessions the way runRep does and
// returns the per-session windows its frame observer kept.
func runWindows(t *testing.T, w WorkloadSpec, label string, factory ControllerFactory, opts Options) [][]transcode.Observation {
	t.Helper()
	eng, cfgs, err := buildRep(w, ScenarioII, label, factory, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	windows := measureWindows(eng, len(cfgs), opts.WarmupFrames, opts.MeasureFrames)
	for _, cfg := range cfgs {
		if _, err := eng.AddSession(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.RunUntilAll(); err != nil {
		t.Fatal(err)
	}
	return windows
}

// The harness keeps each session's measured window through the engine's
// frame observer. Its outcome must equal the one computed from fully
// retained traces clipped to [WarmupFrames, WarmupFrames+MeasureFrames),
// and every window must fill its preallocated capacity without regrowing.
func TestMeasuredWindowsMatchRetainedTraces(t *testing.T) {
	opts := tinyOptions()
	opts.WarmupFrames, opts.MeasureFrames = 300, 200
	w := WorkloadSpec{Name: "2HR1LR", HR: 2, LR: 1}
	from, to := opts.WarmupFrames, opts.WarmupFrames+opts.MeasureFrames
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

			windows := runWindows(t, w, string(a), factory, opts)
			for id, win := range windows {
				if len(win) != opts.MeasureFrames || cap(win) != opts.MeasureFrames {
					t.Errorf("session %d window len %d cap %d, want both %d", id, len(win), cap(win), opts.MeasureFrames)
				}
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
			if !reflect.DeepEqual(windows, clipped) {
				t.Error("observer windows differ from the clipped retained traces")
			}
			want, err := summarizeRep(clipped, w.HR, res)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("runRep outcome differs from the retained-trace reference:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
