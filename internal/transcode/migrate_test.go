package transcode_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mamut/internal/baseline"
	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

func migSequence(res video.Resolution, name string) *video.Sequence {
	return &video.Sequence{
		Name: name, Res: res, Frames: 600, FrameRate: 24,
		BaseComplexity: 1.0, Dynamism: 0.5, MeanSceneLen: 48,
	}
}

// migEngine builds an engine with n sessions whose sources and
// controllers all support migration. Construction is fully determined by
// seed, so two calls build bit-identical engines.
func migEngine(t *testing.T, n int, seed int64) *transcode.Engine {
	t.Helper()
	return migEngineOn(t, platform.DefaultSpec(), n, seed)
}

// migEngineOn is migEngine on the given platform spec.
func migEngineOn(t *testing.T, spec platform.Spec, n int, seed int64) *transcode.Engine {
	t.Helper()
	eng, err := transcode.NewEngine(spec, hevc.DefaultModel(), seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := addMigSession(t, eng, i, seed); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

func addMigSession(t *testing.T, eng *transcode.Engine, i int, seed int64) (int, error) {
	t.Helper()
	res := video.HR
	if i%2 == 1 {
		res = video.LR
	}
	spec := eng.Server().Spec()
	src, err := video.NewStatefulGenerator(migSequence(res, "mig"), seed*100+int64(i))
	if err != nil {
		t.Fatal(err)
	}
	initial := transcode.Settings{QP: 32, Threads: 2, FreqGHz: spec.MaxGHz()}
	hcfg := baseline.DefaultHeuristicConfig(res, spec, 6)
	ctrl, err := baseline.NewHeuristic(hcfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	return eng.AddSession(transcode.SessionConfig{
		Source:      src,
		Controller:  ctrl,
		Initial:     initial,
		FrameBudget: 120,
		StartAtSec:  float64(i) * 0.4,
	})
}

// TestExtractInjectCrossEngine moves a session mid-stream onto a second
// engine and checks the stream continues: the frame cursor advances from
// where it stopped, the budget completes on the destination, and the
// accumulators carry over.
func TestExtractInjectCrossEngine(t *testing.T) {
	const seed = 77
	src := migEngine(t, 2, seed)
	if err := src.AdvanceTo(2.5); err != nil {
		t.Fatal(err)
	}
	st, err := src.ExtractSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Running || st.Frames == 0 {
		t.Fatalf("expected a mid-stream running session, got %+v", st)
	}

	dst, err := transcode.NewEngine(platform.DefaultSpec(), hevc.DefaultModel(), seed+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.AdvanceTo(src.Now()); err != nil {
		t.Fatal(err)
	}
	spec := dst.Server().Spec()
	newSrc, err := video.NewStatefulGenerator(migSequence(st.Res, "mig"), 1)
	if err != nil {
		t.Fatal(err)
	}
	hcfg := baseline.DefaultHeuristicConfig(st.Res, spec, 6)
	ctrl, err := baseline.NewHeuristic(hcfg, st.Initial)
	if err != nil {
		t.Fatal(err)
	}
	var ended []transcode.SessionEnd
	dst.OnSessionEnd(func(se transcode.SessionEnd) { ended = append(ended, se) })
	id, err := dst.InjectSession(newSrc, ctrl, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.AdvanceTo(src.Now() + 60); err != nil {
		t.Fatal(err)
	}
	if len(ended) != 1 || ended[0].SessionID != id {
		t.Fatalf("migrated session did not depart on destination: %+v", ended)
	}
	if got := ended[0].Result.Frames; got != st.FrameBudget {
		t.Fatalf("migrated session completed %d frames, budget %d", got, st.FrameBudget)
	}
	if ended[0].Result.DynEnergyJ <= st.DynEnergyJ {
		t.Fatalf("dynamic energy did not carry over: end %g <= extract %g",
			ended[0].Result.DynEnergyJ, st.DynEnergyJ)
	}
	// The source engine must keep running without the extracted session:
	// the remaining session completes its own budget and departs.
	var srcEnded []transcode.SessionEnd
	src.OnSessionEnd(func(se transcode.SessionEnd) { srcEnded = append(srcEnded, se) })
	if err := src.AdvanceTo(src.Now() + 60); err != nil {
		t.Fatal(err)
	}
	if len(srcEnded) != 1 || srcEnded[0].SessionID != 1 {
		t.Fatalf("remaining session did not depart cleanly on source: %+v", srcEnded)
	}
}

// TestMigrationFrameContinuity: a migrated stream neither repeats nor
// skips a frame. The source engine's OnFrame stream of the session up to
// extraction, followed by the destination's after injection, covers
// frame indices 0..FrameBudget-1 exactly once, in order, with times that
// never decrease on either engine.
func TestMigrationFrameContinuity(t *testing.T) {
	const seed = 77
	src := migEngine(t, 2, seed)
	var before []transcode.Observation
	src.OnFrame(func(o transcode.Observation) {
		if o.SessionID == 0 {
			before = append(before, o)
		}
	})
	if err := src.AdvanceTo(2.5); err != nil {
		t.Fatal(err)
	}
	st, err := src.ExtractSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Running || st.Frames == 0 {
		t.Fatalf("expected a mid-stream running session, got %+v", st)
	}

	dst, err := transcode.NewEngine(platform.DefaultSpec(), hevc.DefaultModel(), seed+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.AdvanceTo(src.Now()); err != nil {
		t.Fatal(err)
	}
	newSrc, err := video.NewStatefulGenerator(migSequence(st.Res, "mig"), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := baseline.NewHeuristic(baseline.DefaultHeuristicConfig(st.Res, dst.Server().Spec(), 6), st.Initial)
	if err != nil {
		t.Fatal(err)
	}
	var after []transcode.Observation
	dst.OnFrame(func(o transcode.Observation) { after = append(after, o) })
	if _, err := dst.InjectSession(newSrc, ctrl, st); err != nil {
		t.Fatal(err)
	}
	if err := dst.AdvanceTo(src.Now() + 60); err != nil {
		t.Fatal(err)
	}

	if len(before) != st.Frames {
		t.Errorf("source streamed %d frames before extraction, state holds %d", len(before), st.Frames)
	}
	frames := append(append([]transcode.Observation(nil), before...), after...)
	if len(frames) != st.FrameBudget {
		t.Fatalf("source and destination streamed %d+%d frames, budget %d", len(before), len(after), st.FrameBudget)
	}
	for i, o := range frames {
		if o.FrameIndex != i {
			t.Fatalf("streamed frame %d has index %d", i, o.FrameIndex)
		}
	}
	for _, part := range [][]transcode.Observation{before, after} {
		for i := 1; i < len(part); i++ {
			if part[i].Time < part[i-1].Time {
				t.Errorf("frame %d at t=%g streamed after t=%g", part[i].FrameIndex, part[i].Time, part[i-1].Time)
			}
		}
	}
	if len(after) > 0 && after[0].Time < src.Now() {
		t.Errorf("destination completed frame %d at t=%g, before the extraction at t=%g", after[0].FrameIndex, after[0].Time, src.Now())
	}
}

// TestExtractSessionStallPenalty pins the migration-cost model: a stalled
// injection delays the in-flight frame's completion.
func TestExtractSessionStallPenalty(t *testing.T) {
	const seed = 9
	mkDst := func(stall float64) float64 {
		src := migEngine(t, 1, seed)
		if err := src.AdvanceTo(2.0); err != nil {
			t.Fatal(err)
		}
		st, err := src.ExtractSession(0)
		if err != nil {
			t.Fatal(err)
		}
		st.StallSec = stall
		dst, err := transcode.NewEngine(platform.DefaultSpec(), hevc.DefaultModel(), seed+5)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.AdvanceTo(src.Now()); err != nil {
			t.Fatal(err)
		}
		newSrc, err := video.NewStatefulGenerator(migSequence(st.Res, "mig"), 1)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := baseline.NewHeuristic(baseline.DefaultHeuristicConfig(st.Res, dst.Server().Spec(), 6), st.Initial)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.InjectSession(newSrc, ctrl, st); err != nil {
			t.Fatal(err)
		}
		return dst.NextEventTime()
	}
	plain := mkDst(0)
	stalled := mkDst(0.5)
	if stalled <= plain {
		t.Fatalf("stalled completion %g not later than plain %g", stalled, plain)
	}
	if diff := stalled - plain; diff < 0.4 || diff > 0.6 {
		t.Fatalf("0.5s stall shifted completion by %g", diff)
	}
}

// TestExtractSessionTerminalState pins the PR 3 terminal-state guard
// extension: after RunUntilAll the sessions are frozen mid-frame and
// extraction must be rejected with a clear error.
func TestExtractSessionTerminalState(t *testing.T) {
	eng := migEngine(t, 2, 3)
	if _, err := eng.RunUntilAll(); err != nil {
		t.Fatal(err)
	}
	_, err := eng.ExtractSession(0)
	if err == nil {
		t.Fatal("ExtractSession succeeded on a finished engine")
	}
	if !strings.Contains(err.Error(), "frozen mid-frame") || !strings.Contains(err.Error(), "terminal") {
		t.Fatalf("terminal-state error not descriptive: %v", err)
	}
}

// TestExtractSessionErrors covers the remaining rejection paths.
func TestExtractSessionErrors(t *testing.T) {
	eng := migEngine(t, 1, 5)
	if _, err := eng.ExtractSession(7); err == nil {
		t.Fatal("extraction of unknown id succeeded")
	}
	if _, err := eng.ExtractSession(-1); err == nil {
		t.Fatal("extraction of negative id succeeded")
	}

	// A source without snapshot support is rejected.
	spec := eng.Server().Spec()
	plain, err := video.NewGenerator(migSequence(video.HR, "mig"), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	id, err := eng.AddSession(transcode.SessionConfig{
		Source:      plain,
		Controller:  &transcode.Static{S: transcode.Settings{QP: 32, Threads: 1, FreqGHz: spec.MaxGHz()}},
		Initial:     transcode.Settings{QP: 32, Threads: 1, FreqGHz: spec.MaxGHz()},
		FrameBudget: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ExtractSession(id); err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("extraction with plain source: %v", err)
	}

	// Extracting twice is rejected, and the error names the cause.
	withState, err := video.NewStatefulGenerator(migSequence(video.HR, "mig"), 2)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := eng.AddSession(transcode.SessionConfig{
		Source:      withState,
		Controller:  &transcode.Static{S: transcode.Settings{QP: 32, Threads: 1, FreqGHz: spec.MaxGHz()}},
		Initial:     transcode.Settings{QP: 32, Threads: 1, FreqGHz: spec.MaxGHz()},
		FrameBudget: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ExtractSession(id2); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ExtractSession(id2); err == nil || !strings.Contains(err.Error(), "already extracted") {
		t.Fatalf("double extraction: %v", err)
	}
}

// TestSessionStateDecodeRejectsCorruption mirrors the knowledge artifact
// corruption tests: truncated and bit-flipped payloads are rejected,
// valid ones round-trip bit-identically.
func TestSessionStateDecodeRejectsCorruption(t *testing.T) {
	eng := migEngine(t, 1, 11)
	if err := eng.AdvanceTo(1.5); err != nil {
		t.Fatal(err)
	}
	st, err := eng.ExtractSession(0)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := transcode.EncodeSessionState(st)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := transcode.DecodeSessionState(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	for _, pos := range []int{len(blob) / 4, len(blob) / 2, len(blob) - 10} {
		bad := append([]byte(nil), blob...)
		switch bad[pos] {
		case '7':
			bad[pos] = '3'
		default:
			bad[pos] = '7'
		}
		if bytes.Equal(bad, blob) {
			continue
		}
		if _, err := transcode.DecodeSessionState(bad); err == nil {
			t.Fatalf("bit-flip at %d accepted", pos)
		}
	}

	back, err := transcode.DecodeSessionState(blob)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded state is the frozen one with its controller state in
	// JSON form.
	want := *st
	ctrl, err := json.Marshal(st.Controller)
	if err != nil {
		t.Fatal(err)
	}
	want.Controller = json.RawMessage(ctrl)
	if !reflect.DeepEqual(back, &want) {
		t.Fatalf("decoded state differs:\n got %+v\nwant %+v", back, &want)
	}
	blob2, err := transcode.EncodeSessionState(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encoded state is not byte-identical")
	}
}

// FuzzSessionStateDecode feeds arbitrary bytes to the decoder: it must
// reject or return a state that validates — never panic, never return
// invalid state.
func FuzzSessionStateDecode(f *testing.F) {
	eng, err := transcode.NewEngine(platform.DefaultSpec(), hevc.DefaultModel(), 13)
	if err != nil {
		f.Fatal(err)
	}
	src, err := video.NewStatefulGenerator(migSequence(video.HR, "mig"), 3)
	if err != nil {
		f.Fatal(err)
	}
	spec := eng.Server().Spec()
	set := transcode.Settings{QP: 32, Threads: 2, FreqGHz: spec.MaxGHz()}
	id, err := eng.AddSession(transcode.SessionConfig{
		Source: src, Controller: &transcode.Static{S: set}, Initial: set, FrameBudget: 30,
	})
	if err != nil {
		f.Fatal(err)
	}
	if err := eng.AdvanceTo(1); err != nil {
		f.Fatal(err)
	}
	st, err := eng.ExtractSession(id)
	if err != nil {
		f.Fatal(err)
	}
	blob, err := transcode.EncodeSessionState(st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/3])
	f.Add([]byte(`{"format_version":1,"sha256":"x","payload":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := transcode.DecodeSessionState(data)
		if err != nil {
			return
		}
		if verr := st.Validate(); verr != nil {
			t.Fatalf("decoder returned invalid state: %v", verr)
		}
	})
}
