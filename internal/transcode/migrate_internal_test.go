package transcode

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/video"
)

// sampleState extracts a mid-stream session whose state reaches every
// field kind: a preset, a one-entry trace and a non-zero stall.
func sampleState(t *testing.T) *SessionState {
	t.Helper()
	eng, err := NewEngine(platform.DefaultSpec(), hevc.DefaultModel(), 17)
	if err != nil {
		t.Fatal(err)
	}
	src, err := video.NewStatefulGenerator(&video.Sequence{
		Name: "pin", Res: video.HR, Frames: 600, FrameRate: 24,
		BaseComplexity: 1.0, Dynamism: 0.5, MeanSceneLen: 48,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	set := Settings{QP: 32, Threads: 2, FreqGHz: eng.Server().Spec().MaxGHz()}
	preset := hevc.Slow
	id, err := eng.AddSession(SessionConfig{
		Source: src, Controller: &Static{S: set}, Initial: set, Preset: &preset,
		FrameBudget: 60, CollectTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AdvanceTo(0.5); err != nil {
		t.Fatal(err)
	}
	st, err := eng.ExtractSession(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Trace) == 0 {
		t.Fatal("sample session has no trace")
	}
	st.Trace = st.Trace[:1]
	st.StallSec = 0.1
	return st
}

// TestEncodeSessionStateMatchesEnvelopeMarshal pins the hand-written
// envelope to the encoding/json form DecodeSessionState parses.
func TestEncodeSessionStateMatchesEnvelopeMarshal(t *testing.T) {
	st := sampleState(t)
	got, err := EncodeSessionState(st)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	want, err := json.Marshal(sessionEnvelope{
		Version: sessionFormatVersion,
		SHA256:  hex.EncodeToString(sum[:]),
		Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("envelope differs from json.Marshal:\n got %.120s\nwant %.120s", got, want)
	}
}

// TestFreezeMatchesAppliedSettlement: freeze reads a running session as
// if the segment were settled to now, without settling it. Its VNow and
// DynEnergyJ are bit-identical to applying the settlement and folding
// the session's in-flight dynamic energy as a Result does. The sessions
// oversubscribe the machine, so the virtual clock runs slower than real
// time.
func TestFreezeMatchesAppliedSettlement(t *testing.T) {
	for _, at := range []float64{0.37, 1.23, 2.39} {
		eng, err := NewEngine(platform.DefaultSpec(), hevc.DefaultModel(), 19)
		if err != nil {
			t.Fatal(err)
		}
		spec := eng.Server().Spec()
		set := Settings{QP: 32, Threads: spec.LogicalCPUs(), FreqGHz: spec.MaxGHz()}
		for i := 0; i < 8; i++ {
			src, err := video.NewStatefulGenerator(&video.Sequence{
				Name: "settle", Res: video.HR, Frames: 600, FrameRate: 24,
				BaseComplexity: 1.0, Dynamism: 0.5, MeanSceneLen: 48,
			}, int64(i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.AddSession(SessionConfig{
				Source: src, Controller: &Static{S: set}, Initial: set,
				FrameBudget: 200, StartAtSec: 0.03 * float64(i),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.AdvanceTo(at); err != nil {
			t.Fatal(err)
		}
		if _, speed := eng.segRates(); speed >= 1 || eng.now == eng.segStart {
			t.Fatalf("t=%g: speed %g, segment [%g,%g]: want an oversubscribed, unsettled segment", at, speed, eng.segStart, eng.now)
		}
		frozen := make([]*SessionState, len(eng.sessions))
		for id := range eng.sessions {
			if frozen[id], _, err = eng.freeze("freeze", id); err != nil {
				t.Fatal(err)
			}
		}
		powerIdeal, speed := eng.segRates()
		eng.settle(eng.now, powerIdeal, speed)
		for id, s := range eng.sessions {
			st := frozen[id]
			if !st.Running {
				t.Fatalf("t=%g session %d not running", at, id)
			}
			if math.Float64bits(st.VNow) != math.Float64bits(eng.vnow) {
				t.Errorf("t=%g session %d: frozen vnow %v, settled %v", at, id, st.VNow, eng.vnow)
			}
			if want := s.result(eng.vnow).DynEnergyJ; math.Float64bits(st.DynEnergyJ) != math.Float64bits(want) {
				t.Errorf("t=%g session %d: frozen dynamic energy %v, settled %v", at, id, st.DynEnergyJ, want)
			}
		}
	}
}
