package transcode

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/video"
)

// sampleSource builds the stateful source of sampleState's session; a
// fresh one is what InjectSession restores the stream into.
func sampleSource(t *testing.T) video.Source {
	t.Helper()
	src, err := video.NewStatefulGenerator(&video.Sequence{
		Name: "pin", Res: video.HR, Frames: 600, FrameRate: 24,
		BaseComplexity: 1.0, Dynamism: 0.5, MeanSceneLen: 48,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// sampleState extracts a mid-stream session whose state reaches every
// field kind, a non-zero stall included.
func sampleState(t *testing.T) *SessionState {
	t.Helper()
	eng, err := NewEngine(platform.DefaultSpec(), hevc.DefaultModel(), 17)
	if err != nil {
		t.Fatal(err)
	}
	spec := eng.Server().Spec()
	set := Settings{QP: 32, Threads: 2, FreqGHz: spec.MaxGHz()}
	id, err := eng.AddSession(SessionConfig{
		Source: sampleSource(t), Controller: &Static{S: set}, Initial: set, FrameBudget: 60,
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
	if st.Frames == 0 {
		t.Fatal("sample session has transcoded no frame")
	}
	st.StallSec = 0.1
	return st
}

// TestEncodeSessionStateMatchesEnvelopeMarshal pins the envelope bytes
// to the encoding/json form of a sessionEnvelope, which
// DecodeSessionState parses.
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

// TestSessionStateWirePin pins the bytes of a whole EncodeSessionState
// artifact: a Static session extracted while running, with its content
// process mid-scene, to testdata/session_pin.json (-update regenerates
// it). Decoding the committed artifact and encoding it again reproduces
// it byte for byte, so a change to how any field is typed or written,
// the source state's included, shows here.
func TestSessionStateWirePin(t *testing.T) {
	golden := filepath.Join("testdata", "session_pin.json")
	st := sampleState(t)
	if !st.Running {
		t.Fatal("pinned session is not running")
	}
	got, err := EncodeSessionState(st)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading pin (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded state diverged from %s:\n got: %s\nwant: %s", golden, got, want)
	}
	var env struct {
		Payload struct {
			Source struct {
				SceneLeft  int  `json:"scene_left"`
				FirstFrame bool `json:"first_frame"`
			} `json:"source"`
		} `json:"payload"`
	}
	if err := json.Unmarshal(want, &env); err != nil {
		t.Fatal(err)
	}
	if src := env.Payload.Source; src.SceneLeft == 0 || src.FirstFrame {
		t.Fatalf("pinned source is not mid-scene: %+v", src)
	}
	dec, err := DecodeSessionState(want)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeSessionState(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatalf("decode+encode of %s is not byte-identical:\n got: %s\nwant: %s", golden, again, want)
	}
}

// TestValidateRejectsMissingSubstates: a state without its source or its
// controller state is refused by Validate, so neither the encoder nor
// InjectSession takes it.
func TestValidateRejectsMissingSubstates(t *testing.T) {
	for _, c := range []struct {
		edit func(*SessionState)
		want string
	}{
		{func(st *SessionState) { st.Source = video.SourceState{} }, "missing source state"},
		{func(st *SessionState) { st.Controller = nil }, "missing controller state"},
	} {
		st := sampleState(t)
		c.edit(st)
		if _, err := EncodeSessionState(st); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("encode: %v, want one mentioning %q", err, c.want)
		}
		eng, err := NewEngine(platform.DefaultSpec(), hevc.DefaultModel(), 23)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.InjectSession(sampleSource(t), &Static{}, st); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("inject: %v, want one mentioning %q", err, c.want)
		}
	}
}

// TestLegacyTraceStateResumes: a checkpoint written while sessions could
// still carry a trace has "collect_trace" and "trace" in its payload, and
// one written while they could override their encoder preset may carry
// "preset". It still decodes, to the same state as without them, and
// resumes to the same departure result and the same OnFrame stream.
func TestLegacyTraceStateResumes(t *testing.T) {
	st := sampleState(t)
	current, err := EncodeSessionState(st)
	if err != nil {
		t.Fatal(err)
	}
	var env sessionEnvelope
	if err := json.Unmarshal(current, &env); err != nil {
		t.Fatal(err)
	}
	obs, err := json.Marshal([]Observation{{
		SessionID: st.ID, FrameIndex: 0, Time: 0.05, DurationSec: 0.05, FPS: 20, InstFPS: 20,
		PSNRdB: 35, BitrateMbps: 3, PowerW: 90, Settings: st.Initial, Complexity: 1, SequenceName: "pin",
	}})
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(`{"preset":3,"collect_trace":true,"trace":`), obs...)
	payload = append(append(payload, ','), env.Payload[1:]...)
	sum := sha256.Sum256(payload)
	legacy, err := json.Marshal(sessionEnvelope{Version: 1, SHA256: hex.EncodeToString(sum[:]), Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(legacy, []byte(`"trace":[{"SessionID"`)) {
		t.Fatalf("legacy artifact lacks its trace: %.200s", legacy)
	}

	resume := func(data []byte) (*SessionState, SessionResult, []Observation) {
		t.Helper()
		st, err := DecodeSessionState(data)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(platform.DefaultSpec(), hevc.DefaultModel(), 23)
		if err != nil {
			t.Fatal(err)
		}
		var stream []Observation
		eng.OnFrame(func(o Observation) { stream = append(stream, o) })
		var ends []SessionEnd
		eng.OnSessionEnd(func(end SessionEnd) { ends = append(ends, end) })
		if _, err := eng.InjectSession(sampleSource(t), &Static{}, st); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if len(ends) != 1 {
			t.Fatalf("resumed session departed %d times", len(ends))
		}
		return st, ends[0].Result, stream
	}
	wantSt, wantRes, wantStream := resume(current)
	gotSt, gotRes, gotStream := resume(legacy)
	if !reflect.DeepEqual(gotSt, wantSt) {
		t.Error("legacy state decodes differently from the current one")
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Errorf("legacy session departs with %+v, current with %+v", gotRes, wantRes)
	}
	if !reflect.DeepEqual(gotStream, wantStream) {
		t.Error("legacy session's OnFrame stream differs from the current one's")
	}
	if len(wantStream) != st.FrameBudget-st.Frames {
		t.Errorf("resumed session streamed %d frames, want the %d left", len(wantStream), st.FrameBudget-st.Frames)
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
			if frozen[id], err = eng.freeze("freeze", id); err != nil {
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
