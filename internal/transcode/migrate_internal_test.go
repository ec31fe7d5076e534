package transcode

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
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

// TestSameSessionStateSeesEveryField changes each scalar reachable from a
// SessionState in turn — every field, array and trace element, preset
// and payload byte — and checks the undo fast path's comparison notices.
// A field added to SessionState without a comparison fails here.
func TestSameSessionStateSeesEveryField(t *testing.T) {
	base := sampleState(t)
	same := base.clone()
	if !sameSessionState(base, &same) {
		t.Fatal("a clone compares unequal")
	}
	leaves := 0
	for n := 0; ; n++ {
		c := base.clone()
		k := n
		name := mutateLeaf(t, reflect.ValueOf(&c).Elem(), &k, "SessionState")
		if name == "" {
			break
		}
		leaves++
		if sameSessionState(base, &c) {
			t.Fatalf("changing %s went unnoticed", name)
		}
	}
	if leaves < 60 {
		t.Fatalf("only %d leaves visited", leaves)
	}
	noPreset := base.clone()
	noPreset.Preset = nil
	if sameSessionState(base, &noPreset) {
		t.Fatal("dropping the preset went unnoticed")
	}
}

// mutateLeaf changes the n-th scalar reachable from v, depth first, and
// returns its path; it returns "" when v holds fewer than n+1 scalars.
func mutateLeaf(t *testing.T, v reflect.Value, n *int, path string) string {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := mutateLeaf(t, v.Field(i), n, path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if p := mutateLeaf(t, v.Index(i), n, fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
		return ""
	case reflect.Pointer:
		if v.IsNil() {
			return ""
		}
		return mutateLeaf(t, v.Elem(), n, path)
	}
	if *n > 0 {
		*n--
		return ""
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(v.Uint() ^ 1)
	case reflect.Float64:
		v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("%s: unhandled kind %v", path, v.Kind())
	}
	return path
}
