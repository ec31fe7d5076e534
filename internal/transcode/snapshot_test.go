package transcode_test

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/rl"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

// TestSnapshotSessionEncodesLikeExtract: a snapshot encodes to exactly
// the bytes of extracting the session and encoding that state, for
// running sessions and for a session whose arrival is still pending.
// Each extraction runs on a fresh twin engine advanced to the snapshot
// instant, so the snapshotted engine and the twin start in step.
func TestSnapshotSessionEncodesLikeExtract(t *testing.T) {
	const seed = 31
	eng := migEngine(t, 3, seed)
	instants := []float64{0.5, 2.1}
	for i, at := range instants {
		if err := eng.AdvanceTo(at); err != nil {
			t.Fatal(err)
		}
		running := 0
		for id := 0; id < 3; id++ {
			snap, err := eng.SnapshotSession(id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := transcode.EncodeSessionState(snap)
			if err != nil {
				t.Fatal(err)
			}
			twin := migEngine(t, 3, seed)
			for _, step := range instants[:i+1] {
				if err := twin.AdvanceTo(step); err != nil {
					t.Fatal(err)
				}
			}
			st, err := twin.ExtractSession(id)
			if err != nil {
				t.Fatal(err)
			}
			want, err := transcode.EncodeSessionState(st)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("t=%g session %d: snapshot encoding differs from the extracted state's:\n got %.200s\nwant %.200s", at, id, got, want)
			}
			if st.Running {
				running++
			}
		}
		// Sessions start 0.4 s apart: at 0.5 s the third has not arrived.
		if wantRunning := map[float64]int{0.5: 2, 2.1: 3}[at]; running != wantRunning {
			t.Fatalf("t=%g: %d running sessions snapshotted, want %d", at, running, wantRunning)
		}
	}
}

// TestSnapshotSessionLeavesEngineBitIdentical: snapshotting is a pure
// read. An engine whose live sessions are snapshotted over and over —
// before and after arrivals, mid-frame — finishes with a Result
// DeepEqual to an untouched twin's.
func TestSnapshotSessionLeavesEngineBitIdentical(t *testing.T) {
	const seed = 37
	t.Run("default", func(t *testing.T) {
		spec := platform.DefaultSpec()
		base, snapped := migEngineOn(t, spec, 3, seed), migEngineOn(t, spec, 3, seed)
		for _, at := range []float64{0, 0.3, 0.5, 1.7, 3.3, 4.9} {
			for _, e := range []*transcode.Engine{base, snapped} {
				if err := e.AdvanceTo(at); err != nil {
					t.Fatal(err)
				}
			}
			for id := 0; id < 3; id++ {
				if _, err := snapped.SnapshotSession(id); err != nil {
					t.Fatalf("t=%g session %d: %v", at, id, err)
				}
			}
		}
		want, err := base.Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := snapped.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshotted engine's result differs from the untouched twin's:\n got %+v\nwant %+v", got, want)
		}
	})
}

// plainController steers a fixed setting and has no state export, so its
// sessions cannot be migrated or snapshotted.
type plainController struct{ s transcode.Settings }

func (c *plainController) Name() string                                         { return "plain" }
func (c *plainController) OnFrameStart(transcode.FrameStart) transcode.Settings { return c.s }
func (c *plainController) OnFrameDone(transcode.Observation)                    {}

// nanState is nanController's state: a NaN in an exported field, which
// encoding/json refuses to marshal.
type nanState struct{ Gain []float64 }

// nanController is a Static whose state holds a NaN in an exported
// field. It restores whatever nanState it is handed.
type nanController struct {
	transcode.Static
	restored nanState
}

func (c *nanController) ControllerState() any { return nanState{[]float64{1, math.NaN()}} }

func (c *nanController) RestoreControllerState(state any) error {
	st, err := transcode.ResolveControllerState[nanState](state)
	c.restored = st
	return err
}

func (c *nanController) restoredNaN() bool {
	return len(c.restored.Gain) == 2 && math.IsNaN(c.restored.Gain[1])
}

// rowNaNState is rowNaNController's state: a learner snapshot whose
// unexported rows hold a NaN Q value.
type rowNaNState struct{ Agent rl.Snapshot }

// rowNaNController is a Static whose state is a learner snapshot with a
// NaN Q value. It restores whatever rowNaNState it is handed.
type rowNaNController struct {
	transcode.Static
	learner  *rl.Learner
	restored rowNaNState
}

func (c *rowNaNController) ControllerState() any { return rowNaNState{c.learner.Snapshot()} }

func (c *rowNaNController) RestoreControllerState(state any) error {
	st, err := transcode.ResolveControllerState[rowNaNState](state)
	c.restored = st
	return err
}

func (c *rowNaNController) restoredNaN() bool {
	q := c.restored.Agent.Tables().Q
	return len(q) > 2 && math.IsNaN(q[2]) // state 1, action 0
}

// nilStateController is a Static that exports no state, which Validate
// refuses as a missing controller state. freeze checks it last, after
// the running segment's settlement has been computed.
type nilStateController struct{ transcode.Static }

func (c *nilStateController) ControllerState() any { return nil }

// TestSnapshotSessionErrorsMatchExtract: SnapshotSession rejects exactly
// what ExtractSession rejects, with the same message under its own name
// — unknown ids, sessions that departed before and after a departure
// hook was installed (the second leave the engine through it), already
// extracted and non-migratable sessions, a controller that exports no
// state, a finished engine. A NaN in a controller field or in a learner
// snapshot's rows is not a freeze error: the floats are the ones the
// live session holds, and InjectSession restores them as they are.
// EncodeSessionState refuses them, where the state would leave the
// process.
func TestSnapshotSessionErrorsMatchExtract(t *testing.T) {
	eng := migEngine(t, 2, 5)
	spec := eng.Server().Spec()
	set := transcode.Settings{QP: 32, Threads: 1, FreqGHz: spec.MaxGHz()}
	add := func(src video.Source, ctrl transcode.Controller, budget int) int {
		t.Helper()
		id, err := eng.AddSession(transcode.SessionConfig{Source: src, Controller: ctrl, Initial: set, FrameBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	stateful := func(seed int64) video.Source {
		t.Helper()
		src, err := video.NewStatefulGenerator(migSequence(video.HR, "mig"), seed)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	plain, err := video.NewGenerator(migSequence(video.HR, "mig"), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	plainSrc := add(plain, &transcode.Static{S: set}, 200)
	plainCtrl := add(stateful(2), &plainController{s: set}, 200)
	nan := add(stateful(3), &nanController{Static: transcode.Static{S: set}}, 200)
	learner, err := rl.NewLearner(rl.DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	learner.SetQ(1, 0, math.NaN())
	nanRow := add(stateful(7), &rowNaNController{Static: transcode.Static{S: set}, learner: learner}, 200)
	nilState := add(stateful(8), &nilStateController{transcode.Static{S: set}}, 200)
	extracted := add(stateful(4), &transcode.Static{S: set}, 200)
	short := add(stateful(5), &transcode.Static{S: set}, 2)
	if err := eng.AdvanceTo(1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ExtractSession(extracted); err != nil {
		t.Fatal(err)
	}
	eng.OnSessionEnd(func(transcode.SessionEnd) {})
	discarded := add(stateful(6), &transcode.Static{S: set}, 2)
	if err := eng.AdvanceTo(2); err != nil {
		t.Fatal(err)
	}

	same := func(name string, id int, wantSub string) {
		t.Helper()
		_, snapErr := eng.SnapshotSession(id)
		_, extErr := eng.ExtractSession(id)
		if snapErr == nil || extErr == nil {
			t.Fatalf("%s: snapshot error %v, extract error %v; want both to fail", name, snapErr, extErr)
		}
		if got := strings.Replace(snapErr.Error(), "SnapshotSession", "ExtractSession", 1); got != extErr.Error() {
			t.Errorf("%s: snapshot error %q, extract error %q", name, snapErr, extErr)
		}
		if !strings.Contains(snapErr.Error(), wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, snapErr, wantSub)
		}
	}
	same("unknown id", 99, "no such session")
	same("negative id", -1, "no such session")
	same("plain source", plainSrc, "snapshot")
	same("plain controller", plainCtrl, "does not support migration")
	same("already extracted", extracted, "already extracted")
	same("departed", short, "already departed")
	same("discarded", discarded, "discarded")
	same("nil controller state", nilState, "missing controller state")
	// Neither failure removed the session.
	if _, err := eng.SnapshotSession(nilState); err == nil || !strings.Contains(err.Error(), "missing controller state") {
		t.Errorf("snapshot after a failed extraction: %v", err)
	}

	for _, c := range []struct {
		name string
		id   int
		seed int64
		ctrl interface {
			transcode.StatefulController
			restoredNaN() bool
		}
	}{
		{"NaN controller field", nan, 3, &nanController{}},
		{"NaN learner row", nanRow, 7, &rowNaNController{}},
	} {
		snap, err := eng.SnapshotSession(c.id)
		if err != nil {
			t.Fatalf("%s: snapshot: %v", c.name, err)
		}
		st, err := eng.ExtractSession(c.id)
		if err != nil {
			t.Fatalf("%s: extraction: %v", c.name, err)
		}
		for _, frozen := range []*transcode.SessionState{snap, st} {
			if _, err := transcode.EncodeSessionState(frozen); err == nil || !strings.Contains(err.Error(), "NaN") {
				t.Errorf("%s: encoding: %v, want a NaN refusal", c.name, err)
			}
			fresh, err := transcode.NewEngine(spec, hevc.DefaultModel(), 5)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.InjectSession(stateful(c.seed), c.ctrl, frozen); err != nil {
				t.Errorf("%s: injection: %v", c.name, err)
			}
			if !c.ctrl.restoredNaN() {
				t.Errorf("%s: injected controller did not restore the NaN", c.name)
			}
		}
	}

	if _, err := eng.RunUntilAll(); err != nil {
		t.Fatal(err)
	}
	same("finished engine", 0, "terminal")
}

// TestFailedExtractionLeavesEngineBitIdentical: an extraction that
// refuses the controller state mutates nothing, though freeze has
// already computed the running segment's settlement. It is attempted
// mid-segment at several instants on an oversubscribed engine, where
// even an applied settlement (the first step of a successful extraction)
// would change later floats; the engine still finishes with a Result
// DeepEqual to an untouched twin's.
func TestFailedExtractionLeavesEngineBitIdentical(t *testing.T) {
	const seed = 43
	build := func() (*transcode.Engine, int) {
		eng := migEngine(t, 2, seed)
		spec := eng.Server().Spec()
		// Sessions on every hardware thread oversubscribe the machine, so
		// the virtual clock runs slower than real time.
		set := transcode.Settings{QP: 32, Threads: spec.LogicalCPUs(), FreqGHz: spec.MaxGHz()}
		id := -1
		for i := int64(0); i < 6; i++ {
			src, err := video.NewStatefulGenerator(migSequence(video.HR, "mig"), seed+i)
			if err != nil {
				t.Fatal(err)
			}
			var ctrl transcode.Controller = &transcode.Static{S: set}
			if i == 0 {
				ctrl = &nilStateController{transcode.Static{S: set}}
			}
			sid, err := eng.AddSession(transcode.SessionConfig{Source: src, Controller: ctrl, Initial: set, FrameBudget: 120})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				id = sid
			}
		}
		return eng, id
	}
	base, _ := build()
	failed, refused := build()
	for _, at := range []float64{0.37, 0.81, 1.23, 1.71, 2.39, 3.07, 3.53, 4.11} {
		for _, e := range []*transcode.Engine{base, failed} {
			if err := e.AdvanceTo(at); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := failed.ExtractSession(refused); err == nil || !strings.Contains(err.Error(), "missing controller state") {
			t.Fatalf("t=%g: extraction without a controller state: %v", at, err)
		}
	}
	want, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := failed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engine after failed extractions differs from the untouched twin:\n got %+v\nwant %+v", got, want)
	}
}
