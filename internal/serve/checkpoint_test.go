package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"mamut/internal/baseline"
	"mamut/internal/core"
	"mamut/internal/experiments"
	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/transcode"
	"mamut/internal/video"
	"mamut/internal/xrand"
)

// mamutCheckpointEngine builds an engine with one MAMUT session, wrapped
// as the dispatcher wraps it, and runs it for a minute of simulated time
// so all three learners hold populated tables. It returns the session id
// and its controller.
func mamutCheckpointEngine(tb testing.TB) (*transcode.Engine, int, *statefulMAMUT) {
	tb.Helper()
	spec, model := platform.DefaultSpec(), hevc.DefaultModel()
	eng, err := transcode.NewEngine(spec, model, 5)
	if err != nil {
		tb.Fatal(err)
	}
	seq, err := video.DefaultCatalog().Get("Kimono")
	if err != nil {
		tb.Fatal(err)
	}
	src, err := video.NewStatefulGenerator(seq, 11)
	if err != nil {
		tb.Fatal(err)
	}
	initial := experiments.InitialSettings(video.HR)
	ctrlSrc := xrand.NewSource(12)
	mc, err := core.New(core.DefaultConfig(video.HR, spec, model.MaxUsefulThreads(video.HR)), initial, rand.New(ctrlSrc))
	if err != nil {
		tb.Fatal(err)
	}
	ctrl := &statefulMAMUT{Controller: mc, src: ctrlSrc}
	id, err := eng.AddSession(transcode.SessionConfig{
		Source: src, Controller: ctrl, Initial: initial, FrameBudget: 1 << 30,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := eng.AdvanceTo(60); err != nil {
		tb.Fatal(err)
	}
	return eng, id, ctrl
}

// TestMAMUTCheckpointBytesDeterministic: two checkpoints of an untouched
// MAMUT session are byte-equal, and equal to the bytes of extracting the
// session and encoding that state.
func TestMAMUTCheckpointBytesDeterministic(t *testing.T) {
	eng, id, _ := mamutCheckpointEngine(t)
	var checkpoints [2][]byte
	for i := range checkpoints {
		snap, err := eng.SnapshotSession(id)
		if err != nil {
			t.Fatal(err)
		}
		if checkpoints[i], err = transcode.EncodeSessionState(snap); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(checkpoints[0], checkpoints[1]) {
		t.Fatal("two checkpoints of the untouched session differ")
	}
	st, err := eng.ExtractSession(id)
	if err != nil {
		t.Fatal(err)
	}
	extracted, err := transcode.EncodeSessionState(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkpoints[0], extracted) {
		t.Fatal("a checkpoint differs from the extracted state's encoding")
	}
}

// TestMAMUTControllerStateWirePin: the typed controller state marshals
// byte-identically to the legacy encoding, which nested the resume state
// as pre-encoded bytes (core pins the resume state's own legacy form),
// and it restores a fresh controller to the same state.
func TestMAMUTControllerStateWirePin(t *testing.T) {
	_, _, ctrl := mamutCheckpointEngine(t)
	typed, err := json.Marshal(ctrl.ControllerState())
	if err != nil {
		t.Fatal(err)
	}
	resume, err := json.Marshal(ctrl.ResumeState())
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := json.Marshal(struct {
		Resume json.RawMessage `json:"resume"`
		RNG    uint64          `json:"rng"`
	}{resume, ctrl.src.State()})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(typed, legacy) {
		t.Fatalf("typed controller state differs from the legacy encoding:\n got %.200s\nwant %.200s", typed, legacy)
	}

	spec, model := platform.DefaultSpec(), hevc.DefaultModel()
	mc, err := core.New(core.DefaultConfig(video.HR, spec, model.MaxUsefulThreads(video.HR)),
		experiments.InitialSettings(video.HR), rand.New(xrand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	fresh := &statefulMAMUT{Controller: mc, src: xrand.NewSource(99)}
	if err := fresh.RestoreControllerState(json.RawMessage(legacy)); err != nil {
		t.Fatal(err)
	}
	back, err := json.Marshal(fresh.ControllerState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, typed) {
		t.Fatal("restored controller serialises differently")
	}
}

// TestMAMUTSnapshotDoesNotAlias: a checkpoint snapshot of a trained
// MAMUT session shares no memory with the live controller. Encoding it
// after the engine has run on for another minute of learning gives the
// bytes it encoded to at the snapshot instant.
func TestMAMUTSnapshotDoesNotAlias(t *testing.T) {
	eng, id, _ := mamutCheckpointEngine(t)
	snap, err := eng.SnapshotSession(id)
	if err != nil {
		t.Fatal(err)
	}
	want, err := transcode.EncodeSessionState(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AdvanceTo(120); err != nil {
		t.Fatal(err)
	}
	later, err := eng.SnapshotSession(id)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := transcode.EncodeSessionState(later)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(moved, want) {
		t.Fatal("the session did not change in a minute of learning; the test proves nothing")
	}
	got, err := transcode.EncodeSessionState(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a snapshot's encoding changed while its session ran on")
	}
}

// TestInProcessHandoffMatchesWire: injecting a frozen session state as
// is resumes exactly what injecting its wire round trip
// (DecodeSessionState of EncodeSessionState) resumes. For a static, a
// heuristic and a trained MAMUT session, the two fresh engines encode a
// second freeze to the same bytes and finish with DeepEqual Results, and
// the frozen state itself encodes as before while the sessions it was
// restored into ran on.
func TestInProcessHandoffMatchesWire(t *testing.T) {
	spec, model := platform.DefaultSpec(), hevc.DefaultModel()
	seq, err := video.DefaultCatalog().Get("Kimono")
	if err != nil {
		t.Fatal(err)
	}
	initial := experiments.InitialSettings(video.HR)
	for _, tc := range []struct {
		name  string
		shell func(seed uint64) transcode.Controller
	}{
		{"static", func(uint64) transcode.Controller { return &transcode.Static{S: initial} }},
		{"heuristic", func(uint64) transcode.Controller {
			h, err := baseline.NewHeuristic(baseline.DefaultHeuristicConfig(video.HR, spec, model.MaxUsefulThreads(video.HR)), initial)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}},
		{"mamut", func(seed uint64) transcode.Controller {
			ctrlSrc := xrand.NewSource(int64(seed))
			mc, err := core.New(core.DefaultConfig(video.HR, spec, model.MaxUsefulThreads(video.HR)), initial, rand.New(ctrlSrc))
			if err != nil {
				t.Fatal(err)
			}
			return &statefulMAMUT{Controller: mc, src: ctrlSrc}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engine := func(seed uint64, st *transcode.SessionState) (*transcode.Engine, int) {
				t.Helper()
				eng, err := transcode.NewEngine(spec, model, 5)
				if err != nil {
					t.Fatal(err)
				}
				src, err := video.NewStatefulGenerator(seq, int64(seed))
				if err != nil {
					t.Fatal(err)
				}
				var id int
				if st == nil {
					id, err = eng.AddSession(transcode.SessionConfig{
						Source: src, Controller: tc.shell(seed), Initial: initial, FrameBudget: 2400,
					})
				} else {
					id, err = eng.InjectSession(src, tc.shell(seed), st)
				}
				if err != nil {
					t.Fatal(err)
				}
				return eng, id
			}
			orig, id := engine(11, nil)
			if err := orig.AdvanceTo(60); err != nil {
				t.Fatal(err)
			}
			frozen, err := orig.SnapshotSession(id)
			if err != nil {
				t.Fatal(err)
			}
			wire, err := transcode.EncodeSessionState(frozen)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := transcode.DecodeSessionState(wire)
			if err != nil {
				t.Fatal(err)
			}
			direct, directID := engine(0, frozen)
			viaWire, wireID := engine(0, decoded)

			var second [2][]byte
			for i, run := range []struct {
				eng *transcode.Engine
				id  int
			}{{direct, directID}, {viaWire, wireID}} {
				if err := run.eng.AdvanceTo(30); err != nil {
					t.Fatal(err)
				}
				st, err := run.eng.SnapshotSession(run.id)
				if err != nil {
					t.Fatal(err)
				}
				if second[i], err = transcode.EncodeSessionState(st); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(second[0], second[1]) {
				t.Fatalf("second freeze differs:\n direct %.300s\n   wire %.300s", second[0], second[1])
			}
			if bytes.Equal(second[0], wire) {
				t.Fatal("the session did not move between the freezes; the test proves nothing")
			}
			got, err := direct.Run()
			if err != nil {
				t.Fatal(err)
			}
			want, err := viaWire.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("in-process hand-over result differs from the wire round trip's:\n got %+v\nwant %+v", got, want)
			}
			again, err := transcode.EncodeSessionState(frozen)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, wire) {
				t.Fatal("the frozen state changed while the session restored from it ran on")
			}
		})
	}
}

// BenchmarkCheckpointSession is the session-state floor of crash
// recovery for one trained MAMUT session. snapshot times what
// checkpointFleet runs per resident session at every checkpoint: the
// typed snapshot. handoff times an in-process restore as restoreSession
// runs it: a snapshot, then InjectSession into a fresh engine with a
// fresh source and controller, which rebuilds the three learners from
// the frozen value (RestoreControllerState). restore and inject time the
// wire path a state that leaves the process takes instead: restore the
// encode and the verified decode, inject the decode plus InjectSession,
// which then also decodes the controller payload.
func BenchmarkCheckpointSession(b *testing.B) {
	eng, id, _ := mamutCheckpointEngine(b)
	spec, model := platform.DefaultSpec(), hevc.DefaultModel()
	seq, err := video.DefaultCatalog().Get("Kimono")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(video.HR, spec, model.MaxUsefulThreads(video.HR))
	inject := func(b *testing.B, st *transcode.SessionState) {
		dst, err := transcode.NewEngine(spec, model, 5)
		if err != nil {
			b.Fatal(err)
		}
		src, err := video.NewStatefulGenerator(seq, 0)
		if err != nil {
			b.Fatal(err)
		}
		ctrlSrc := xrand.NewSource(0)
		mc, err := core.New(cfg, st.Initial, rand.New(ctrlSrc))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dst.InjectSession(src, &statefulMAMUT{Controller: mc, src: ctrlSrc}, st); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := eng.SnapshotSession(id); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("handoff", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			st, err := eng.SnapshotSession(id)
			if err != nil {
				b.Fatal(err)
			}
			inject(b, st)
		}
	})
	b.Run("restore", func(b *testing.B) {
		snap, err := eng.SnapshotSession(id)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			data, err := transcode.EncodeSessionState(snap)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := transcode.DecodeSessionState(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inject", func(b *testing.B) {
		snap, err := eng.SnapshotSession(id)
		if err != nil {
			b.Fatal(err)
		}
		data, err := transcode.EncodeSessionState(snap)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			st, err := transcode.DecodeSessionState(data)
			if err != nil {
				b.Fatal(err)
			}
			inject(b, st)
		}
	})
}
