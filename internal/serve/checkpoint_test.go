package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

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
		if checkpoints[i], err = snap.Encode(); err != nil {
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
	if err := fresh.RestoreControllerState(legacy); err != nil {
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
	want, err := snap.Encode()
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
	moved, err := later.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(moved, want) {
		t.Fatal("the session did not change in a minute of learning; the test proves nothing")
	}
	got, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a snapshot's encoding changed while its session ran on")
	}
}

// BenchmarkCheckpointSession is the session-codec floor of crash
// recovery for one trained MAMUT session. snapshot times what
// checkpointFleet runs per resident session at every checkpoint: the
// typed snapshot. restore times what restoreSession adds for a crash
// victim before injection: the wire encode and the verified decode.
// inject times the rest of a restore from the encoded bytes: the decode,
// then InjectSession into a fresh engine with a fresh source and
// controller, which decodes the controller payload and rebuilds the
// three learners (RestoreControllerState).
func BenchmarkCheckpointSession(b *testing.B) {
	eng, id, _ := mamutCheckpointEngine(b)
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := eng.SnapshotSession(id); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		snap, err := eng.SnapshotSession(id)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			data, err := snap.Encode()
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
		data, err := snap.Encode()
		if err != nil {
			b.Fatal(err)
		}
		spec, model := platform.DefaultSpec(), hevc.DefaultModel()
		seq, err := video.DefaultCatalog().Get("Kimono")
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig(video.HR, spec, model.MaxUsefulThreads(video.HR))
		b.ReportAllocs()
		for b.Loop() {
			st, err := transcode.DecodeSessionState(data)
			if err != nil {
				b.Fatal(err)
			}
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
	})
}
