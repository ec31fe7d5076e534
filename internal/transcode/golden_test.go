package transcode

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/video"
)

// -update regenerates testdata/golden_mix.json from the linear reference
// simulator (reference_test.go), which reproduces the pre-refactor engine
// semantics operation for operation.
// TestReferenceReproducesGoldenExactly holds the reference to the golden
// bit for bit, and TestEngineMatchesGolden holds the event-scheduled
// engine to it within goldenTimeTol. (The committed golden was
// regenerated when the engine's internal rng streams moved to xrand
// splitmix64 sources — O(1) seeding on the fleet admission path; the
// regeneration came from the reference with the same streams, so the
// linear-vs-event-scheduled equivalence the golden pins is unchanged.)
var update = flag.Bool("update", false, "regenerate golden testdata")

const goldenPath = "testdata/golden_mix.json"

// goldenTimeTol is the relative tolerance on time-derived golden fields.
// The event-scheduled engine reduces the same per-frame quantities in a
// different floating-point order than the pre-refactor linear scan
// (lazy virtual-time completion instead of per-event work decrements), so
// event times agree to ~1e-15 relative, not bit-for-bit; content fields
// (frame complexity, PSNR, bits, settings) are reproduced exactly.
const goldenTimeTol = 1e-12

// goldenSpec removes power-meter jitter: the meter rng is drawn per event,
// and the event-scheduled engine coalesces events differently than the
// linear scan, so a noisy meter would make traces incomparable. Encoder
// noise stays on (hevc.DefaultModel): it is drawn from per-session rngs in
// per-session frame order, which any faithful core reproduces exactly.
func goldenSpec() platform.Spec { return quietSpec() }

// goldenSessions defines the seeded multi-session mix of the golden trace:
// staggered arrivals, mixed HR/LR, distinct budgets and operating points,
// enough aggregate demand (42 threads on a 32-CPU server) for contention
// to couple every session.
func goldenSessions(t *testing.T) []SessionConfig {
	t.Helper()
	mk := func(res video.Resolution, seed int64, s Settings, budget int, start float64) SessionConfig {
		return SessionConfig{
			Source:      testSource(t, res, seed),
			Controller:  &Static{S: s},
			Initial:     s,
			FrameBudget: budget,
			StartAtSec:  start,
		}
	}
	return []SessionConfig{
		mk(video.HR, 101, Settings{QP: 32, Threads: 8, FreqGHz: 3.2}, 120, 0),
		mk(video.HR, 102, Settings{QP: 27, Threads: 10, FreqGHz: 2.9}, 90, 0),
		mk(video.LR, 103, Settings{QP: 32, Threads: 4, FreqGHz: 2.6}, 150, 1.5),
		mk(video.LR, 104, Settings{QP: 37, Threads: 2, FreqGHz: 1.6}, 60, 3.0),
		mk(video.HR, 105, Settings{QP: 22, Threads: 12, FreqGHz: 3.2}, 80, 5.0),
		mk(video.LR, 106, Settings{QP: 42, Threads: 6, FreqGHz: 2.3}, 200, 0.5),
	}
}

const goldenSeed = 2026

type goldenSession struct {
	ID         int
	Frames     int
	Violations int
	DynEnergyJ float64
	AvgFPS     float64
	Trace      []Observation
}

type goldenFile struct {
	DurationSec float64
	EnergyJ     float64
	AvgPowerW   float64
	Sessions    []goldenSession
}

// traces holds every session's observations in emission order, keyed by
// session id, as an OnFrame observer (add) receives them.
type traces map[int][]Observation

func (tr traces) add(o Observation) { tr[o.SessionID] = append(tr[o.SessionID], o) }

// recordTraces installs a traces recorder as e's OnFrame observer.
func recordTraces(e *Engine) traces {
	tr := traces{}
	e.OnFrame(tr.add)
	return tr
}

func toGolden(res *Result, tr traces) *goldenFile {
	g := &goldenFile{DurationSec: res.DurationSec, EnergyJ: res.EnergyJ, AvgPowerW: res.AvgPowerW}
	for _, sr := range res.Sessions {
		g.Sessions = append(g.Sessions, goldenSession{
			ID: sr.ID, Frames: sr.Frames, Violations: sr.Violations,
			DynEnergyJ: sr.DynEnergyJ, AvgFPS: sr.AvgFPS, Trace: tr[sr.ID],
		})
	}
	return g
}

func loadGolden(t *testing.T) *goldenFile {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	return &g
}

func writeGolden(t *testing.T, g *goldenFile) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("golden testdata written to %s", goldenPath)
}

// relClose reports |a-b| <= tol*max(1,|a|,|b|).
func relClose(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// compareToGolden checks a run result and its recorded traces against
// the golden file: content fields exactly, time-derived fields within
// timeTol (0 = bit-identical).
func compareToGolden(t *testing.T, g *goldenFile, res *Result, tr traces, timeTol float64) {
	t.Helper()
	checkF := func(name string, got, want float64) {
		t.Helper()
		if timeTol == 0 {
			if got != want {
				t.Errorf("%s = %v, golden %v", name, got, want)
			}
		} else if !relClose(got, want, timeTol) {
			t.Errorf("%s = %v, golden %v (rel tol %g)", name, got, want, timeTol)
		}
	}
	checkF("DurationSec", res.DurationSec, g.DurationSec)
	checkF("EnergyJ", res.EnergyJ, g.EnergyJ)
	checkF("AvgPowerW", res.AvgPowerW, g.AvgPowerW)
	if len(res.Sessions) != len(g.Sessions) {
		t.Fatalf("sessions = %d, golden %d", len(res.Sessions), len(g.Sessions))
	}
	for i, sr := range res.Sessions {
		gs := g.Sessions[i]
		if sr.ID != gs.ID || sr.Frames != gs.Frames || sr.Violations != gs.Violations {
			t.Errorf("session %d summary = (%d,%d,%d), golden (%d,%d,%d)",
				i, sr.ID, sr.Frames, sr.Violations, gs.ID, gs.Frames, gs.Violations)
		}
		checkF("DynEnergyJ", sr.DynEnergyJ, gs.DynEnergyJ)
		checkF("AvgFPS", sr.AvgFPS, gs.AvgFPS)
		trace := tr[sr.ID]
		if len(trace) != len(gs.Trace) {
			t.Fatalf("session %d trace length = %d, golden %d", i, len(trace), len(gs.Trace))
		}
		for f, obs := range trace {
			want := gs.Trace[f]
			// Content fields: derived from per-session rng streams and the
			// controller; reproduced bit-identically by any faithful core.
			if obs.SessionID != want.SessionID || obs.FrameIndex != want.FrameIndex ||
				obs.Settings != want.Settings || obs.SceneChange != want.SceneChange ||
				obs.SequenceName != want.SequenceName || obs.OverCap != want.OverCap {
				t.Fatalf("session %d frame %d content fields diverge:\n got %+v\nwant %+v", i, f, obs, want)
			}
			if obs.Complexity != want.Complexity || obs.PSNRdB != want.PSNRdB ||
				obs.BitrateMbps != want.BitrateMbps {
				t.Fatalf("session %d frame %d quality fields diverge:\n got %+v\nwant %+v", i, f, obs, want)
			}
			// Time-derived fields.
			checkF("Time", obs.Time, want.Time)
			checkF("DurationSec", obs.DurationSec, want.DurationSec)
			checkF("FPS", obs.FPS, want.FPS)
			checkF("InstFPS", obs.InstFPS, want.InstFPS)
			checkF("PowerW", obs.PowerW, want.PowerW)
			if t.Failed() {
				t.Fatalf("first divergence at session %d frame %d", i, f)
			}
		}
	}
}

// TestEngineMatchesGolden holds the engine to the committed pre-refactor
// trace: content fields bit-identical, event times within goldenTimeTol.
func TestEngineMatchesGolden(t *testing.T) {
	eng, err := NewEngine(goldenSpec(), hevc.DefaultModel(), goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range goldenSessions(t) {
		if _, err := eng.AddSession(cfg); err != nil {
			t.Fatal(err)
		}
	}
	tr := recordTraces(eng)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		// The golden is regenerated from the linear reference
		// (TestReferenceReproducesGoldenExactly), which must match it with
		// zero tolerance; the event-scheduled engine only matches within
		// goldenTimeTol, so writing its output here would poison the
		// exactness check.
		t.Skip("regenerating golden data from the reference simulator")
	}
	g := loadGolden(t)
	compareToGolden(t, g, res, tr, goldenTimeTol)

	// Guard against knife-edge violation accounting: every windowed FPS
	// estimate must sit clearly away from the 24 FPS target, or the exact
	// Violations comparison above would be FP-luck.
	for _, sr := range res.Sessions {
		for _, obs := range tr[sr.ID] {
			if math.Abs(obs.FPS-DefaultTargetFPS) < 1e-5 {
				t.Fatalf("session %d frame %d FPS %.9f too close to the target for exact violation comparison",
					sr.ID, obs.FrameIndex, obs.FPS)
			}
		}
	}
}
