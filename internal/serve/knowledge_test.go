package serve

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"mamut/internal/core"
	"mamut/internal/experiments"
	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

// shortSessionConfig is the KaaS regime the knowledge store exists for:
// sessions churning through the fleet with mean lifetimes far too short
// to learn from scratch (15 s ~ 360 frames, barely past exploration).
func shortSessionConfig() Config {
	return Config{
		Servers:              2,
		MaxSessionsPerServer: 6,
		Workload: Workload{
			ArrivalRate:    0.35,
			DurationSec:    240,
			MeanSessionSec: 15,
		},
		WarmupSec: 60,
		Seed:      7,
		Workers:   0,
	}
}

// TestWarmStartBeatsColdOnShortSessions is the acceptance check for
// cross-session knowledge reuse: at the same seed, the warm-started
// fleet strictly improves short-session SLO attainment over cold starts,
// because sessions seeded from departed sessions' pooled tables exploit
// learned settings instead of spending their short lives exploring.
func TestWarmStartBeatsColdOnShortSessions(t *testing.T) {
	cold, err := Run(shortSessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	warmCfg := shortSessionConfig()
	warmCfg.KnowledgeReuse = true
	warm, err := Run(warmCfg)
	if err != nil {
		t.Fatal(err)
	}

	if cold.Measured == 0 || warm.Measured == 0 {
		t.Fatalf("no measured sessions (cold %d, warm %d)", cold.Measured, warm.Measured)
	}
	if cold.KnowledgeContributions != 0 || cold.KnowledgeSeeded != 0 {
		t.Errorf("cold run reports knowledge activity: %d contributions, %d seeded",
			cold.KnowledgeContributions, cold.KnowledgeSeeded)
	}
	if warm.KnowledgeContributions == 0 {
		t.Error("warm run harvested no departures")
	}
	if warm.KnowledgeSeeded == 0 {
		t.Error("warm run seeded no admissions")
	}
	if warm.SLOAttainedPct <= cold.SLOAttainedPct {
		t.Errorf("warm SLO attainment %.1f%% not strictly above cold %.1f%%",
			warm.SLOAttainedPct, cold.SLOAttainedPct)
	}
	// The mechanism, not just the headline number: warm sessions sustain
	// higher average throughput in both classes.
	if warm.HR.AvgFPS <= cold.HR.AvgFPS || warm.LR.AvgFPS <= cold.LR.AvgFPS {
		t.Errorf("warm avg FPS (HR %.1f, LR %.1f) not above cold (HR %.1f, LR %.1f)",
			warm.HR.AvgFPS, warm.LR.AvgFPS, cold.HR.AvgFPS, cold.LR.AvgFPS)
	}
}

// TestKnowledgeDeterministicAcrossWorkers: the knowledge fold order is
// pinned to arrival IDs at the interleaved departure instants and drain
// departures are excluded, so a knowledge-reuse run is bit-identical for
// any worker count.
func TestKnowledgeDeterministicAcrossWorkers(t *testing.T) {
	cfg := shortSessionConfig()
	cfg.Workload.DurationSec = 150
	cfg.KnowledgeReuse = true
	serial, err := Run(cfgWithWorkers(cfg, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(cfgWithWorkers(cfg, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("knowledge-reuse results differ between 1 and 4 workers")
	}
	if serial.KnowledgeContributions == 0 || serial.KnowledgeSeeded == 0 {
		t.Fatalf("test exercised no knowledge activity (contributions %d, seeded %d)",
			serial.KnowledgeContributions, serial.KnowledgeSeeded)
	}
}

func TestKnowledgeReuseRequiresMAMUT(t *testing.T) {
	cfg := shortSessionConfig()
	cfg.KnowledgeReuse = true
	cfg.Approach = experiments.Heuristic
	if err := cfg.Validate(); err == nil {
		t.Error("knowledge reuse with a non-learning approach passed validation")
	}
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted knowledge reuse with a non-learning approach")
	}
}

// TestKnowledgeStorePoolsPerClass exercises the store directly:
// contributions pool visit counts per resolution class, classes are
// isolated, and an empty class seeds cold.
func TestKnowledgeStorePoolsPerClass(t *testing.T) {
	spec := platform.DefaultSpec()
	model := hevc.DefaultModel()
	newCtrl := func(res video.Resolution, seed int64) *core.Controller {
		cfg := core.DefaultConfig(res, spec, model.MaxUsefulThreads(res))
		c, err := core.New(cfg, experiments.InitialSettings(res), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	train := func(c *core.Controller, visits int) {
		for k := core.AgentQP; k <= core.AgentDVFS; k++ {
			l := c.Learner(k)
			for a := 0; a < l.Config().Actions; a++ {
				for i := 0; i < visits; i++ {
					l.Update(3, a, 3, 1.0, 0)
				}
			}
		}
	}

	ks := NewKnowledgeStore()
	if ks.Seed(video.HR) != nil {
		t.Error("empty store seeded an HR snapshot")
	}

	a, b := newCtrl(video.HR, 1), newCtrl(video.HR, 2)
	train(a, 2)
	train(b, 3)
	if err := ks.Contribute(video.HR, a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := ks.Contribute(video.HR, b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := ks.Contributions(video.HR); got != 2 {
		t.Errorf("HR contributions = %d, want 2", got)
	}
	sn := ks.Seed(video.HR)
	if sn == nil {
		t.Fatal("no HR snapshot after contributions")
	}
	qpActions := a.Learner(core.AgentQP).Config().Actions
	if got := sn[core.AgentQP].Tables().VisitsSA[3*qpActions]; got != 5 {
		t.Errorf("pooled Num(3,0) = %d, want 5", got)
	}
	// LR is untouched by HR contributions.
	if ks.Seed(video.LR) != nil || ks.Contributions(video.LR) != 0 {
		t.Error("HR contributions leaked into the LR class")
	}

	// An LR snapshot has LR-sized thread tables; contributing it to the
	// LR class works even though it cannot merge with HR's.
	c := newCtrl(video.LR, 3)
	train(c, 1)
	if err := ks.Contribute(video.LR, c.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if ks.Seed(video.LR) == nil {
		t.Error("no LR snapshot after contribution")
	}

	// A mismatched contribution (LR tables into the HR class) errors
	// atomically: the QP agent's dimensions match across classes, but
	// the thread agent's don't, and a half-merged store would silently
	// corrupt every later warm start.
	before := ks.Seed(video.HR)[core.AgentQP].Tables().VisitsSA[3*qpActions]
	if err := ks.Contribute(video.HR, c.Snapshot()); err == nil {
		t.Fatal("LR snapshot accepted into the HR class")
	}
	if got := ks.Seed(video.HR)[core.AgentQP].Tables().VisitsSA[3*qpActions]; got != before {
		t.Errorf("failed contribution mutated the store: Num(3,0) %d -> %d", before, got)
	}
	if got := ks.Contributions(video.HR); got != 2 {
		t.Errorf("failed contribution counted: HR contributions = %d, want 2", got)
	}
}

// warmMAMUT builds an HR MAMUT controller warm-started from seed (nil =
// cold), as the serve controller factory does, and runs it for 30 s of
// simulated time on an engine of its own so its learners gather their
// own experience on top of the seed.
func warmMAMUT(t *testing.T, seed *core.Snapshot, rngSeed int64) *core.Controller {
	t.Helper()
	spec, model := platform.DefaultSpec(), hevc.DefaultModel()
	eng, err := transcode.NewEngine(spec, model, rngSeed)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := video.DefaultCatalog().Get("Kimono")
	if err != nil {
		t.Fatal(err)
	}
	src, err := video.NewStatefulGenerator(seq, rngSeed)
	if err != nil {
		t.Fatal(err)
	}
	initial := experiments.InitialSettings(video.HR)
	c, err := core.New(core.DefaultConfig(video.HR, spec, model.MaxUsefulThreads(video.HR)),
		initial, rand.New(rand.NewSource(rngSeed)))
	if err != nil {
		t.Fatal(err)
	}
	if seed != nil {
		if err := c.Seed(*seed); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.AddSession(transcode.SessionConfig{
		Source: src, Controller: c, Initial: initial, FrameBudget: 1 << 30,
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.AdvanceTo(30); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSeedAdmissionGetsFrozenSeed: every admission of a warm class gets
// its own frozen copy of the class's knowledge — the copy after a fold
// holds the folded knowledge — and a seed is unchanged after every
// session seeded from it has departed and been folded into the store,
// although the seed, the sessions and the store share rows throughout.
func TestSeedAdmissionGetsFrozenSeed(t *testing.T) {
	kn := newKnowledge(nil)
	d := &dispatcher{knowledge: kn, stats: stats{busy: make([]float64, 1)}}
	depart := func(c *core.Controller, seeded *core.Snapshot) {
		t.Helper()
		d.departs = append(d.departs, departRec{residentRec: residentRec{reqID: kn.seeded, res: video.HR, ctrl: c, seeded: seeded}})
		if err := d.foldBatch(0); err != nil {
			t.Fatal(err)
		}
	}
	if kn.seed(video.HR) != nil {
		t.Fatal("a cold class handed out a seed")
	}
	depart(warmMAMUT(t, nil, 1), nil)

	a, b := kn.seed(video.HR), kn.seed(video.HR)
	if a == nil || b == nil || a == b || !reflect.DeepEqual(*a, *b) {
		t.Fatalf("two admissions with no fold between them got seeds %p and %p, want two equal copies", a, b)
	}
	if kn.seed(video.LR) != nil {
		t.Fatal("an HR contribution warmed the LR class")
	}
	// The seeds share their rows with the store and the controllers, so
	// the reference is their encoding, which shares nothing.
	encode := func(sn *core.Snapshot) string {
		t.Helper()
		b, err := json.Marshal(sn)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := encode(a)
	ca, cb := warmMAMUT(t, a, 2), warmMAMUT(t, b, 3)

	depart(ca, a)
	c := kn.seed(video.HR)
	if encode(c) != encode(kn.store.Seed(video.HR)) || encode(c) == want {
		t.Fatal("the seed cloned after a fold does not hold the folded knowledge")
	}

	depart(cb, b)
	if encode(a) != want || encode(b) != want {
		t.Fatal("a seed changed while the sessions seeded from it ran and departed")
	}
	if kn.seeded != 3 {
		t.Errorf("seeded count %d, want 3", kn.seeded)
	}
}
