package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mamut/internal/core"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

func newTestRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }

// tinyOptions keeps unit-test runs fast; the RL managers are nowhere near
// converged at this horizon, so tests only assert structural properties.
func tinyOptions() Options {
	o := DefaultOptions()
	o.Repetitions = 1
	o.WarmupFrames = 600
	o.MeasureFrames = 600
	return o
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	mut := []func(*Options){
		func(o *Options) { o.Catalog = nil },
		func(o *Options) { o.Repetitions = 0 },
		func(o *Options) { o.MeasureFrames = 0 },
		func(o *Options) { o.WarmupFrames = -1 },
		func(o *Options) { o.Spec.Sockets = 0 },
		func(o *Options) { o.Model.QPHalving = 0 },
	}
	for i, f := range mut {
		o := DefaultOptions()
		f(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestScenarioWorkloadLists(t *testing.T) {
	s1 := ScenarioIWorkloads()
	if len(s1) != 13 {
		t.Fatalf("Scenario I has %d workloads, want 13 (1..5 HR + 1..8 LR)", len(s1))
	}
	if s1[0].Name != "1HR" || s1[0].HR != 1 || s1[0].LR != 0 {
		t.Errorf("first workload %+v", s1[0])
	}
	if s1[12].Name != "8LR" || s1[12].LR != 8 {
		t.Errorf("last workload %+v", s1[12])
	}
	s2 := ScenarioIIWorkloads()
	if len(s2) != 9 {
		t.Fatalf("Scenario II has %d workloads, want 9 (Table II rows)", len(s2))
	}
	if s2[0].Name != "1HR1LR" || s2[8].Name != "3HR3LR" {
		t.Errorf("Scenario II names %s..%s", s2[0].Name, s2[8].Name)
	}
	for _, w := range s2 {
		if w.Sessions() != w.HR+w.LR {
			t.Errorf("workload %s session count wrong", w.Name)
		}
	}
}

func TestFactoryKnownApproaches(t *testing.T) {
	opts := tinyOptions()
	for _, a := range AllApproaches {
		f, err := Factory(a, opts)
		if err != nil {
			t.Fatalf("factory %s: %v", a, err)
		}
		ctrl, err := f(video.HR, InitialSettings(video.HR), newTestRNG())
		if err != nil {
			t.Fatalf("build %s: %v", a, err)
		}
		if ctrl.Name() != string(a) {
			t.Errorf("controller name %q, want %q", ctrl.Name(), a)
		}
	}
	if _, err := Factory("nonsense", opts); err == nil {
		t.Error("unknown approach accepted")
	}
}

func TestInitialSettings(t *testing.T) {
	hr := InitialSettings(video.HR)
	lr := InitialSettings(video.LR)
	if hr.Threads <= lr.Threads {
		t.Error("HR should start with more threads than LR")
	}
	if err := hr.Validate(); err != nil {
		t.Error(err)
	}
	if err := lr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSubSeedDeterministicAndDistinct(t *testing.T) {
	a := SubSeed(1, "x", 0)
	b := SubSeed(1, "x", 0)
	if a != b {
		t.Error("SubSeed not deterministic")
	}
	if SubSeed(1, "x", 1) == a || SubSeed(1, "y", 0) == a || SubSeed(2, "x", 0) == a {
		t.Error("SubSeed collisions across labels")
	}
	if a < 0 {
		t.Error("SubSeed negative")
	}
}

func TestRunWorkloadStructure(t *testing.T) {
	opts := tinyOptions()
	w := WorkloadSpec{Name: "1HR1LR", HR: 1, LR: 1}
	r, err := RunWorkload(w, ScenarioI, Heuristic, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Approach != Heuristic {
		t.Errorf("approach %s", r.Approach)
	}
	if r.Watts <= opts.Spec.IdlePowerW {
		t.Errorf("watts %.1f not above idle", r.Watts)
	}
	if r.FPS <= 0 || r.Nth < 1 || r.PSNRdB < 20 {
		t.Errorf("implausible result %+v", r)
	}
	if r.HR.Sessions != 1 || r.LR.Sessions != 1 {
		t.Errorf("resolution aggregation %+v / %+v", r.HR, r.LR)
	}
	if r.DeltaPct < 0 || r.DeltaPct > 100 {
		t.Errorf("delta %.1f out of range", r.DeltaPct)
	}
}

func TestRunWorkloadDeterminism(t *testing.T) {
	opts := tinyOptions()
	w := WorkloadSpec{Name: "1HR", HR: 1}
	a, err := RunWorkload(w, ScenarioI, MAMUT, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(w, ScenarioI, MAMUT, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Watts != b.Watts || a.DeltaPct != b.DeltaPct || a.FPS != b.FPS {
		t.Error("identical runs diverged")
	}
}

func TestRunWorkloadErrors(t *testing.T) {
	opts := tinyOptions()
	if _, err := RunWorkload(WorkloadSpec{Name: "empty"}, ScenarioI, MAMUT, opts); err == nil {
		t.Error("empty workload accepted")
	}
	bad := opts
	bad.Repetitions = 0
	if _, err := RunWorkload(WorkloadSpec{Name: "1HR", HR: 1}, ScenarioI, MAMUT, bad); err == nil {
		t.Error("invalid options accepted")
	}
	// Unknown scenario kind fails when building sources.
	f, err := Factory(Heuristic, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkloadWithFactory(WorkloadSpec{Name: "1HR", HR: 1}, ScenarioKind(9), "x", f, opts); err == nil {
		t.Error("unknown scenario kind accepted")
	}
	// A factory that fails propagates.
	badFactory := func(res video.Resolution, initial transcode.Settings, rng *rand.Rand) (transcode.Controller, error) {
		return nil, errFactory
	}
	if _, err := RunWorkloadWithFactory(WorkloadSpec{Name: "1HR", HR: 1}, ScenarioI, "bad", badFactory, opts); err == nil {
		t.Error("factory error not propagated")
	}
}

var errFactory = fmt.Errorf("boom")

func TestRunScenarioAllApproaches(t *testing.T) {
	opts := tinyOptions()
	workloads := []WorkloadSpec{{Name: "1HR", HR: 1}, {Name: "1LR", LR: 1}}
	results, err := RunScenario(workloads, ScenarioI, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, wr := range results {
		if len(wr.ByApproach) != 3 {
			t.Fatalf("workload %s has %d approaches", wr.Spec.Name, len(wr.ByApproach))
		}
		for _, a := range AllApproaches {
			if _, ok := wr.Get(a); !ok {
				t.Errorf("workload %s missing %s", wr.Spec.Name, a)
			}
		}
		if _, ok := wr.Get("nope"); ok {
			t.Error("Get returned a result for an unknown approach")
		}
	}
	if _, err := RunScenario(nil, ScenarioI, opts); err == nil {
		t.Error("empty workload list accepted")
	}
}

func TestScenarioIIUsesPlaylists(t *testing.T) {
	opts := tinyOptions()
	w := WorkloadSpec{Name: "1HR", HR: 1}
	if _, err := RunWorkload(w, ScenarioII, Heuristic, opts); err != nil {
		t.Fatal(err)
	}
}

func TestTableIAggregation(t *testing.T) {
	mk := func(a Approach, hrN, hrF, lrN, lrF float64, hrS, lrS int) ApproachResult {
		return ApproachResult{
			Approach: a,
			HR:       ResolutionAgg{Sessions: hrS, Nth: hrN, FreqGHz: hrF},
			LR:       ResolutionAgg{Sessions: lrS, Nth: lrN, FreqGHz: lrF},
		}
	}
	results := []WorkloadResult{
		{Spec: WorkloadSpec{Name: "1HR", HR: 1}, ByApproach: []ApproachResult{
			mk(Heuristic, 6, 3.2, 0, 0, 1, 0), mk(MonoAgent, 9, 2.9, 0, 0, 1, 0), mk(MAMUT, 10, 2.9, 0, 0, 1, 0),
		}},
		{Spec: WorkloadSpec{Name: "1LR", LR: 1}, ByApproach: []ApproachResult{
			mk(Heuristic, 0, 0, 3, 3.2, 0, 1), mk(MonoAgent, 0, 0, 4, 2.9, 0, 1), mk(MAMUT, 0, 0, 4, 2.8, 0, 1),
		}},
		// A second HR workload with twice the sessions to check weighting.
		{Spec: WorkloadSpec{Name: "2HR", HR: 2}, ByApproach: []ApproachResult{
			mk(Heuristic, 4, 3.2, 0, 0, 2, 0), mk(MonoAgent, 8, 2.9, 0, 0, 2, 0), mk(MAMUT, 11, 2.7, 0, 0, 2, 0),
		}},
	}
	rows, err := TableI(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Heuristic HR Nth: (6*1 + 4*2) / 3 = 14/3.
	for _, row := range rows {
		if row.Approach == Heuristic {
			if want := 14.0 / 3; math.Abs(row.HRNth-want) > 1e-12 {
				t.Errorf("heuristic HR Nth = %g, want %g", row.HRNth, want)
			}
			if row.LRNth != 3 {
				t.Errorf("heuristic LR Nth = %g, want 3", row.LRNth)
			}
		}
	}
	if _, err := TableI(nil); err == nil {
		t.Error("empty results accepted")
	}
}

func TestFig2SweepShape(t *testing.T) {
	opts := tinyOptions()
	points, err := Fig2Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(Fig2Threads)*len(Fig2QPs) {
		t.Fatalf("points = %d, want %d", len(points), len(Fig2Threads)*len(Fig2QPs))
	}
	byKey := map[[2]int]Fig2Point{}
	for _, p := range points {
		byKey[[2]int{p.Threads, p.QP}] = p
		if p.FPS <= 0 || p.PowerW <= 0 || p.PSNRdB <= 0 || p.BandwidthMBps <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
	// More threads -> more FPS and power at fixed QP.
	for _, qp := range Fig2QPs {
		if byKey[[2]int{10, qp}].FPS <= byKey[[2]int{1, qp}].FPS {
			t.Errorf("QP %d: FPS not increasing with threads", qp)
		}
		if byKey[[2]int{10, qp}].PowerW <= byKey[[2]int{1, qp}].PowerW {
			t.Errorf("QP %d: power not increasing with threads", qp)
		}
	}
	// Higher QP -> lower PSNR and bandwidth, higher FPS at fixed threads.
	for _, th := range Fig2Threads {
		p22 := byKey[[2]int{th, 22}]
		p37 := byKey[[2]int{th, 37}]
		if p37.PSNRdB >= p22.PSNRdB {
			t.Errorf("threads %d: PSNR not decreasing with QP", th)
		}
		if p37.BandwidthMBps >= p22.BandwidthMBps {
			t.Errorf("threads %d: bandwidth not decreasing with QP", th)
		}
		if p37.FPS <= p22.FPS {
			t.Errorf("threads %d: FPS not increasing with QP", th)
		}
	}
	// Paper's range anchors: bandwidth axis tops out ~1.2-1.5 MB/s.
	if p := byKey[[2]int{10, 22}]; p.BandwidthMBps < 0.8 || p.BandwidthMBps > 1.6 {
		t.Errorf("QP22 bandwidth %.2f MB/s outside paper range", p.BandwidthMBps)
	}
}

func TestFig5TraceWindow(t *testing.T) {
	opts := tinyOptions()
	opts.WarmupFrames = 1200
	res, err := Fig5Trace(opts, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 500 {
		t.Fatalf("trace = %d, want 500", len(res.Trace))
	}
	for i, o := range res.Trace {
		if o.FrameIndex != i {
			t.Fatalf("trace not re-based at %d", i)
		}
	}
	if want := offlineSummary(res.Trace, transcode.DefaultTargetFPS); res.Summary != want {
		t.Errorf("summary %+v, want the trace's %+v", res.Summary, want)
	}
	if _, err := Fig5Trace(opts, 0); err == nil {
		t.Error("zero window accepted")
	}
}

func TestLearningTimeOrdering(t *testing.T) {
	opts := tinyOptions()
	res, err := LearningTime(opts, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAMUTAllExploit <= 0 {
		t.Fatal("MAMUT never reached full exploitation in 40k frames")
	}
	if res.MonoActions >= res.MonoWideActions {
		t.Error("wide mono subset not wider")
	}
	// The combinatorial-explosion claim (SV-B): the wide joint space takes
	// several times longer than MAMUT's decomposed spaces to start
	// exploiting.
	if res.MonoWideFirstExploit > 0 && res.WideRatio < 1.5 {
		t.Errorf("wide mono ratio %.2f, want > 1.5 (SV-B reports 15x)", res.WideRatio)
	}
	if _, err := LearningTime(opts, 0); err == nil {
		t.Error("zero frames accepted")
	}
}

func TestRunAblationsStructure(t *testing.T) {
	opts := tinyOptions()
	res, err := RunAblations(WorkloadSpec{Name: "1HR", HR: 1}, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(DefaultAblations()) {
		t.Fatalf("ablations = %d", len(res))
	}
	names := map[string]bool{}
	for _, r := range res {
		names[r.Name] = true
		if r.FPS <= 0 || r.Watts <= 0 {
			t.Errorf("degenerate ablation %+v", r)
		}
	}
	for _, want := range []string{"mamut-full", "no-cooperation", "no-alpha-coupling", "uniform-periods"} {
		if !names[want] {
			t.Errorf("missing ablation %s", want)
		}
	}
	// Zero-valued workload defaults to 2HR1LR.
	res2, err := RunAblations(WorkloadSpec{}, opts, []AblationVariant{{Name: "only-full", Mutate: func(*core.Config) {}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2) != 1 || res2[0].Name != "only-full" {
		t.Errorf("custom variant result %+v", res2)
	}
}
