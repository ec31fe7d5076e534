package mamut

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the design-choice ablations (README "Paper claims and
// their verdicts") and micro-benchmarks of the hot paths.
//
// The per-figure benchmarks run scaled-down windows so an iteration stays
// in the seconds range; cmd/mamut-experiments regenerates the full-scale
// numbers README's "Paper claims and their verdicts" quotes. Key
// experiment outputs are attached to each benchmark via b.ReportMetric,
// so `go test -bench=.` doubles as a smoke reproduction: delta(%)
// orderings and watt levels are visible next to the timing.

import (
	"fmt"
	"math/rand"
	"testing"

	"mamut/internal/core"
	"mamut/internal/experiments"
	"mamut/internal/hevc"
	"mamut/internal/platform"
	"mamut/internal/rl"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

// benchOptions are small enough for benchmark iterations; the RL managers
// are only partially converged at this horizon.
func benchOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Repetitions = 1
	o.WarmupFrames = 4000
	o.MeasureFrames = 2000
	return o
}

// BenchmarkFigure2Characterization regenerates the Fig. 2 operating-point
// sweep: RD curves plus power/throughput over threads x QP.
func BenchmarkFigure2Characterization(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig2Sweep(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != len(experiments.Fig2Threads)*len(experiments.Fig2QPs) {
			b.Fatalf("points = %d", len(points))
		}
		if i == b.N-1 {
			// Report the paper's anchor points.
			for _, p := range points {
				if p.Threads == 10 && p.QP == 37 {
					b.ReportMetric(p.FPS, "fps@10t_qp37")
				}
				if p.Threads == 1 && p.QP == 32 {
					b.ReportMetric(p.FPS, "fps@1t_qp32")
				}
			}
		}
	}
}

// BenchmarkFigure4ScenarioI regenerates the Fig. 4 sweep (homogeneous
// 1..5 HR and 1..8 LR workloads, three approaches each) at benchmark
// scale.
func BenchmarkFigure4ScenarioI(b *testing.B) {
	opts := benchOptions()
	// A representative subset of the 13 workloads keeps iterations short.
	workloads := []experiments.WorkloadSpec{
		{Name: "1HR", HR: 1}, {Name: "3HR", HR: 3}, {Name: "4LR", LR: 4},
	}
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunScenario(workloads, experiments.ScenarioI, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			if r, ok := results[0].Get(experiments.MAMUT); ok {
				b.ReportMetric(r.DeltaPct, "mamut_delta_1HR")
				b.ReportMetric(r.Watts, "mamut_watts_1HR")
			}
			if r, ok := results[0].Get(experiments.Heuristic); ok {
				b.ReportMetric(r.DeltaPct, "heur_delta_1HR")
			}
		}
	}
}

// BenchmarkFigure5Trace regenerates the Fig. 5 execution trace (500 frames
// of MAMUT on one HR stream after warm-up).
func BenchmarkFigure5Trace(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5Trace(opts, 500)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Trace) != 500 {
			b.Fatal("trace truncated")
		}
	}
}

// BenchmarkTableIAverages regenerates Table I (average threads and
// frequency per approach and resolution class) from a Scenario I run.
func BenchmarkTableIAverages(b *testing.B) {
	opts := benchOptions()
	workloads := []experiments.WorkloadSpec{{Name: "2HR", HR: 2}, {Name: "2LR", LR: 2}}
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunScenario(workloads, experiments.ScenarioI, opts)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := experiments.TableI(results)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Approach == experiments.MAMUT {
					b.ReportMetric(r.HRNth, "mamut_HR_Nth")
					b.ReportMetric(r.HRFreq, "mamut_HR_GHz")
				}
				if r.Approach == experiments.Heuristic {
					b.ReportMetric(r.HRFreq, "heur_HR_GHz")
				}
			}
		}
	}
}

// BenchmarkTableIIScenarioII regenerates Table II rows (mixed HR/LR
// batches with playlist churn) at benchmark scale.
func BenchmarkTableIIScenarioII(b *testing.B) {
	opts := benchOptions()
	workloads := []experiments.WorkloadSpec{
		{Name: "1HR1LR", HR: 1, LR: 1}, {Name: "2HR2LR", HR: 2, LR: 2},
	}
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunScenario(workloads, experiments.ScenarioII, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			if r, ok := results[1].Get(experiments.MAMUT); ok {
				b.ReportMetric(r.DeltaPct, "mamut_delta_2HR2LR")
				b.ReportMetric(r.Watts, "mamut_watts_2HR2LR")
			}
			if r, ok := results[1].Get(experiments.Heuristic); ok {
				b.ReportMetric(r.Watts, "heur_watts_2HR2LR")
			}
		}
	}
}

// BenchmarkLearningTime regenerates the SV-B learning-time comparison
// (mono-agent joint space vs MAMUT's decomposed spaces).
func BenchmarkLearningTime(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.LearningTime(opts, 30000)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.MAMUTAllExploit), "mamut_frames")
			b.ReportMetric(float64(res.MonoWideFirstExploit), "monoWide_frames")
			b.ReportMetric(res.WideRatio, "ratio")
		}
	}
}

// benchAblation runs one named experiments.DefaultAblations variant.
func benchAblation(b *testing.B, name string) {
	opts := benchOptions()
	var variant experiments.AblationVariant
	for _, v := range experiments.DefaultAblations() {
		if v.Name == name {
			variant = v
		}
	}
	if variant.Name == "" {
		b.Fatalf("unknown ablation %s", name)
	}
	w := experiments.WorkloadSpec{Name: "2HR1LR", HR: 2, LR: 1}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblations(w, opts, []experiments.AblationVariant{variant})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res[0].DeltaPct, "delta_pct")
			b.ReportMetric(res[0].Watts, "watts")
		}
	}
}

// BenchmarkAblationCooperation disables Algorithm 1's expected-Q chain.
func BenchmarkAblationCooperation(b *testing.B) { benchAblation(b, "no-cooperation") }

// BenchmarkAblationLearningRate removes the cross-agent term of eq. (3).
func BenchmarkAblationLearningRate(b *testing.B) { benchAblation(b, "no-alpha-coupling") }

// BenchmarkAblationPeriods replaces the 24/12/6 schedule with uniform 6s.
func BenchmarkAblationPeriods(b *testing.B) { benchAblation(b, "uniform-periods") }

// BenchmarkEngineFrameThroughput measures the simulator's raw speed:
// simulated frames per second of wall time for a 4-stream workload.
func BenchmarkEngineFrameThroughput(b *testing.B) {
	spec := platform.DefaultSpec()
	model := hevc.DefaultModel()
	for i := 0; i < b.N; i++ {
		eng, err := transcode.NewEngine(spec, model, 1)
		if err != nil {
			b.Fatal(err)
		}
		set := transcode.Settings{QP: 32, Threads: 8, FreqGHz: 2.9}
		for s := 0; s < 4; s++ {
			seq := &video.Sequence{Name: "bench", Res: video.HR, Frames: 1 << 30, FrameRate: 24,
				BaseComplexity: 1, Dynamism: 0.4, MeanSceneLen: 90}
			src, err := video.NewGenerator(seq, rand.New(rand.NewSource(int64(s))))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.AddSession(transcode.SessionConfig{
				Source: src, Controller: &transcode.Static{S: set},
				Initial: set, FrameBudget: 2500,
			}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*10000/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkEngineManySessions tracks the per-frame scheduling cost as the
// number of simultaneous sessions on one engine grows. The event-scheduled
// core pays O(log n) per frame event (heap pop/push plus incremental load
// accounting), so per-frame cost should stay near-flat as the session
// count grows; the pre-refactor linear scan paid O(n) per event and grew
// ~2.7x from 20 to 100 sessions. The serving subsystem (internal/serve)
// leans on exactly this scaling when a fleet server hosts a deep session
// backlog.
func BenchmarkEngineManySessions(b *testing.B) {
	for _, sessions := range []int{20, 50, 100, 200, 500} {
		b.Run(fmt.Sprintf("%dsessions", sessions), func(b *testing.B) {
			spec := platform.DefaultSpec()
			model := hevc.DefaultModel()
			const framesPer = 200
			set := transcode.Settings{QP: 35, Threads: 2, FreqGHz: 2.3}
			for i := 0; i < b.N; i++ {
				eng, err := transcode.NewEngine(spec, model, 1)
				if err != nil {
					b.Fatal(err)
				}
				for s := 0; s < sessions; s++ {
					seq := &video.Sequence{Name: "bench", Res: video.LR, Frames: 1 << 30, FrameRate: 24,
						BaseComplexity: 1, Dynamism: 0.4, MeanSceneLen: 90}
					src, err := video.NewGenerator(seq, rand.New(rand.NewSource(int64(s))))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := eng.AddSession(transcode.SessionConfig{
						Source: src, Controller: &transcode.Static{S: set},
						Initial: set, FrameBudget: framesPer,
					}); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
			total := float64(b.N) * float64(sessions*framesPer)
			b.ReportMetric(total/b.Elapsed().Seconds(), "frames/s")
			b.ReportMetric(b.Elapsed().Seconds()/total*1e9, "ns/frame")
		})
	}
}

// BenchmarkMAMUTDecision measures controller decisions (action selection
// + deferred Q update) on a trained controller and reports ns/decision
// (ns/op is per frame; an agent decides on 7 of every 24 frames). The
// observations cycle through four PSNR and five FPS bands and depend on
// the knobs in force, so the tables hold many states, an action leads to
// several successors, and Algorithm 1's lookahead walks real successor
// runs. exploit_pct is the share of timed decisions made in exploitation.
func BenchmarkMAMUTDecision(b *testing.B) {
	spec := platform.DefaultSpec()
	cfg := core.DefaultConfig(video.HR, spec, 12)
	ctrl, err := core.New(cfg, transcode.Settings{QP: 32, Threads: 6, FreqGHz: 2.6}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	psnrs := []float64{33, 38, 43, 48}
	fpss := []float64{22, 25, 27, 29, 32}
	observe := func(f int, cur transcode.Settings) transcode.Observation {
		i := f/6 + cur.QP + cur.Threads
		fps := fpss[(i/len(psnrs)+int(cur.FreqGHz*10))%len(fpss)]
		return transcode.Observation{FPS: fps, InstFPS: fps, PSNRdB: psnrs[i%len(psnrs)], PowerW: 90, BitrateMbps: 4}
	}
	decisions := func() (all, exploit int) {
		for _, pc := range ctrl.Stats().ByAgent {
			all += pc.Exploration + pc.ExploreExploit + pc.Exploitation
			exploit += pc.Exploitation
		}
		return all, exploit
	}
	// Warm the tables so decisions exercise the exploitation path.
	const warm = 50000
	cur := ctrl.Settings()
	for f := 0; f < warm; f++ {
		cur = ctrl.OnFrameStart(transcode.FrameStart{FrameIndex: f, Current: cur})
		ctrl.OnFrameDone(observe(f, cur))
	}
	all0, exploit0 := decisions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := warm + i
		cur = ctrl.OnFrameStart(transcode.FrameStart{FrameIndex: f, Current: cur})
		ctrl.OnFrameDone(observe(f, cur))
	}
	b.StopTimer()
	all, exploit := decisions()
	if n := all - all0; n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/decision")
		b.ReportMetric(100*float64(exploit-exploit0)/float64(n), "exploit_pct")
	}
}

// BenchmarkQLearnerUpdate measures the tabular Q update with transition
// recording — the innermost learning operation.
func BenchmarkQLearnerUpdate(b *testing.B) {
	l, err := rl.NewLearner(rl.DefaultConfig(core.NumStates, 12))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := rng.Intn(core.NumStates)
		a := rng.Intn(12)
		n := rng.Intn(core.NumStates)
		l.Update(s, a, n, 0.5, 10)
	}
}

// BenchmarkPlatformEvaluate measures the platform snapshot computation the
// engine performs at every event.
func BenchmarkPlatformEvaluate(b *testing.B) {
	srv, err := platform.NewServer(platform.DefaultSpec(), nil)
	if err != nil {
		b.Fatal(err)
	}
	loads := []platform.SessionLoad{
		{Threads: 10, FreqGHz: 3.2, Speedup: 6.0},
		{Threads: 8, FreqGHz: 2.9, Speedup: 5.2},
		{Threads: 4, FreqGHz: 2.6, Speedup: 2.8},
		{Threads: 5, FreqGHz: 2.3, Speedup: 3.1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Evaluate(loads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncoderFrame measures the per-frame encoder model evaluation.
func BenchmarkEncoderFrame(b *testing.B) {
	enc, err := hevc.NewEncoder(video.HR, hevc.Ultrafast, hevc.DefaultModel(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.FrameWork(32, 1.1); err != nil {
			b.Fatal(err)
		}
		if _, _, err := enc.FrameQuality(32, 1.1); err != nil {
			b.Fatal(err)
		}
	}
}
