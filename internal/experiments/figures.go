package experiments

import (
	"fmt"
	"math/rand"

	"mamut/internal/core"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

// Fig2Point is one operating point of the Fig. 2 characterisation: a
// (threads, QP) pair measured at 3.2 GHz on a 1080p ultrafast encode.
type Fig2Point struct {
	Threads int
	QP      int
	// FPS is the measured throughput, PowerW the package power.
	FPS    float64
	PowerW float64
	// PSNRdB and BandwidthMBps form the RD curve (bandwidth at the 24 FPS
	// delivery rate, in megabytes per second as in the paper's axis).
	PSNRdB        float64
	BandwidthMBps float64
}

// Fig2Threads and Fig2QPs are the sweep axes of the paper's figure.
var (
	Fig2Threads = []int{1, 2, 4, 6, 8, 10}
	Fig2QPs     = []int{22, 27, 32, 37}
)

// Fig2Sweep reproduces Fig. 2: RD curves plus power/throughput for each
// thread count and QP, one 1080p stream at the top frequency with no
// controller. Measurement noise is disabled for clean curves.
func Fig2Sweep(opts Options) ([]Fig2Point, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	model := opts.Model
	model.PSNRNoiseDB = 0
	model.BitsNoiseFrac = 0
	spec := opts.Spec
	spec.PowerNoiseW = 0

	var points []Fig2Point
	const frames = 120
	for _, th := range Fig2Threads {
		for _, qp := range Fig2QPs {
			eng, err := transcode.NewEngine(spec, model, SubSeed(opts.Seed, "fig2", th*100+qp))
			if err != nil {
				return nil, err
			}
			seq := &video.Sequence{
				Name: "fig2", Res: video.HR, Frames: frames * 2, FrameRate: 24,
				BaseComplexity: 1.0, Dynamism: 0, MeanSceneLen: 1000,
			}
			src, err := video.NewGenerator(seq, rand.New(rand.NewSource(SubSeed(opts.Seed, "fig2src", th*100+qp))))
			if err != nil {
				return nil, err
			}
			set := transcode.Settings{QP: qp, Threads: th, FreqGHz: spec.MaxGHz()}
			if _, err := eng.AddSession(transcode.SessionConfig{
				Source:      src,
				Controller:  &transcode.Static{S: set},
				Initial:     set,
				FrameBudget: frames,
			}); err != nil {
				return nil, err
			}
			res, err := eng.Run()
			if err != nil {
				return nil, err
			}
			sr := res.Sessions[0]
			points = append(points, Fig2Point{
				Threads:       th,
				QP:            qp,
				FPS:           sr.AvgFPS,
				PowerW:        res.AvgPowerW,
				PSNRdB:        sr.AvgPSNRdB,
				BandwidthMBps: sr.AvgBitrateMbps / 8, // Mb/s -> MB/s
			})
		}
	}
	return points, nil
}

// Fig5Result is the detailed execution trace of Fig. 5 plus the
// controller's learning telemetry.
type Fig5Result struct {
	// Trace is the captured window (FrameIndex re-based to 0).
	Trace []transcode.Observation
	// Summary is the window's Tally result: frames, violations and
	// per-frame averages.
	Summary transcode.SessionResult
	// Stats is the MAMUT controller telemetry over the whole run.
	Stats core.Stats
}

// Fig5Trace reproduces Fig. 5: a 500-frame execution trace of MAMUT
// transcoding one HR video, captured after the warm-up window so the
// figure shows the converged policy (threads mostly flat, frequency
// oscillating to hold FPS at the target).
func Fig5Trace(opts Options, window int) (*Fig5Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if window < 1 {
		return nil, fmt.Errorf("experiments: window %d < 1", window)
	}
	rng := rand.New(rand.NewSource(SubSeed(opts.Seed, "fig5", 0)))
	eng, err := transcode.NewEngine(opts.Spec, opts.Model, rng.Int63())
	if err != nil {
		return nil, err
	}
	pool := opts.Catalog.ByResolution(video.HR)
	if len(pool) == 0 {
		return nil, fmt.Errorf("experiments: no HR sequences")
	}
	src, err := video.NewGenerator(pool[0], rand.New(rand.NewSource(rng.Int63())))
	if err != nil {
		return nil, err
	}
	initial := InitialSettings(video.HR)
	ctrl, err := core.New(core.DefaultConfig(video.HR, opts.Spec, opts.Model.MaxUsefulThreads(video.HR)), initial, rand.New(rand.NewSource(rng.Int63())))
	if err != nil {
		return nil, err
	}
	trace := make([]transcode.Observation, 0, window)
	var tally transcode.Tally
	eng.OnFrame(func(o transcode.Observation) {
		if o.FrameIndex >= opts.WarmupFrames && o.FrameIndex < opts.WarmupFrames+window {
			tally.Add(&o, transcode.DefaultTargetFPS)
			o.FrameIndex -= opts.WarmupFrames
			trace = append(trace, o)
		}
	})
	if _, err := eng.AddSession(transcode.SessionConfig{
		Source:        src,
		Controller:    ctrl,
		Initial:       initial,
		BandwidthMbps: core.DefaultBandwidth(video.HR),
		FrameBudget:   opts.WarmupFrames + window,
	}); err != nil {
		return nil, err
	}
	if _, err := eng.Run(); err != nil {
		return nil, err
	}
	return &Fig5Result{Trace: trace, Summary: tally.Result(), Stats: ctrl.Stats()}, nil
}
