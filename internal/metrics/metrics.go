// Package metrics turns per-frame observations into the aggregate numbers
// the paper reports and the serve layer prints. The per-frame aggregates
// fold one sample at a time, in O(1) memory, as the engine emits its
// observations through OnFrame, so none needs a retained trace. The
// per-session counts and averages (Nth, FPS, the QoS-violation
// percentage Delta, PSNR, bitrate) are transcode.Tally, the fold the
// engine itself keeps. This package adds the rest: PowerIntegrator
// (time-weighted power over a window), Playout (delivery-side stalls
// under a playout buffer), Histogram (a deterministic fixed-bin quantile
// sketch for p50/p95/p99), DecayedMean (exponentially time-decayed
// averages), and the across-repetition means (Mean, StdDev,
// MeanSummary).
package metrics

import (
	"errors"
	"math"

	"mamut/internal/transcode"
)

// ErrNoSamples reports that a PowerIntegrator had no power readings to
// integrate over its window. Callers can treat it as "the server was
// idle over the window" (falling back to idle power) while still
// propagating every other error, which signals a caller bug.
var ErrNoSamples = errors.New("metrics: no power samples")

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (0 for fewer than two
// values).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// MeanSummary averages per-repetition session results field by field:
// the frame count, the violation percentage and the per-frame averages.
func MeanSummary(rs []transcode.SessionResult) transcode.SessionResult {
	if len(rs) == 0 {
		return transcode.SessionResult{}
	}
	var out transcode.SessionResult
	for _, r := range rs {
		out.Frames += r.Frames
		out.ViolationPct += r.ViolationPct
		out.AvgFPS += r.AvgFPS
		out.AvgPSNRdB += r.AvgPSNRdB
		out.AvgBitrateMbps += r.AvgBitrateMbps
		out.AvgThreads += r.AvgThreads
		out.AvgFreqGHz += r.AvgFreqGHz
		out.AvgQP += r.AvgQP
	}
	n := float64(len(rs))
	out.Frames = int(float64(out.Frames) / n)
	out.ViolationPct /= n
	out.AvgFPS /= n
	out.AvgPSNRdB /= n
	out.AvgBitrateMbps /= n
	out.AvgThreads /= n
	out.AvgFreqGHz /= n
	out.AvgQP /= n
	return out
}
