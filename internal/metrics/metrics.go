// Package metrics turns per-frame observations into the aggregate numbers
// the paper reports: average power (Watts), average threads per video
// (Nth), average throughput (FPS), the QoS-violation percentage (Delta),
// PSNR and bitrate, over observations the caller has already windowed
// (the paper harness keeps only the frames after the learning phase),
// and averages them across repetitions.
//
// Alongside the offline (retained-trace) aggregations, streaming.go
// provides their online counterparts for long-horizon serving runs:
// PowerIntegrator (time-weighted power, bit-identical to
// TimeWeightedPower over the same sample sequence), Histogram (a
// deterministic fixed-bin quantile sketch for p50/p95/p99) and
// DecayedMean (exponentially time-decayed averages). Each folds one
// sample at a time in O(1) memory.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mamut/internal/transcode"
)

// ErrNoSamples reports that TimeWeightedPower had no power readings to
// integrate over the requested window. Callers can treat it as "the
// server was idle over the window" (falling back to idle power) while
// still propagating every other error, which signals a caller bug.
var ErrNoSamples = errors.New("metrics: no power samples")

// SessionSummary aggregates one session's observations over a window.
type SessionSummary struct {
	// Frames is the number of observations summarised.
	Frames int
	// DeltaPct is the percentage of frames whose windowed FPS fell below
	// the target (the paper's QoS-violation metric).
	DeltaPct float64
	// Averages over the window.
	AvgFPS         float64
	AvgPSNRdB      float64
	AvgBitrateMbps float64
	AvgThreads     float64
	AvgFreqGHz     float64
	AvgQP          float64
}

// Summarize aggregates a slice of observations (already windowed by the
// caller) against the given FPS target.
func Summarize(trace []transcode.Observation, targetFPS float64) SessionSummary {
	s := SessionSummary{Frames: len(trace)}
	if len(trace) == 0 {
		return s
	}
	viol := 0
	for _, o := range trace {
		if o.FPS < targetFPS {
			viol++
		}
		s.AvgFPS += o.FPS
		s.AvgPSNRdB += o.PSNRdB
		s.AvgBitrateMbps += o.BitrateMbps
		s.AvgThreads += float64(o.Settings.Threads)
		s.AvgFreqGHz += o.Settings.FreqGHz
		s.AvgQP += float64(o.Settings.QP)
	}
	n := float64(len(trace))
	s.DeltaPct = 100 * float64(viol) / n
	s.AvgFPS /= n
	s.AvgPSNRdB /= n
	s.AvgBitrateMbps /= n
	s.AvgThreads /= n
	s.AvgFreqGHz /= n
	s.AvgQP /= n
	return s
}

// TimeWeightedPower estimates the time-averaged package power over the
// simulated interval [from, to] by integrating the step function defined
// by the merged, time-sorted power readings of all session traces. The
// power reading attached to each observation is the global server power at
// that completion time, so merging all sessions gives a dense sampling.
func TimeWeightedPower(traces [][]transcode.Observation, from, to float64) (float64, error) {
	if to <= from {
		return 0, fmt.Errorf("metrics: empty interval [%g,%g]", from, to)
	}
	type sample struct{ t, w float64 }
	n := 0
	for _, tr := range traces {
		n += len(tr)
	}
	samples := make([]sample, 0, n)
	for _, tr := range traces {
		for _, o := range tr {
			samples = append(samples, sample{o.Time, o.PowerW})
		}
	}
	if len(samples) == 0 {
		return 0, fmt.Errorf("%w in [%g,%g]", ErrNoSamples, from, to)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].t < samples[j].t })

	// Integrate: each sample's reading holds until the next sample.
	var energy, covered float64
	for i, s := range samples {
		segStart := s.t
		segEnd := to
		if i+1 < len(samples) {
			segEnd = samples[i+1].t
		}
		if segEnd <= from || segStart >= to {
			continue
		}
		if segStart < from {
			segStart = from
		}
		if segEnd > to {
			segEnd = to
		}
		if segEnd > segStart {
			energy += s.w * (segEnd - segStart)
			covered += segEnd - segStart
		}
	}
	// Leading gap before the first sample: extend the first reading back.
	if first := samples[0].t; first > from {
		lead := math.Min(first, to) - from
		if lead > 0 {
			energy += samples[0].w * lead
			covered += lead
		}
	}
	if covered <= 0 {
		return 0, fmt.Errorf("%w: interval [%g,%g] not covered", ErrNoSamples, from, to)
	}
	return energy / covered, nil
}

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

// MeanSummary averages per-repetition session summaries field by field.
func MeanSummary(sums []SessionSummary) SessionSummary {
	if len(sums) == 0 {
		return SessionSummary{}
	}
	var out SessionSummary
	for _, s := range sums {
		out.Frames += s.Frames
		out.DeltaPct += s.DeltaPct
		out.AvgFPS += s.AvgFPS
		out.AvgPSNRdB += s.AvgPSNRdB
		out.AvgBitrateMbps += s.AvgBitrateMbps
		out.AvgThreads += s.AvgThreads
		out.AvgFreqGHz += s.AvgFreqGHz
		out.AvgQP += s.AvgQP
	}
	n := float64(len(sums))
	out.Frames = int(float64(out.Frames) / n)
	out.DeltaPct /= n
	out.AvgFPS /= n
	out.AvgPSNRdB /= n
	out.AvgBitrateMbps /= n
	out.AvgThreads /= n
	out.AvgFreqGHz /= n
	out.AvgQP /= n
	return out
}
