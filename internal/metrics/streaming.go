package metrics

import (
	"fmt"
	"math"
)

// PowerIntegrator integrates the step function defined by a stream of
// power readings over the window [from, to] and returns its time-weighted
// average without retaining the readings. Each reading holds until the
// next one; the final reading holds until the window end, and the first
// reading extends backwards over any leading gap. Samples must be fed in
// non-decreasing time order, the order in which a transcode engine emits
// its observations. The same sample sequence gives bit-identical
// results, which is what lets the serve dispatcher and the paper harness
// keep their outputs byte-identical for any worker count.
type PowerIntegrator struct {
	from, to float64

	n              int
	firstT, firstW float64
	prevT, prevW   float64
	energy         float64
	covered        float64
}

// NewPowerIntegrator returns an integrator over the window [from, to].
// The window's validity is checked at Average time.
func NewPowerIntegrator(from, to float64) *PowerIntegrator {
	return &PowerIntegrator{from: from, to: to}
}

// Add feeds one power reading at time t. Times must be non-decreasing.
func (p *PowerIntegrator) Add(t, w float64) {
	if p.n == 0 {
		p.firstT, p.firstW = t, w
	} else {
		p.segment(p.prevT, t, p.prevW)
	}
	p.prevT, p.prevW = t, w
	p.n++
}

// segment books the span [segStart, segEnd) at power w, clipped to the
// window.
func (p *PowerIntegrator) segment(segStart, segEnd, w float64) {
	if segEnd <= p.from || segStart >= p.to {
		return
	}
	if segStart < p.from {
		segStart = p.from
	}
	if segEnd > p.to {
		segEnd = p.to
	}
	if segEnd > segStart {
		p.energy += w * (segEnd - segStart)
		p.covered += segEnd - segStart
	}
}

// Samples reports how many readings have been fed.
func (p *PowerIntegrator) Samples() int { return p.n }

// Average closes the integration (the last reading holds to the window
// end, the first extends back over any leading gap) and returns the
// time-weighted mean power. It does not mutate the accumulator, so it
// may be called repeatedly and interleaved with Add. The error cases are
// an empty window, no samples (ErrNoSamples, the caller's idle
// fallback), and a window left uncovered.
func (p *PowerIntegrator) Average() (float64, error) {
	if p.to <= p.from {
		return 0, fmt.Errorf("metrics: empty interval [%g,%g]", p.from, p.to)
	}
	if p.n == 0 {
		return 0, fmt.Errorf("%w in [%g,%g]", ErrNoSamples, p.from, p.to)
	}
	energy, covered := p.energy, p.covered
	// Final segment: the last reading holds until the window end.
	segStart, segEnd := p.prevT, p.to
	if !(segEnd <= p.from || segStart >= p.to) {
		if segStart < p.from {
			segStart = p.from
		}
		if segEnd > segStart {
			energy += p.prevW * (segEnd - segStart)
			covered += segEnd - segStart
		}
	}
	// Leading gap before the first sample: extend the first reading back.
	// It is added last, after every forward segment.
	if first := p.firstT; first > p.from {
		lead := math.Min(first, p.to) - p.from
		if lead > 0 {
			energy += p.firstW * lead
			covered += lead
		}
	}
	if covered <= 0 {
		return 0, fmt.Errorf("%w: interval [%g,%g] not covered", ErrNoSamples, p.from, p.to)
	}
	return energy / covered, nil
}

// Histogram is a fixed-bin streaming quantile sketch over [lo, hi):
// values are counted into equal-width bins plus underflow/overflow
// tails, and quantiles are read back with linear interpolation inside
// the containing bin. Unlike sampling sketches it is deterministic and
// order-independent (insertion order cannot change any estimate), the
// property the serve layer needs for bit-identical results across
// dispatchers and worker counts. Resolution is (hi-lo)/bins; tails clamp
// to the range bounds.
type Histogram struct {
	lo, hi      float64
	counts      []int
	under, over int
	n           int
}

// NewHistogram returns a histogram over [lo, hi) with the given number
// of equal-width bins.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if !(hi > lo) {
		return nil, fmt.Errorf("metrics: histogram range [%g,%g) is empty", lo, hi)
	}
	if bins < 1 {
		return nil, fmt.Errorf("metrics: histogram needs at least 1 bin, got %d", bins)
	}
	return &Histogram{lo: lo, hi: hi, counts: make([]int, bins)}, nil
}

// Add counts one value.
func (h *Histogram) Add(x float64) {
	h.n++
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int(float64(len(h.counts)) * (x - h.lo) / (h.hi - h.lo))
		if i >= len(h.counts) { // guard against rounding at the top edge
			i = len(h.counts) - 1
		}
		h.counts[i]++
	}
}

// N reports how many values have been counted.
func (h *Histogram) N() int { return h.n }

// Quantile returns the q-quantile (q in [0,1]) estimated by linear
// interpolation within the containing bin; underflow and overflow mass
// clamps to the range bounds. It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.n)
	cum := float64(h.under)
	if target <= cum {
		return h.lo
	}
	width := (h.hi - h.lo) / float64(len(h.counts))
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if target <= next {
			binLo := h.lo + float64(i)*width
			return binLo + width*(target-cum)/float64(c)
		}
		cum = next
	}
	return h.hi
}

// DecayedMean is an exponentially time-decayed weighted mean: each
// sample's weight decays as exp(-age/tau), so At reports a recency-
// weighted view of the sample stream — "how is the service doing
// lately" — rather than the lifetime average. Feeding an indicator
// scaled to {0, 100} makes it a windowed percentage. Samples must be
// fed in non-decreasing time order.
type DecayedMean struct {
	tau      float64
	t        float64
	num, den float64
}

// NewDecayedMean returns a decayed mean with time constant tau (seconds).
func NewDecayedMean(tau float64) (*DecayedMean, error) {
	if !(tau > 0) {
		return nil, fmt.Errorf("metrics: decay time constant %g must be positive", tau)
	}
	return &DecayedMean{tau: tau}, nil
}

// Tau returns the time constant.
func (m *DecayedMean) Tau() float64 { return m.tau }

// Add folds one sample observed at time t with unit weight.
func (m *DecayedMean) Add(t, x float64) {
	if dt := t - m.t; dt > 0 {
		f := math.Exp(-dt / m.tau)
		m.num *= f
		m.den *= f
		m.t = t
	}
	m.num += x
	m.den++
}

// Value returns the decayed mean (0 before any sample). Numerator and
// denominator decay by the same factor, so the ratio needs no "as seen
// from" time: only the relative ages of the samples matter.
func (m *DecayedMean) Value() float64 {
	if m.den == 0 {
		return 0
	}
	return m.num / m.den
}
