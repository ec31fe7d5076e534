package metrics

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mamut/internal/transcode"
)

// offlinePower is the retained-trace integration PowerIntegrator
// replaced, kept as its oracle: merge every session's readings, sort them
// by time, and integrate the step function they define over [from, to].
func offlinePower(traces [][]transcode.Observation, from, to float64) (float64, error) {
	if to <= from {
		return 0, fmt.Errorf("metrics: empty interval [%g,%g]", from, to)
	}
	type sample struct{ t, w float64 }
	var samples []sample
	for _, tr := range traces {
		for _, o := range tr {
			samples = append(samples, sample{o.Time, o.PowerW})
		}
	}
	if len(samples) == 0 {
		return 0, fmt.Errorf("%w in [%g,%g]", ErrNoSamples, from, to)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].t < samples[j].t })
	var energy, covered float64
	for i, s := range samples {
		segStart, segEnd := s.t, to
		if i+1 < len(samples) {
			segEnd = samples[i+1].t
		}
		if segEnd <= from || segStart >= to {
			continue
		}
		segStart, segEnd = math.Max(segStart, from), math.Min(segEnd, to)
		if segEnd > segStart {
			energy += s.w * (segEnd - segStart)
			covered += segEnd - segStart
		}
	}
	if first := samples[0].t; first > from {
		if lead := math.Min(first, to) - from; lead > 0 {
			energy += samples[0].w * lead
			covered += lead
		}
	}
	if covered <= 0 {
		return 0, fmt.Errorf("%w: interval [%g,%g] not covered", ErrNoSamples, from, to)
	}
	return energy / covered, nil
}

// TestPowerIntegratorMatchesOffline: the streaming integrator must
// reproduce the retained-trace integration bit for bit when fed the
// merged readings in time order.
func TestPowerIntegratorMatchesOffline(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		from := rng.Float64() * 50
		to := from + 1 + rng.Float64()*100
		// Build multi-session traces the way an engine emits them: a
		// shared clock advancing in batches, every observation in one
		// batch sharing the batch's time and meter reading.
		nSessions := 1 + rng.Intn(4)
		traces := make([][]transcode.Observation, nSessions)
		type sample struct{ t, w float64 }
		var emitted []sample
		clock := rng.Float64() * 20
		for ev := 0; ev < rng.Intn(60); ev++ {
			clock += rng.Float64() * 5
			w := 50 + rng.Float64()*150
			batch := 1 + rng.Intn(3)
			for b := 0; b < batch; b++ {
				s := rng.Intn(nSessions)
				traces[s] = append(traces[s], transcode.Observation{Time: clock, PowerW: w})
				emitted = append(emitted, sample{clock, w})
			}
		}
		want, wantErr := offlinePower(traces, from, to)

		p := NewPowerIntegrator(from, to)
		for _, s := range emitted {
			p.Add(s.t, s.w)
		}
		got, gotErr := p.Average()
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error mismatch: offline %v, streaming %v", trial, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("trial %d: error text mismatch: offline %q, streaming %q", trial, wantErr, gotErr)
			}
			continue
		}
		if got != want {
			t.Fatalf("trial %d: streaming %v != offline %v (diff %g)", trial, got, want, got-want)
		}
	}
}

// TestPowerIntegratorErrors pins the error contract: empty window, no
// samples (ErrNoSamples, the idle fallback), and the error texts.
func TestPowerIntegratorErrors(t *testing.T) {
	// Empty window.
	p := NewPowerIntegrator(10, 10)
	p.Add(5, 100)
	if _, err := p.Average(); err == nil {
		t.Error("empty window accepted")
	} else if errors.Is(err, ErrNoSamples) {
		t.Errorf("empty window misreported as ErrNoSamples: %v", err)
	}

	// No samples: ErrNoSamples so callers can fall back to idle power.
	p = NewPowerIntegrator(0, 10)
	if _, err := p.Average(); !errors.Is(err, ErrNoSamples) {
		t.Errorf("no samples: got %v, want ErrNoSamples", err)
	}

	for _, tc := range []struct {
		from, to float64
		want     string
	}{
		{3, 7, "metrics: no power samples in [3,7]"},
		{7, 3, "metrics: empty interval [7,3]"},
	} {
		if _, err := NewPowerIntegrator(tc.from, tc.to).Average(); err == nil || err.Error() != tc.want {
			t.Errorf("[%g,%g]: error %v, want %q", tc.from, tc.to, err, tc.want)
		}
	}
}

// TestPowerIntegratorIdempotentAverage: Average must not consume state —
// reading mid-stream and at the end gives the same final answer.
func TestPowerIntegratorIdempotentAverage(t *testing.T) {
	p := NewPowerIntegrator(0, 100)
	p.Add(10, 100)
	if _, err := p.Average(); err != nil {
		t.Fatal(err)
	}
	p.Add(50, 200)
	a1, err := p.Average()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := p.Average()
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Errorf("repeated Average: %v then %v", a1, a2)
	}
	// 100 W over [0,50) (the first reading extends back), 200 W over [50,100].
	if a2 != 150 {
		t.Errorf("Average %v, want 150", a2)
	}
}

// TestHistogramQuantiles: exact known distributions, tail clamping and
// order independence.
func TestHistogramQuantiles(t *testing.T) {
	h, err := NewHistogram(0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
	// Uniform 0.5, 1.5, ..., 99.5: one value per bin.
	for i := 0; i < 100; i++ {
		h.Add(float64(i) + 0.5)
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.5, 50, 1}, {0.95, 95, 1}, {0.99, 99, 1}, {0, 0, 1}, {1, 100, 0},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("q=%g: got %g, want %g±%g", tc.q, got, tc.want, tc.tol)
		}
	}

	// Tails clamp to the range bounds.
	h2, _ := NewHistogram(0, 10, 10)
	h2.Add(-5)
	h2.Add(50)
	if got := h2.Quantile(0.25); got != 0 {
		t.Errorf("underflow quantile = %g, want 0", got)
	}
	if got := h2.Quantile(1); got != 10 {
		t.Errorf("overflow quantile = %g, want 10", got)
	}

	// Order independence: shuffled insertion gives identical quantiles.
	rng := rand.New(rand.NewSource(7))
	vals := rng.Perm(1000)
	ha, _ := NewHistogram(0, 1000, 64)
	hb, _ := NewHistogram(0, 1000, 64)
	for _, v := range vals {
		ha.Add(float64(v))
	}
	sort.Ints(vals)
	for _, v := range vals {
		hb.Add(float64(v))
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.95, 0.99, 1} {
		if ha.Quantile(q) != hb.Quantile(q) {
			t.Errorf("q=%g: insertion order changed the estimate", q)
		}
	}
}

// TestDecayedMean: recent samples dominate; without time gaps it is the
// plain mean; invalid tau is rejected.
func TestDecayedMean(t *testing.T) {
	if _, err := NewDecayedMean(0); err == nil {
		t.Error("tau=0 accepted")
	}
	m, err := NewDecayedMean(10)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Value(); got != 0 {
		t.Errorf("empty decayed mean = %g, want 0", got)
	}
	// Same-instant samples: exact arithmetic mean.
	m.Add(0, 10)
	m.Add(0, 20)
	if got := m.Value(); got != 15 {
		t.Errorf("undecayed mean = %g, want 15", got)
	}
	// A much later sample dominates: the old mass decayed by e^-10.
	m.Add(100, 90)
	if got := m.Value(); math.Abs(got-90) > 1e-2 {
		t.Errorf("decayed mean = %g, want ~90", got)
	}
	if m.Tau() != 10 {
		t.Errorf("Tau = %g, want 10", m.Tau())
	}
}

// TestDecayedMeanTinyTauUnderflow: with a tiny time constant the decay
// factor exp(-dt/tau) underflows to exactly 0.0, so the older samples
// vanish completely and the mean equals the newest sample bit for bit —
// underflow degrades to "only the newest samples matter", never to NaN
// or garbage.
func TestDecayedMeanTinyTauUnderflow(t *testing.T) {
	m, err := NewDecayedMean(1e-12)
	if err != nil {
		t.Fatal(err)
	}
	m.Add(0, 1e300) // enormous, but about to be decayed to zero
	m.Add(1, 42)
	if got := m.Value(); got != 42 {
		t.Fatalf("underflow: value %v, want exactly 42", got)
	}
}
