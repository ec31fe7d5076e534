package platform

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func mustServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer(DefaultSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestDefaultSpecTopology(t *testing.T) {
	s := DefaultSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.PhysicalCores() != 16 {
		t.Errorf("physical cores = %d, want 16", s.PhysicalCores())
	}
	if s.LogicalCPUs() != 32 {
		t.Errorf("logical CPUs = %d, want 32", s.LogicalCPUs())
	}
	if s.MaxGHz() != 3.2 {
		t.Errorf("max frequency = %g, want 3.2", s.MaxGHz())
	}
}

func TestRealTimeFrequenciesMatchPaper(t *testing.T) {
	s := DefaultSpec()
	got := s.RealTimeFrequencies()
	want := []float64{1.6, 1.9, 2.3, 2.6, 2.9, 3.2}
	if len(got) != len(want) {
		t.Fatalf("real-time rungs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("real-time rungs = %v, want %v", got, want)
		}
	}
	// The full ladder additionally has the sub-real-time rungs the paper
	// discards (1.2, 1.4).
	if n := len(s.Frequencies()); n != 8 {
		t.Errorf("full ladder has %d rungs, want 8", n)
	}
}

func TestSpecValidateRejectsBadSpecs(t *testing.T) {
	mut := []func(*Spec){
		func(s *Spec) { s.Sockets = 0 },
		func(s *Spec) { s.Ladder = nil },
		func(s *Spec) { s.Ladder = []FreqVolt{{2, 1}, {1, 1}} },
		func(s *Spec) { s.Ladder[2].Volts = 0 },
		func(s *Spec) { s.DynPowerPerCoreW = 0 },
		func(s *Spec) { s.HTEfficiency = 1.5 },
		func(s *Spec) { s.PowerCapW = s.IdlePowerW },
		func(s *Spec) { s.PowerNoiseW = -1 },
		func(s *Spec) { s.MinRealTimeGHz = 1.7 },
	}
	for i, f := range mut {
		s := DefaultSpec()
		f(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestVFNormMonotoneAndNormalised(t *testing.T) {
	s := DefaultSpec()
	prev := 0.0
	for _, f := range s.Frequencies() {
		vf, err := s.VFNorm(f)
		if err != nil {
			t.Fatal(err)
		}
		if vf <= prev {
			t.Fatalf("VFNorm not strictly increasing at %g GHz", f)
		}
		prev = vf
	}
	top, _ := s.VFNorm(s.MaxGHz())
	if math.Abs(top-1) > 1e-12 {
		t.Errorf("VFNorm at top = %g, want 1", top)
	}
	if _, err := s.VFNorm(2.0); err == nil {
		t.Error("off-ladder frequency accepted")
	}
}

func TestStepUpDown(t *testing.T) {
	s := DefaultSpec()
	if got := s.StepUp(2.3, true); got != 2.6 {
		t.Errorf("StepUp(2.3) = %g, want 2.6", got)
	}
	if got := s.StepUp(3.2, true); got != 3.2 {
		t.Errorf("StepUp at top = %g, want 3.2", got)
	}
	if got := s.StepDown(2.3, true); got != 1.9 {
		t.Errorf("StepDown(2.3) = %g, want 1.9", got)
	}
	if got := s.StepDown(1.6, true); got != 1.6 {
		t.Errorf("StepDown at real-time floor = %g, want 1.6", got)
	}
	if got := s.StepDown(1.6, false); got != 1.4 {
		t.Errorf("StepDown(1.6, all rungs) = %g, want 1.4", got)
	}
}

func TestNearest(t *testing.T) {
	s := DefaultSpec()
	cases := []struct{ in, want float64 }{
		{0.5, 1.2}, {1.25, 1.2}, {1.31, 1.4}, {2.8, 2.9}, {5.0, 3.2}, {2.3, 2.3},
	}
	for _, c := range cases {
		if got := s.Nearest(c.in); got != c.want {
			t.Errorf("Nearest(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

// TestLadderWalksMatchFrequencyLists: Nearest, StepUp and StepDown walk
// the ladder in place and answer exactly what a search over the
// Frequencies/RealTimeFrequencies lists answers, for on-rung, between-rung
// and out-of-range inputs.
func TestLadderWalksMatchFrequencyLists(t *testing.T) {
	s := DefaultSpec()
	nearest := func(f float64) float64 {
		freqs := s.Frequencies()
		i := sort.SearchFloat64s(freqs, f)
		switch {
		case i == 0:
			return freqs[0]
		case i == len(freqs):
			return freqs[len(freqs)-1]
		case f-freqs[i-1] <= freqs[i]-f:
			return freqs[i-1]
		}
		return freqs[i]
	}
	step := func(f float64, rt, up bool) float64 {
		freqs := s.Frequencies()
		if rt {
			freqs = s.RealTimeFrequencies()
		}
		best := f
		for _, g := range freqs {
			if up && g > f {
				return g
			}
			if !up && g < f && (best == f || g > best) {
				best = g
			}
		}
		return best
	}
	var in []float64
	for _, f := range s.Frequencies() {
		in = append(in, f, f-0.05, f+0.05, math.Nextafter(f, 0), math.Nextafter(f, 9))
	}
	in = append(in, -1, 0, 0.5, 9, math.Inf(1), math.Inf(-1))
	for _, f := range in {
		if got, want := s.Nearest(f), nearest(f); got != want {
			t.Errorf("Nearest(%v) = %v, want %v", f, got, want)
		}
		for _, rt := range []bool{false, true} {
			if got, want := s.StepUp(f, rt), step(f, rt, true); got != want {
				t.Errorf("StepUp(%v, %v) = %v, want %v", f, rt, got, want)
			}
			if got, want := s.StepDown(f, rt), step(f, rt, false); got != want {
				t.Errorf("StepDown(%v, %v) = %v, want %v", f, rt, got, want)
			}
		}
	}
}

// TestLadderWalksAllocateNothing gates the per-frame DVFS lookups: the
// engine calls Nearest on every frame, so none of the walks may allocate.
func TestLadderWalksAllocateNothing(t *testing.T) {
	s := DefaultSpec()
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		sink += s.Nearest(2.45) + s.StepUp(2.3, true) + s.StepDown(2.3, false)
	}); n != 0 {
		t.Fatalf("ladder walks allocate %v times per call, want 0", n)
	}
	_ = sink
}

func TestCapacityCoresRegimes(t *testing.T) {
	srv := mustServer(t)
	// Up to 16 threads each gets a whole core.
	for _, n := range []int{1, 8, 16} {
		if got := srv.capacityCores(n); got != float64(n) {
			t.Errorf("capacity(%d) = %g, want %d", n, got, n)
		}
	}
	// Hyperthreaded region: each extra sibling adds HTEfficiency of a
	// core. At 32 threads: 16 + 0.25*16 = 20 core-equivalents.
	c24 := srv.capacityCores(24)
	if want := 16 + 0.25*8; math.Abs(c24-want) > 1e-12 {
		t.Errorf("capacity(24) = %g, want %g", c24, want)
	}
	c32 := srv.capacityCores(32)
	if want := 20.0; math.Abs(c32-want) > 1e-12 {
		t.Errorf("capacity(32) = %g, want %g", c32, want)
	}
	// Oversubscription adds nothing.
	if srv.capacityCores(64) != c32 {
		t.Error("capacity should be flat past the logical CPU count")
	}
	if srv.capacityCores(0) != 0 {
		t.Error("capacity(0) should be 0")
	}
}

func TestEvaluateSingleSessionPowerAnchor(t *testing.T) {
	// Fig. 2 anchor: one 1080p stream, 10 threads at 3.2 GHz with WPP
	// speedup ~6 should land near 75-80 W; 1 thread near 52-55 W.
	srv := mustServer(t)
	snap, err := srv.Evaluate([]SessionLoad{{Threads: 10, FreqGHz: 3.2, Speedup: 6.0}})
	if err != nil {
		t.Fatal(err)
	}
	if snap.PowerIdealW < 70 || snap.PowerIdealW > 85 {
		t.Errorf("10-thread power = %.1f W, want ~80", snap.PowerIdealW)
	}
	snap1, err := srv.Evaluate([]SessionLoad{{Threads: 1, FreqGHz: 3.2, Speedup: 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	if snap1.PowerIdealW < 50 || snap1.PowerIdealW > 60 {
		t.Errorf("1-thread power = %.1f W, want ~55", snap1.PowerIdealW)
	}
	if snap1.PowerIdealW >= snap.PowerIdealW {
		t.Error("power should grow with busy cores")
	}
}

func TestEvaluateRates(t *testing.T) {
	srv := mustServer(t)
	loads := []SessionLoad{
		{Threads: 10, FreqGHz: 3.2, Speedup: 6.0},
		{Threads: 5, FreqGHz: 1.6, Speedup: 3.0},
	}
	snap, err := srv.Evaluate(loads)
	if err != nil {
		t.Fatal(err)
	}
	if snap.TotalThreads != 15 {
		t.Errorf("total threads = %d, want 15", snap.TotalThreads)
	}
	if snap.Scale != 1 {
		t.Errorf("scale = %g, want 1 (demand 9 fits capacity 15)", snap.Scale)
	}
	if math.Abs(snap.UsefulDemand-9.0) > 1e-12 {
		t.Errorf("useful demand = %g, want 9", snap.UsefulDemand)
	}
	if want := 3.2e9 * 6.0; math.Abs(snap.Rates[0]-want) > 1 {
		t.Errorf("rate0 = %g, want %g", snap.Rates[0], want)
	}
	if want := 1.6e9 * 3.0; math.Abs(snap.Rates[1]-want) > 1 {
		t.Errorf("rate1 = %g, want %g", snap.Rates[1], want)
	}
}

func TestEvaluateContentionSlowsEveryone(t *testing.T) {
	srv := mustServer(t)
	one := []SessionLoad{{Threads: 12, FreqGHz: 3.2, Speedup: 6.5}}
	snapOne, err := srv.Evaluate(one)
	if err != nil {
		t.Fatal(err)
	}
	four := []SessionLoad{
		{Threads: 12, FreqGHz: 3.2, Speedup: 6.5},
		{Threads: 12, FreqGHz: 3.2, Speedup: 6.5},
		{Threads: 12, FreqGHz: 3.2, Speedup: 6.5},
		{Threads: 12, FreqGHz: 3.2, Speedup: 6.5},
	}
	snapFour, err := srv.Evaluate(four)
	if err != nil {
		t.Fatal(err)
	}
	if snapFour.Rates[0] >= snapOne.Rates[0] {
		t.Errorf("oversubscription did not slow session: %g >= %g", snapFour.Rates[0], snapOne.Rates[0])
	}
	if snapFour.PowerIdealW <= snapOne.PowerIdealW {
		t.Error("more sessions should burn more power")
	}
}

func TestEvaluateErrors(t *testing.T) {
	srv := mustServer(t)
	bad := []([]SessionLoad){
		{{Threads: 0, FreqGHz: 3.2, Speedup: 1}},
		{{Threads: 4, FreqGHz: 2.0, Speedup: 2}},  // off-ladder freq
		{{Threads: 4, FreqGHz: 3.2, Speedup: 0}},  // zero speedup
		{{Threads: 4, FreqGHz: 3.2, Speedup: 10}}, // speedup > threads
	}
	for i, loads := range bad {
		if _, err := srv.Evaluate(loads); err == nil {
			t.Errorf("bad load %d accepted", i)
		}
	}
}

func TestEvaluateEmptyLoadsIsIdle(t *testing.T) {
	srv := mustServer(t)
	snap, err := srv.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap.PowerIdealW != DefaultSpec().IdlePowerW {
		t.Errorf("idle power = %g, want %g", snap.PowerIdealW, DefaultSpec().IdlePowerW)
	}
}

func TestPowerNoise(t *testing.T) {
	spec := DefaultSpec()
	srv, err := NewServer(spec, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	loads := []SessionLoad{{Threads: 8, FreqGHz: 2.6, Speedup: 5}}
	varied := false
	for i := 0; i < 40; i++ {
		snap, err := srv.Evaluate(loads)
		if err != nil {
			t.Fatal(err)
		}
		if snap.PowerW != snap.PowerIdealW {
			varied = true
		}
		if math.Abs(snap.PowerW-snap.PowerIdealW) > 6*spec.PowerNoiseW {
			t.Errorf("power jitter too large: %g vs %g", snap.PowerW, snap.PowerIdealW)
		}
	}
	if !varied {
		t.Error("metering noise never applied")
	}
}

func TestOverCap(t *testing.T) {
	srv := mustServer(t)
	if srv.OverCap(139.9) {
		t.Error("139.9 W flagged over a 140 W cap")
	}
	if !srv.OverCap(140.0) {
		t.Error("140.0 W not flagged over cap")
	}
}

// Property: power is monotone in frequency and in speedup, and strength is
// non-increasing in total threads.
func TestPlatformMonotonicityProperty(t *testing.T) {
	srv := mustServer(t)
	spec := DefaultSpec()
	freqs := spec.Frequencies()
	prop := func(fIdx uint8, su float64, extra uint8) bool {
		i := int(fIdx) % (len(freqs) - 1)
		s := 0.5 + math.Mod(math.Abs(su), 6.0)
		lo, err1 := srv.Evaluate([]SessionLoad{{Threads: 8, FreqGHz: freqs[i], Speedup: s}})
		hi, err2 := srv.Evaluate([]SessionLoad{{Threads: 8, FreqGHz: freqs[i+1], Speedup: s}})
		if err1 != nil || err2 != nil {
			return false
		}
		if hi.PowerIdealW <= lo.PowerIdealW || hi.Rates[0] <= lo.Rates[0] {
			return false
		}
		t1 := 1 + int(extra)%40
		t2 := t1 + 1 + int(extra)%8
		return srv.capacityCores(t2) >= srv.capacityCores(t1)-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
