package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mamut/internal/transcode"
)

func obs(frame int, t, fps float64, power float64) transcode.Observation {
	return transcode.Observation{
		FrameIndex: frame, Time: t, FPS: fps, InstFPS: fps,
		PSNRdB: 36, BitrateMbps: 4, PowerW: power,
		Settings: transcode.Settings{QP: 32, Threads: 8, FreqGHz: 2.9},
	}
}

// integrate feeds readings to a PowerIntegrator over [from, to] in the
// given order and returns its average.
func integrate(from, to float64, readings ...transcode.Observation) (float64, error) {
	p := NewPowerIntegrator(from, to)
	for _, o := range readings {
		p.Add(o.Time, o.PowerW)
	}
	return p.Average()
}

func TestTimeWeightedPowerConstant(t *testing.T) {
	p, err := integrate(1, 3, obs(0, 1, 25, 100), obs(1, 2, 25, 100), obs(2, 3, 25, 100))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-100) > 1e-9 {
		t.Errorf("power = %g, want 100", p)
	}
}

func TestTimeWeightedPowerStep(t *testing.T) {
	// 100 W during [0,1), 50 W during [1,2): average 75.
	p, err := integrate(0, 2, obs(0, 0, 25, 100), obs(1, 1, 25, 50))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-75) > 1e-9 {
		t.Errorf("power = %g, want 75", p)
	}
}

func TestTimeWeightedPowerMergesSessions(t *testing.T) {
	// Session A samples at t=0 (100 W), session B at t=1 (60 W), fed in
	// time order; window [0,2] sees 100 for 1s then 60 for 1s.
	a, b := obs(0, 0, 25, 100), obs(0, 1, 25, 60)
	a.SessionID, b.SessionID = 0, 1
	p, err := integrate(0, 2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-80) > 1e-9 {
		t.Errorf("power = %g, want 80", p)
	}
}

func TestTimeWeightedPowerLeadingGap(t *testing.T) {
	// First sample at t=5; window [3,6]: the first reading extends back.
	p, err := integrate(3, 6, obs(0, 5, 25, 90))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-90) > 1e-9 {
		t.Errorf("power = %g, want 90", p)
	}
}

func TestTimeWeightedPowerErrors(t *testing.T) {
	if _, err := integrate(0, 1); err == nil {
		t.Error("no samples accepted")
	}
	if _, err := integrate(2, 1, obs(0, 0, 25, 100)); err == nil {
		t.Error("inverted interval accepted")
	}
}

func TestMeanAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); math.Abs(m-5) > 1e-12 {
		t.Errorf("mean = %g", m)
	}
	if s := StdDev(xs); math.Abs(s-2.138089935299395) > 1e-9 {
		t.Errorf("stddev = %g", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate cases wrong")
	}
}

func TestMeanSummary(t *testing.T) {
	a := transcode.SessionResult{Frames: 100, ViolationPct: 10, AvgFPS: 24, AvgPSNRdB: 34, AvgThreads: 10, AvgFreqGHz: 2.8, AvgQP: 32, AvgBitrateMbps: 4}
	b := transcode.SessionResult{Frames: 100, ViolationPct: 20, AvgFPS: 26, AvgPSNRdB: 36, AvgThreads: 12, AvgFreqGHz: 3.0, AvgQP: 34, AvgBitrateMbps: 6}
	m := MeanSummary([]transcode.SessionResult{a, b})
	if m.ViolationPct != 15 || m.AvgFPS != 25 || m.AvgThreads != 11 || m.AvgBitrateMbps != 5 {
		t.Errorf("mean summary %+v", m)
	}
	if z := MeanSummary(nil); z.Frames != 0 {
		t.Error("empty mean not zero")
	}
}

// Property: time-weighted power of readings bounded in [lo,hi] stays in
// [lo,hi].
func TestTimeWeightedPowerBoundsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		n := 3 + int(seed%13+13)%13
		tr := make([]transcode.Observation, 0, n)
		tcur := 0.0
		lo, hi := 60.0, 120.0
		s := uint64(seed)
		next := func() float64 { // tiny deterministic LCG
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s%1000) / 999
		}
		for i := 0; i < n; i++ {
			tcur += 0.01 + next()
			tr = append(tr, obs(i, tcur, 25, lo+(hi-lo)*next()))
		}
		p, err := integrate(tr[0].Time, tr[len(tr)-1].Time+1, tr...)
		if err != nil {
			return false
		}
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWriteTraceCSV(t *testing.T) {
	var buf bytes.Buffer
	trace := []transcode.Observation{obs(0, 0.5, 25, 80), obs(1, 0.54, 26, 81)}
	trace[0].SequenceName = "Kimono"
	if err := WriteTraceCSV(&buf, trace); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "frame,time_s,fps") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "Kimono") {
		t.Errorf("row = %q", lines[1])
	}
}
