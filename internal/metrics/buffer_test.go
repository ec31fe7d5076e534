package metrics

import "testing"

// playout feeds the completion times of one session's frames, in frame
// order, to a Playout at targetFPS with the given pre-roll.
func playout(t *testing.T, targetFPS float64, preroll int, times ...float64) Playout {
	t.Helper()
	p, err := NewPlayout(targetFPS, preroll)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range times {
		p.Add(tm)
	}
	return p
}

func TestBufferedViolationsOnSchedule(t *testing.T) {
	// 24 FPS exactly: frame i completes at i/24. No stalls.
	times := make([]float64, 48)
	for i := range times {
		times[i] = float64(i) / 24
	}
	q := playout(t, 24, 1, times...)
	if q.Stalls != 0 {
		t.Errorf("stalls = %d, want 0", q.Stalls)
	}
	if q.Frames != 48 {
		t.Errorf("frames = %d", q.Frames)
	}
}

func TestBufferedViolationsAbsorbsTransientDip(t *testing.T) {
	// Encode at 30 FPS for 30 frames (builds buffer), then one slow frame
	// (0.25 s), then 30 FPS again. The accumulated earliness should cover
	// the dip: no stalls with an unbounded buffer.
	var times []float64
	tcur := 0.0
	for i := 0; i < 30; i++ {
		tcur += 1.0 / 30
		times = append(times, tcur)
	}
	tcur += 0.25
	times = append(times, tcur)
	for i := 0; i < 30; i++ {
		tcur += 1.0 / 30
		times = append(times, tcur)
	}
	if q := playout(t, 24, 1, times...); q.Stalls != 0 {
		t.Errorf("stalls = %d, want 0 (buffer should absorb the dip)", q.Stalls)
	}
}

func TestBufferedViolationsChronicUnderrun(t *testing.T) {
	// Encoding at 12 FPS against a 24 FPS playout: every frame after the
	// pre-roll stalls.
	times := make([]float64, 24)
	for i := range times {
		times[i] = float64(i) / 12
	}
	q := playout(t, 24, 1, times...)
	if q.Stalls != 23 {
		t.Errorf("stalls = %d, want 23", q.Stalls)
	}
	if want := 100 * 23.0 / 24; q.StallPct() != want {
		t.Errorf("stall pct = %g, want %g", q.StallPct(), want)
	}
}

func TestBufferedViolationsEarlinessCoversLaterDip(t *testing.T) {
	// Race far ahead (60 FPS for 60 frames), then one 0.5 s stall: the
	// accumulated earliness covers it completely.
	var times []float64
	tcur := 0.0
	for i := 0; i < 60; i++ {
		tcur += 1.0 / 60
		times = append(times, tcur)
	}
	tcur += 0.5
	times = append(times, tcur)
	if q := playout(t, 24, 1, times...); q.Stalls != 0 {
		t.Errorf("stalls = %d, want 0", q.Stalls)
	}
}

func TestBufferedViolationsPreroll(t *testing.T) {
	// A slow start is forgiven by a long pre-roll: playout begins only
	// after startupFrames are transcoded.
	times := []float64{1.0, 2.0, 2.04, 2.08, 2.12} // two slow, then 24 FPS
	if q := playout(t, 24, 2, times...); q.Stalls != 0 {
		t.Errorf("stalls = %d, want 0 with pre-roll 2", q.Stalls)
	}
	if q := playout(t, 24, 1, times...); q.Stalls == 0 {
		t.Error("slow start not stalled with pre-roll 1")
	}
	// A window shorter than the pre-roll never starts playout, however
	// slow its frames are.
	if q := playout(t, 24, 8, 1, 5, 9, 13); q.Stalls != 0 || q.Frames != 4 {
		t.Errorf("short window: %d stalls over %d frames, want 0 over 4", q.Stalls, q.Frames)
	}
}

func TestBufferedViolationsErrors(t *testing.T) {
	if _, err := NewPlayout(0, 1); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := NewPlayout(24, 0); err == nil {
		t.Error("zero pre-roll accepted")
	}
	if q := playout(t, 24, 1); q.Frames != 0 || q.StallPct() != 0 {
		t.Error("empty window mishandled")
	}
}
