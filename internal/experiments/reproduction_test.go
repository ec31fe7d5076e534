package experiments

import "testing"

// TestHeadlineReproduction is the end-to-end regression guard for the
// paper's headline claims at a reduced-but-converging horizon (about a
// second of wall time). It protects the calibrated shape README's "Paper
// claims and their verdicts" documents: if a model or controller change
// breaks an ordering, this test goes red. The horizon was lengthened to
// 60k warm-up frames when the engine's rng streams moved to xrand: at
// 30k the MAMUT controllers were still mid-descent on the power
// objective, and the power ordering (heuristic highest) is only a
// converged-behaviour claim.
func TestHeadlineReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("headline reproduction needs a converging horizon")
	}
	opts := DefaultOptions()
	opts.Repetitions = 1
	opts.WarmupFrames = 60000
	opts.MeasureFrames = 8000

	w := WorkloadSpec{Name: "2HR2LR", HR: 2, LR: 2}
	results := map[Approach]ApproachResult{}
	for _, a := range AllApproaches {
		r, err := RunWorkload(w, ScenarioII, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		results[a] = r
		t.Logf("%-10s watts=%.1f delta=%.1f%% stall=%.1f%% fps=%.1f freq=%.2f",
			a, r.Watts, r.DeltaPct, r.StallPct, r.FPS, r.FreqGHz)
	}
	heur, mono, mamut := results[Heuristic], results[MonoAgent], results[MAMUT]

	// Claim 1 (Fig. 4 / Table II): MAMUT has the fewest QoS violations.
	if mamut.DeltaPct >= heur.DeltaPct {
		t.Errorf("MAMUT delta %.1f%% not below heuristic %.1f%%", mamut.DeltaPct, heur.DeltaPct)
	}
	// The gap to the heuristic is multi-x (paper: up to 8x; require >= 2x).
	if mamut.DeltaPct > 0 && heur.DeltaPct/mamut.DeltaPct < 2 {
		t.Errorf("MAMUT improvement vs heuristic only %.1fx, want >= 2x",
			heur.DeltaPct/mamut.DeltaPct)
	}
	// Claim 2: the heuristic burns the most power (max-frequency governor).
	if heur.Watts <= mamut.Watts || heur.Watts <= mono.Watts {
		t.Errorf("heuristic watts %.1f not the highest (mono %.1f, mamut %.1f)",
			heur.Watts, mono.Watts, mamut.Watts)
	}
	// Claim 3 (Table I fingerprint): heuristic pins the max frequency while
	// the learning managers run below it; MAMUT uses at least as many
	// threads as the heuristic.
	if heur.FreqGHz < 3.19 {
		t.Errorf("heuristic frequency %.2f, want pinned at 3.2", heur.FreqGHz)
	}
	if mamut.FreqGHz >= heur.FreqGHz {
		t.Errorf("MAMUT frequency %.2f not below the heuristic's %.2f", mamut.FreqGHz, heur.FreqGHz)
	}
	if mamut.Nth < heur.Nth {
		t.Errorf("MAMUT threads %.1f below heuristic %.1f", mamut.Nth, heur.Nth)
	}
	// Claim 4 (SIII-D buffering): MAMUT's delivery-side stalls are far
	// below the heuristic's.
	if mamut.StallPct >= heur.StallPct/2 {
		t.Errorf("MAMUT stalls %.1f%% not well below heuristic %.1f%%", mamut.StallPct, heur.StallPct)
	}
	// Constraints met (paper: "all the implementations met the
	// constraints"): power stays under the cap on average.
	for a, r := range results {
		if r.Watts >= opts.Spec.PowerCapW {
			t.Errorf("%s average power %.1f breaches the %g W cap", a, r.Watts, opts.Spec.PowerCapW)
		}
	}
}
