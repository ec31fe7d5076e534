package experiments

import (
	"fmt"
	"math/rand"

	"mamut/internal/core"
	"mamut/internal/transcode"
	"mamut/internal/video"
)

// AblationResult is one MAMUT variant's behaviour on the ablation
// workload.
type AblationResult struct {
	// Name identifies the variant.
	Name string
	// Headline metrics on the measured window.
	DeltaPct float64
	Watts    float64
	FPS      float64
	PSNRdB   float64
}

// AblationVariant describes one modification of the MAMUT configuration.
type AblationVariant struct {
	// Name identifies the variant in reports.
	Name string
	// Mutate adjusts the default per-stream configuration.
	Mutate func(*core.Config)
}

// DefaultAblations returns the design-choice ablations; README "Paper
// claims and their verdicts" holds the claims they are measured against.
func DefaultAblations() []AblationVariant {
	return []AblationVariant{
		{Name: "mamut-full", Mutate: func(*core.Config) {}},
		{Name: "no-cooperation", Mutate: func(c *core.Config) { c.Cooperative = false }},
		{Name: "no-alpha-coupling", Mutate: func(c *core.Config) { c.BetaPrime = 0 }},
		{Name: "uniform-periods", Mutate: func(c *core.Config) { c.Schedule = core.UniformSchedule(6) }},
	}
}

// RunAblations measures every variant on the given workload (the paper's
// moderately loaded 2HR1LR mix by default when w is zero-valued). All
// (variant x repetition) units run concurrently on the Options.Workers
// pool; aggregation stays in variant/repetition order, so the numbers
// match a serial sweep exactly.
func RunAblations(w WorkloadSpec, opts Options, variants []AblationVariant) ([]AblationResult, error) {
	if w.Sessions() == 0 {
		w = WorkloadSpec{Name: "2HR1LR", HR: 2, LR: 1}
	}
	if len(variants) == 0 {
		variants = DefaultAblations()
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	var units []Unit[repOutcome]
	for _, v := range variants {
		factory := func(res video.Resolution, initial transcode.Settings, rng *rand.Rand) (transcode.Controller, error) {
			cfg := core.DefaultConfig(res, opts.Spec, opts.Model.MaxUsefulThreads(res))
			v.Mutate(&cfg)
			return core.New(cfg, initial, rng)
		}
		units = append(units, repUnits(w, ScenarioI, "ablation|"+v.Name, factory, opts)...)
	}
	outs, err := RunUnits(opts.Workers, units, opts.Progress)
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation: %w", err)
	}
	out := make([]AblationResult, 0, len(variants))
	for i, v := range variants {
		r := aggregateReps(outs[i*opts.Repetitions : (i+1)*opts.Repetitions])
		out = append(out, AblationResult{
			Name:     v.Name,
			DeltaPct: r.DeltaPct,
			Watts:    r.Watts,
			FPS:      r.FPS,
			PSNRdB:   r.PSNRdB,
		})
	}
	return out, nil
}
