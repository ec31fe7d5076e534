package serve

import (
	"fmt"

	"mamut/internal/experiments"
)

// GridSpec describes a (policy x arrival-rate x seed) experiment grid.
// Every cell is one full service run derived from Base; cells are
// independent and fan out across the experiments.RunUnits worker pool
// with bit-identical results for any worker count.
type GridSpec struct {
	// Base is the cell template; Policy, Workload.ArrivalRate and Seed
	// are overridden per cell, and each cell runs its fleet serially so
	// the grid level owns the parallelism.
	Base Config
	// Policies, ArrivalRates and Seeds span the grid. An empty axis
	// falls back to the Base value (a single point on that axis).
	Policies     []string
	ArrivalRates []float64
	Seeds        []int64
	// Workers sizes the grid's worker pool (0 = one per CPU).
	Workers int
	// Checkpoint, when non-nil, streams each cell's result as it
	// completes and lets an interrupted grid resume: cells already on
	// file are restored bit-identically instead of recomputed.
	Checkpoint experiments.Checkpointer[*Result]
}

// GridCell couples one grid coordinate with its service result.
type GridCell struct {
	Policy      string
	ArrivalRate float64
	Seed        int64
	Result      *Result
}

// RunGrid runs every cell of the grid and returns the cells in
// policy-major, then rate, then seed order — the same order the
// equivalent serial nested loops would produce.
func RunGrid(spec GridSpec) ([]GridCell, error) {
	// With an explicit Policies axis the cells run named policies; with
	// no axis the base config's policy — including a custom
	// PolicyFactory — is the single point on that axis.
	policies := spec.Policies
	usingFactory := false
	if len(policies) == 0 {
		if spec.Base.PolicyFactory != nil {
			p := spec.Base.PolicyFactory()
			if p == nil {
				return nil, fmt.Errorf("serve: policy factory returned nil")
			}
			usingFactory = true
			policies = []string{p.Name()}
		} else {
			policies = []string{spec.Base.withDefaults().Policy}
		}
	}
	rates := spec.ArrivalRates
	if len(rates) == 0 {
		rates = []float64{spec.Base.Workload.ArrivalRate}
	}
	seeds := spec.Seeds
	if len(seeds) == 0 {
		seeds = []int64{spec.Base.Seed}
	}
	if spec.Workers < 0 {
		return nil, fmt.Errorf("serve: workers %d < 0", spec.Workers)
	}

	var units []experiments.Unit[*Result]
	var cells []GridCell
	for _, p := range policies {
		for _, r := range rates {
			for _, s := range seeds {
				cfg := spec.Base
				cfg.Policy = p
				if !usingFactory {
					cfg.PolicyFactory = nil
				}
				cfg.Workload.ArrivalRate = r
				cfg.Seed = s
				cfg.Workers = 1
				cells = append(cells, GridCell{Policy: p, ArrivalRate: r, Seed: s})
				units = append(units, experiments.Unit[*Result]{
					Label: fmt.Sprintf("%s rate=%g seed=%d", p, r, s),
					Run:   func() (*Result, error) { return Run(cfg) },
				})
			}
		}
	}
	outs, _, err := experiments.RunUnitsCheckpointed(spec.Workers, units, nil, spec.Checkpoint)
	if err != nil {
		return nil, err
	}
	for i := range cells {
		cells[i].Result = outs[i]
	}
	return cells, nil
}
