// Command mamut-fleetbench measures how arrival throughput of the
// serving fleet scales with Config.Shards: for each fleet size in
// -sizes and each shard count in -shards it runs the identical service
// simulation (same seed, same workload — offered load tracks fleet size
// via -rate-per-server, so every cell of one size processes the same
// arrival stream) and records wall clock per arrival. The per-size
// 1-shard cell is the speedup baseline. Results print as a table and
// are written as a machine-readable JSON artifact (-out), with the
// measuring environment (CPU count, GOMAXPROCS, Go version) stamped in —
// a 1-core host legitimately measures speedup ≈ 1, and the record has to
// say so.
//
// The workload defaults put the fleet in the frame-dominated regime the
// sharding targets (many resident sessions per arrival interval): the
// cost of a dispatcher step is advancing engines, which parallelises,
// not placement, which does not. Shard counts beyond the host's cores
// add barrier overhead for no gain; sweep -shards past NumCPU only to
// see that plateau.
//
// Every cell's service result is checked against the size's 1-shard
// cell (admissions, rejections, SLO attainment), so the benchmark
// doubles as a large-fleet equivalence smoke: a sharding bug cannot
// hide behind a fast wrong answer.
//
// Usage:
//
//	mamut-fleetbench                                # default matrix
//	mamut-fleetbench -sizes 10000,50000 -shards 1,8 -duration 20
//	mamut-fleetbench -out BENCH_fleetscale.json -notes "8-core CI runner"
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mamut"
	"mamut/internal/experiments"
)

func main() {
	var (
		sizes     = flag.String("sizes", "1000,10000", "comma-separated fleet sizes")
		shards    = flag.String("shards", "1,2,4,8", "comma-separated shard counts (include 1 for the speedup baseline)")
		duration  = flag.Float64("duration", 30, "arrival-process horizon per cell (simulated seconds)")
		perServer = flag.Float64("rate-per-server", 0.05, "offered arrival rate per server (sessions/sec); total rate scales with fleet size")
		meanSess  = flag.Float64("mean-session", 10, "mean session length (seconds, exponential)")
		admission = flag.Int("admission", 8, "per-server admission limit (sessions)")
		policy    = flag.String("policy", mamut.PolicyLeastLoaded, "placement policy: "+strings.Join(mamut.ServePolicyNames(), "|"))
		approach  = flag.String("approach", string(mamut.ApproachHeuristic), "per-session controller: mamut|monoagent|heuristic")
		seed      = flag.Int64("seed", 1, "seed; every cell of one fleet size replays the identical arrival stream")
		out       = flag.String("out", "", "write the JSON scaling artifact to this file (e.g. BENCH_fleetscale.json)")
		notes     = flag.String("notes", "", "free-form note recorded in the artifact (host, runner, context)")
	)
	flag.Parse()

	sizeList, err := parseInts(*sizes)
	if err != nil {
		fatal(fmt.Errorf("-sizes: %w", err))
	}
	shardList, err := parseInts(*shards)
	if err != nil {
		fatal(fmt.Errorf("-shards: %w", err))
	}

	report := experiments.NewScalingReport("fleetscale")
	report.Notes = *notes

	fmt.Printf("fleetscale: %s/%s policy, %.0fs horizon, %g arrivals/s/server (GOMAXPROCS=%d, NumCPU=%d)\n",
		*policy, *approach, *duration, *perServer, report.GOMAXPROCS, report.NumCPU)
	fmt.Printf("%-14s %10s %14s %10s  %s\n", "cell", "arrivals", "ns/arrival", "speedup", "result check")

	diverged := false
	for _, n := range sizeList {
		var baseline *mamut.ServeResult
		for _, s := range shardList {
			cfg := mamut.ServeConfig{
				Servers:              n,
				MaxSessionsPerServer: *admission,
				Policy:               *policy,
				Approach:             mamut.Approach(*approach),
				Workload: mamut.ServeWorkload{
					ArrivalRate:    *perServer * float64(n),
					DurationSec:    *duration,
					MeanSessionSec: *meanSess,
				},
				WarmupSec: *duration / 4,
				Seed:      *seed,
				// Every cell drains on the same pool (one worker per
				// CPU), so the speedup column measures sharding alone.
				Workers: 0,
				Shards:  s,
			}
			label := fmt.Sprintf("n%d/s%d", n, s)
			var res *mamut.ServeResult
			cell, err := report.Measure(label, n, s, func() (int, error) {
				r, err := mamut.RunService(cfg)
				if err != nil {
					return 0, err
				}
				res = r
				return r.Offered, nil
			})
			if err != nil {
				fatal(err)
			}
			// Cross-check against the size's first cell: the sharded
			// dispatcher must reproduce the same service outcome.
			check := "baseline"
			if baseline == nil {
				baseline = res
			} else if res.Admitted != baseline.Admitted || res.Rejected != baseline.Rejected ||
				res.SLOAttainedPct != baseline.SLOAttainedPct {
				check = "DIVERGED"
				diverged = true
			} else {
				check = "identical"
			}
			fmt.Printf("%-14s %10d %14.0f %10s  %s\n", label, cell.Arrivals, cell.NsPerArrival, "-", check)
		}
	}
	best := report.ComputeSpeedups()
	for _, c := range report.Cells {
		if c.SpeedupX > 0 {
			fmt.Printf("%-14s speedup %.2fx vs 1 shard\n", c.Label, c.SpeedupX)
		}
	}
	fmt.Printf("best speedup: %.2fx\n", best)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := report.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("artifact written to %s\n", *out)
	}
	if diverged {
		fatal(fmt.Errorf("sharded cells diverged from their 1-shard baselines"))
	}
}

// parseInts parses a comma-separated list of positive ints.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("value %d must be >= 1", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mamut-fleetbench:", err)
	os.Exit(1)
}
