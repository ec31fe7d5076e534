// Command mamut-fleetbench measures how arrival throughput of the
// serving fleet scales with fleet size: for each size in -sizes it runs
// one service simulation (offered load tracks fleet size via
// -rate-per-server, so every size sees the same per-server load) and
// records wall clock per arrival. Results print as a table and are
// written as a machine-readable JSON artifact (-out), with the measuring
// environment (CPU count, GOMAXPROCS, Go version) stamped in, since wall
// clock is only comparable on the same host.
//
// The workload defaults put the fleet in the frame-dominated regime
// (many resident sessions per arrival interval): the cost of a
// dispatcher step is advancing engines, not placement, so ns/arrival
// tracks the per-frame cost at fleet scale.
//
// Usage:
//
//	mamut-fleetbench                                # default sizes
//	mamut-fleetbench -sizes 10000,50000 -duration 20
//	mamut-fleetbench -out BENCH_fleetscale.json -notes "8-core CI runner"
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mamut"
	"mamut/internal/cliutil"
	"mamut/internal/experiments"
)

func main() {
	var (
		sizes     = flag.String("sizes", "1000,10000", "comma-separated fleet sizes")
		duration  = flag.Float64("duration", 30, "arrival-process horizon per cell (simulated seconds)")
		perServer = flag.Float64("rate-per-server", 0.05, "offered arrival rate per server (sessions/sec); total rate scales with fleet size")
		meanSess  = flag.Float64("mean-session", 10, "mean session length (seconds, exponential)")
		admission = flag.Int("admission", 8, "per-server admission limit (sessions)")
		policy    = flag.String("policy", mamut.PolicyLeastLoaded, "placement policy: "+strings.Join(mamut.ServePolicyNames(), "|"))
		approach  = flag.String("approach", string(mamut.ApproachHeuristic), "per-session controller: mamut|monoagent|heuristic")
		seed      = flag.Int64("seed", 1, "seed")
		out       = flag.String("out", "", "write the JSON scaling artifact to this file (e.g. BENCH_fleetscale.json)")
		notes     = flag.String("notes", "", "free-form note recorded in the artifact (host, runner, context)")
	)
	flag.Parse()

	sizeList, err := cliutil.ParseInts(*sizes)
	if err != nil {
		fatal(fmt.Errorf("-sizes: %w", err))
	}
	for _, n := range sizeList {
		if n < 1 {
			fatal(fmt.Errorf("-sizes: value %d must be >= 1", n))
		}
	}

	report := experiments.NewScalingReport("fleetscale")
	report.Notes = *notes

	fmt.Printf("fleetscale: %s/%s policy, %.0fs horizon, %g arrivals/s/server (GOMAXPROCS=%d, NumCPU=%d)\n",
		*policy, *approach, *duration, *perServer, report.GOMAXPROCS, report.NumCPU)
	fmt.Printf("%-14s %10s %14s\n", "cell", "arrivals", "ns/arrival")

	for _, n := range sizeList {
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
		}
		label := fmt.Sprintf("n%d", n)
		cell, err := report.Measure(label, n, func() (int, error) {
			r, err := mamut.RunService(cfg)
			if err != nil {
				return 0, err
			}
			return r.Offered, nil
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-14s %10d %14.0f\n", label, cell.Arrivals, cell.NsPerArrival)
	}

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
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mamut-fleetbench:", err)
	os.Exit(1)
}
