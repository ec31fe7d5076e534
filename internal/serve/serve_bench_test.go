package serve

import (
	"fmt"
	"testing"

	"mamut/internal/experiments"
)

// fleetScaleConfig is the fleet-scaling regime: the arrival rate grows
// with the fleet size (so the offered load per server stays constant as
// the fleet grows) and sessions are short, so the per-arrival cost is
// dominated by the dispatcher — advancing engines to the arrival
// instant, refreshing the fleet state and running the placement policy —
// rather than by frame-level simulation work, which is the same under
// every dispatcher. Round-robin placement spreads sessions across the
// whole fleet, so after the first rotation every server has hosted (and
// mostly finished) traffic: the regime where almost no server has an
// event before the next arrival instant, and a full per-arrival sweep
// pays O(servers) for nothing.
func fleetScaleConfig(servers int, policy string) Config {
	rate := 0.02 * float64(servers)
	return Config{
		Servers:  servers,
		Policy:   policy,
		Approach: experiments.Heuristic,
		Workload: Workload{
			ArrivalRate:    rate,
			DurationSec:    100, // ~2x servers arrivals at every fleet size
			MeanSessionSec: 0.1,
			MinSessionSec:  0.04,
		},
		WarmupSec: 1,
		Seed:      1,
		Workers:   1,
	}
}

// BenchmarkFleetScale tracks the per-arrival dispatch cost as the fleet
// grows from 10 to 5000 servers. The seed dispatcher paid O(servers) per
// arrival (advance every engine, rebuild the full state slice, scan the
// whole fleet in the policy), so ns/arrival grew linearly with fleet
// size; the event-heap dispatcher touches only engines with events
// before the arrival instant and places through the policy's fleet
// index, so ns/arrival stays near-flat.
func BenchmarkFleetScale(b *testing.B) {
	for _, servers := range []int{10, 100, 1000, 5000} {
		b.Run(fmt.Sprintf("%dservers", servers), func(b *testing.B) {
			cfg := fleetScaleConfig(servers, PolicyRoundRobin)
			arrivals := 0
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Offered == 0 {
					b.Fatal("no arrivals offered")
				}
				arrivals += res.Offered
			}
			b.ReportMetric(b.Elapsed().Seconds()/float64(arrivals)*1e9, "ns/arrival")
		})
	}
}

// BenchmarkFleetScaleDispatch compares the two in-tree dispatchers on
// the same fleet (the scan path is the seed's O(servers) sweep, retained
// as the reference): the gap is pure dispatch overhead, since both paths
// simulate identical events and produce bit-identical results.
func BenchmarkFleetScaleDispatch(b *testing.B) {
	for _, mode := range dispatchModes {
		for _, servers := range []int{100, 1000} {
			b.Run(fmt.Sprintf("%s/%dservers", mode.name, servers), func(b *testing.B) {
				cfg := fleetScaleConfig(servers, PolicyRoundRobin)
				cfg.reference = mode.reference
				arrivals := 0
				for i := 0; i < b.N; i++ {
					res, err := Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					arrivals += res.Offered
				}
				b.ReportMetric(b.Elapsed().Seconds()/float64(arrivals)*1e9, "ns/arrival")
			})
		}
	}
}
