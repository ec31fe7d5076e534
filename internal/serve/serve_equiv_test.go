package serve

import (
	"reflect"
	"testing"

	"mamut/internal/experiments"
)

// equivConfig drives a fleet hard enough that placements, rejections and
// departures all occur, so a divergence between the dispatch paths has
// every chance to surface.
func equivConfig(policy string) Config {
	return Config{
		Servers:              3,
		MaxSessionsPerServer: 3,
		Policy:               policy,
		Approach:             experiments.Heuristic,
		Workload: Workload{
			ArrivalRate:    0.4,
			DurationSec:    150,
			MeanSessionSec: 25,
		},
		WarmupSec: 30,
		Seed:      9,
		Workers:   1,
	}
}

// dispatchModes are the two dispatchers the equivalence tests compare:
// the production dispatcher and the O(servers) scan reference
// (Config.reference).
var dispatchModes = []struct {
	name      string
	reference bool
}{{"indexed", false}, {"scan", true}}

// TestDispatchEquivalence pins the tentpole guarantee: the indexed
// dispatcher (engine event heap, incremental states, policy fleet
// indexes) reproduces the O(servers) scan reference bit for bit — same
// placements, same per-session outcomes, same power accounting — for
// every built-in policy.
func TestDispatchEquivalence(t *testing.T) {
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			scanCfg := equivConfig(policy)
			scanCfg.reference = true
			scan, err := Run(scanCfg)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := Run(equivConfig(policy))
			if err != nil {
				t.Fatal(err)
			}
			if scan.Admitted == 0 || scan.Rejected == 0 {
				t.Fatalf("config not exercising admission and rejection (admitted %d, rejected %d)",
					scan.Admitted, scan.Rejected)
			}
			if !reflect.DeepEqual(scan, idx) {
				t.Error("indexed dispatch diverged from the scan reference")
			}
		})
	}
}

// TestDispatchEquivalenceKnowledge extends the equivalence to knowledge
// reuse (MAMUT controllers, warm starts, fold-order-sensitive store
// state) and to a parallel drain: the indexed path must surface the same
// departures before each arrival, in the same fold order, for any worker
// count.
func TestDispatchEquivalenceKnowledge(t *testing.T) {
	base := Config{
		Servers:              2,
		MaxSessionsPerServer: 6,
		KnowledgeReuse:       true,
		Workload: Workload{
			ArrivalRate:    0.35,
			DurationSec:    120,
			MeanSessionSec: 15,
		},
		WarmupSec: 30,
		Seed:      7,
	}
	run := func(reference bool, workers int) *Result {
		cfg := base
		cfg.reference = reference
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	scan := run(true, 1)
	if scan.KnowledgeContributions == 0 || scan.KnowledgeSeeded == 0 {
		t.Fatalf("config exercised no knowledge activity (contributions %d, seeded %d)",
			scan.KnowledgeContributions, scan.KnowledgeSeeded)
	}
	for _, workers := range []int{1, 4} {
		if got := run(false, workers); !reflect.DeepEqual(scan, got) {
			t.Errorf("indexed knowledge run (workers=%d) diverged from the scan reference", workers)
		}
	}
}

// TestDispatchEquivalenceCustomPolicy: a policy without a fleet index
// still runs on the event-heap sweep with incrementally maintained
// states; the slice it scans must match the rebuilt reference slice at
// every arrival.
func TestDispatchEquivalenceCustomPolicy(t *testing.T) {
	// mostLoaded is deliberately not a FleetIndexer: pick the fullest
	// non-full server (worst-fit), reject only when all are full.
	factory := func() Policy { return mostLoaded{} }
	scanCfg := equivConfig("")
	scanCfg.PolicyFactory = factory
	scanCfg.reference = true
	scan, err := Run(scanCfg)
	if err != nil {
		t.Fatal(err)
	}
	idxCfg := equivConfig("")
	idxCfg.PolicyFactory = factory
	idx, err := Run(idxCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scan, idx) {
		t.Error("indexed dispatch with a scan-only policy diverged from the reference")
	}
}

type mostLoaded struct{}

func (mostLoaded) Name() string { return "most-loaded" }

func (mostLoaded) Place(_ SessionRequest, servers []ServerState) int {
	best := -1
	bestActive := -1
	for _, s := range servers {
		if s.Full() {
			continue
		}
		if s.Active > bestActive {
			best, bestActive = s.Index, s.Active
		}
	}
	return best
}
