package serve

import (
	"math/rand"
	"reflect"
	"testing"

	"mamut/internal/experiments"
	"mamut/internal/video"
)

// The sharded dispatcher's whole contract is invisibility: Shards=S must
// reproduce the unsharded run bit for bit — same placements, same folds,
// same floats — for every policy, both dispatch paths, knowledge reuse
// and the elastic features. These tests pin the contract with DeepEqual
// against the unsharded reference; `go test -race` doubles them as the
// data-race proof of the barrier discipline.

// shardConfig spreads load over enough servers that every shard owns
// several, with admission pressure so placements, rejections and
// departures all cross shard boundaries.
func shardConfig(policy string) Config {
	return Config{
		Servers:              8,
		MaxSessionsPerServer: 3,
		Policy:               policy,
		Approach:             experiments.Heuristic,
		Workload: Workload{
			ArrivalRate:    1.0,
			DurationSec:    150,
			MeanSessionSec: 20,
		},
		WarmupSec: 30,
		Seed:      9,
		Workers:   1,
	}
}

// TestShardEquivalence: for every built-in policy and both dispatchers,
// sharded runs (including a shard count exceeding the fleet, which
// clamps) are bit-identical to the unsharded reference.
func TestShardEquivalence(t *testing.T) {
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			for _, mode := range dispatchModes {
				base := shardConfig(policy)
				base.reference = mode.reference
				want, err := Run(base)
				if err != nil {
					t.Fatal(err)
				}
				if want.Admitted == 0 || want.Rejected == 0 {
					t.Fatalf("config not exercising admission and rejection (admitted %d, rejected %d)",
						want.Admitted, want.Rejected)
				}
				for _, shards := range []int{1, 2, 3, 16} {
					cfg := shardConfig(policy)
					cfg.reference = mode.reference
					cfg.Shards = shards
					got, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("%s shards=%d diverged from the unsharded reference", mode.name, shards)
					}
				}
			}
		})
	}
}

// TestShardEquivalenceKnowledge: the shard-buffered harvest hand-off
// must leave the knowledge store — and every warm start seeded from it —
// exactly where the inline hook leaves it.
func TestShardEquivalenceKnowledge(t *testing.T) {
	base := shardConfig(PolicyLeastLoaded)
	base.Servers = 4
	base.Approach = experiments.MAMUT
	base.KnowledgeReuse = true
	base.Workload.ArrivalRate = 0.5
	base.Workload.DurationSec = 120
	run := func(shards, workers int) *Result {
		cfg := base
		cfg.Shards = shards
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(0, 1)
	if want.KnowledgeContributions == 0 || want.KnowledgeSeeded == 0 {
		t.Fatalf("config exercised no knowledge activity (contributions %d, seeded %d)",
			want.KnowledgeContributions, want.KnowledgeSeeded)
	}
	for _, shards := range []int{2, 4} {
		for _, workers := range []int{1, 4} {
			if got := run(shards, workers); !reflect.DeepEqual(want, got) {
				t.Errorf("shards=%d workers=%d knowledge run diverged from the unsharded reference", shards, workers)
			}
		}
	}
}

// TestShardEquivalenceElastic: epochs, drains, autoscaling (which grows
// the fleet into the shards mid-run), rebalancer migrations and their
// mid-epoch engine advances all run in the serial phase — the sharded
// run must still match bit for bit on both dispatch paths.
func TestShardEquivalenceElastic(t *testing.T) {
	for _, mode := range dispatchModes {
		base := elasticConfig(PolicyLeastLoaded)
		base.reference = mode.reference
		want, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if want.Migrations == 0 || want.ServersAdded == 0 || want.ServersRemoved == 0 {
			t.Fatalf("config exercised no elastic activity (migrations %d, added %d, removed %d)",
				want.Migrations, want.ServersAdded, want.ServersRemoved)
		}
		for _, shards := range []int{2, 3} {
			cfg := elasticConfig(PolicyLeastLoaded)
			cfg.reference = mode.reference
			cfg.Shards = shards
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s shards=%d elastic run diverged from the unsharded reference", mode.name, shards)
			}
		}
	}
}

// TestShardEquivalenceCustomPolicy: a scan-only custom policy places
// from the state slice the reconcile phase refreshed — the coalesced
// refreshes must present the identical floats the inline hook maintains.
func TestShardEquivalenceCustomPolicy(t *testing.T) {
	run := func(shards int) *Result {
		cfg := shardConfig("")
		cfg.PolicyFactory = func() Policy { return mostLoaded{} }
		cfg.Shards = shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(0)
	for _, shards := range []int{2, 4} {
		if got := run(shards); !reflect.DeepEqual(want, got) {
			t.Errorf("shards=%d custom-policy run diverged from the unsharded reference", shards)
		}
	}
}

// TestShardedRaceStress drives a busier sharded fleet end to end on both
// dispatch paths with session retention on. Its real assertions come
// from the race detector (CI runs the package under -race): every
// barrier window in the run is checked for an unhappens-before access.
func TestShardedRaceStress(t *testing.T) {
	for _, mode := range dispatchModes {
		cfg := Config{
			Servers:              12,
			MaxSessionsPerServer: 4,
			Approach:             experiments.Heuristic,
			Workload: Workload{
				ArrivalRate:    3,
				DurationSec:    60,
				MeanSessionSec: 10,
				Curve:          LoadDiurnal,
				CurveAmplitude: 0.6,
			},
			WarmupSec:      10,
			Seed:           3,
			Workers:        4,
			Shards:         4,
			reference:      mode.reference,
			RetainSessions: true,
			EpochSec:       10,
			Rebalance:      true,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Admitted == 0 {
			t.Fatalf("%s: stress run admitted nothing", mode.name)
		}
	}
}

// TestConfigValidateShards: a negative shard count is a config error; a
// huge one is just clamped to the fleet.
func TestConfigValidateShards(t *testing.T) {
	cfg := shardConfig(PolicyLeastLoaded)
	cfg.Shards = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative Shards should fail validation")
	}
}

// TestSplitArrivals pins the stream-splitting invariants: substreams
// interleave one-in-S by arrival ID, each preserves time order, sizes
// differ by at most one, and re-merging by ID reproduces the stream.
func TestSplitArrivals(t *testing.T) {
	w := Workload{ArrivalRate: 2, DurationSec: 100, MeanSessionSec: 8}
	arrivals, err := GenerateArrivals(w.withDefaults(), video.DefaultCatalog(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) < 20 {
		t.Fatalf("workload too small to exercise the split (%d arrivals)", len(arrivals))
	}
	rng := rand.New(rand.NewSource(5))
	for _, shards := range []int{1, 2, 3, 7} {
		parts, err := SplitArrivals(arrivals, shards)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != shards {
			t.Fatalf("got %d substreams for %d shards", len(parts), shards)
		}
		total, minLen, maxLen := 0, len(arrivals), 0
		merged := make([]SessionRequest, len(arrivals))
		for s, part := range parts {
			total += len(part)
			if len(part) < minLen {
				minLen = len(part)
			}
			if len(part) > maxLen {
				maxLen = len(part)
			}
			last := -1.0
			for _, r := range part {
				if r.ID%shards != s {
					t.Fatalf("shards=%d: arrival %d landed on substream %d", shards, r.ID, s)
				}
				if r.ArriveAtSec < last {
					t.Fatalf("shards=%d: substream %d out of time order", shards, s)
				}
				last = r.ArriveAtSec
				merged[r.ID] = r
			}
		}
		if total != len(arrivals) {
			t.Fatalf("shards=%d: split dropped arrivals (%d of %d)", shards, total, len(arrivals))
		}
		if maxLen-minLen > 1 {
			t.Fatalf("shards=%d: unbalanced split (min %d, max %d)", shards, minLen, maxLen)
		}
		// The union, reassembled in ID order, is the unsharded stream —
		// spot-check a few random positions plus full equality.
		for i := 0; i < 10; i++ {
			j := rng.Intn(len(arrivals))
			if merged[j] != arrivals[j] {
				t.Fatalf("shards=%d: arrival %d mutated by the split", shards, j)
			}
		}
		if !reflect.DeepEqual(merged, arrivals) {
			t.Fatalf("shards=%d: ID-ordered union differs from the input stream", shards)
		}
	}
	if _, err := SplitArrivals(arrivals, 0); err == nil {
		t.Fatal("splitting into 0 shards should fail")
	}
}
