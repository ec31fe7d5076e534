package serve

import (
	"testing"

	"mamut/internal/experiments"
	"mamut/internal/video"
)

// TestTimelineSameInstantOrder pins the kind order of moments landing at
// one instant — epoch, checkpoint, fault, then arrival — and the horizon
// pass that closes the timeline. At t=10 an epoch drains server 0, a
// checkpoint pass runs and a blip takes server 1 out, so the arrival at
// t=10 must land on server 2. Later, arrival 2 finds the fleet full and
// queues; the only decision point after the departure that frees its
// slot is the horizon pass, which must admit it at the horizon.
func TestTimelineSameInstantOrder(t *testing.T) {
	cfg := Config{
		Servers:              3,
		MaxSessionsPerServer: 1,
		Policy:               PolicyLeastLoaded,
		Approach:             experiments.Heuristic,
		Workload: Workload{
			Trace: []SessionRequest{
				{ArriveAtSec: 10, Res: video.LR, Frames: 1200}, // server 2; holds it past the horizon
				{ArriveAtSec: 21, Res: video.LR, Frames: 500},  // server 1 (blip over); departs ~42
				{ArriveAtSec: 22, Res: video.LR, Frames: 240},  // fleet full: queues
			},
			// Epochs at 10..40 leave the horizon pass at 45 the only
			// queue decision point after the t=42 departure.
			DurationSec: 45,
		},
		RetainSessions: true,
		Seed:           3,
		Workers:        1,
		EpochSec:       10,
		Drain:          []DrainEvent{{AtSec: 10, Server: 0}},
		Queue:          QueueConfig{Capacity: 4, DeadlineSec: 30},
		Faults: FaultConfig{
			Plan:          []FaultEvent{{Kind: FaultBlip, Server: 1, AtSec: 10, EndSec: 20}},
			CheckpointSec: 10,
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if so := res.Sessions[0]; so.Server != 2 {
		t.Errorf("arrival at t=10 landed on server %d, want 2 (the drain and the blip at its instant run first)", so.Server)
	}
	if so := res.Sessions[1]; so.Server != 1 || so.Queued {
		t.Errorf("arrival 1 should place directly on server 1, got %+v", so)
	}
	horizon := cfg.Workload.DurationSec
	if so := res.Sessions[2]; !so.Queued || so.Server != 1 || so.QueueWaitSec != horizon-so.Req.ArriveAtSec {
		t.Errorf("arrival 2 should queue and admit on server 1 at the horizon pass (wait %g), got %+v",
			horizon-so.Req.ArriveAtSec, so)
	}
}
