package serve

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mamut/internal/platform"
	"mamut/internal/video"
)

func TestFaultPlanParseRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"crash@120:0",
		"blip@90-95:1",
		"degrade@60-180:2:0.5",
		"crash@20:1,degrade@25-40:2:0.75,blip@30-36:3",
		"crash@0.5:0,crash@1.25:7",
	} {
		plan, err := ParseFaultPlan(spec)
		if err != nil {
			t.Fatalf("ParseFaultPlan(%q): %v", spec, err)
		}
		back, err := ParseFaultPlan(FormatFaultPlan(plan))
		if err != nil {
			t.Fatalf("re-parsing FormatFaultPlan of %q: %v", spec, err)
		}
		if !reflect.DeepEqual(plan, back) {
			t.Errorf("plan %q does not round-trip: %v vs %v", spec, plan, back)
		}
	}
	if plan, err := ParseFaultPlan("  "); err != nil || plan != nil {
		t.Errorf("blank plan: got (%v, %v), want (nil, nil)", plan, err)
	}
}

func TestFaultPlanParseErrors(t *testing.T) {
	for _, spec := range []string{
		"crash",                 // no spec
		"crash@",                // empty spec
		"@120:0",                // no kind
		"meteor@120:0",          // unknown kind
		"crash@120",             // missing server
		"crash@120:0:5",         // too many parts
		"crash@abc:0",           // bad time
		"crash@NaN:0",           // non-finite time
		"crash@Inf:0",           // non-finite time
		"crash@120:x",           // bad server
		"crash@120:-1",          // negative server
		"blip@90:1",             // blip needs a window
		"blip@90-95:1:0.5",      // blip takes no factor
		"degrade@60-180:2",      // degrade needs a factor
		"degrade@60-x:2:0.5",    // bad window end
		"degrade@60-180:2:oops", // bad factor
		"crash@120:0,,blip@1-2:0",
	} {
		if _, err := ParseFaultPlan(spec); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted a malformed spec", spec)
		}
	}
}

// FuzzFaultPlanParse asserts the parser never panics, and that every
// plan it accepts round-trips exactly through FormatFaultPlan — and
// survives semantic validation without panicking either way.
func FuzzFaultPlanParse(f *testing.F) {
	f.Add("crash@120:0")
	f.Add("degrade@60-180:2:0.5,blip@90-95:1")
	f.Add("crash@20:1,crash@20:1")
	f.Add("blip@5-900:0")
	f.Add("degrade@1-2:0:1e308")
	f.Add("crash@-1:0,@,x@y:z")
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseFaultPlan(spec)
		if err != nil {
			if plan != nil {
				t.Fatalf("ParseFaultPlan(%q) returned both a plan and %v", spec, err)
			}
			return
		}
		back, err := ParseFaultPlan(FormatFaultPlan(plan))
		if err != nil {
			t.Fatalf("accepted plan %q does not re-parse: %v", spec, err)
		}
		if !reflect.DeepEqual(plan, back) {
			t.Fatalf("plan %q does not round-trip: %v vs %v", spec, plan, back)
		}
		// Semantic validation must reject or accept, never panic.
		cfg := FaultConfig{Plan: plan, Recovery: FaultRecovery{Drop: true}}
		_ = cfg.validate(8, 300, 0)
	})
}

func TestFaultConfigValidate(t *testing.T) {
	base := func() Config {
		return Config{
			Servers:  4,
			Approach: "heuristic",
			Workload: Workload{ArrivalRate: 0.2, DurationSec: 100, MeanSessionSec: 10},
			Queue:    QueueConfig{Capacity: 8},
		}
	}
	plan := func(spec string) []FaultEvent {
		p, err := ParseFaultPlan(spec)
		if err != nil {
			t.Fatalf("ParseFaultPlan(%q): %v", spec, err)
		}
		return p
	}
	for _, tc := range []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"valid chaos", func(c *Config) {
			c.Faults = FaultConfig{Plan: plan("crash@20:1,degrade@25-40:2:0.5,blip@30-36:3"), CheckpointSec: 10}
		}, ""},
		{"touching windows ok", func(c *Config) {
			c.Faults.Plan = plan("blip@10-20:0,degrade@20-30:0:0.5")
		}, ""},
		{"drop without queue ok", func(c *Config) {
			c.Queue = QueueConfig{}
			c.Faults = FaultConfig{Plan: plan("crash@20:0"), Recovery: FaultRecovery{Drop: true}}
		}, ""},
		{"server outside fleet", func(c *Config) {
			c.Faults.Plan = plan("crash@20:4")
		}, "outside initial fleet"},
		{"at horizon", func(c *Config) {
			c.Faults.Plan = plan("crash@100:0")
		}, "horizon"},
		{"window past horizon", func(c *Config) {
			c.Faults.Plan = plan("blip@90-110:0")
		}, "horizon"},
		{"inverted window", func(c *Config) {
			c.Faults.Plan = plan("blip@40-30:0")
		}, "ordered"},
		{"factor out of range", func(c *Config) {
			c.Faults.Plan = plan("degrade@10-20:0:1.5")
		}, "outside (0,1)"},
		{"overlapping windows", func(c *Config) {
			c.Faults.Plan = plan("degrade@10-30:0:0.5,blip@20-40:0")
		}, "overlap"},
		{"event after crash", func(c *Config) {
			c.Faults.Plan = plan("crash@20:0,blip@30-40:0")
		}, "already crashed"},
		{"double crash", func(c *Config) {
			c.Faults.Plan = plan("crash@20:0,crash@30:0")
		}, "already crashed"},
		{"same instant same server", func(c *Config) {
			c.Faults.Plan = plan("blip@10-20:0,degrade@10-15:0:0.5")
		}, "same instant"},
		{"crash recovery needs queue", func(c *Config) {
			c.Queue = QueueConfig{}
			c.Faults.Plan = plan("crash@20:0")
		}, "admission queue"},
		{"negative checkpoint", func(c *Config) {
			c.Faults = FaultConfig{Plan: plan("blip@10-20:0"), CheckpointSec: -1}
		}, "checkpoint"},
		{"tiny checkpoint interval", func(c *Config) {
			c.Faults = FaultConfig{Plan: plan("blip@10-20:0"), CheckpointSec: 1e-9}
		}, "fault checkpoint interval 1e-09"},
		{"checkpoint interval at the moment bound ok", func(c *Config) {
			c.Faults = FaultConfig{Plan: plan("blip@10-20:0"), CheckpointSec: 100.0 / maxPeriodicMoments}
		}, ""},
		{"checkpoint without plan", func(c *Config) {
			c.Faults = FaultConfig{CheckpointSec: 10}
		}, "no fault plan"},
		{"recovery without plan", func(c *Config) {
			c.Faults = FaultConfig{Recovery: FaultRecovery{Drop: true}}
		}, "no fault plan"},
		{"negative deadline", func(c *Config) {
			c.Faults = FaultConfig{Plan: plan("crash@20:0"), Recovery: FaultRecovery{DeadlineSec: -1}}
		}, "negative fault-recovery deadline"},
		{"deadline with drop", func(c *Config) {
			c.Faults = FaultConfig{Plan: plan("crash@20:0"), Recovery: FaultRecovery{Drop: true, DeadlineSec: 5}}
		}, "fault-recovery deadline 5 set but no crash victim waits"},
		{"deadline without crash", func(c *Config) {
			c.Faults = FaultConfig{Plan: plan("blip@10-20:0"), Recovery: FaultRecovery{DeadlineSec: 5}}
		}, "fault-recovery deadline 5 set but no crash victim waits"},
		{"monoagent rejected", func(c *Config) {
			c.Approach = "monoagent"
			c.Faults.Plan = plan("blip@10-20:0")
		}, "not migratable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestDegradedSpecFlooredAboveIdle(t *testing.T) {
	base := platform.DefaultSpec()
	spec := degradedSpec(base, 0.5)
	if spec.PowerCapW >= base.PowerCapW {
		t.Errorf("factor 0.5 did not cut the cap: %g", spec.PowerCapW)
	}
	if err := spec.Validate(); err != nil {
		t.Errorf("derated spec invalid: %v", err)
	}
	tiny := degradedSpec(base, 1e-9)
	if err := tiny.Validate(); err != nil {
		t.Errorf("floor did not keep a tiny factor valid: %v", err)
	}
	if want := base.IdlePowerW + 1; tiny.PowerCapW != want {
		t.Errorf("tiny factor cap %g, want the idle+1 floor %g", tiny.PowerCapW, want)
	}
}

// TestQueueStepDropAndReadmitSameInstant pins the queueStep ordering
// when a deadline drop and an epoch re-admission land at the same
// control instant: expired entries are dropped first (even though the
// capacity they waited for freed before their deadline — there was no
// decision point in between), then the survivors re-admit against the
// freed slot, all inside the one epoch queueStep.
func TestQueueStepDropAndReadmitSameInstant(t *testing.T) {
	cfg := Config{
		Servers:              1,
		MaxSessionsPerServer: 1,
		Policy:               PolicyLeastLoaded,
		Approach:             "heuristic",
		Workload: Workload{
			// The holder departs around t=25 (600 frames at ~24 FPS);
			// the next decision point is the epoch at t=30, where
			// arrival 1's deadline (29.5) has just passed and arrival
			// 2's (30.5) has not.
			Trace: []SessionRequest{
				{ID: 0, ArriveAtSec: 0, Res: video.LR, Frames: 600},
				{ID: 1, ArriveAtSec: 0.5, Res: video.LR, Frames: 240},
				{ID: 2, ArriveAtSec: 1.5, Res: video.LR, Frames: 240},
			},
			DurationSec: 300,
		},
		RetainSessions: true,
		Seed:           3,
		Workers:        1,
		// A pinned single-server autoscale enables the epoch schedule
		// without ever changing the fleet.
		EpochSec:  10,
		Autoscale: AutoscaleConfig{Enabled: true, MaxServers: 1},
		Queue:     QueueConfig{Capacity: 4, DeadlineSec: 29},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueDropped != 1 || res.QueueAdmitted != 1 {
		t.Fatalf("want exactly one drop and one re-admission at the epoch, got dropped %d admitted %d",
			res.QueueDropped, res.QueueAdmitted)
	}
	if so := res.Sessions[1]; !so.Dropped {
		t.Errorf("arrival 1 (deadline 29.5) should drop at the t=30 epoch, got server %d", so.Server)
	}
	if so := res.Sessions[2]; so.Server != 0 || so.QueueWaitSec != 28.5 {
		t.Errorf("arrival 2 should re-admit at the t=30 epoch (wait 28.5s), got server %d wait %g",
			so.Server, so.QueueWaitSec)
	}
}

// faultTrace is the deterministic crash-recovery scenario the
// interleaving tests replay: three single-slot servers, three holders,
// one ordinary arrival that must queue, a crash that turns holder 0
// into a recovery entry behind it, and a late arrival whose decision
// point re-admits both against the two slots that freed meanwhile.
func faultTrace(victimRes video.Resolution) []SessionRequest {
	return []SessionRequest{
		{ID: 0, ArriveAtSec: 0, Res: victimRes, Frames: 600}, // server 0; crash victim
		{ID: 1, ArriveAtSec: 1, Res: video.LR, Frames: 360},  // server 1; departs ~16
		{ID: 2, ArriveAtSec: 2, Res: video.LR, Frames: 600},  // server 2; departs ~27
		{ID: 3, ArriveAtSec: 3, Res: video.LR, Frames: 240},  // fleet full: queues
		{ID: 4, ArriveAtSec: 40, Res: video.LR, Frames: 240}, // the decision point
	}
}

func runFaultTrace(t *testing.T, victimRes video.Resolution) *Result {
	t.Helper()
	cfg := Config{
		Servers:              3,
		MaxSessionsPerServer: 1,
		Policy:               PolicyLeastLoaded,
		Approach:             "heuristic",
		Workload: Workload{
			Trace:       faultTrace(victimRes),
			DurationSec: 300,
		},
		RetainSessions: true,
		Seed:           3,
		Workers:        1,
		Queue:          QueueConfig{Capacity: 8, DeadlineSec: 250},
		Faults: FaultConfig{
			Plan:     []FaultEvent{{Kind: FaultCrash, Server: 0, AtSec: 5}},
			Recovery: FaultRecovery{DeadlineSec: 100},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted != 1 || res.Recovered != 1 || res.Lost != 0 {
		t.Fatalf("want the one victim recovered, got interrupted %d recovered %d lost %d",
			res.Interrupted, res.Recovered, res.Lost)
	}
	so := res.Sessions[0]
	if !so.Interrupted || !so.Recovered || so.Lost {
		t.Fatalf("victim outcome not interrupted+recovered: %+v", so)
	}
	return res
}

// TestRecoveryInterleavesFIFO pins the waiting-room order with a
// recovery entry behind an ordinary arrival of the same class: FIFO by
// entry time, so the arrival that queued before the crash wins the
// lower-indexed freed server and the recovery entry takes the next.
func TestRecoveryInterleavesFIFO(t *testing.T) {
	res := runFaultTrace(t, video.LR)
	if so := res.Sessions[3]; so.Server != 1 {
		t.Errorf("ordinary arrival 3 queued first, should win server 1, got %d", so.Server)
	}
	if so := res.Sessions[0]; so.Server != 2 {
		t.Errorf("recovery of arrival 0 entered later, should take server 2, got %d", so.Server)
	}
}

// TestRecoveryInterleavesPriority pins the class-priority order across
// recovery and ordinary entries: an HR recovery entry overtakes an
// earlier-queued LR arrival under the default hr-first order — priority
// ranks classes, FIFO only orders within one.
func TestRecoveryInterleavesPriority(t *testing.T) {
	res := runFaultTrace(t, video.HR)
	if so := res.Sessions[0]; so.Server != 1 {
		t.Errorf("HR recovery should overtake the waiting LR arrival for server 1, got %d", so.Server)
	}
	if so := res.Sessions[3]; so.Server != 2 {
		t.Errorf("ordinary LR arrival should take server 2 behind the HR recovery, got %d", so.Server)
	}
}

// TestRecoveryBeatsDropOnCrash pins the headline: under a crash
// scenario at equal fleet size, checkpointed snapshot-restore through
// the admission queue strictly beats dropping interrupted sessions on
// completed sessions AND on SLO-attained sessions.
func TestRecoveryBeatsDropOnCrash(t *testing.T) {
	config := func(drop bool) Config {
		return Config{
			Servers:              6,
			MaxSessionsPerServer: 2,
			Policy:               PolicyLeastLoaded,
			Approach:             "heuristic",
			Workload: Workload{
				ArrivalRate:    0.2,
				DurationSec:    120,
				MeanSessionSec: 40,
				HRFraction:     0.4,
			},
			WarmupSec: 10,
			Seed:      7,
			Workers:   1,
			Queue:     QueueConfig{Capacity: 16},
			Faults: FaultConfig{
				// Two crashes mid-window take a third of the fleet; tight
				// checkpoints keep the snapshot rollback small, so restored
				// sessions can still make their SLO.
				Plan: []FaultEvent{
					{Kind: FaultCrash, Server: 0, AtSec: 50},
					{Kind: FaultCrash, Server: 1, AtSec: 55},
				},
				CheckpointSec: 5,
				Recovery:      FaultRecovery{Drop: drop},
			},
		}
	}
	drop, err := Run(config(true))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Run(config(false))
	if err != nil {
		t.Fatal(err)
	}
	if drop.Interrupted == 0 || drop.Lost != drop.Interrupted {
		t.Fatalf("drop baseline not exercising the crash (interrupted %d, lost %d)",
			drop.Interrupted, drop.Lost)
	}
	if rec.Recovered == 0 {
		t.Fatalf("recovery run restored nothing (interrupted %d)", rec.Interrupted)
	}
	completed := func(r *Result) int { return r.HR.Sessions + r.LR.Sessions }
	attained := func(r *Result) int {
		return int(math.Round(r.SLOAttainedPct / 100 * float64(r.Measured)))
	}
	if completed(rec) <= completed(drop) {
		t.Errorf("recovery does not beat drop on completed sessions: %d <= %d",
			completed(rec), completed(drop))
	}
	if attained(rec) <= attained(drop) {
		t.Errorf("recovery does not beat drop on SLO-attained sessions: %d <= %d",
			attained(rec), attained(drop))
	}
}

// chaosEquivConfig drives a loaded fleet through a crash, a degrade
// window and a blip with checkpointed queue recovery on — the in-package
// twin of the CLI chaos golden.
func chaosEquivConfig() Config {
	return Config{
		Servers:              16,
		MaxSessionsPerServer: 4,
		Policy:               PolicyLeastLoaded,
		Approach:             "heuristic",
		Workload: Workload{
			ArrivalRate:    4,
			DurationSec:    40,
			HRFraction:     0.4,
			MeanSessionSec: 10,
		},
		WarmupSec: 10,
		Seed:      7,
		Queue:     QueueConfig{Capacity: 32},
		Faults: FaultConfig{
			Plan: []FaultEvent{
				{Kind: FaultCrash, Server: 1, AtSec: 20},
				{Kind: FaultDegrade, Server: 2, AtSec: 25, EndSec: 40, Factor: 0.5},
				{Kind: FaultBlip, Server: 3, AtSec: 30, EndSec: 36},
			},
			CheckpointSec: 10,
		},
	}
}

// TestFaultChaosEquivalence pins the determinism contract under chaos:
// crash, degrade and blip faults with checkpointed recovery produce
// DeepEqual results across both dispatchers and worker counts.
func TestFaultChaosEquivalence(t *testing.T) {
	run := func(reference bool, workers int) *Result {
		cfg := chaosEquivConfig()
		cfg.reference = reference
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(true, 1)
	if base.FaultsInjected != 3 || base.ServersCrashed != 1 {
		t.Fatalf("chaos config not injecting the plan (injected %d, crashed %d)",
			base.FaultsInjected, base.ServersCrashed)
	}
	if base.Interrupted == 0 || base.Recovered == 0 {
		t.Fatalf("chaos config not exercising recovery (interrupted %d, recovered %d)",
			base.Interrupted, base.Recovered)
	}
	for _, mode := range dispatchModes {
		for _, workers := range []int{1, 4} {
			if got := run(mode.reference, workers); !reflect.DeepEqual(base, got) {
				t.Errorf("chaos run (dispatch=%s workers=%d) diverged from the scan reference",
					mode.name, workers)
			}
		}
	}
}

// TestFaultsOffByteStability pins that a zero FaultConfig changes
// nothing: the result of a fault-free run DeepEquals the result of the
// same config before the fault fields existed (all fault counters zero,
// no availability accounting).
func TestFaultsOffFieldsInert(t *testing.T) {
	cfg := equivConfig(PolicyLeastLoaded)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsInjected != 0 || res.ServersCrashed != 0 || res.Interrupted != 0 ||
		res.Recovered != 0 || res.Lost != 0 || res.LostWorkSec != 0 ||
		res.MTTRSec != 0 || res.AvailabilityPct != 0 || res.Windowed.AvailabilityPct != 0 {
		t.Errorf("fault-free run reported fault activity: %+v", res)
	}
}

// TestRecoveryLossPaths pins every way a recovery entry can be lost
// from the waiting room (Recovery.Drop loses sessions with the server
// instead, and is covered elsewhere): shed when a crash overflows the
// queue, out of retries, past its deadline, and flushed at the end of
// the run. Each case checks the per-session Lost flags and the
// Interrupted == Recovered + Lost identity.
func TestRecoveryLossPaths(t *testing.T) {
	// holders fills server 0 (even IDs) and server 1 (odd IDs) of a
	// least-loaded fleet: victims gives the classes of the long server-0
	// sessions in arrival order, and the server-1 sessions are LR with
	// frame budget s1Frames.
	holders := func(perServer, s1Frames int, victims ...video.Resolution) []SessionRequest {
		var tr []SessionRequest
		for i := 0; i < 2*perServer; i++ {
			req := SessionRequest{ID: i, ArriveAtSec: 0.1 * float64(i), Res: video.LR, Frames: s1Frames}
			if i%2 == 0 {
				req.Res, req.Frames = victims[i/2], 2400
			}
			tr = append(tr, req)
		}
		return tr
	}
	// arrivals appends later arrivals — decision points — at the given
	// instants.
	arrivals := func(tr []SessionRequest, at ...float64) []SessionRequest {
		for _, a := range at {
			tr = append(tr, SessionRequest{ID: len(tr), ArriveAtSec: a, Res: video.LR, Frames: 48})
		}
		return tr
	}
	for _, tc := range []struct {
		name       string
		perServer  int
		trace      []SessionRequest
		queueCap   int
		deadline   float64
		durationS  float64
		wantLost   []int
		wantRecov  []int
		wantInterr int
	}{
		{
			// Four victims into a one-slot queue: hr-first keeps the HR
			// victim at the head and sheds the three LR ones from the
			// tail; server 1 empties and the survivor recovers at t=40.
			name:      "crash overflow sheds the priority tail",
			perServer: 4,
			trace:     arrivals(holders(4, 120, video.LR, video.HR, video.LR, video.LR), 40),
			queueCap:  1,
			deadline:  100,
			durationS: 60,
			wantLost:  []int{0, 4, 6}, wantRecov: []int{2}, wantInterr: 4,
		},
		{
			// The attempts at the crash and at t=7, 9, 11 and 13 (each
			// once the backoff has passed) find server 1 full and use up
			// the DefaultFaultRetryMax 5 attempts; server 1 frees up
			// around t=15, so an entry still waiting would recover at
			// t=20.
			name:      "retries exhausted",
			perServer: 1,
			trace:     arrivals(holders(1, 360, video.LR), 7, 9, 11, 13, 20),
			queueCap:  1,
			deadline:  100,
			durationS: 30,
			wantLost:  []int{0}, wantInterr: 1,
		},
		{
			// The t=10 attempt fails; at t=20 server 1 is free again,
			// but the deadline (5+8) has passed and the entry drops
			// before it is attempted.
			name:      "deadline passed",
			perServer: 1,
			trace:     arrivals(holders(1, 360, video.LR), 10, 20),
			queueCap:  1,
			deadline:  8,
			durationS: 30,
			wantLost:  []int{0}, wantInterr: 1,
		},
		{
			// Retries and deadline both outlast the run: the entry is
			// still waiting at the horizon and the final flush loses it.
			name:      "flushed at the horizon",
			perServer: 1,
			trace:     arrivals(holders(1, 2400, video.HR), 10, 20),
			queueCap:  1,
			deadline:  100,
			durationS: 30,
			wantLost:  []int{0}, wantInterr: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(Config{
				Servers:              2,
				MaxSessionsPerServer: tc.perServer,
				Policy:               PolicyLeastLoaded,
				Approach:             "heuristic",
				Workload:             Workload{Trace: tc.trace, DurationSec: tc.durationS},
				RetainSessions:       true,
				Seed:                 3,
				Workers:              1,
				Queue:                QueueConfig{Capacity: tc.queueCap, DeadlineSec: 100},
				Faults: FaultConfig{
					Plan:     []FaultEvent{{Kind: FaultCrash, Server: 0, AtSec: 5}},
					Recovery: FaultRecovery{DeadlineSec: tc.deadline},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Interrupted != tc.wantInterr || res.Interrupted != res.Recovered+res.Lost {
				t.Fatalf("interrupted %d recovered %d lost %d, want interrupted %d == recovered + lost",
					res.Interrupted, res.Recovered, res.Lost, tc.wantInterr)
			}
			var lost, recov []int
			for _, so := range res.Sessions {
				if so.Lost {
					lost = append(lost, so.Req.ID)
				}
				if so.Recovered {
					recov = append(recov, so.Req.ID)
				}
				if (so.Lost || so.Recovered) && !so.Interrupted {
					t.Errorf("session %d lost or recovered without an interruption: %+v", so.Req.ID, so)
				}
			}
			if !reflect.DeepEqual(lost, tc.wantLost) || !reflect.DeepEqual(recov, tc.wantRecov) {
				t.Errorf("lost %v recovered %v, want lost %v recovered %v", lost, recov, tc.wantLost, tc.wantRecov)
			}
		})
	}
}
