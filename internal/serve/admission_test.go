package serve

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mamut/internal/video"
)

// queuedEquivConfig drives a tight fleet through a flash-crowd burst
// with the admission queue on, hard enough that every outcome class —
// direct admission, queueing, re-admission, deadline drop and
// capacity rejection — occurs.
func queuedEquivConfig() Config {
	cfg := equivConfig(PolicyLeastLoaded)
	cfg.MaxSessionsPerServer = 1
	cfg.Workload.ArrivalRate = 0.6
	cfg.Workload.Curve = LoadBurst
	cfg.Workload.BurstFactor = 4
	cfg.Workload.BurstStartSec = 20
	cfg.Workload.BurstEndSec = 60
	cfg.Queue = QueueConfig{Capacity: 8, DeadlineSec: 25}
	return cfg
}

// TestQueueEquivalence pins the tentpole determinism contract with the
// admission queue on: scan and indexed dispatch and any worker count
// produce DeepEqual results — the queue decision points all live in the
// serial phase.
func TestQueueEquivalence(t *testing.T) {
	run := func(reference bool, workers int) *Result {
		cfg := queuedEquivConfig()
		cfg.reference = reference
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(true, 1)
	if base.Queued == 0 || base.QueueAdmitted == 0 || base.QueueDropped == 0 || base.Rejected == 0 {
		t.Fatalf("config not exercising every queue outcome (queued %d, queue-admitted %d, queue-dropped %d, rejected %d)",
			base.Queued, base.QueueAdmitted, base.QueueDropped, base.Rejected)
	}
	for _, mode := range dispatchModes {
		for _, workers := range []int{1, 4} {
			if got := run(mode.reference, workers); !reflect.DeepEqual(base, got) {
				t.Errorf("queued run (dispatch=%s workers=%d) diverged from the scan reference",
					mode.name, workers)
			}
		}
	}
}

// TestQueueEquivalenceElastic extends the queued determinism contract
// to knowledge reuse and an autoscaling fleet: epoch-boundary queue
// drains and scale-out re-admissions must land identically on both
// dispatch paths and any worker count.
func TestQueueEquivalenceElastic(t *testing.T) {
	base := Config{
		Servers:              2,
		MaxSessionsPerServer: 2,
		KnowledgeReuse:       true,
		Workload: Workload{
			ArrivalRate:    0.5,
			DurationSec:    120,
			MeanSessionSec: 15,
			Curve:          LoadBurst,
			BurstFactor:    4,
			BurstStartSec:  30,
			BurstEndSec:    70,
		},
		WarmupSec: 30,
		Seed:      7,
		EpochSec:  10,
		Autoscale: AutoscaleConfig{Enabled: true, MaxServers: 4},
		Queue:     QueueConfig{Capacity: 6, DeadlineSec: 20},
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
	if scan.Queued == 0 || scan.QueueAdmitted == 0 {
		t.Fatalf("config exercised no queue activity (queued %d, queue-admitted %d)",
			scan.Queued, scan.QueueAdmitted)
	}
	if scan.ServersAdded == 0 {
		t.Fatalf("config exercised no scale-out (the epoch drain path went untested)")
	}
	for _, workers := range []int{1, 4} {
		if got := run(false, workers); !reflect.DeepEqual(scan, got) {
			t.Errorf("elastic queued run (workers=%d) diverged from the scan reference", workers)
		}
	}
}

// TestQueueBeatsDropOnFull pins the headline: under a burst workload at
// equal fleet size, the deadline-bounded queue strictly beats
// drop-on-full on completed sessions AND on SLO-attained sessions —
// capacity that frees after the spike serves arrivals the drop policy
// lost forever.
func TestQueueBeatsDropOnFull(t *testing.T) {
	config := func(queue bool) Config {
		cfg := Config{
			Servers:              16,
			MaxSessionsPerServer: 1,
			Policy:               PolicyLeastLoaded,
			Approach:             "heuristic",
			// Base load well under capacity, spike well over it: the
			// headroom that returns after the spike is what the queue
			// converts into completed sessions drop-on-full lost.
			Workload: Workload{
				ArrivalRate:    0.5,
				DurationSec:    60,
				MeanSessionSec: 15,
				Curve:          LoadBurst,
				BurstFactor:    6,
				BurstStartSec:  10,
				BurstEndSec:    25,
			},
			WarmupSec: 10,
			Seed:      7,
			Workers:   1,
		}
		if queue {
			cfg.Queue = QueueConfig{Capacity: 64, DeadlineSec: 30}
		}
		return cfg
	}
	drop, err := Run(config(false))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := Run(config(true))
	if err != nil {
		t.Fatal(err)
	}
	if drop.Rejected == 0 {
		t.Fatalf("burst config not saturating the drop-on-full fleet (rejected %d)", drop.Rejected)
	}
	attained := func(r *Result) int {
		return int(math.Round(r.SLOAttainedPct / 100 * float64(r.Measured)))
	}
	if queued.Admitted <= drop.Admitted {
		t.Errorf("queue does not beat drop-on-full on completed sessions: %d <= %d",
			queued.Admitted, drop.Admitted)
	}
	if attained(queued) <= attained(drop) {
		t.Errorf("queue does not beat drop-on-full on SLO-attained sessions: %d <= %d",
			attained(queued), attained(drop))
	}
}

// TestQueueOutcomeAccounting pins the outcome taxonomy: every offered
// arrival is exactly one of admitted, capacity-rejected or
// deadline-dropped; every queued arrival resolves to re-admission or
// drop; and RejectionPct counts capacity rejections only.
func TestQueueOutcomeAccounting(t *testing.T) {
	cfg := queuedEquivConfig()
	cfg.RetainSessions = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Admitted + res.Rejected + res.QueueDropped; got != res.Offered {
		t.Errorf("admitted %d + rejected %d + queue-dropped %d = %d, want offered %d",
			res.Admitted, res.Rejected, res.QueueDropped, got, res.Offered)
	}
	if got := res.QueueAdmitted + res.QueueDropped; got != res.Queued {
		t.Errorf("queue-admitted %d + queue-dropped %d = %d, want queued %d",
			res.QueueAdmitted, res.QueueDropped, got, res.Queued)
	}
	if want := 100 * float64(res.Rejected) / float64(res.Offered); res.RejectionPct != want {
		t.Errorf("RejectionPct %g includes more than capacity rejections (want %g)", res.RejectionPct, want)
	}
	if want := 100 * float64(res.QueueDropped) / float64(res.Offered); res.QueueDroppedPct != want {
		t.Errorf("QueueDroppedPct %g, want %g", res.QueueDroppedPct, want)
	}
	for _, so := range res.Sessions {
		switch {
		case so.Dropped:
			if so.Server >= 0 || !so.Queued {
				t.Errorf("arrival %d: dropped outcome must be an unplaced queued entry (server %d, queued %v)",
					so.Req.ID, so.Server, so.Queued)
			}
		case so.Server >= 0 && so.Queued:
			if so.QueueWaitSec <= 0 {
				t.Errorf("arrival %d: re-admitted from the queue but wait %g <= 0", so.Req.ID, so.QueueWaitSec)
			}
		case so.Server >= 0:
			if so.QueueWaitSec != 0 {
				t.Errorf("arrival %d: direct admission charged a queue wait %g", so.Req.ID, so.QueueWaitSec)
			}
		}
	}
}

// queueTrace is the deterministic admission scenario the deadline and
// priority tests replay: one single-slot server, a long session holding
// it, two arrivals that must queue, and a late arrival whose placement
// is the decision point after the holder departs.
func queueTrace() []SessionRequest {
	return []SessionRequest{
		{ID: 0, ArriveAtSec: 0, Res: video.LR, Frames: 960},
		{ID: 1, ArriveAtSec: 1, Res: video.LR, Frames: 240},
		{ID: 2, ArriveAtSec: 2, Res: video.HR, Frames: 240},
		{ID: 3, ArriveAtSec: 60, Res: video.LR, Frames: 240},
	}
}

func runQueueTrace(t *testing.T, q QueueConfig) *Result {
	t.Helper()
	cfg := Config{
		Servers:              1,
		MaxSessionsPerServer: 1,
		Policy:               PolicyLeastLoaded,
		Approach:             "heuristic",
		Workload: Workload{
			Trace:       queueTrace(),
			DurationSec: 300,
		},
		RetainSessions: true,
		Seed:           3,
		Workers:        1,
		Queue:          q,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestQueueDeadlineDrop pins the deadline semantics on the replayed
// trace: with a deadline shorter than the holder's residual service the
// queued arrivals drop; with a generous deadline the same arrivals are
// re-admitted once the holder departs.
func TestQueueDeadlineDrop(t *testing.T) {
	short := runQueueTrace(t, QueueConfig{Capacity: 4, DeadlineSec: 5})
	if short.QueueAdmitted != 0 || short.QueueDropped != 2 {
		t.Errorf("deadline 5s: want both queued arrivals dropped, got admitted %d dropped %d",
			short.QueueAdmitted, short.QueueDropped)
	}
	if so := short.Sessions[1]; !so.Dropped || so.Server != -1 {
		t.Errorf("deadline 5s: arrival 1 not recorded as dropped (server %d)", so.Server)
	}
	// The expired entries drop at arrival 3's decision point, clearing
	// the queue, and the holder has departed by then — so arrival 3 is
	// admitted directly, never queued.
	if so := short.Sessions[3]; so.Server < 0 || so.Queued {
		t.Errorf("deadline 5s: arrival 3 should admit directly after the drops (server %d, queued %v)",
			so.Server, so.Queued)
	}
	long := runQueueTrace(t, QueueConfig{Capacity: 4, DeadlineSec: 200})
	if long.QueueAdmitted == 0 {
		t.Fatalf("deadline 200s: no queued arrival was re-admitted")
	}
	// The holder (960 frames at ~24 FPS) departs around t=40; arrival 3
	// at t=60 is the decision point that re-admits from the queue, so
	// the winner's wait spans most of the holder's service time.
	var winner *SessionOutcome
	for i := range long.Sessions {
		if so := &long.Sessions[i]; so.Queued && so.Server >= 0 {
			winner = so
			break
		}
	}
	if winner == nil {
		t.Fatal("deadline 200s: no re-admitted outcome retained")
	}
	if winner.QueueWaitSec < 30 || winner.QueueWaitSec > 60 {
		t.Errorf("re-admitted arrival %d waited %.1fs, want the holder's residual service (~38-58s)",
			winner.Req.ID, winner.QueueWaitSec)
	}
}

// TestQueuePriorityOrder pins the class-priority order on the replayed
// trace: exactly one slot frees while an LR and an HR arrival wait, so
// the priority decides who gets it — HR under hr-first, the earlier LR
// under fifo and under lr-first.
func TestQueuePriorityOrder(t *testing.T) {
	for _, tc := range []struct {
		prio     QueuePriority
		admitted int // arrival ID that wins the freed slot
		dropped  int // arrival ID that waits until the horizon flush
	}{
		{QueuePrioHRFirst, 2, 1},
		{QueuePrioFIFO, 1, 2},
		{QueuePrioLRFirst, 1, 2},
	} {
		res := runQueueTrace(t, QueueConfig{Capacity: 4, DeadlineSec: 200, Priority: tc.prio})
		if so := res.Sessions[tc.admitted]; so.Server < 0 {
			t.Errorf("%s: arrival %d should win the freed slot, was not admitted", tc.prio, tc.admitted)
		}
		if so := res.Sessions[tc.dropped]; !so.Dropped {
			t.Errorf("%s: arrival %d should lose the freed slot and drop, got server %d",
				tc.prio, tc.dropped, so.Server)
		}
	}
}

// TestQueueConfigValidate pins the config surface: a zero-capacity
// queue must be the exact historical no-queue config, so deadline or
// priority without capacity is an error, not a silent no-op.
func TestQueueConfigValidate(t *testing.T) {
	base := equivConfig(PolicyLeastLoaded)
	for _, tc := range []struct {
		name string
		q    QueueConfig
		want string
	}{
		{"off", QueueConfig{}, ""},
		{"on", QueueConfig{Capacity: 4}, ""},
		{"negative capacity", QueueConfig{Capacity: -1}, "capacity"},
		{"deadline without capacity", QueueConfig{DeadlineSec: 5}, "capacity"},
		{"priority without capacity", QueueConfig{Priority: QueuePrioFIFO}, "capacity"},
		{"negative deadline", QueueConfig{Capacity: 4, DeadlineSec: -1}, "deadline"},
		{"unknown priority", QueueConfig{Capacity: 4, Priority: "shortest-first"}, "priority"},
	} {
		cfg := base
		cfg.Queue = tc.q
		err := cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
}

// backlogSpy is a least-loaded clone that records the fleet/backlog
// observations the dispatcher delivers before each placement decision.
type backlogSpy struct {
	observations []FleetState
}

func (s *backlogSpy) Name() string { return "backlog-spy" }

func (s *backlogSpy) Place(_ SessionRequest, servers []ServerState) int {
	best, bestActive := -1, int(^uint(0)>>1)
	for _, sv := range servers {
		if !sv.Full() && sv.Active < bestActive {
			best, bestActive = sv.Index, sv.Active
		}
	}
	return best
}

func (s *backlogSpy) ObserveFleet(fs FleetState) { s.observations = append(s.observations, fs) }

// TestBacklogObserver pins the policy extension: with the queue on, a
// BacklogObserver policy sees queue depth/age before placement
// decisions (in nondecreasing time order); with the queue off it is
// never called, so pre-queue policies cannot be perturbed.
func TestBacklogObserver(t *testing.T) {
	run := func(q QueueConfig) *backlogSpy {
		spy := &backlogSpy{}
		cfg := queuedEquivConfig()
		cfg.Policy = ""
		cfg.PolicyFactory = func() Policy { return spy }
		cfg.Queue = q
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return spy
	}
	spy := run(QueueConfig{Capacity: 8, DeadlineSec: 25})
	if len(spy.observations) == 0 {
		t.Fatal("queue on: policy observed no fleet states")
	}
	maxDepth, last := 0, math.Inf(-1)
	for _, fs := range spy.observations {
		if fs.Now < last {
			t.Fatalf("observations out of order: %g after %g", fs.Now, last)
		}
		last = fs.Now
		if fs.QueueDepth > maxDepth {
			maxDepth = fs.QueueDepth
		}
		if fs.QueueCapacity != 8 {
			t.Fatalf("observed capacity %d, want 8", fs.QueueCapacity)
		}
		if fs.QueueDepth > 0 && fs.QueueOldestWaitSec <= 0 {
			t.Fatalf("depth %d with oldest wait %g", fs.QueueDepth, fs.QueueOldestWaitSec)
		}
	}
	if maxDepth == 0 {
		t.Error("queue on: policy never observed a non-empty backlog")
	}
	if spy := run(QueueConfig{}); len(spy.observations) != 0 {
		t.Errorf("queue off: policy observed %d fleet states, want none", len(spy.observations))
	}
}

// TestQueueOffFieldsInert pins the compatibility contract: with the
// queue off, every queue-related Result field is zero-valued — the
// historical result surface, bit for bit.
func TestQueueOffFieldsInert(t *testing.T) {
	res, err := Run(equivConfig(PolicyLeastLoaded))
	if err != nil {
		t.Fatal(err)
	}
	if res.Queued != 0 || res.QueueAdmitted != 0 || res.QueueDropped != 0 ||
		res.QueueDroppedPct != 0 || res.AvgQueueWaitSec != 0 ||
		res.QueueWaitDist.Count != 0 || res.TTFFDist.Count != 0 ||
		res.Windowed.QueueDepth != 0 {
		t.Errorf("queue-off run populated queue fields: %+v", res)
	}
}

// placeCounter wraps a policy and counts its Place calls. It hides the
// wrapped policy's fleet index, so every placement goes through Place.
type placeCounter struct {
	Policy
	calls int
}

func (p *placeCounter) Place(req SessionRequest, servers []ServerState) int {
	p.calls++
	return p.Policy.Place(req, servers)
}

// TestQueueOffConsultsPolicyOncePerArrival: with the queue off, the
// dispatcher asks the policy for a placement exactly once per arrival.
// Queue decision points still run at arrivals, elastic epochs and fault
// edges, but on the empty waiting room they never reach the policy — so
// a stateful policy sees the same call sequence it would without them.
func TestQueueOffConsultsPolicyOncePerArrival(t *testing.T) {
	var counter *placeCounter
	cfg := equivConfig("")
	cfg.Servers = 4
	cfg.Workload.ArrivalRate = 0.6
	cfg.PolicyFactory = func() Policy {
		p, err := NewPolicy(PolicyLeastLoaded)
		if err != nil {
			t.Fatal(err)
		}
		counter = &placeCounter{Policy: p}
		return counter
	}
	cfg.EpochSec = 15
	cfg.Rebalance = true
	cfg.Faults = FaultConfig{
		Plan: []FaultEvent{
			{Kind: FaultBlip, Server: 1, AtSec: 40, EndSec: 50},
			{Kind: FaultDegrade, Server: 2, AtSec: 45, EndSec: 90, Factor: 0.5},
			{Kind: FaultCrash, Server: 0, AtSec: 70},
		},
		Recovery: FaultRecovery{Drop: true},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsInjected != 3 || res.ServersCrashed != 1 || res.Lost == 0 {
		t.Fatalf("config not exercising the fault plan (injected %d, crashed %d, lost %d)",
			res.FaultsInjected, res.ServersCrashed, res.Lost)
	}
	if res.Rejected == 0 {
		t.Fatal("config never filled the fleet")
	}
	if counter.calls != res.Offered {
		t.Errorf("policy consulted %d times for %d arrivals", counter.calls, res.Offered)
	}
}
