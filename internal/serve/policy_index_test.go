package serve

import (
	"math/rand"
	"testing"

	"mamut/internal/platform"
	"mamut/internal/video"
)

// TestBuiltinPoliciesAreFleetIndexers: every registered policy offers the
// indexed fast path.
func TestBuiltinPoliciesAreFleetIndexers(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.(FleetIndexer); !ok {
			t.Errorf("policy %q does not implement FleetIndexer", name)
		}
	}
}

// TestLeastLoadedIndexTieBreak: the bucket queue must resolve occupancy
// ties to the lowest server index, like the scan.
func TestLeastLoadedIndexTieBreak(t *testing.T) {
	s := states(2, 1, 1, 3)
	idx := leastLoaded{}.NewFleetIndex(s)
	if got := idx.Place(SessionRequest{}); got != 1 {
		t.Errorf("tie at occupancy 1: placed on %d, want 1", got)
	}
	// Admit on 1: now server 2 is the unique minimum.
	s[1].Active = 2
	idx.Update(s[1])
	if got := idx.Place(SessionRequest{}); got != 2 {
		t.Errorf("after admit, placed on %d, want 2", got)
	}
	// Fill everything: reject.
	for i := range s {
		s[i].Active = s[i].MaxSessions
		idx.Update(s[i])
	}
	if got := idx.Place(SessionRequest{}); got != -1 {
		t.Errorf("full fleet placed on %d, want -1", got)
	}
	// A departure reopens exactly that server.
	s[3].Active--
	idx.Update(s[3])
	if got := idx.Place(SessionRequest{}); got != 3 {
		t.Errorf("after departure, placed on %d, want 3", got)
	}
}

// TestPowerAwareIndexOrdering: the headroom heap must produce the scan's
// ordering — maximum PowerBudgetW-EstPowerW headroom first, lowest index
// among exact ties — and track departures and admissions.
func TestPowerAwareIndexOrdering(t *testing.T) {
	s := []ServerState{
		{Index: 0, Active: 1, MaxSessions: 4, PowerBudgetW: 140, EstPowerW: 80},
		{Index: 1, Active: 1, MaxSessions: 4, PowerBudgetW: 140, EstPowerW: 60},
		{Index: 2, Active: 1, MaxSessions: 4, PowerBudgetW: 140, EstPowerW: 60},
	}
	idx := powerAware{}.NewFleetIndex(s)
	// Servers 1 and 2 tie on headroom (80 W); the lower index wins, as in
	// the scan.
	if got := idx.Place(SessionRequest{}); got != 1 {
		t.Errorf("headroom tie: placed on %d, want 1", got)
	}
	// Load server 1 past server 0: ordering must follow.
	s[1].Active, s[1].EstPowerW = 2, 100
	idx.Update(s[1])
	if got := idx.Place(SessionRequest{}); got != 2 {
		t.Errorf("after admit on 1, placed on %d, want 2", got)
	}
	// Full servers leave the ordering even with the best headroom.
	s[2].Active = 4
	idx.Update(s[2])
	if got := idx.Place(SessionRequest{}); got != 0 {
		t.Errorf("with 2 full, placed on %d, want 0", got)
	}
	// A departure restores it.
	s[2].Active = 3
	idx.Update(s[2])
	if got := idx.Place(SessionRequest{}); got != 2 {
		t.Errorf("after departure on 2, placed on %d, want 2", got)
	}
}

// TestIndexedPoliciesMatchScanRandomized cross-checks each indexed
// policy against its scan reference over randomized fleets and random
// admit/departure churn: after every state change both must pick the
// same server. The states evolve exactly like the dispatcher's — hr/lr
// counts with the estimated-power expression — so the floats the two
// implementations compare are the ones production compares.
func TestIndexedPoliciesMatchScanRandomized(t *testing.T) {
	spec := platform.DefaultSpec()
	hrW, err := estSessionPowerW(spec, video.HR)
	if err != nil {
		t.Fatal(err)
	}
	lrW, err := estSessionPowerW(spec, video.LR)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 50; trial++ {
				n := 1 + rng.Intn(12)
				maxSess := 1 + rng.Intn(5)
				budget := 90 + 20*rng.Float64()
				hr := make([]int, n)
				lr := make([]int, n)
				states := make([]ServerState, n)
				refresh := func(i int) {
					states[i] = ServerState{
						Index:        i,
						Active:       hr[i] + lr[i],
						HRActive:     hr[i],
						LRActive:     lr[i],
						MaxSessions:  maxSess,
						EstPowerW:    spec.IdlePowerW + float64(hr[i])*hrW + float64(lr[i])*lrW,
						PowerBudgetW: budget,
					}
				}
				for i := 0; i < n; i++ {
					occ := rng.Intn(maxSess + 1)
					hr[i] = rng.Intn(occ + 1)
					lr[i] = occ - hr[i]
					refresh(i)
				}
				scanPol, err := NewPolicy(name)
				if err != nil {
					t.Fatal(err)
				}
				idxPol, err := NewPolicy(name)
				if err != nil {
					t.Fatal(err)
				}
				idx := idxPol.(FleetIndexer).NewFleetIndex(states)

				for step := 0; step < 40; step++ {
					res := video.LR
					if rng.Intn(2) == 0 {
						res = video.HR
					}
					req := SessionRequest{ID: step, Res: res}
					want := scanPol.Place(req, states)
					got := idx.Place(req)
					if got != want {
						t.Fatalf("trial %d step %d: indexed placed %d, scan placed %d (states %+v)",
							trial, step, got, want, states)
					}
					// Apply the admission the dispatcher would.
					if want >= 0 && !states[want].Full() {
						if res == video.HR {
							hr[want]++
						} else {
							lr[want]++
						}
						refresh(want)
						idx.Update(states[want])
					}
					// Random departure churn.
					if i := rng.Intn(n); hr[i]+lr[i] > 0 {
						if hr[i] > 0 && (lr[i] == 0 || rng.Intn(2) == 0) {
							hr[i]--
						} else {
							lr[i]--
						}
						refresh(i)
						idx.Update(states[i])
					}
				}
			}
		})
	}
}
