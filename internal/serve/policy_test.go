package serve

import (
	"testing"

	"mamut/internal/platform"
	"mamut/internal/video"
)

func states(active ...int) []ServerState {
	out := make([]ServerState, len(active))
	for i, a := range active {
		out[i] = ServerState{Index: i, Active: a, MaxSessions: 4, PowerBudgetW: 140, EstPowerW: 50}
	}
	return out
}

func TestNewPolicyRegistry(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("policy %q reports name %q", name, p.Name())
		}
	}
	if _, err := NewPolicy("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRoundRobinRotatesBlindly(t *testing.T) {
	p, _ := NewPolicy(PolicyRoundRobin)
	s := states(4, 0, 0) // server 0 full
	want := []int{0, 1, 2, 0, 1}
	for i, w := range want {
		if got := p.Place(SessionRequest{}, s); got != w {
			t.Fatalf("placement %d: got server %d, want %d", i, got, w)
		}
	}
}

func TestLeastLoadedSkipsFullServers(t *testing.T) {
	p, _ := NewPolicy(PolicyLeastLoaded)
	if got := p.Place(SessionRequest{}, states(4, 3, 1)); got != 2 {
		t.Errorf("least-loaded chose %d, want 2", got)
	}
	if got := p.Place(SessionRequest{}, states(2, 2, 2)); got != 0 {
		t.Errorf("tie should go to the lowest index, got %d", got)
	}
	if got := p.Place(SessionRequest{}, states(4, 4, 4)); got != -1 {
		t.Errorf("full fleet should reject, got %d", got)
	}
}

func TestPowerAwareBalancesWatts(t *testing.T) {
	p, _ := NewPolicy(PolicyPowerAware)
	spec := platform.DefaultSpec()
	hrW, err := estSessionPowerW(spec, video.HR)
	if err != nil {
		t.Fatal(err)
	}
	lrW, err := estSessionPowerW(spec, video.LR)
	if err != nil {
		t.Fatal(err)
	}
	if hrW <= lrW {
		t.Fatalf("HR estimate %.1f W not above LR estimate %.1f W", hrW, lrW)
	}
	// Server 0 hosts one HR session, server 1 one LR session: equal
	// session counts, but server 1 has more power headroom.
	s := []ServerState{
		{Index: 0, Active: 1, HRActive: 1, MaxSessions: 4, EstPowerW: spec.IdlePowerW + hrW, PowerBudgetW: spec.PowerCapW},
		{Index: 1, Active: 1, LRActive: 1, MaxSessions: 4, EstPowerW: spec.IdlePowerW + lrW, PowerBudgetW: spec.PowerCapW},
	}
	if got := p.Place(SessionRequest{Res: video.HR}, s); got != 1 {
		t.Errorf("power-aware chose %d, want the cooler server 1", got)
	}
	// A full fleet rejects.
	s[0].Active, s[1].Active = 4, 4
	if got := p.Place(SessionRequest{}, s); got != -1 {
		t.Errorf("full fleet should reject, got %d", got)
	}
	// Over budget everywhere: still place (degrade, don't reject),
	// preferring the least overloaded server.
	s[0].Active, s[1].Active = 1, 1
	s[0].EstPowerW, s[1].EstPowerW = 200, 180
	if got := p.Place(SessionRequest{Res: video.LR}, s); got != 1 {
		t.Errorf("over-budget fallback chose %d, want 1", got)
	}
}
