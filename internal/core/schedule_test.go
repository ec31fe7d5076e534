package core

import "testing"

func TestDefaultScheduleMatchesFigure3(t *testing.T) {
	s := DefaultSchedule()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper SIII-B.d: AGqp every 24 frames; AGthread every 12, offset 1;
	// AGdvfs every 6, offset 2. Within one 24-frame hyper-period the
	// action slots are exactly these:
	want := map[int]AgentKind{
		0: AgentQP, 1: AgentThreads, 2: AgentDVFS, 8: AgentDVFS,
		13: AgentThreads, 14: AgentDVFS, 20: AgentDVFS,
	}
	for f := 0; f < 24; f++ {
		wantK, has := want[f]
		got := s.ActingAgent(f)
		if has && got != wantK {
			t.Errorf("frame %d: agent %v, want %v", f, got, wantK)
		}
		if !has && got != AgentNone {
			t.Errorf("frame %d: agent %v, want NULL", f, got)
		}
	}
	// Pattern repeats with period 24.
	for f := 24; f < 48; f++ {
		if s.ActingAgent(f) != s.ActingAgent(f-24) {
			t.Errorf("frame %d breaks 24-frame periodicity", f)
		}
	}
	// Action frequencies over the hyper-period: 1 QP, 2 thread, 4 DVFS.
	counts := map[AgentKind]int{}
	for f := 0; f < 24; f++ {
		counts[s.ActingAgent(f)]++
	}
	if counts[AgentQP] != 1 || counts[AgentThreads] != 2 || counts[AgentDVFS] != 4 {
		t.Errorf("action counts %v, want 1/2/4", counts)
	}
}

func TestScheduleChains(t *testing.T) {
	s := DefaultSchedule()
	cases := []struct {
		frame int
		want  []AgentKind
	}{
		{0, []AgentKind{AgentThreads, AgentDVFS}}, // QP -> thread -> dvfs -> NULL
		{1, []AgentKind{AgentDVFS}},               // thread -> dvfs -> NULL
		{2, nil},                                  // dvfs -> NULL
		{8, nil},                                  // dvfs -> NULL
		{13, []AgentKind{AgentDVFS}},              // thread -> dvfs -> NULL
		{14, nil},
		{20, nil}, // frames 21..23 are NULL before QP at 24... chain stops at 21
		{24, []AgentKind{AgentThreads, AgentDVFS}},
	}
	for _, c := range cases {
		got := s.Chain(nil, c.frame)
		if len(got) != len(c.want) {
			t.Errorf("Chain(%d) = %v, want %v", c.frame, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Chain(%d) = %v, want %v", c.frame, got, c.want)
			}
		}
	}
}

func TestScheduleNextActionFrame(t *testing.T) {
	s := DefaultSchedule()
	cases := []struct{ frame, want int }{
		{0, 1}, {1, 2}, {2, 8}, {8, 13}, {13, 14}, {14, 20}, {20, 24},
	}
	for _, c := range cases {
		if got := s.NextActionFrame(c.frame); got != c.want {
			t.Errorf("NextActionFrame(%d) = %d, want %d", c.frame, got, c.want)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	bad := []Schedule{
		{Periods: [3]int{0, 12, 6}, Offsets: [3]int{0, 1, 2}},
		{Periods: [3]int{24, 12, 6}, Offsets: [3]int{24, 1, 2}},
		{Periods: [3]int{24, 12, 6}, Offsets: [3]int{0, -1, 2}},
		// Collision: QP and thread both act at frame 0.
		{Periods: [3]int{24, 12, 6}, Offsets: [3]int{0, 0, 2}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
}

func TestUniformSchedule(t *testing.T) {
	s := UniformSchedule(6)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.ActingAgent(0) != AgentQP || s.ActingAgent(1) != AgentThreads || s.ActingAgent(2) != AgentDVFS {
		t.Error("uniform schedule slots wrong")
	}
	if s.ActingAgent(3) != AgentNone {
		t.Error("frame 3 should be NULL")
	}
	counts := map[AgentKind]int{}
	for f := 0; f < 24; f++ {
		counts[s.ActingAgent(f)]++
	}
	if counts[AgentQP] != 4 || counts[AgentThreads] != 4 || counts[AgentDVFS] != 4 {
		t.Errorf("uniform schedule counts %v, want 4 each", counts)
	}
}

func TestActingAgentNegativeFrame(t *testing.T) {
	if DefaultSchedule().ActingAgent(-1) != AgentNone {
		t.Error("negative frame should have no acting agent")
	}
}

func TestAgentKindString(t *testing.T) {
	if AgentQP.String() != "AGqp" || AgentThreads.String() != "AGthread" ||
		AgentDVFS.String() != "AGdvfs" || AgentNone.String() != "NULL" {
		t.Error("agent names wrong")
	}
	if AgentKind(7).String() != "AgentKind(7)" {
		t.Error("unknown agent name wrong")
	}
}

// A dense schedule (an agent on every frame) must still produce finite
// chains thanks to the numAgents cap.
func TestChainBoundedOnDenseSchedule(t *testing.T) {
	s := Schedule{Periods: [3]int{3, 3, 3}, Offsets: [3]int{0, 1, 2}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	chain := s.Chain(nil, 0)
	if len(chain) != 3 {
		t.Fatalf("dense chain length = %d, want 3 (capped)", len(chain))
	}
}
