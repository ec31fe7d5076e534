package core

import "fmt"

// AgentKind identifies one of MAMUT's three agents.
type AgentKind int

const (
	// AgentQP tunes the quantization parameter.
	AgentQP AgentKind = iota
	// AgentThreads tunes the number of WPP encoding threads.
	AgentThreads
	// AgentDVFS tunes the per-core frequency.
	AgentDVFS
	// numAgents is the number of real agents.
	numAgents
	// AgentNone marks frames where no agent acts (the NULL slots of
	// Fig. 3).
	AgentNone AgentKind = -1
)

// String names the agent like the paper does.
func (k AgentKind) String() string {
	switch k {
	case AgentQP:
		return "AGqp"
	case AgentThreads:
		return "AGthread"
	case AgentDVFS:
		return "AGdvfs"
	case AgentNone:
		return "NULL"
	default:
		return fmt.Sprintf("AgentKind(%d)", int(k))
	}
}

// Schedule is the frame-indexed agent activation pattern of Fig. 3. Agent
// k acts right before every frame f with f mod Periods[k] == Offsets[k].
type Schedule struct {
	Periods [3]int
	Offsets [3]int
}

// DefaultSchedule returns the paper's pattern (SIII-B.d): AGqp every 24
// frames, AGthread every 12 with offset 1, AGdvfs every 6 with offset 2.
// The offsets stagger the agents so the faster agents can immediately
// correct throughput after a quality move by AGqp.
func DefaultSchedule() Schedule {
	return Schedule{Periods: [3]int{24, 12, 6}, Offsets: [3]int{0, 1, 2}}
}

// UniformSchedule returns the ablation pattern where all three agents act
// every `period` frames at staggered consecutive offsets.
func UniformSchedule(period int) Schedule {
	return Schedule{Periods: [3]int{period, period, period}, Offsets: [3]int{0, 1, 2}}
}

// Validate reports whether the schedule is usable and collision-free:
// no two agents may act before the same frame.
func (s Schedule) Validate() error {
	for k := 0; k < 3; k++ {
		if s.Periods[k] < 1 {
			return fmt.Errorf("core: schedule period[%d] = %d invalid", k, s.Periods[k])
		}
		if s.Offsets[k] < 0 || s.Offsets[k] >= s.Periods[k] {
			return fmt.Errorf("core: schedule offset[%d] = %d outside [0,%d)", k, s.Offsets[k], s.Periods[k])
		}
	}
	// Check collisions over one hyper-period.
	hyper := lcm(lcm(s.Periods[0], s.Periods[1]), s.Periods[2])
	for f := 0; f < hyper; f++ {
		n := 0
		for k := 0; k < 3; k++ {
			if f%s.Periods[k] == s.Offsets[k] {
				n++
			}
		}
		if n > 1 {
			return fmt.Errorf("core: schedule collision at frame %d", f)
		}
	}
	return nil
}

// ActingAgent returns which agent acts right before the given frame, or
// AgentNone for a NULL slot.
func (s Schedule) ActingAgent(frame int) AgentKind {
	if frame < 0 {
		return AgentNone
	}
	for k := 0; k < 3; k++ {
		if frame%s.Periods[k] == s.Offsets[k] {
			return AgentKind(k)
		}
	}
	return AgentNone
}

// Chain returns the agents acting on the immediately following consecutive
// frames after `frame`, stopping at the first NULL slot. This is the
// lookahead chain of Algorithm 1: the acting agent maximises the expected
// Q-value through exactly these agents (Fig. 3's coloured arrows). An
// empty chain means the action is followed by NULL frames, where the
// agent's update uses the averaged state (SIV-A) and its action selection
// falls back to its own table. The chain is appended to dst[:0], so a
// caller that passes a buffer of capacity 3 gets it without allocating.
func (s Schedule) Chain(dst []AgentKind, frame int) []AgentKind {
	chain := dst[:0]
	for f := frame + 1; ; f++ {
		k := s.ActingAgent(f)
		if k == AgentNone {
			return chain
		}
		chain = append(chain, k)
		if len(chain) >= int(numAgents) { // a chain can involve at most the other agents
			return chain
		}
	}
}

// NextActionFrame returns the first frame strictly after `frame` at which
// any agent acts.
func (s Schedule) NextActionFrame(frame int) int {
	for f := frame + 1; ; f++ {
		if s.ActingAgent(f) != AgentNone {
			return f
		}
	}
}

func lcm(a, b int) int {
	return a / gcd(a, b) * b
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
