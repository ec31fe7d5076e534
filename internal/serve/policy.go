package serve

import (
	"fmt"

	"mamut/internal/platform"
	"mamut/internal/video"
)

// ServerState is the dispatcher's view of one server at an arrival
// instant. Occupancy reflects *actual* session lifetimes: the fleet runs
// as one event-interleaved simulation, every engine is stepped to the
// arrival instant before the decision, and departures are observed
// through the engine's OnSessionEnd hook — so a session that contention
// stretched past its nominal length still holds its slot, exactly as a
// production front-end subscribed to backend session-end events would
// see it.
type ServerState struct {
	// Index identifies the server in the fleet.
	Index int
	// Active is the number of resident sessions.
	Active int
	// HRActive and LRActive split Active by resolution class.
	HRActive, LRActive int
	// MaxSessions is the server's admission limit.
	MaxSessions int
	// EstPowerW is the estimated package power: idle plus a per-session
	// estimate for each resident session.
	EstPowerW float64
	// Draining marks a server being decommissioned: it admits nothing
	// (Full reports true) and its sessions are being live-migrated off.
	// Always false unless the config enables an elasticity feature.
	Draining bool
	// PowerBudgetW is the power level the server should stay under: the
	// power cap of its platform spec (derated inside a degrade window).
	PowerBudgetW float64
}

// Full reports whether the server can admit nothing: at its admission
// limit, or draining toward decommission.
func (s ServerState) Full() bool { return s.Draining || s.Active >= s.MaxSessions }

// Policy decides which server of the fleet admits an arrival. Place
// returns the chosen server's Index, or -1 to reject the arrival. The
// dispatcher also rejects when the chosen server is Full. Policies may
// keep state (e.g. a rotation cursor) but must be deterministic.
type Policy interface {
	// Name returns the policy's registry name.
	Name() string
	// Place chooses a server for the request. servers is ordered by
	// Index and never empty.
	Place(req SessionRequest, servers []ServerState) int
}

// FleetState is fleet-level context a policy may observe in addition to
// the per-server states: the admission-queue backlog at the placement
// instant. Zero-valued when queueing is off.
type FleetState struct {
	// Now is the placement instant (seconds since run start).
	Now float64
	// QueueDepth is the number of entries waiting in the admission
	// queue, before the placement being decided.
	QueueDepth int
	// QueueCapacity is the configured waiting-room bound (0 = queueing
	// off).
	QueueCapacity int
	// QueueOldestWaitSec is how long the oldest waiting entry has been
	// queued; 0 when the queue is empty.
	QueueOldestWaitSec float64
}

// BacklogObserver is an optional extension a Policy may implement to see
// fleet-level backlog state. When the admission queue is enabled the
// dispatcher calls ObserveFleet immediately before every Place decision
// (for indexed placement the observation goes to the policy value
// backing the index); with queueing off it is never
// called. Observations arrive in decision order, so a deterministic
// policy stays deterministic.
type BacklogObserver interface {
	ObserveFleet(FleetState)
}

// Policy registry names.
const (
	// PolicyRoundRobin rotates blindly through the fleet, ignoring
	// occupancy — the classic DNS-round-robin baseline. Arrivals whose
	// turn lands on a full server are rejected even if others have room.
	PolicyRoundRobin = "round-robin"
	// PolicyLeastLoaded places on the server with the fewest resident
	// sessions, rejecting only when the whole fleet is full.
	PolicyLeastLoaded = "least-loaded"
	// PolicyPowerAware places on the non-full server with the most
	// power headroom under its cap, weighting HR sessions by their higher
	// estimated power draw; it rejects only when the whole fleet is
	// full. Under mixed HR/LR load this balances *watts*, not session
	// counts, which is what keeps every server real-time capable.
	PolicyPowerAware = "power"
)

// PolicyNames lists the registered policies in deterministic order.
func PolicyNames() []string {
	return []string{PolicyRoundRobin, PolicyLeastLoaded, PolicyPowerAware}
}

// NewPolicy builds a fresh instance of a registered policy. Instances
// carry rotation state and must not be shared between concurrent runs.
func NewPolicy(name string) (Policy, error) {
	switch name {
	case PolicyRoundRobin:
		return &roundRobin{}, nil
	case PolicyLeastLoaded:
		return leastLoaded{}, nil
	case PolicyPowerAware:
		return powerAware{}, nil
	default:
		return nil, fmt.Errorf("serve: unknown policy %q (have %v)", name, PolicyNames())
	}
}

type roundRobin struct{ next int }

func (*roundRobin) Name() string { return PolicyRoundRobin }

func (p *roundRobin) Place(_ SessionRequest, servers []ServerState) int {
	idx := servers[p.next%len(servers)].Index
	p.next++
	return idx
}

type leastLoaded struct{}

func (leastLoaded) Name() string { return PolicyLeastLoaded }

func (leastLoaded) Place(_ SessionRequest, servers []ServerState) int {
	best := -1
	bestActive := 0
	for _, s := range servers {
		if s.Full() {
			continue
		}
		if best == -1 || s.Active < bestActive {
			best, bestActive = s.Index, s.Active
		}
	}
	return best
}

type powerAware struct{}

func (powerAware) Name() string { return PolicyPowerAware }

func (powerAware) Place(_ SessionRequest, servers []ServerState) int {
	// Place on the non-full server with the most power headroom (budget
	// minus estimated package power), lowest index among exact ties. The
	// arrival's own estimated draw is fleet-uniform, so it would shift
	// every candidate's headroom equally and cannot change the ranking;
	// leaving it out means the scan and the indexed headroom heap order
	// by the very same float values. When
	// every server is over budget this naturally degrades to the least
	// overloaded one — degrading everyone a little beats rejecting
	// outright.
	best := -1
	bestHeadroom := 0.0
	for _, s := range servers {
		if s.Full() {
			continue
		}
		headroom := s.PowerBudgetW - s.EstPowerW
		if best == -1 || headroom > bestHeadroom {
			best, bestHeadroom = s.Index, headroom
		}
	}
	return best
}

// estSessionPowerW estimates the steady dynamic power one session of the
// given resolution class adds to a server built on spec, at the common
// initial operating point (mid frequency, the class's typical thread
// count, ~80% parallel efficiency). The dispatcher uses this single
// scalar per class; it does not need to be exact, only to rank HR above
// LR in proportion to their compute appetite. A spec whose DVFS ladder
// cannot resolve the operating point (a malformed custom spec) is a
// config error for the caller to surface, not a crash.
func estSessionPowerW(spec platform.Spec, res video.Resolution) (float64, error) {
	const efficiency = 0.8
	midGHz := spec.Nearest(2.6)
	vf, err := spec.VFNorm(midGHz)
	if err != nil {
		return 0, fmt.Errorf("serve: platform spec: %w", err)
	}
	threads := 6.0
	if res == video.LR {
		threads = 3.0
	}
	return spec.DynPowerPerCoreW * vf * efficiency * threads, nil
}
