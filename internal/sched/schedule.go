package sched

import (
	"fmt"
	"math"
)

// Event is one inter-cluster transmission of the schedule.
type Event struct {
	// Round is the 0-based position in the scheduling order.
	Round int
	// From and To are cluster indices.
	From, To int
	// Start is when the sender begins transmitting; the sender is busy
	// until SenderFree = Start + g, and the receiver holds the message at
	// Arrive = Start + g + L.
	Start, SenderFree, Arrive float64
}

// Schedule is a complete broadcast schedule with its analytic timing.
type Schedule struct {
	// Heuristic names the policy that produced the schedule.
	Heuristic string
	// Root is the source cluster.
	Root int
	// Events lists the N-1 inter-cluster transmissions in schedule order.
	Events []Event
	// RT[i] is when cluster i's coordinator holds the message
	// (0 for the root).
	RT []float64
	// Idle[i] is when cluster i's coordinator stops sending and can start
	// its local broadcast (equals RT[i] for clusters that never forward).
	Idle []float64
	// Completion[i] = Idle[i] + T[i].
	Completion []float64
	// Makespan is max(Completion).
	Makespan float64
}

// state is the mutable scheduling state shared by all heuristics.
type state struct {
	inA   []bool
	rt    []float64 // message arrival time per cluster
	avail []float64 // earliest time the coordinator can start a new send
	sizeA int
}

func newState(p *Problem) *state {
	s := &state{
		inA:   make([]bool, p.N),
		rt:    make([]float64, p.N),
		avail: make([]float64, p.N),
		sizeA: 1,
	}
	s.inA[p.Root] = true
	return s
}

// policy picks the next (sender, receiver) pair. Implementations must
// return from ∈ A and to ∈ B; the engine validates in debug builds (tests).
type policy interface {
	// Name is the display name used in figures and tables; the names
	// match the paper's legends.
	Name() string
	pick(p *Problem, s *state) (from, to int)
}

// Heuristic is a named broadcast scheduling policy.
type Heuristic interface {
	Name() string
	// Schedule builds the full schedule for the problem.
	Schedule(p *Problem) *Schedule
}

// run executes the round-based loop with the given pair policy — the naive
// pickers' path (the Reference oracle and Optimal) — and derives the final
// timing. The round arithmetic here is the whole-message model's source of
// truth: Replay and the replanner's prefix use the exact same expressions,
// and the incremental engine's one-segment transmit reproduces them bit for
// bit (FuzzEvaluateSegmented).
func run(pol policy, p *Problem) *Schedule {
	s := newState(p)
	sched := &Schedule{
		Heuristic:  pol.Name(),
		Root:       p.Root,
		Events:     make([]Event, 0, p.N-1),
		RT:         make([]float64, p.N),
		Idle:       make([]float64, p.N),
		Completion: make([]float64, p.N),
	}
	for round := 0; s.sizeA < p.N; round++ {
		i, j := pol.pick(p, s)
		if i < 0 || j < 0 || i >= p.N || j >= p.N || !s.inA[i] || s.inA[j] {
			panic(fmt.Sprintf("sched: %s picked invalid pair (%d,%d) at round %d", pol.Name(), i, j, round))
		}
		start := s.avail[i]
		free := start + p.G[i][j]
		arrive := free + p.L[i][j]
		s.avail[i] = free
		s.rt[j] = arrive
		s.avail[j] = arrive
		s.inA[j] = true
		s.sizeA++
		sched.Events = append(sched.Events, Event{
			Round: round, From: i, To: j,
			Start: start, SenderFree: free, Arrive: arrive,
		})
	}
	finish(p, s, sched)
	return sched
}

// finish derives per-cluster idle/completion times and the makespan.
func finish(p *Problem, s *state, sched *Schedule) {
	copy(sched.RT, s.rt)
	for i := 0; i < p.N; i++ {
		// avail[i] is rt[i] if the cluster never sent, otherwise the end
		// of its last transmission — exactly the moment it goes idle at
		// the inter-cluster level.
		sched.Idle[i] = s.avail[i]
		start := sched.Idle[i]
		if p.Overlap {
			start = sched.RT[i]
		}
		sched.Completion[i] = start + p.T[i]
		if sched.Completion[i] > sched.Makespan {
			sched.Makespan = sched.Completion[i]
		}
	}
}

// Validate checks schedule invariants: every non-root cluster receives
// exactly once from a cluster that already held the message, transmissions
// never overlap on a sender, and the timing chain is consistent. It is used
// by tests and by the simulator before executing a schedule.
func (sc *Schedule) Validate(p *Problem) error {
	if len(sc.Events) != p.N-1 {
		return fmt.Errorf("sched: %d events for %d clusters", len(sc.Events), p.N)
	}
	has := make([]bool, p.N)
	has[sc.Root] = true
	lastFree := make([]float64, p.N)
	received := make([]bool, p.N)
	for k, e := range sc.Events {
		if e.From < 0 || e.From >= p.N || e.To < 0 || e.To >= p.N {
			return fmt.Errorf("sched: event %d out of range", k)
		}
		if !has[e.From] {
			return fmt.Errorf("sched: event %d: sender %d has no message", k, e.From)
		}
		if received[e.To] || e.To == sc.Root {
			return fmt.Errorf("sched: event %d: receiver %d already has message", k, e.To)
		}
		if e.Start+1e-12 < lastFree[e.From] {
			return fmt.Errorf("sched: event %d: sender %d overlaps previous send (%g < %g)",
				k, e.From, e.Start, lastFree[e.From])
		}
		wantFree := e.Start + p.G[e.From][e.To]
		wantArrive := wantFree + p.L[e.From][e.To]
		if math.Abs(e.SenderFree-wantFree) > 1e-9 || math.Abs(e.Arrive-wantArrive) > 1e-9 {
			return fmt.Errorf("sched: event %d: inconsistent timing", k)
		}
		lastFree[e.From] = e.SenderFree
		if e.Start+1e-12 < sc.RT[e.From] {
			return fmt.Errorf("sched: event %d: sender %d sends before holding message", k, e.From)
		}
		received[e.To] = true
		has[e.To] = true
		if math.Abs(sc.RT[e.To]-e.Arrive) > 1e-9 {
			return fmt.Errorf("sched: event %d: RT[%d] inconsistent", k, e.To)
		}
	}
	for i := 0; i < p.N; i++ {
		if !has[i] {
			return fmt.Errorf("sched: cluster %d never receives the message", i)
		}
		start := sc.Idle[i]
		if p.Overlap {
			start = sc.RT[i]
		}
		if math.Abs(sc.Completion[i]-(start+p.T[i])) > 1e-9 {
			return fmt.Errorf("sched: completion of %d inconsistent", i)
		}
	}
	var worst float64
	for _, c := range sc.Completion {
		if c > worst {
			worst = c
		}
	}
	if math.Abs(worst-sc.Makespan) > 1e-9 {
		return fmt.Errorf("sched: makespan %g != max completion %g", sc.Makespan, worst)
	}
	return nil
}

// Order returns the clusters in message-reception order (root first).
func (sc *Schedule) Order() []int {
	order := make([]int, 0, len(sc.Events)+1)
	order = append(order, sc.Root)
	for _, e := range sc.Events {
		order = append(order, e.To)
	}
	return order
}
