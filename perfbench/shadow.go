package main

import (
	"context"
	"sync"

	gridbcast "gridbcast"
	"gridbcast/internal/sched"
	"gridbcast/internal/topology"
)

// planShape is one planning request in the facade's terms, shared by the
// serve streams (which send it as JSON) and the shadow decomposition
// (which replays it through the sched layer).
type planShape struct {
	heuristic gridbcast.Heuristic // nil: best-of-paper
	root      int
	size      int64
	segSize   int64 // > 0: fixed segments
	pipelined bool
	segLocal  bool
	overlap   bool
}

func (ps planShape) options() []gridbcast.Option {
	opts := []gridbcast.Option{
		gridbcast.WithRoot(ps.root), gridbcast.WithSize(ps.size), gridbcast.WithOverlap(ps.overlap),
	}
	if ps.heuristic != nil {
		opts = append(opts, gridbcast.WithHeuristic(ps.heuristic))
	}
	if ps.segSize > 0 {
		opts = append(opts, gridbcast.WithSegments(ps.segSize))
	}
	if ps.pipelined {
		opts = append(opts, gridbcast.WithPipelined())
	}
	if ps.segLocal {
		opts = append(opts, gridbcast.WithSegmentedLocal())
	}
	return opts
}

// shadower replays built plans stage by stage through the sched and
// topology layers' public functions, on grids other than the serving
// session's, whose per-size EdgeCosts caches see each size for the first
// time in the shadow, as the serving session's did in its build. A shadower is used by one goroutine; shadowers
// sharing grids share one costSeen.
type shadower struct {
	ep   *sched.EnginePool
	seen *costSeen
	// plans and schedules count the decomposed plans and the schedules
	// their construction built.
	plans, schedules int
}

func newShadower(seen *costSeen) *shadower {
	return &shadower{ep: sched.NewEnginePool(), seen: seen}
}

// costSeen records which sizes each shadow grid has costed, so exactly one
// shadower times each first evaluation.
type costSeen struct {
	mu   sync.Mutex
	seen map[*topology.Grid]map[int64]bool
}

func newCostSeen() *costSeen { return &costSeen{seen: map[*topology.Grid]map[int64]bool{}} }

// forget drops g's record once its shadow builds are done.
func (c *costSeen) forget(g *topology.Grid) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.seen, g)
}

// claim reports whether the caller is the first to cost size m on g.
func (c *costSeen) claim(g *topology.Grid, m int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.seen[g]
	if s == nil {
		s = map[int64]bool{}
		c.seen[g] = s
	}
	if s[m] {
		return false
	}
	s[m] = true
	return true
}

// costSizes lists the payload sizes whose edge costs a build of ps
// evaluates: the message, and for segmented shapes each segment and last
// segment size.
func costSizes(ps planShape) []int64 {
	sizes := []int64{ps.size}
	add := func(seg int64) {
		if seg >= ps.size || ps.size <= 0 {
			return
		}
		k := (ps.size + seg - 1) / seg
		sizes = append(sizes, seg, ps.size-(k-1)*seg)
	}
	switch {
	case ps.pipelined:
		for _, s := range sched.DefaultSegmentLadder(ps.size) {
			add(s)
		}
	case ps.segSize > 0:
		add(ps.segSize)
	}
	return sizes
}

// build decomposes the construction of ps on g under parent. traced says
// whether the serving session recorded a replay trace for the build (a
// cache-resident build of a pinned unsegmented request), which selects
// ScheduleTraced over EnginePool.Schedule exactly as Session.Plan does.
func (sh *shadower) build(l *lane, parent, root uint64, g *topology.Grid, ps planShape, traced bool) {
	for _, m := range costSizes(ps) {
		if sh.seen.claim(g, m) {
			l.shadow("topology.edgecosts", parent, root, func() { g.EdgeCosts(m) })
		}
	}
	candidates := []gridbcast.Heuristic{ps.heuristic}
	if ps.heuristic == nil {
		candidates = sched.Paper()
	}
	opt := sched.Options{Overlap: ps.overlap, SegmentedLocal: ps.segLocal}
	built := 0
	switch {
	case ps.pipelined:
		ladder := sched.DefaultSegmentLadder(ps.size)
		for _, h := range candidates {
			l.shadow("sched.ladder", parent, root, func() {
				sched.Pipelined{Base: h, Ladder: ladder}.BestContext(context.Background(), sh.ep, g, ps.root, ps.size, opt)
			})
			built += len(ladder)
		}
	case ps.segSize > 0:
		var sp *sched.SegmentedProblem
		l.shadow("sched.problem", parent, root, func() {
			sp, _ = sched.NewSegmentedProblem(g, ps.root, ps.size, ps.segSize, opt)
		})
		if sp == nil {
			return
		}
		for _, h := range candidates {
			l.shadow("sched.schedule", parent, root, func() { sh.ep.ScheduleSegmented(h, sp) })
			built++
		}
	default:
		var p *sched.Problem
		l.shadow("sched.problem", parent, root, func() {
			p, _ = sched.NewProblem(g, ps.root, ps.size, opt)
		})
		if p == nil {
			return
		}
		for _, h := range candidates {
			if traced {
				l.shadow("sched.traced_schedule", parent, root, func() { sched.ScheduleTraced(sh.ep, h, p) })
			} else {
				l.shadow("sched.schedule", parent, root, func() { sh.ep.Schedule(h, p) })
			}
			built++
		}
	}
	sh.plans++
	sh.schedules += built
}
