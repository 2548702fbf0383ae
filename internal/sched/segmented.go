package sched

// Segmented (pipelined) broadcast: the large-message workload the paper's
// single-message rounds cannot express, built on the same pLogP machinery.
//
// A broadcast of m bytes is split into K segments of SegSize bytes (the last
// segment carries the remainder). A transmission i→j still follows Bhat's
// formalism — i is a holder, j is not — but now moves K back-to-back
// messages: segment q occupies the sender for g_{i,j}(s_q) and arrives
// L_{i,j} later. The pipelining win is at the forwarding level: j may
// forward segment q as soon as it holds it, long before its last segment
// arrives, so deep trees stream segments concurrently on every level while
// each extra segment costs only the fixed part of the gap (g(s) per segment
// after the first, instead of one monolithic g(m)).
//
// Three layers mirror the unsegmented engine:
//
//   - SegmentedProblem extends Problem with the per-segment gap matrices,
//     served by the grid's per-message-size cost store (one entry for
//     SegSize, one for the remainder segment).
//   - EvaluateSegmented is the exact evaluator: it replays an explicit
//     (sender, receiver) sequence segment by segment, tracking when every
//     cluster holds every segment. With K = 1 it reproduces the unsegmented
//     engine bit for bit (same expressions, same operation order), which the
//     golden tests pin.
//   - ScheduleSegmented runs a segment-aware greedy variant of each paper
//     heuristic: the candidate cost replaces avail[i] + W[i][j] with
//     max(busy_i + (K-1)·g_s, lastseg_i) + W_last[i][j] — the estimated
//     arrival of the *last* segment at j — and the chosen pair is then timed
//     exactly. At K = 1 the cost expression degenerates to the unsegmented
//     one (0·g_s vanishes, W_last aliases W), so every greedy matches its
//     unsegmented self exactly.
//
// The closed-form pick cost assumes the sender's segments are available no
// later than max(busy_i + (q-1)·g_s, lastseg_i) for every q; irregular
// upstream arrivals can push individual segments later, so the estimate is a
// lower bound used for candidate ranking only — committed rounds are always
// timed by the exact per-segment recurrence.

import (
	"context"
	"fmt"
	"math"
	"sync"

	"gridbcast/internal/intracluster"
	"gridbcast/internal/plogp"
	"gridbcast/internal/topology"
)

// SegmentedProblem is a Problem plus the per-segment cost matrices.
type SegmentedProblem struct {
	*Problem
	// SegSize is the segment payload in bytes; LastSize the final segment's
	// (in (0, SegSize], the remainder of MsgSize).
	SegSize, LastSize int64
	// K is the number of segments (>= 1).
	K int
	// Gs[i][j] = g_{i,j}(SegSize); Gl and Wl are the gap and gap+latency at
	// LastSize. With K == 1, Gl and Wl alias the Problem's full-message G
	// and W, so costs are bit-identical to the unsegmented model. Like the
	// Problem matrices they alias the grid's cache and are read-only.
	Gs, Gl, Wl [][]float64
	// LocalSeg marks the end-to-end pipeline (Options.SegmentedLocal with
	// K > 1 on a platform with at least one tree-based local phase): the
	// per-cluster fields below drive the per-segment completion model and
	// the TL-based cost estimates. When false they are all nil and every
	// code path is byte-identical to the coordinator-only pipeline.
	LocalSeg bool

	// segSizes is the per-segment payload vector (K-1 SegSize entries plus
	// LastSize); local holds each tree-based cluster's local broadcast tree
	// and parameters (zero entries for modelled/single-node clusters); TL is
	// min(T_i(s,K), T_i(m)), the local-phase duration the greedies estimate
	// with; lap is the Problem with T replaced by TL, feeding the
	// T-dependent lookahead variants.
	segSizes []int64
	local    []localSegModel
	TL       []float64
	lap      *Problem
}

// localSegModel is one cluster's segmented local broadcast model: the
// streaming tree (the pipelined chain — see segmentLocal for why) and the
// cluster's intra parameters.
type localSegModel struct {
	tree   *intracluster.Tree
	params plogp.Params
}

// estT returns the local-phase durations the candidate cost estimates use:
// TL under the end-to-end pipeline, the whole-message T otherwise (aliased,
// so unsegmented-local costs stay bit-identical).
func (sp *SegmentedProblem) estT() []float64 {
	if sp.TL != nil {
		return sp.TL
	}
	return sp.T
}

// laProblem returns the Problem whose T feeds the ECEF-family lookahead
// terms: the TL view under the end-to-end pipeline, the Problem itself
// otherwise.
func (sp *SegmentedProblem) laProblem() *Problem {
	if sp.lap != nil {
		return sp.lap
	}
	return sp.Problem
}

// NewSegmentedProblem costs a grid for a pipelined broadcast of m bytes in
// segments of segSize bytes rooted at cluster root. segSize >= m (or K == 1)
// reproduces the unsegmented problem exactly. By default the per-cluster
// local broadcast time T_i covers the full message; opt.SegmentedLocal
// extends the pipeline below the coordinators (see DESIGN.md §7 and the
// Options field).
func NewSegmentedProblem(g *topology.Grid, root int, m, segSize int64, opt Options) (*SegmentedProblem, error) {
	if segSize <= 0 {
		return nil, fmt.Errorf("sched: segment size %d must be positive", segSize)
	}
	if segSize > m && m > 0 {
		segSize = m
	}
	k := 1
	last := m
	if m > segSize {
		k = int((m-1)/segSize + 1) // ceil(m/segSize) without overflowing near MaxInt64
		last = m - int64(k-1)*segSize
	}
	// The exact state is O(N·K) in time and memory, so an adversarial
	// segSize (say 1 byte of a 16 MB message) must be rejected here, where
	// untrusted sizes enter — not just skipped by the ladder search — and
	// before NewProblem costs the O(N²) matrices.
	if k > MaxSegments {
		return nil, fmt.Errorf("sched: %d-byte segments split a %d-byte message into %d segments (max %d)",
			segSize, m, k, MaxSegments)
	}
	p, err := NewProblem(g, root, m, opt)
	if err != nil {
		return nil, err
	}
	sp := &SegmentedProblem{
		Problem:  p,
		SegSize:  segSize,
		LastSize: last,
		K:        k,
	}
	if k == 1 {
		// Single segment: the "last" (only) segment is the whole message.
		// SegmentedLocal is inert here by design — the K = 1 degeneracy
		// keeps one-segment schedules byte-identical either way.
		sp.Gs, sp.Gl, sp.Wl = p.G, p.G, p.W
		return sp, nil
	}
	// The rungs read only g at the segment size and g and W at the last
	// segment's size; the segmented engines transpose what they scan
	// themselves (EnginePool.transposeOf), so no WT is derived here.
	ecs := g.EdgeCosts(segSize)
	sp.Gs = ecs.G
	if last == segSize {
		sp.Gl, sp.Wl = ecs.G, ecs.W()
	} else {
		ecl := g.EdgeCosts(last)
		sp.Gl, sp.Wl = ecl.G, ecl.W()
	}
	if opt.SegmentedLocal {
		sp.segmentLocal(g, opt)
	}
	return sp, nil
}

// segmentLocal equips sp with the end-to-end pipeline state: a streaming
// tree per tree-based cluster, T_i(s,K) folded (through a min with T_i(m))
// into the TL estimate vector, and the lookahead view of the Problem.
//
// The streamed local phase uses the pipelined CHAIN, not the configured
// whole-message shape: under the gap model a fan-out node re-pays the
// per-segment fixed gap once per child and segment, so a streamed binomial
// tree is never faster than its whole-message self (the root alone moves
// children·m bytes — already the whole tree's critical path), while the
// chain moves m bytes per hop and absorbs its depth in the pipeline —
// T_chain(s,K) ≈ (p-2+K)·g(s), the classical large-message broadcast MPI
// runtimes (and the authors' earlier intra-cluster tuning work) switch to.
// Each cluster keeps the faster of the streamed chain and the whole-message
// tree, so no cluster ever loses the trade. Platforms whose every cluster
// has a modelled BcastTime or a single node (the §6 Monte-Carlo setting)
// have no local tree to segment; sp then stays in coordinator-only mode and
// remains byte-identical to it.
func (sp *SegmentedProblem) segmentLocal(g *topology.Grid, opt Options) {
	p := sp.Problem
	sizes := intracluster.SegmentSizes(sp.SegSize, sp.LastSize, sp.K)
	local := make([]localSegModel, p.N)
	tl := make([]float64, p.N)
	any := false
	for i := 0; i < p.N; i++ {
		c := g.Clusters[i]
		tl[i] = p.T[i]
		if c.BcastTime > 0 || c.Nodes <= 1 {
			continue
		}
		tr := intracluster.New(intracluster.Chain, c.Nodes)
		local[i] = localSegModel{tree: tr, params: c.Intra}
		any = true
		if tk := tr.SegmentedCompletion(c.Intra, sizes, nil); tk < tl[i] {
			tl[i] = tk
		}
	}
	if !any {
		return
	}
	sp.LocalSeg = true
	sp.segSizes = sizes
	sp.local = local
	sp.TL = tl
	lap := *p
	lap.T = tl
	sp.lap = &lap
}

// MustSegmentedProblem is NewSegmentedProblem that panics on error.
func MustSegmentedProblem(g *topology.Grid, root int, m, segSize int64, opt Options) *SegmentedProblem {
	sp, err := NewSegmentedProblem(g, root, m, segSize, opt)
	if err != nil {
		panic(err)
	}
	return sp
}

// SegmentedSchedule is a complete pipelined broadcast schedule with exact
// per-segment timing.
type SegmentedSchedule struct {
	// Heuristic names the policy that produced the schedule.
	Heuristic string
	// Root is the source cluster; MsgSize, SegSize and K echo the problem.
	Root    int
	MsgSize int64
	SegSize int64
	K       int
	// Events lists the N-1 transmissions in schedule order. Start is when
	// the first segment leaves, SenderFree when the sender finishes its
	// last segment, Arrive when the last segment reaches the receiver.
	Events []Event
	// FirstRT[i] is when cluster i holds its first segment (0 for the
	// root); RT[i] when it holds the last one, i.e. the whole message.
	FirstRT, RT []float64
	// Idle[i] is when cluster i stops wide-area sending and can start its
	// local broadcast; Completion[i] adds T_i per the problem's completion
	// model — or, under the end-to-end pipeline, the per-segment local
	// completion (see LocalSegmented). Makespan is max(Completion).
	Idle, Completion []float64
	Makespan         float64
	// LocalSeg echoes the problem's end-to-end pipeline mode; when set,
	// LocalSegmented[i] records whether cluster i's local tree streams
	// segments (its per-segment completion beat the whole-message one) or
	// broadcasts the reassembled message as before. Both stay zero for
	// coordinator-only schedules, keeping them byte-identical to PR 2's.
	LocalSeg       bool
	LocalSegmented []bool
}

// segState is the mutable per-segment scheduling state.
type segState struct {
	inA   []bool
	sent  []bool
	busy  []float64   // sender NIC availability
	segAt [][]float64 // segAt[i][q]: when cluster i holds segment q
	sizeA int

	backing []float64 // segAt's rows, recycled with the state
	events  []Event   // committed rounds, copied out when the schedule completes
}

// segStates recycles segState buffers across constructions. The N×K
// segment-time backing is the largest part of a construction's setup, and
// a ladder rung abandoned by the incumbent cut after a few rounds would
// otherwise pay it in full.
var segStates = sync.Pool{New: func() any { return new(segState) }}

// newSegState checks a state for sp out of segStates; runSegmented returns
// it. Only the root's segment row is cleared: transmit writes a receiver's
// whole row when it joins A, and no row is read before its cluster joins.
func newSegState(sp *SegmentedProblem) *segState {
	st := segStates.Get().(*segState)
	n, k := sp.N, sp.K
	if cap(st.inA) < n {
		st.inA = make([]bool, n)
		st.sent = make([]bool, n)
		st.busy = make([]float64, n)
		st.segAt = make([][]float64, n)
	}
	st.inA, st.sent, st.busy, st.segAt = st.inA[:n], st.sent[:n], st.busy[:n], st.segAt[:n]
	clear(st.inA)
	clear(st.sent)
	clear(st.busy)
	if cap(st.backing) < n*k {
		st.backing = make([]float64, n*k)
	}
	for i := range st.segAt {
		st.segAt[i] = st.backing[i*k : (i+1)*k : (i+1)*k]
	}
	clear(st.segAt[sp.Root])
	st.inA[sp.Root] = true
	st.sizeA = 1
	st.events = st.events[:0]
	return st
}

// transmit moves all K segments from i to j, advancing the exact state, and
// returns the first-segment start, the sender-free time and the
// last-segment arrival.
func (st *segState) transmit(sp *SegmentedProblem, i, j int) (start1, free, lastArrive float64) {
	gs, gl, lat := sp.Gs[i][j], sp.Gl[i][j], sp.L[i][j]
	k1 := sp.K - 1
	src, dst := st.segAt[i][:k1+1], st.segAt[j][:k1+1]
	b := st.busy[i]
	if a := src[0]; a > b {
		b = a
	}
	start1 = b
	// src is non-decreasing (segments arrive in order) and the NIC time b
	// only grows, so once b clears the last arrival the remaining max()es
	// are no-ops: the tail loop drops the src loads and compares entirely.
	// The arithmetic is identical on both paths — this is the hot inner
	// loop of every segmented build (O(K) per event), pinned bit-identical
	// by the engine equivalence tests.
	last := src[k1]
	q := 0
	for ; q < k1; q++ {
		if a := src[q]; a > b {
			b = a
		}
		b += gs
		dst[q] = b + lat
		if b >= last {
			q++
			break
		}
	}
	for ; q < k1; q++ {
		b += gs
		dst[q] = b + lat
	}
	if last > b {
		b = last
	}
	b += gl
	st.busy[i] = b
	dst[k1] = b + lat
	st.sent[i] = true
	return start1, b, dst[k1]
}

// segPolicy picks the next (sender, receiver) pair under segmented costs.
type segPolicy interface {
	segName() string
	pickSeg(sp *SegmentedProblem, st *segState) (from, to int)
}

// joinBound is a lower bound on the makespan of any schedule in which
// cluster j's last segment arrives at arrive. Its completion starts at Idle
// or, under the overlap model, at RT — both at least arrive — so it is at
// least arrive + T_j (float addition rounds monotonically). A cluster
// whose local tree may stream under the end-to-end pipeline completes no
// earlier than its last ready segment, so the bound there is arrive alone.
func joinBound(sp *SegmentedProblem, j int, arrive float64) float64 {
	if sp.LocalSeg && sp.local[j].tree != nil {
		return arrive
	}
	return arrive + sp.T[j]
}

// runSegmented executes the round-based engine with per-segment timing.
//
// bound is an incumbent makespan to beat. After each round the receiver
// that just joined yields joinBound; once that reaches bound, the finished
// schedule could not have a makespan below bound, so the construction is
// abandoned and runSegmented returns nil. +Inf disables the cut.
func runSegmented(pol segPolicy, sp *SegmentedProblem, bound float64) *SegmentedSchedule {
	st := newSegState(sp)
	defer segStates.Put(st)
	cut := bound < math.Inf(1)
	for round := 0; st.sizeA < sp.N; round++ {
		i, j := pol.pickSeg(sp, st)
		if i < 0 || j < 0 || i >= sp.N || j >= sp.N || !st.inA[i] || st.inA[j] {
			panic(fmt.Sprintf("sched: segmented %s picked invalid pair (%d,%d) at round %d", pol.segName(), i, j, round))
		}
		start, free, arrive := st.transmit(sp, i, j)
		st.inA[j] = true
		st.sizeA++
		st.events = append(st.events, Event{
			Round: round, From: i, To: j,
			Start: start, SenderFree: free, Arrive: arrive,
		})
		if cut && joinBound(sp, j, arrive) >= bound {
			return nil
		}
	}
	ss := &SegmentedSchedule{
		Heuristic:  pol.segName(),
		Root:       sp.Root,
		MsgSize:    sp.MsgSize,
		SegSize:    sp.SegSize,
		K:          sp.K,
		Events:     append(make([]Event, 0, sp.N-1), st.events...),
		FirstRT:    make([]float64, sp.N),
		RT:         make([]float64, sp.N),
		Idle:       make([]float64, sp.N),
		Completion: make([]float64, sp.N),
	}
	var ready []float64
	if sp.LocalSeg {
		ss.LocalSeg = true
		ss.LocalSegmented = make([]bool, sp.N)
		ready = make([]float64, sp.K)
	}
	for i := 0; i < sp.N; i++ {
		ss.FirstRT[i] = st.segAt[i][0]
		ss.RT[i] = st.segAt[i][sp.K-1]
		if st.sent[i] {
			ss.Idle[i] = st.busy[i]
		} else {
			ss.Idle[i] = ss.RT[i]
		}
		start := ss.Idle[i]
		if sp.Overlap {
			start = ss.RT[i]
		}
		comp := start + sp.T[i]
		if sp.LocalSeg && sp.local[i].tree != nil {
			// Per-segment completion: the local tree consumes segment q from
			// its wide-area arrival — floored, without the overlap model, by
			// the coordinator's last wide-area send (its NIC serialises; a
			// leaf coordinator's is idle, so leaves always stream). The
			// cluster keeps whichever local mode the model says is faster.
			base := 0.0
			if !sp.Overlap && st.sent[i] {
				base = st.busy[i]
			}
			for q := 0; q < sp.K; q++ {
				r := st.segAt[i][q]
				if r < base {
					r = base
				}
				ready[q] = r
			}
			if segComp := sp.local[i].tree.SegmentedCompletion(sp.local[i].params, sp.segSizes, ready); segComp < comp {
				comp = segComp
				ss.LocalSegmented[i] = true
			}
		}
		ss.Completion[i] = comp
		if ss.Completion[i] > ss.Makespan {
			ss.Makespan = ss.Completion[i]
		}
	}
	return ss
}

// segScripted replays a fixed pair sequence (the segmented Replay).
type segScripted struct {
	pairs [][2]int
	next  int
}

func (s *segScripted) segName() string { return "scripted" }

func (s *segScripted) pickSeg(_ *SegmentedProblem, _ *segState) (int, int) {
	pr := s.pairs[s.next]
	s.next++
	return pr[0], pr[1]
}

// EvaluateSegmented times an explicit (sender, receiver) sequence under the
// per-segment model — the segmented counterpart of Replay. It panics if the
// sequence is not a valid broadcast order for the problem.
func EvaluateSegmented(sp *SegmentedProblem, pairs [][2]int) *SegmentedSchedule {
	if len(pairs) != sp.N-1 {
		panic(fmt.Sprintf("sched: segmented replay needs %d pairs, got %d", sp.N-1, len(pairs)))
	}
	return runSegmented(&segScripted{pairs: pairs}, sp, math.Inf(1))
}

// Pairs returns the (sender, receiver) sequence of the schedule.
func (ss *SegmentedSchedule) Pairs() [][2]int {
	ps := make([][2]int, len(ss.Events))
	for i, e := range ss.Events {
		ps[i] = [2]int{e.From, e.To}
	}
	return ps
}

// Validate checks the schedule against its problem: matching segmentation,
// a valid broadcast order, and timing that the exact evaluator reproduces.
func (ss *SegmentedSchedule) Validate(sp *SegmentedProblem) error {
	if ss.MsgSize != sp.MsgSize || ss.SegSize != sp.SegSize || ss.K != sp.K {
		return fmt.Errorf("sched: schedule segmentation (%d bytes / %d per segment / K=%d) does not match problem (%d / %d / K=%d)",
			ss.MsgSize, ss.SegSize, ss.K, sp.MsgSize, sp.SegSize, sp.K)
	}
	if ss.Root != sp.Root {
		return fmt.Errorf("sched: schedule root %d != problem root %d", ss.Root, sp.Root)
	}
	if len(ss.Events) != sp.N-1 {
		return fmt.Errorf("sched: %d events for %d clusters", len(ss.Events), sp.N)
	}
	pairs := ss.Pairs()
	for _, pr := range pairs {
		if pr[0] < 0 || pr[0] >= sp.N || pr[1] < 0 || pr[1] >= sp.N {
			return fmt.Errorf("sched: pair (%d,%d) out of range", pr[0], pr[1])
		}
	}
	if !validOrder(sp.Problem, pairs) {
		return fmt.Errorf("sched: pair sequence is not a valid broadcast order")
	}
	want := EvaluateSegmented(sp, pairs)
	const tol = 1e-9
	for k, e := range ss.Events {
		w := want.Events[k]
		if math.Abs(e.Start-w.Start) > tol || math.Abs(e.SenderFree-w.SenderFree) > tol || math.Abs(e.Arrive-w.Arrive) > tol {
			return fmt.Errorf("sched: event %d timing inconsistent with the segmented model", k)
		}
	}
	if ss.LocalSeg != want.LocalSeg {
		return fmt.Errorf("sched: schedule local-segmentation mode %v does not match problem (%v)", ss.LocalSeg, want.LocalSeg)
	}
	if want.LocalSeg && len(ss.LocalSegmented) != sp.N {
		return fmt.Errorf("sched: %d local-segmentation decisions for %d clusters", len(ss.LocalSegmented), sp.N)
	}
	for i := 0; i < sp.N; i++ {
		if math.Abs(ss.RT[i]-want.RT[i]) > tol || math.Abs(ss.Completion[i]-want.Completion[i]) > tol {
			return fmt.Errorf("sched: cluster %d timing inconsistent with the segmented model", i)
		}
		if want.LocalSeg && ss.LocalSegmented[i] != want.LocalSegmented[i] {
			return fmt.Errorf("sched: cluster %d local-segmentation decision inconsistent with the model", i)
		}
	}
	if math.Abs(ss.Makespan-want.Makespan) > tol {
		return fmt.Errorf("sched: makespan %g inconsistent with the segmented model (%g)", ss.Makespan, want.Makespan)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Segment-aware greedy pickers

// lastSegEstimate is the closed-form candidate cost core: the estimated
// start of the last segment from i to j. At K == 1 the (K-1)·g_s term is
// exactly zero and the expression collapses to the unsegmented avail[i]
// (busy and last-segment time merge), keeping costs bit-identical.
func lastSegEstimate(sp *SegmentedProblem, st *segState, i, j int) float64 {
	sk := st.busy[i] + float64(sp.K-1)*sp.Gs[i][j]
	if a := st.segAt[i][sp.K-1]; a > sk {
		sk = a
	}
	return sk
}

// flatSeg is FlatTree under segmentation: the same fixed reception order.
type flatSeg struct{}

func (flatSeg) segName() string { return FlatTree{}.Name() }

func (flatSeg) pickSeg(sp *SegmentedProblem, st *segState) (int, int) {
	for d := 1; d < sp.N; d++ {
		j := (sp.Root + d) % sp.N
		if !st.inA[j] {
			return sp.Root, j
		}
	}
	return -1, -1
}

// fefSeg is FEF under segmentation. FEF's edge weights are static (latency,
// or full-message g+L), so the picked tree is the segmentation-independent
// FEF tree; only the timing changes.
type fefSeg struct{ h FEF }

func (f fefSeg) segName() string { return f.h.Name() }

func (f fefSeg) pickSeg(sp *SegmentedProblem, st *segState) (int, int) {
	return f.h.pick(sp.Problem, &state{inA: st.inA})
}

// ecefSeg generalises the ECEF family: minimise the estimated last-segment
// arrival max(busy_i + (K-1)·g_s, last_i) + W_last[i][j], plus the variant's
// lookahead F_j. The lookahead edge weights stay at full-message costs (it
// ranks j's utility for whole future transmissions); its T term is the
// effective local-phase duration — min(T_k(s,K), T_k(m)) under the
// end-to-end pipeline, T_k otherwise (laProblem).
type ecefSeg struct{ h ecef }

func (e ecefSeg) segName() string { return e.h.name }

func (e ecefSeg) pickSeg(sp *SegmentedProblem, st *segState) (int, int) {
	lap := sp.laProblem()
	shim := &state{inA: st.inA}
	best := math.Inf(1)
	bi, bj := -1, -1
	for j := 0; j < sp.N; j++ {
		if st.inA[j] {
			continue
		}
		fj := e.h.lookahead(lap, shim, j)
		for i := 0; i < sp.N; i++ {
			if !st.inA[i] {
				continue
			}
			c := lastSegEstimate(sp, st, i, j) + sp.Wl[i][j] + fj
			if c < best {
				best, bi, bj = c, i, j
			}
		}
	}
	return bi, bj
}

// buSeg is BottomUp under segmentation: serve the receiver whose cheapest
// estimated completion — last-segment arrival plus the effective local
// phase (estT: min(T(s,K), T(m)) when the local trees stream) — is the
// largest.
type buSeg struct{}

func (buSeg) segName() string { return BottomUp{}.Name() }

func (buSeg) pickSeg(sp *SegmentedProblem, st *segState) (int, int) {
	ts := sp.estT()
	worst := math.Inf(-1)
	bi, bj := -1, -1
	for j := 0; j < sp.N; j++ {
		if st.inA[j] {
			continue
		}
		tj := ts[j]
		best := math.Inf(1)
		argi := -1
		for i := 0; i < sp.N; i++ {
			if !st.inA[i] {
				continue
			}
			if c := lastSegEstimate(sp, st, i, j) + sp.Wl[i][j] + tj; c < best {
				best, argi = c, i
			}
		}
		if best > worst {
			worst, bi, bj = best, argi, j
		}
	}
	return bi, bj
}

// usesTL reports whether h's segmented picker consumes the local-phase
// duration estimates (estT/laProblem) — only then can the TL view steer it
// to a different tree than the coordinator-only construction. FlatTree,
// FEF and the T-free lookahead kinds never read T, and the non-native
// fallback builds from sp.Problem's plain costs.
func usesTL(h Heuristic, p *Problem) bool {
	switch hh := h.(type) {
	case ecef:
		return hh.kind == laMinWT || hh.kind == laMaxWT
	case BottomUp:
		return true
	case Mixed:
		return usesTL(hh.inner(p), p)
	}
	return false
}

// coordGuard makes the end-to-end pipeline's never-worse bound structural.
// The per-cluster min-model guarantees re-timing a FIXED tree never loses,
// but the TL-based estimates may steer a greedy to a different wide-area
// tree, and a greedy carries no optimality guarantee — so build also builds
// the coordinator-estimate schedule (the TL view stripped: the exact pair
// sequence the coordinator-only construction picks), re-timed end-to-end,
// and the better of the two wins (ties to the TL-steered schedule). Since
// the coordinator tree re-timed end-to-end is never worse than the
// coordinator-only schedule itself, neither is the result. The guard is a
// no-op outside the end-to-end pipeline and for pickers that never read
// the TL estimates (both passes would be identical by construction).
//
// bound is runSegmented's incumbent cut, applied to both passes; the
// second pass only wins if strictly below the first, so it is cut at the
// first pass's makespan too. Whenever the unbounded guard's result has a
// makespan below bound the bounded one is that same schedule; otherwise it
// is nil or a schedule whose makespan is at least bound.
func coordGuard(h Heuristic, sp *SegmentedProblem, bound float64, build func(*SegmentedProblem, float64) *SegmentedSchedule) *SegmentedSchedule {
	ss := build(sp, bound)
	if sp.lap == nil || !usesTL(h, sp.Problem) {
		return ss
	}
	spc := *sp
	spc.TL, spc.lap = nil, nil
	if ss != nil && ss.Makespan < bound {
		bound = ss.Makespan
	}
	if coord := build(&spc, bound); coord != nil && (ss == nil || coord.Makespan < ss.Makespan) {
		return coord
	}
	return ss
}

// ScheduleSegmented builds a pipelined schedule for sp with the segment-aware
// variant of h, through a pool checked out for the call (see
// EnginePool.ScheduleSegmented). Every paper heuristic (and Mixed) has a
// native segmented greedy — served by the incremental segmented engine
// (segengine.go), which is bit-identical to the naive pickers retained
// below; other heuristics fall back to their unsegmented tree, exactly
// re-timed under the per-segment model.
func ScheduleSegmented(h Heuristic, sp *SegmentedProblem) *SegmentedSchedule {
	ep := pools.Get().(*EnginePool)
	defer pools.Put(ep)
	return ep.ScheduleSegmented(h, sp)
}

// fallbackTree is the unsegmented tree that a heuristic without a native
// segmented picker has re-timed under the per-segment model, built on first
// use. Every rung of a ladder search and both coordGuard passes share the
// full-message Problem (and its costs), so one fallbackTree per search
// builds the tree once instead of once per rung and pass.
type fallbackTree struct {
	h     Heuristic
	pairs [][2]int
	built bool
}

// tree returns the fallback heuristic's (sender, receiver) pairs on p.
func (f *fallbackTree) tree(p *Problem) [][2]int {
	if !f.built {
		f.pairs, f.built = pairsOf(f.h.Schedule(p)), true
	}
	return f.pairs
}

// segmentedWith runs the segmented picker pol on sp, or — when h has no
// native segmented picker (pol == nil) — re-times the fallback tree under
// the per-segment model. bound is runSegmented's incumbent cut (nil result
// when it fires).
func segmentedWith(h Heuristic, sp *SegmentedProblem, pol segPolicy, fallback *fallbackTree, bound float64) *SegmentedSchedule {
	if pol == nil {
		pol = &segScripted{pairs: fallback.tree(sp.Problem)}
	}
	ss := runSegmented(pol, sp, bound)
	if ss != nil {
		ss.Heuristic = h.Name()
	}
	return ss
}

// ScheduleSegmentedReference forces the naive quadratic-scan segmented
// pickers, the reference the incremental segmented engine is equivalence-
// tested and benchmarked against. The produced schedules are identical to
// ScheduleSegmented's in every field; only the construction cost differs.
func ScheduleSegmentedReference(h Heuristic, sp *SegmentedProblem) *SegmentedSchedule {
	fallback := &fallbackTree{h: Reference{Base: h}}
	return coordGuard(h, sp, math.Inf(1), func(spx *SegmentedProblem, bound float64) *SegmentedSchedule {
		return segmentedWith(h, spx, segPolicyFor(h, spx), fallback, bound)
	})
}

// segPolicyFor returns the native NAIVE segmented picker for h, or nil when
// h has none (see EnginePool.segEngineFor for the incremental counterparts).
func segPolicyFor(h Heuristic, sp *SegmentedProblem) segPolicy {
	switch hh := h.(type) {
	case FlatTree:
		return flatSeg{}
	case FEF:
		return fefSeg{h: hh}
	case ecef:
		return ecefSeg{h: hh}
	case BottomUp:
		return buSeg{}
	case Mixed:
		return segPolicyFor(hh.inner(sp.Problem), sp)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Pipelined strategy: pick the segment size from a candidate ladder

// MaxSegments bounds the segment count a ladder candidate may induce; the
// exact evaluator is O(N·K) in time and memory, so the ladder skips sizes
// that would split the message into more pieces than this.
const MaxSegments = 8192

// DefaultSegmentLadder returns the candidate segment sizes tried by
// Pipelined for an m-byte message: the unsegmented m itself plus descending
// powers of two from min(4 MiB, largest power below m) down to 4 KiB,
// largest first (so equal makespans resolve to the fewest segments).
func DefaultSegmentLadder(m int64) []int64 {
	if m <= 0 {
		// Degenerate broadcast: a single (empty) segment.
		return []int64{1}
	}
	ladder := []int64{m}
	for s := int64(1 << 22); s >= 4096; s >>= 1 {
		if s >= m {
			continue
		}
		if (m-1)/s+1 > MaxSegments { // ceil(m/s), overflow-free
			break
		}
		ladder = append(ladder, s)
	}
	return ladder
}

// Pipelined picks, for a base heuristic, the best segment size from a
// candidate ladder: the paper's model extended to large messages, where
// splitting the payload lets inter-cluster sends overlap with downstream
// forwarding.
type Pipelined struct {
	// Base is the heuristic whose segment-aware variant builds each tree.
	// Nil means Mixed{}, the paper's closing recommendation.
	Base Heuristic
	// Ladder overrides DefaultSegmentLadder (entries larger than the
	// message act as "unsegmented").
	Ladder []int64
}

func (pl Pipelined) base() Heuristic {
	if pl.Base == nil {
		return Mixed{}
	}
	return pl.Base
}

// Name implements the naming convention of the heuristic registry.
func (pl Pipelined) Name() string { return "Pipelined-" + pl.base().Name() }

// BestContext schedules a broadcast of m bytes from root on g at every
// ladder segment size through ep and returns the schedule with the smallest
// makespan. Ties resolve to the earliest ladder entry (largest segments,
// least overhead). ctx is checked before each ladder candidate and after
// the last, so a cancelled search returns ctx's error within one rung's
// construction time and a search that overran ctx never returns a
// schedule. The pool reuses the candidate caches, lookahead templates and the
// per-matrix-identity Gs/Wl transposes across rungs and across repeated
// searches on one platform.
//
// Each rung after the first is built against the incumbent's makespan as
// an exact branch-and-bound cut (runSegmented): a rung whose partial
// schedule already proves a makespan at or above the incumbent's is
// abandoned, since only strictly smaller makespans are adopted. The result
// is the one the unbounded search returns.
func (pl Pipelined) BestContext(ctx context.Context, ep *EnginePool, g *topology.Grid, root int, m int64, opt Options) (*SegmentedSchedule, error) {
	ladder := pl.Ladder
	if len(ladder) == 0 {
		ladder = DefaultSegmentLadder(m)
	}
	var best *SegmentedSchedule
	fallback := &fallbackTree{h: pl.base()}
	for _, s := range ladder {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp, err := NewSegmentedProblem(g, root, m, s, opt)
		if err != nil {
			return nil, err
		}
		bound := math.Inf(1)
		if best != nil {
			bound = best.Makespan
		}
		if ss := ep.scheduleSegmented(pl.base(), sp, bound, fallback); ss != nil && (best == nil || ss.Makespan < best.Makespan) {
			best = ss
		}
	}
	// A search that overran ctx reports it, even after its last rung.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	best.Heuristic = pl.Name()
	return best, nil
}
