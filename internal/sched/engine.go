package sched

import (
	"fmt"
	"math"
)

// This file is the incremental scheduling engine. It replaces the naive
// O(N²)-per-round candidate scans of the original pickers with heap-backed,
// lazily invalidated candidate structures, dropping schedule construction
// from O(N³)–O(N⁴) to O(N² log N) while producing bit-identical schedules
// (proved by the golden equivalence tests; complexity bounds in DESIGN.md,
// "Performance notes"). The engines are readied only by EnginePool
// (enginepool.go), the package's one build path; the naive pickers survive
// as the Reference oracle.
//
// Three mechanisms cover every heuristic:
//
//   - FEF: edge weights are static, so each sender gets a lazy-deletion
//     heap over its outgoing row, heapified when the sender joins A;
//     receivers that left B are skipped on access. A round scans the
//     senders' heap tops.
//   - ECEF family and BottomUp: a per-receiver cached best sender (cost
//     and index) with lazy invalidation. A receiver's cache moves only
//     when one of its three inputs moves: the cached sender transmitted
//     (its avail grew), a sender joined A with a cheaper candidate (a
//     flat O(1) compare), or the member realising the lookahead extremum
//     F(j) left B. Only invalidated receivers consult their
//     candidate-sender heap, which is itself built lazily from the join
//     log the first time the receiver is requeried. Heap keys are
//     avail[i] + W[i][j] at insertion; avail never decreases, so a stale
//     key lower-bounds the entry's true cost and the top can be re-keyed
//     in place until fresh — the classic lazy re-evaluation of
//     priority-queue greedy algorithms. The lookahead terms are extrema
//     over the shrinking set B, served by per-receiver lazy-deletion
//     heaps whose members are discarded once they join A.
//   - FlatTree: a cursor over the fixed reception order.
//
// Tie-breaking replicates the naive scan order exactly: FEF resolves equal
// weights towards the lowest (sender, receiver) pair, the ECEF family
// towards the lowest (receiver, sender) pair, and BottomUp towards the
// earliest receiver served by the lowest sender. Every accepted candidate
// cost is computed with the same expression and operation order as the
// naive pickers, so the schedules match bit for bit — with one theoretical
// caveat: the per-receiver caches order senders by the partial key
// avail[i]+W[i][j] before the receiver-constant lookahead (or T) term is
// added, so two senders whose partial keys differ by less than an ulp of
// the full sum would tie for the naive scan but not for the engine. Such a
// collapse needs the full sums to round to the same float64 while the
// partial keys differ — never observed on the golden platforms, and of
// measure zero on random ones.

// The small binary heaps below (and the event queue in internal/sim) are
// deliberately hand-specialised rather than shared through a generic
// helper: a comparator passed as a function value defeats inlining on
// these hot paths, and each variant's lazy trick (re-keying, deletion)
// shapes its access pattern differently.

// Reference forces a heuristic to schedule with the original naive pickers.
// It exists so benchmarks and equivalence tests outside this package can
// compare the incremental engine against the reference implementation; the
// produced schedules are identical (same events, RT and makespan), only the
// construction cost differs.
type Reference struct{ Base Heuristic }

// Name implements Heuristic; the wrapper keeps the base name so reference
// and incremental schedules compare equal field-by-field.
func (r Reference) Name() string { return r.Base.Name() }

// Schedule implements Heuristic.
func (r Reference) Schedule(p *Problem) *Schedule {
	switch h := r.Base.(type) {
	case Mixed:
		// Composite: reference-schedule the inner pick for this size.
		sc := Reference{Base: h.inner(p)}.Schedule(p)
		sc.Heuristic = h.Name()
		return sc
	case Refined:
		// Refine replays fixed pair sequences (no picker involved), so
		// only the base schedule needs the reference path.
		return Refine(p, Reference{Base: h.Base}.Schedule(p), h.MaxRounds)
	}
	if pol, ok := r.Base.(policy); ok {
		return run(pol, p)
	}
	panic(fmt.Sprintf("sched: Reference cannot force the naive path for %q", r.Base.Name()))
}

// ---------------------------------------------------------------------------
// FlatTree: cursor

// flatEngine walks the fixed reception order root+1, root+2, ... once.
type flatEngine struct{ d int }

func (flatEngine) Name() string { return FlatTree{}.Name() }

func (e *flatEngine) pick(p *Problem, s *state) (int, int) {
	for {
		j := (p.Root + e.d) % p.N
		e.d++
		if !s.inA[j] {
			return p.Root, j
		}
	}
}

// ---------------------------------------------------------------------------
// FEF: per-receiver cached best edge

// fefEngine is the incremental FEF picker. Edge weights are static, so a
// receiver's cheapest incoming edge from A can only improve — and only when
// a sender joins A. The whole schedule is therefore two flat O(N) passes
// per round with no invalidation at all: fold the new sender's row into the
// per-receiver caches, then scan the caches.
type fefEngine struct {
	h     FEF
	cW    []float64 // cheapest incoming weight from A per receiver
	cSnd  []int32   // sender attaining cW[j]
	fresh []int32   // senders whose rows are not folded in yet
	rem   []int32   // receivers still outside A, ascending (see recvCache.rem)
}

func (e *fefEngine) Name() string { return e.h.Name() }

func (e *fefEngine) pick(p *Problem, s *state) (int, int) {
	wm := p.L
	if e.h.Weight == WeightFull {
		wm = p.W
	}
	for _, i := range e.fresh {
		row := wm[i]
		for _, j := range e.rem {
			if w := row[j]; w < e.cW[j] || (w == e.cW[j] && i < e.cSnd[j]) {
				e.cW[j], e.cSnd[j] = w, i
			}
		}
	}
	e.fresh = e.fresh[:0]
	best := math.Inf(1)
	bi, bj := -1, -1
	for _, j := range e.rem {
		// The naive scan resolves ties by (w, i, j): lowest sender first,
		// then lowest receiver (the ascending-j scan with strict
		// improvement).
		if w, i := e.cW[j], int(e.cSnd[j]); w < best || (w == best && i < bi) {
			best, bi, bj = w, i, int(j)
		}
	}
	e.fresh = append(e.fresh, int32(bj))
	e.rem = remDrop(e.rem, int32(bj))
	return bi, bj
}

// ---------------------------------------------------------------------------
// Per-receiver cached best sender with lazy heaps (ECEF family, BottomUp)

// senderEntry is one candidate sender inside a receiver's heap. key is
// avail[i] + w as of the last (re-)keying; since avail never decreases it
// lower-bounds the entry's true current cost.
type senderEntry struct {
	key float64
	w   float64 // static edge cost W[i][j]
	i   int32
}

// senderLess orders candidates by (key, i); the index tie-break matches the
// naive scan, which keeps the lowest sender among equal costs.
func senderLess(a, b senderEntry) bool {
	return a.key < b.key || (a.key == b.key && a.i < b.i)
}

// senderHeap is a binary min-heap of candidate senders.
type senderHeap struct{ es []senderEntry }

func (h *senderHeap) push(e senderEntry) {
	h.es = append(h.es, e)
	for c := len(h.es) - 1; c > 0; {
		p := (c - 1) / 2
		if !senderLess(h.es[c], h.es[p]) {
			break
		}
		h.es[c], h.es[p] = h.es[p], h.es[c]
		c = p
	}
}

func (h *senderHeap) heapify() {
	for i := len(h.es)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *senderHeap) siftDown(i int) {
	n := len(h.es)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && senderLess(h.es[r], h.es[l]) {
			m = r
		}
		if !senderLess(h.es[m], h.es[i]) {
			return
		}
		h.es[i], h.es[m] = h.es[m], h.es[i]
		i = m
	}
}

// best returns the candidate minimising the current cost avail[i] + w,
// lowest sender index on ties. Stale tops are re-keyed in place and sifted
// down; keys only grow, so the first fresh top is the true minimum.
func (h *senderHeap) best(avail []float64) senderEntry {
	for {
		top := h.es[0]
		cur := avail[top.i] + top.w
		if cur == top.key {
			return top
		}
		h.es[0].key = cur
		h.siftDown(0)
	}
}

// flatRequeryLimit is how many times a receiver is requeried by flat scan
// before it switches to its candidate heap. Flat scans cost O(|A|) each, so
// the cap bounds the flat work at O(N) per receiver — O(N²) overall — while
// degenerate platforms (one sender dominating every round) move to the
// heap, whose lazy re-evaluation is O(N² log N) in total. Random platforms
// requery each receiver only a handful of times, so in practice the engine
// runs on flat scans alone.
const flatRequeryLimit = 16

// recvCache is the per-receiver candidate store shared by the ECEF-family
// and BottomUp engines: the cached best sender (cost value and index) per
// receiver, invalidated lazily. Requeries scan the join log flat (over the
// transposed W, so the column is contiguous); receivers requeried more
// than flatRequeryLimit times get a candidate heap materialised from the
// join log instead.
type recvCache struct {
	wt         [][]float64 // W transposed: wt[j][i] = W[i][j]
	heaps      []senderHeap
	integrated []int32   // per receiver: prefix of joined already in its heap
	joined     []int32   // senders in join order
	cKey       []float64 // cached minimal avail[i]+W[i][j] for receiver j
	cSnd       []int32   // sender attaining cKey[j]
	nq         []int32   // flat requeries spent per receiver
	// rem is the SoA lane of receivers still outside A, ascending. Round
	// scans walk it instead of testing inA per index: the loop touches only
	// live receivers (contiguous, branch-light) and its ascending order is
	// exactly the naive scan's ascending-j tie-break order.
	rem   []int32
	csync int   // prefix of joined already compared against caches
	lastI int32 // sender of the previous round (-1 before round 0)
}

// remInit fills rem with every receiver but root, ascending.
func remInit(rem []int32, n, root int) []int32 {
	rem = rem[:0]
	for j := 0; j < n; j++ {
		if j != root {
			rem = append(rem, int32(j))
		}
	}
	return rem
}

// remDrop removes receiver j from a sorted remaining lane.
func remDrop(rem []int32, j int32) []int32 {
	lo, hi := 0, len(rem)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rem[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return append(rem[:lo], rem[lo+1:]...)
}

// sync brings the caches up to date with the previous round. Senders that
// joined A since the last sync are compared flat against every cached best
// (their candidate either beats it or goes to the join log for later);
// then every receiver whose cached best sender transmitted last round is
// requeried — candidates of all other senders kept their exact cost, so
// the remaining caches stay valid minima.
func (rc *recvCache) sync(p *Problem, s *state) {
	for _, i := range rc.joined[rc.csync:] {
		av, row := s.avail[i], p.W[i]
		for _, j := range rc.rem {
			key := av + row[j]
			if key < rc.cKey[j] || (key == rc.cKey[j] && i < rc.cSnd[j]) {
				rc.cKey[j], rc.cSnd[j] = key, i
			}
		}
	}
	rc.csync = len(rc.joined)
	if rc.lastI >= 0 {
		for _, j := range rc.rem {
			if rc.cSnd[j] == rc.lastI {
				rc.requery(p, s, int(j))
			}
		}
	}
}

// requery recomputes receiver j's cached best: a flat scan over the join
// log while the receiver stays under its flat budget, its candidate heap
// (materialised on first use) afterwards.
func (rc *recvCache) requery(p *Problem, s *state, j int) {
	if rc.nq[j] < flatRequeryLimit {
		rc.nq[j]++
		col, avail := rc.wt[j], s.avail
		bk, bi := math.Inf(1), int32(-1)
		for _, i := range rc.joined {
			if key := avail[i] + col[i]; key < bk || (key == bk && i < bi) {
				bk, bi = key, i
			}
		}
		rc.cKey[j], rc.cSnd[j] = bk, bi
		return
	}
	h := &rc.heaps[j]
	if int(rc.integrated[j]) < len(rc.joined) {
		if h.es == nil {
			h.es = make([]senderEntry, 0, p.N)
		}
		build := len(h.es) == 0
		for _, i := range rc.joined[rc.integrated[j]:] {
			w := rc.wt[j][i]
			e := senderEntry{key: s.avail[i] + w, w: w, i: i}
			if build {
				h.es = append(h.es, e)
			} else {
				h.push(e)
			}
		}
		if build {
			h.heapify()
		}
		rc.integrated[j] = int32(len(rc.joined))
	}
	se := h.best(s.avail)
	rc.cKey[j], rc.cSnd[j] = se.key, se.i
}

// commit records the pair chosen this round; the implied cache
// invalidations happen at the next sync.
func (rc *recvCache) commit(i, j int) {
	rc.lastI = int32(i)
	rc.joined = append(rc.joined, int32(j))
	rc.rem = remDrop(rc.rem, int32(j))
}

// ---------------------------------------------------------------------------
// Lookahead heaps

// laEntry is one candidate future receiver k of a lookahead term F(j).
type laEntry struct {
	w float64 // W[j][k] (+ T[k]); negated for the max variant
	k int32
}

// laHeap yields the extremum of w over entries whose cluster is still in B.
// The max variant stores negated weights so the comparator stays the same.
type laHeap struct{ es []laEntry }

func (h *laHeap) heapify() {
	for i := len(h.es)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *laHeap) siftDown(i int) {
	n := len(h.es)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.es[r].w < h.es[l].w {
			m = r
		}
		if h.es[m].w >= h.es[i].w {
			return
		}
		h.es[i], h.es[m] = h.es[m], h.es[i]
		i = m
	}
}

// top returns the extremum entry among members still in B, discarding
// members that joined A; k = -1 when no member remains (F(j) = 0, the
// naive lookahead's convention).
func (h *laHeap) top(inA []bool) laEntry {
	for len(h.es) > 0 {
		if !inA[h.es[0].k] {
			return h.es[0]
		}
		n := len(h.es) - 1
		h.es[0] = h.es[n]
		h.es = h.es[:n]
		h.siftDown(0)
	}
	return laEntry{w: 0, k: -1}
}

// ---------------------------------------------------------------------------
// Lookahead set: the cached F(j) extrema shared by the unsegmented and
// segmented ECEF-family engines. The lookahead ranks whole-future utility
// off p.W and p.T; segmented problems pass their laProblem view, whose T is
// the effective local-phase duration vector.

// lookaheadSet holds the per-receiver lookahead heaps and their cached
// extrema.
type lookaheadSet struct {
	la   []laHeap  // per-receiver lookahead heaps; nil for plain ECEF
	fVal []float64 // cached F(j)
	fTop []int32   // member attaining fVal[j] (-1 when B\{j} is empty)
	neg  bool      // lookahead weights are negated (max variant)

	// Copy-on-write over an EnginePool template (nil shared otherwise):
	// while shared[j] is set, la[j] still reads the template's backing,
	// and its first pop copies it to work[off[j]:off[j+1]]. A heap whose
	// top never joins A is never copied.
	shared []bool
	work   []laEntry
	off    []int
}

// laEntriesFor appends receiver j's lookahead candidates — every cluster
// k != j keyed by h's weight expression (negated for the max variant) — and
// returns the extended backing. The pool's root-independent templates and
// the replanner both go through this one function, so the weight
// expression cannot drift between them.
func laEntriesFor(backing []laEntry, h ecef, p *Problem, j int) []laEntry {
	neg := h.kind == laMaxWT
	for k := 0; k < p.N; k++ {
		if k == j {
			continue
		}
		w := p.W[j][k]
		if h.kind != laMinW {
			w += p.T[k]
		}
		if neg {
			w = -w
		}
		backing = append(backing, laEntry{w: w, k: int32(k)})
	}
	return backing
}

// cache stores the lookahead extremum entry of receiver j, undoing the
// max-variant negation.
func (ls *lookaheadSet) cache(j int, top laEntry) {
	ls.fVal[j], ls.fTop[j] = top.w, top.k
	if ls.neg && top.k >= 0 {
		ls.fVal[j] = -top.w
	}
}

// refresh lazily recomputes F(j) when the member realising it joined A.
// The guard must stay inlinable — it runs for every receiver every round —
// so the rare recompute lives in its own (non-inlined) helper.
func (ls *lookaheadSet) refresh(j int, inA []bool) {
	if k := ls.fTop[j]; k >= 0 && inA[k] {
		ls.recompute(j, inA)
	}
}

func (ls *lookaheadSet) recompute(j int, inA []bool) {
	if ls.shared != nil && ls.shared[j] {
		ls.shared[j] = false
		w := ls.work[ls.off[j]:ls.off[j+1]:ls.off[j+1]]
		copy(w, ls.la[j].es)
		ls.la[j].es = w
	}
	ls.cache(j, ls.la[j].top(inA))
}

// ---------------------------------------------------------------------------
// ECEF family engine

// ecefEngine is the incremental picker for ECEF and its lookahead variants.
type ecefEngine struct {
	h  ecef
	rc recvCache
	lookaheadSet
}

func (e *ecefEngine) Name() string { return e.h.name }

func (e *ecefEngine) pick(p *Problem, s *state) (int, int) {
	e.rc.sync(p, s)
	best := math.Inf(1)
	bi, bj := -1, -1
	if e.la == nil {
		for _, j := range e.rc.rem {
			if c := e.rc.cKey[j]; c < best {
				best, bi, bj = c, int(e.rc.cSnd[j]), int(j)
			}
		}
	} else {
		for _, j := range e.rc.rem {
			e.refresh(int(j), s.inA)
			if c := e.rc.cKey[j] + e.fVal[j]; c < best {
				best, bi, bj = c, int(e.rc.cSnd[j]), int(j)
			}
		}
	}
	e.rc.commit(bi, bj)
	return bi, bj
}

// ---------------------------------------------------------------------------
// BottomUp engine

// buEngine is the incremental BottomUp picker: per-receiver best sender,
// then the receiver whose cheapest completion is the largest.
type buEngine struct{ rc recvCache }

func (buEngine) Name() string { return BottomUp{}.Name() }

func (e *buEngine) pick(p *Problem, s *state) (int, int) {
	e.rc.sync(p, s)
	worst := math.Inf(-1)
	bi, bj := -1, -1
	for _, j := range e.rc.rem {
		if c := e.rc.cKey[j] + p.T[j]; c > worst {
			worst, bi, bj = c, int(e.rc.cSnd[j]), int(j)
		}
	}
	e.rc.commit(bi, bj)
	return bi, bj
}
