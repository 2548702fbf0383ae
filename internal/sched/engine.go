package sched

import (
	"fmt"
	"math"
)

// This file is the incremental scheduling engine: one engine per picker,
// serving every build the package makes. A whole-message Problem is built
// as its one-segment SegmentedProblem view (EnginePool.Schedule), so
// unsegmented and pipelined schedules run the same code on segState. The
// engine replaces the naive O(N²)-per-round candidate scans with
// heap-backed, lazily invalidated candidate structures, dropping schedule
// construction from O(N³)–O(N⁴) to O(N² log N) while producing
// bit-identical schedules (proved by the golden equivalence tests against
// the naive pickers, which survive as the Reference and
// ScheduleSegmentedReference oracles; complexity bounds in DESIGN.md,
// "Performance notes"). The engines are readied only by EnginePool
// (enginepool.go).
//
// The candidate cost is the estimated arrival of the last segment,
//
//	cost(i, j) = max(busy_i + (K-1)·Gs[i][j], last_i) + (Gl[i][j] + L[i][j]),
//
// where last_i is when sender i holds its last segment and the bracket is
// W_last[i][j] (the cost store's WT at the last segment's size, read
// transposed). Its dynamic inputs move the way an unsegmented sender's
// availability does: last_i is fixed from the moment i joins A (transmit
// only writes the receiver's segment times), and busy_i only grows, only
// when i transmits — one sender per round. At K = 1 the Gs term vanishes and the cost splits into a sender
// scalar av_i = max(busy_i, last_i) — the unsegmented avail — plus the
// static edge weight W[i][j], so the receiver cache keeps one av lane and
// skips the Gs lane altogether (a selection made from the input's K).
//
// Three mechanisms cover every heuristic:
//
//   - FEF: static edge weights, so per-receiver cheapest-edge caches only
//     improve, when a sender joins A (fefEngine).
//   - ECEF family and BottomUp: a per-receiver cached best sender (cost
//     and index) with lazy invalidation. A receiver's cache moves only
//     when one of its inputs moves: the cached sender transmitted (its busy
//     grew), a sender joined A with a cheaper candidate (a flat O(1)
//     compare), or the member realising the lookahead extremum F(j) left B.
//     Only invalidated receivers are requeried: a flat scan of the join log
//     under a per-receiver budget, then a candidate-sender heap built
//     lazily from the join log. Heap keys are the cost at insertion; cost
//     is nondecreasing in busy_i, so a stale key lower-bounds the entry's
//     true cost and the top can be re-keyed in place until fresh — the
//     classic lazy re-evaluation of priority-queue greedy algorithms. The
//     lookahead terms are extrema over the shrinking set B, served by
//     per-receiver lazy-deletion heaps whose members are discarded once
//     they join A.
//   - FlatTree: a cursor over the fixed reception order.
//
// Tie-breaking replicates the naive scan order exactly: FEF resolves equal
// weights towards the lowest (sender, receiver) pair, the ECEF family
// towards the lowest (receiver, sender) pair, and BottomUp towards the
// earliest receiver served by the lowest sender. Every accepted candidate
// cost is computed with the same expression and operation order as the
// naive pickers, so the schedules match bit for bit — with one theoretical
// caveat: the per-receiver caches order senders by the partial key (the
// cost above) before the receiver-constant lookahead (or T) term is added,
// so two senders whose partial keys differ by less than an ulp of the full
// sum would tie for the naive scan but not for the engine. Such a collapse
// needs the full sums to round to the same float64 while the partial keys
// differ — never observed on the golden platforms, and of measure zero on
// random ones.

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

func (flatEngine) segName() string { return FlatTree{}.Name() }

func (e *flatEngine) pickSeg(sp *SegmentedProblem, st *segState) (int, int) {
	for {
		j := (sp.Root + e.d) % sp.N
		e.d++
		if !st.inA[j] {
			return sp.Root, j
		}
	}
}

// ---------------------------------------------------------------------------
// FEF: per-receiver cached best edge

// fefEngine is the incremental FEF picker. Edge weights are static and
// segmentation-independent (the picked tree is the unsegmented FEF tree at
// every K, like the naive treeSeg), so a receiver's cheapest incoming edge
// from A can only improve — and only when a sender joins A. The whole
// schedule is therefore two flat O(N) passes per round with no
// invalidation at all: fold the new sender's row into the per-receiver
// caches, then scan the caches.
type fefEngine struct {
	h     FEF
	cW    []float64 // cheapest incoming weight from A per receiver
	cSnd  []int32   // sender attaining cW[j]
	fresh []int32   // senders whose rows are not folded in yet
	rem   []int32   // receivers still outside A, ascending (see recvCache.rem)
}

func (e *fefEngine) segName() string { return e.h.Name() }

func (e *fefEngine) pickSeg(sp *SegmentedProblem, _ *segState) (int, int) {
	full := e.h.Weight == WeightFull
	for _, i := range e.fresh {
		gRow, lRow := sp.G[i], sp.L[i]
		for _, j := range e.rem {
			w := lRow[j]
			if full {
				w = gRow[j] + lRow[j]
			}
			if w < e.cW[j] || (w == e.cW[j] && i < e.cSnd[j]) {
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

// senderEntry is one candidate sender inside a receiver's heap. key is the
// cost as of the last (re-)keying, which lower-bounds the entry's true
// current cost; re-keying reads the static edge costs from the receiver's
// transposed columns, so an entry carries none.
type senderEntry struct {
	key float64
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

// best returns receiver j's candidate minimising the current cost, lowest
// sender index on ties. Stale tops are re-keyed in place and sifted down;
// keys only grow, so the first fresh top is the true minimum.
func (h *senderHeap) best(rc *recvCache, st *segState, j int) senderEntry {
	for {
		top := h.es[0]
		cur := rc.keyOf(st, j, top.i)
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
// receiver, invalidated lazily. Requeries scan the join log flat over the
// transposed cost matrices (so one receiver's column is contiguous);
// receivers requeried more than flatRequeryLimit times get a candidate heap
// materialised from the join log instead.
type recvCache struct {
	sp  *SegmentedProblem
	kg1 float64 // float64(K-1), the per-segment gap multiplier; 0 selects the K = 1 lanes
	// gsT is Gs transposed (nil at K = 1, where the Gs term vanishes) and
	// wlT is W_last transposed (SegmentedProblem.lastWT). Both are shared
	// and read-only.
	gsT, wlT   [][]float64
	heaps      []senderHeap
	integrated []int32   // per receiver: prefix of joined already in its heap
	joined     []int32   // clusters holding the message, in join order
	cKey       []float64 // cached minimal cost(i, j) for receiver j
	cSnd       []int32   // sender attaining cKey[j]
	nq         []int32   // flat requeries spent per receiver
	// rem is the SoA lane of receivers still outside A, ascending. Round
	// scans walk it instead of testing inA per index: the loop touches only
	// live receivers (contiguous, branch-light) and its ascending order is
	// exactly the naive scan's ascending-j tie-break order.
	rem []int32
	// ready is the contiguous sender lane the scans read. For K > 1 it
	// holds last_i = segAt[i][K-1], fixed once i joins A, and the scans
	// read busy_i beside it. At K = 1 it holds the whole sender term
	// av_i = max(busy_i, last_i), refreshed when i transmits, so the scans
	// read this one lane. Filled by sync when the sender is first folded.
	ready []float64
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

// oneSegReady is sender i's K = 1 term av_i = max(busy_i, last_i): the
// moment its next transmission starts (transmit's b), which equals the
// unsegmented avail[i] bit for bit.
func oneSegReady(st *segState, i int32) float64 {
	av := st.busy[i]
	if a := st.segAt[i][0]; a > av {
		av = a
	}
	return av
}

// keyOf computes the current cost of sender i for receiver j with the
// exact expression order of the naive lastSegEstimate + W_last scan.
func (rc *recvCache) keyOf(st *segState, j int, i int32) float64 {
	if rc.kg1 == 0 {
		return rc.ready[i] + rc.wlT[j][i]
	}
	key := st.busy[i] + rc.kg1*rc.gsT[j][i]
	if a := rc.ready[i]; a > key {
		key = a
	}
	return key + rc.wlT[j][i]
}

// sync brings the caches up to date with the previous round. Senders that
// joined A since the last sync get their ready entry and are compared flat
// against every cached best (their candidate either beats it or goes to
// the join log for later); then every receiver whose cached best sender
// transmitted last round is requeried — candidates of all other senders
// kept their exact cost, so the remaining caches stay valid minima.
func (rc *recvCache) sync(st *segState) {
	sp := rc.sp
	if rc.kg1 == 0 {
		if rc.lastI >= 0 {
			rc.ready[rc.lastI] = oneSegReady(st, rc.lastI)
		}
		for _, i := range rc.joined[rc.csync:] {
			av, gRow, lRow := oneSegReady(st, i), sp.Gl[i], sp.L[i]
			rc.ready[i] = av
			for _, j := range rc.rem {
				key := av + (gRow[j] + lRow[j])
				if key < rc.cKey[j] || (key == rc.cKey[j] && i < rc.cSnd[j]) {
					rc.cKey[j], rc.cSnd[j] = key, i
				}
			}
		}
	} else {
		k1 := sp.K - 1
		for _, i := range rc.joined[rc.csync:] {
			busy, gsRow, glRow, lRow := st.busy[i], sp.Gs[i], sp.Gl[i], sp.L[i]
			last := st.segAt[i][k1]
			rc.ready[i] = last
			for _, j := range rc.rem {
				key := busy + rc.kg1*gsRow[j]
				if last > key {
					key = last
				}
				key += glRow[j] + lRow[j]
				if key < rc.cKey[j] || (key == rc.cKey[j] && i < rc.cSnd[j]) {
					rc.cKey[j], rc.cSnd[j] = key, i
				}
			}
		}
	}
	rc.csync = len(rc.joined)
	if rc.lastI >= 0 {
		for _, j := range rc.rem {
			if rc.cSnd[j] == rc.lastI {
				rc.requery(st, int(j))
			}
		}
	}
}

// requery recomputes receiver j's cached best: a flat scan over the join
// log while the receiver stays under its flat budget, its candidate heap
// (materialised on first use) afterwards.
func (rc *recvCache) requery(st *segState, j int) {
	if rc.nq[j] < flatRequeryLimit {
		rc.nq[j]++
		wlCol, ready := rc.wlT[j], rc.ready
		bk, bi := math.Inf(1), int32(-1)
		if rc.kg1 == 0 {
			for _, i := range rc.joined {
				if key := ready[i] + wlCol[i]; key < bk || (key == bk && i < bi) {
					bk, bi = key, i
				}
			}
		} else {
			gsCol := rc.gsT[j]
			for _, i := range rc.joined {
				key := st.busy[i] + rc.kg1*gsCol[i]
				if a := ready[i]; a > key {
					key = a
				}
				key += wlCol[i]
				if key < bk || (key == bk && i < bi) {
					bk, bi = key, i
				}
			}
		}
		rc.cKey[j], rc.cSnd[j] = bk, bi
		return
	}
	h := &rc.heaps[j]
	if int(rc.integrated[j]) < len(rc.joined) {
		if h.es == nil {
			h.es = make([]senderEntry, 0, rc.sp.N)
		}
		build := len(h.es) == 0
		for _, i := range rc.joined[rc.integrated[j]:] {
			e := senderEntry{key: rc.keyOf(st, j, i), i: i}
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
	se := h.best(rc, st, j)
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

// laHeap serves one receiver's lookahead candidates in ascending w (the
// max variant stores negated weights so the comparator stays the same).
// es[:len(es)-ext] is a binary min-heap; each extraction moves the root to
// the slot the heap frees at its end, as heapsort does, so es[len(es)-1-c]
// is the c-th entry in pop order. The pop order is a function of the
// heapified array alone, so engines sharing one heap — each with its own
// cursor (top) — see exactly the extrema a private copy would yield.
type laHeap struct {
	es  []laEntry
	ext int32 // entries extracted into the tail
}

func (h *laHeap) heapify() {
	for i := len(h.es)/2 - 1; i >= 0; i-- {
		laSiftDown(h.es, i)
	}
}

func laSiftDown(es []laEntry, i int) {
	n := len(es)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && es[r].w < es[l].w {
			m = r
		}
		if es[m].w >= es[i].w {
			return
		}
		es[i], es[m] = es[m], es[i]
		i = m
	}
}

// top advances the cursor *c past entries whose member joined A and
// returns the first one still in B — the extremum over B — extracting from
// the heap only when the cursor reaches the end of the extracted tail;
// k = -1 when no member remains (F(j) = 0, the naive lookahead's
// convention).
func (h *laHeap) top(c *int32, inA []bool) laEntry {
	for n := int32(len(h.es)); *c < n; *c++ {
		if *c == h.ext {
			last := n - 1 - h.ext
			h.es[0], h.es[last] = h.es[last], h.es[0]
			laSiftDown(h.es[:last], 0)
			h.ext++
		}
		if e := h.es[n-1-*c]; !inA[e.k] {
			return e
		}
	}
	return laEntry{w: 0, k: -1}
}

// ---------------------------------------------------------------------------
// Lookahead set: the cached F(j) extrema of the ECEF-family engine. The
// lookahead ranks whole-future utility off the full-message W = G + L and a T
// vector: the Problem's own, or under the end-to-end pipeline the
// laProblem view whose T is the effective local-phase duration vector.

// lookaheadSet holds the per-receiver lookahead heaps — an EnginePool
// template's, shared with every engine the pool readies on it — this
// build's cursors into them, and the cached extrema.
type lookaheadSet struct {
	la   []laHeap  // per-receiver lookahead heaps; nil for plain ECEF
	cur  []int32   // per receiver: this build's position in la[j]'s pop order
	fVal []float64 // cached F(j)
	fTop []int32   // member attaining fVal[j] (-1 when B\{j} is empty)
	neg  bool      // lookahead weights are negated (max variant)
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
		w := p.w(j, k)
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

// laHeapsFor builds the heapified lookahead heaps of every receiver over
// one backing array.
func laHeapsFor(h ecef, p *Problem) []laHeap {
	heaps := make([]laHeap, p.N)
	backing := make([]laEntry, 0, p.N*(p.N-1))
	for j := range heaps {
		start := len(backing)
		backing = laEntriesFor(backing, h, p, j)
		heaps[j].es = backing[start:len(backing):len(backing)]
		heaps[j].heapify()
	}
	return heaps
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
	ls.cache(j, ls.la[j].top(&ls.cur[j], inA))
}

// ---------------------------------------------------------------------------
// ECEF family engine

// ecefEngine is the incremental picker for ECEF and its lookahead variants:
// minimise the estimated last-segment arrival plus F(j).
type ecefEngine struct {
	h  ecef
	rc recvCache
	lookaheadSet
}

func (e *ecefEngine) segName() string { return e.h.name }

func (e *ecefEngine) pickSeg(_ *SegmentedProblem, st *segState) (int, int) {
	e.rc.sync(st)
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
			e.refresh(int(j), st.inA)
			if c := e.rc.cKey[j] + e.fVal[j]; c < best {
				best, bi, bj = c, int(e.rc.cSnd[j]), int(j)
			}
		}
	}
	e.rc.commit(bi, bj)
	return bi, bj
}

// resume re-targets a freshly readied engine at a schedule whose first
// rounds were decided elsewhere (A is inA, in join order joined): the first
// sync folds the whole join log with the exact lexicographic-minimum
// comparison, and the lookahead extrema are recomputed over the current B.
// Both are state-free functions of A and the state's times, so the build
// continues as a from-scratch engine reaching the same round would.
func (e *ecefEngine) resume(inA []bool, joined []int32) {
	rc := &e.rc
	rc.joined = append(rc.joined[:0], joined...)
	rc.rem = rc.rem[:0]
	for j, in := range inA {
		if !in {
			rc.rem = append(rc.rem, int32(j))
		}
	}
	if e.la != nil {
		for _, j := range rc.rem {
			e.recompute(int(j), inA)
		}
	}
}

// ---------------------------------------------------------------------------
// BottomUp engine

// buEngine is the incremental BottomUp picker: per-receiver best sender,
// then the receiver whose cheapest estimated completion — last-segment
// arrival plus the effective local phase (estT) — is the largest.
type buEngine struct{ rc recvCache }

func (buEngine) segName() string { return BottomUp{}.Name() }

func (e *buEngine) pickSeg(sp *SegmentedProblem, st *segState) (int, int) {
	e.rc.sync(st)
	ts := sp.estT()
	worst := math.Inf(-1)
	bi, bj := -1, -1
	for _, j := range e.rc.rem {
		if c := e.rc.cKey[j] + ts[j]; c > worst {
			worst, bi, bj = c, int(e.rc.cSnd[j]), int(j)
		}
	}
	e.rc.commit(bi, bj)
	return bi, bj
}
