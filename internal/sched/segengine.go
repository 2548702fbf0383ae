package sched

// Incremental segmented engine. The naive segment-aware greedies in
// segmented.go rescan every (sender, receiver) pair each round — O(N²) per
// round, O(N³) per schedule — which dominates 512-cluster pipelined grids.
// This file ports the candidate-cache machinery of engine.go to the
// segmented cost model, restoring O(N² log N) construction while producing
// bit-identical schedules (golden equivalence tests against the retained
// naive pickers, which stay in segmented.go as the reference path).
//
// The segmented candidate cost
//
//	cost(i, j) = max(busy_i + (K-1)·Gs[i][j], last_i) + Wl[i][j]
//
// differs from the unsegmented avail_i + W[i][j] in that the sender-side
// term depends on the edge (through Gs[i][j]), so it cannot be split into a
// sender scalar plus a static edge weight. The cache invariants survive
// unchanged, though, because the cost's dynamic inputs move exactly like
// avail does:
//
//   - last_i = segAt[i][K-1] is fixed from the moment i joins A (transmit
//     only writes the receiver's segment times);
//   - busy_i only grows, and only when i transmits — one sender per round.
//
// So a receiver's cached best sender stays a valid minimum until either its
// cached sender transmitted (requery, lazily) or a cluster joined A (a flat
// O(1) compare per receiver). Heap entries keyed at insertion lower-bound
// their true cost (cost is nondecreasing in busy_i), so the lazy top
// re-keying of engine.go applies verbatim — entries just carry their static
// Gs and Wl alongside the key.
//
// The ECEF-family lookahead F(j) ranks whole-future utility over the
// unsegmented W plus the effective local-phase durations (laProblem: the
// Problem's T, or TL = min(T(s,K), T(m)) under the end-to-end pipeline), so
// the lookaheadSet of engine.go is shared as-is — including the EnginePool's
// root-independent templates, keyed per mode. FEF's weights are
// segmentation-independent, so its segmented engine is the unsegmented
// fefEngine behind an A-membership shim; FlatTree gets the same cursor.
//
// Tie-breaking replicates the naive pickSeg scans exactly: lowest
// (receiver, sender) for the ECEF family, earliest receiver served by the
// lowest sender for BottomUp — with the same partial-key caveat documented
// in engine.go (senders are ordered before the receiver-constant lookahead
// or T term is added).

import "math"

// segEngineMinN is the cluster count from which ScheduleSegmented routes
// through the incremental engine. Below it the naive quadratic scans win:
// the engine's per-schedule setup (two N×N transposes, lookahead heaps)
// outweighs the scan savings — measured crossover ≈ 16 on Table 2 random
// platforms. The gate preserves the equivalence contract trivially (both
// sides ARE the naive pickers below it).
const segEngineMinN = 16

// segSenderEntry is one candidate sender inside a receiver's heap. key is
// the cost at the last (re-)keying; gs and wl are the static per-segment
// edge costs the re-keying needs.
type segSenderEntry struct {
	key    float64
	gs, wl float64
	i      int32
}

// segSenderLess orders candidates by (key, i), matching the naive scan's
// lowest-sender tie-break.
func segSenderLess(a, b segSenderEntry) bool {
	return a.key < b.key || (a.key == b.key && a.i < b.i)
}

// segSenderHeap is a binary min-heap of segmented candidate senders.
type segSenderHeap struct{ es []segSenderEntry }

func (h *segSenderHeap) push(e segSenderEntry) {
	h.es = append(h.es, e)
	for c := len(h.es) - 1; c > 0; {
		p := (c - 1) / 2
		if !segSenderLess(h.es[c], h.es[p]) {
			break
		}
		h.es[c], h.es[p] = h.es[p], h.es[c]
		c = p
	}
}

func (h *segSenderHeap) heapify() {
	for i := len(h.es)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *segSenderHeap) siftDown(i int) {
	n := len(h.es)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && segSenderLess(h.es[r], h.es[l]) {
			m = r
		}
		if !segSenderLess(h.es[m], h.es[i]) {
			return
		}
		h.es[i], h.es[m] = h.es[m], h.es[i]
		i = m
	}
}

// segRecvCache is the segmented counterpart of recvCache: per-receiver
// cached best sender under the last-segment cost, lazily invalidated.
type segRecvCache struct {
	sp  *SegmentedProblem
	kg1 float64 // float64(K-1), the per-segment gap multiplier
	// gsT and wlT are Gs and Wl transposed, so requery scans (which walk
	// the join log for one receiver) read contiguous columns.
	gsT, wlT   [][]float64
	heaps      []segSenderHeap
	integrated []int32   // per receiver: prefix of joined already in its heap
	joined     []int32   // clusters holding the message, in join order
	cKey       []float64 // cached minimal cost(i, j) for receiver j
	cSnd       []int32   // sender attaining cKey[j]
	nq         []int32   // flat requeries spent per receiver
	// rem is the SoA lane of receivers still outside A, ascending — the
	// same contiguous scan lane as recvCache.rem.
	rem []int32
	// last[i] caches segAt[i][K-1], which is fixed from the moment sender i
	// joins A; scans read this contiguous lane instead of chasing the
	// per-sender segment-time row. Filled by sync when the sender is first
	// folded.
	last  []float64
	csync int   // prefix of joined already compared against caches
	lastI int32 // sender of the previous round (-1 before round 0)
}

// transpose returns src^T for an n×n matrix, written over dst when dst is
// already n×n and into a new matrix (one backing array) otherwise.
func transpose(dst, src [][]float64, n int) [][]float64 {
	if len(dst) != n {
		dst = make([][]float64, n)
		backing := make([]float64, n*n)
		for j := 0; j < n; j++ {
			dst[j] = backing[j*n : (j+1)*n : (j+1)*n]
		}
	}
	for i := 0; i < n; i++ {
		row := src[i]
		for j := 0; j < n; j++ {
			dst[j][i] = row[j]
		}
	}
	return dst
}

// resetWith re-targets the cache at sp, keeping every allocation (lazily
// grown heaps included). gsT and wlT are the EnginePool's per-matrix-
// identity cached transposes of sp.Gs and sp.Wl, which are shared and
// read-only: the cache only ever reads them, so aliasing them across
// engines is safe and skips the O(N²) rebuild per schedule.
func (rc *segRecvCache) resetWith(sp *SegmentedProblem, gsT, wlT [][]float64) {
	rc.sp = sp
	rc.kg1 = float64(sp.K - 1)
	rc.gsT, rc.wlT = gsT, wlT
	for j := 0; j < sp.N; j++ {
		rc.heaps[j].es = rc.heaps[j].es[:0]
		rc.integrated[j] = 0
		rc.nq[j] = 0
		rc.cKey[j] = math.Inf(1)
		rc.cSnd[j] = -1
	}
	rc.joined = append(rc.joined[:0], int32(sp.Root))
	rc.rem = remInit(rc.rem, sp.N, sp.Root)
	rc.csync = 0
	rc.lastI = -1
}

// keyOf computes the current cost of a heap entry with the exact expression
// order of the naive lastSegEstimate + Wl scan.
func (rc *segRecvCache) keyOf(st *segState, e segSenderEntry) float64 {
	key := st.busy[e.i] + rc.kg1*e.gs
	if a := rc.last[e.i]; a > key {
		key = a
	}
	return key + e.wl
}

// best returns the candidate minimising the current cost, lowest sender on
// ties; stale tops are re-keyed in place (keys only grow, so the first
// fresh top is the true minimum).
func (h *segSenderHeap) best(rc *segRecvCache, st *segState) segSenderEntry {
	for {
		top := h.es[0]
		cur := rc.keyOf(st, top)
		if cur == top.key {
			return top
		}
		h.es[0].key = cur
		h.siftDown(0)
	}
}

// sync brings the caches up to date with the previous round: fill the last
// lane of freshly joined senders and fold them flat against every cached
// best, then requery the receivers whose cached sender transmitted last
// round.
func (rc *segRecvCache) sync(st *segState) {
	sp := rc.sp
	k1 := sp.K - 1
	for _, i := range rc.joined[rc.csync:] {
		busy, gsRow, wlRow := st.busy[i], sp.Gs[i], sp.Wl[i]
		last := st.segAt[i][k1]
		rc.last[i] = last
		for _, j := range rc.rem {
			key := busy + rc.kg1*gsRow[j]
			if last > key {
				key = last
			}
			key += wlRow[j]
			if key < rc.cKey[j] || (key == rc.cKey[j] && i < rc.cSnd[j]) {
				rc.cKey[j], rc.cSnd[j] = key, i
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
// log under the flat budget, the candidate heap afterwards.
func (rc *segRecvCache) requery(st *segState, j int) {
	sp := rc.sp
	if rc.nq[j] < flatRequeryLimit {
		rc.nq[j]++
		gsCol, wlCol := rc.gsT[j], rc.wlT[j]
		bk, bi := math.Inf(1), int32(-1)
		for _, i := range rc.joined {
			key := st.busy[i] + rc.kg1*gsCol[i]
			if a := rc.last[i]; a > key {
				key = a
			}
			key += wlCol[i]
			if key < bk || (key == bk && i < bi) {
				bk, bi = key, i
			}
		}
		rc.cKey[j], rc.cSnd[j] = bk, bi
		return
	}
	h := &rc.heaps[j]
	if int(rc.integrated[j]) < len(rc.joined) {
		if h.es == nil {
			h.es = make([]segSenderEntry, 0, sp.N)
		}
		build := len(h.es) == 0
		gsCol, wlCol := rc.gsT[j], rc.wlT[j]
		for _, i := range rc.joined[rc.integrated[j]:] {
			e := segSenderEntry{gs: gsCol[i], wl: wlCol[i], i: i}
			e.key = rc.keyOf(st, e)
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
	se := h.best(rc, st)
	rc.cKey[j], rc.cSnd[j] = se.key, se.i
}

// commit records the pair chosen this round; the implied invalidations
// happen at the next sync.
func (rc *segRecvCache) commit(i, j int) {
	rc.lastI = int32(i)
	rc.joined = append(rc.joined, int32(j))
	rc.rem = remDrop(rc.rem, int32(j))
}

// ---------------------------------------------------------------------------
// Segmented ECEF-family engine

// segEcefEngine is the incremental segmented picker for ECEF and its
// lookahead variants.
type segEcefEngine struct {
	h  ecef
	rc segRecvCache
	lookaheadSet
}

func (e *segEcefEngine) segName() string { return e.h.name }

func (e *segEcefEngine) pickSeg(sp *SegmentedProblem, st *segState) (int, int) {
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

// ---------------------------------------------------------------------------
// Segmented BottomUp engine

// segBuEngine is the incremental segmented BottomUp picker.
type segBuEngine struct{ rc segRecvCache }

func (e *segBuEngine) segName() string { return BottomUp{}.Name() }

func (e *segBuEngine) pickSeg(sp *SegmentedProblem, st *segState) (int, int) {
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

// ---------------------------------------------------------------------------
// Segmented FEF and FlatTree engines

// segFefEngine reuses the unsegmented incremental FEF picker behind an
// A-membership shim: FEF's edge weights are segmentation-independent, so
// the picked tree is the unsegmented FEF tree (like the naive fefSeg).
type segFefEngine struct {
	e    *fefEngine
	shim state
}

func (f *segFefEngine) segName() string { return f.e.Name() }

func (f *segFefEngine) pickSeg(sp *SegmentedProblem, st *segState) (int, int) {
	f.shim.inA = st.inA
	return f.e.pick(sp.Problem, &f.shim)
}

// flatSegEngine walks the fixed reception order with a cursor.
type flatSegEngine struct{ d int }

func (flatSegEngine) segName() string { return FlatTree{}.Name() }

func (e *flatSegEngine) pickSeg(sp *SegmentedProblem, st *segState) (int, int) {
	for {
		j := (sp.Root + e.d) % sp.N
		e.d++
		if !st.inA[j] {
			return sp.Root, j
		}
	}
}
