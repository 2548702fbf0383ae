package sched

import (
	"math"
	"sync"
	"unsafe"
)

// EnginePool is the one place that readies the incremental engines: every
// schedule the package builds — Heuristic.Schedule, ScheduleSegmented,
// ScheduleTraced and the Pipelined ladder — runs through a pool. It
// amortises the engines' setup cost across repeated constructions with two
// mechanisms:
//
//   - Buffer reuse: the candidate caches, sender heaps and lookahead
//     cursors are allocated once per pool (per cluster count) and reset in
//     O(N) per schedule, so steady-state scheduling stops allocating.
//   - Lookahead templates: the per-receiver lookahead heaps depend only on
//     W (and T for the -LAt/-LAT variants) — not on the root, because the
//     engine already discards members lazily once they join A. The pool
//     therefore builds each heap over *all* other clusters and caches it
//     heapified per (W identity, lookahead kind). Builds never copy it:
//     each keeps one cursor per receiver into the heap's pop order, and
//     the heap extracts its minima in place, once per template, the first
//     time any build's cursor reaches them (laHeap.top). Later schedules —
//     any root, same platform and size — start in O(N). The root's entries
//     are skipped on first access exactly like any cluster that joined A,
//     so the produced schedules stay bit-identical to the naive reference
//     pickers (pinned by the equivalence tests).
//
// A pool is NOT safe for concurrent use: callers without a pool of their
// own check one out of a package sync.Pool per build (poolSchedule), and
// sweeps that parallelise across goroutines use one pool per worker.
type EnginePool struct {
	// Scan, when non-nil, chunks every shardable per-round scan across the
	// builder's work-stealing pool (parallel.go), for unsegmented,
	// segmented and pipelined constructions alike. The produced schedules
	// are bit-identical with or without it; only construction latency
	// changes. Like the pool itself, the field is not synchronised: set it
	// before handing the pool to a worker.
	Scan *ParallelBuilder

	n int // current buffer dimension (0 = nothing allocated)

	// Shared receiver cache for the ECEF-family and BottomUp engines.
	rc recvCache

	// Engine shells, reused so Schedule allocates nothing in steady state.
	ecefShell ecefEngine
	buShell   buEngine
	fefShell  fefEngine

	// FEF per-receiver caches.
	fefCW    []float64
	fefCSnd  []int32
	fefFresh []int32
	fefRem   []int32

	// Segmented-engine buffers (allocated on first segmented schedule).
	segN        int
	segRc       segRecvCache
	segEcefShel segEcefEngine
	segBuShell  segBuEngine
	segFefShell segFefEngine

	// Lookahead cursors and extrema, allocated on the first lookahead
	// engine (the heaps themselves are the template's).
	laCur []int32
	fVal  []float64
	fTop  []int32
	inA   []bool // scratch membership vector ({root} at engine init)

	trace traceBufs // ScheduleTraced's staging buffers

	// templates and segTrans are the pool's two caches, bounded together
	// by poolBudget: every entry is linked into one recency list (lru is
	// its sentinel; lru.next the most recently used) and cacheBytes sums
	// their sizes.
	templates  map[laTemplateKey]*cached
	segTrans   map[*float64]*cached
	lru        cached
	cacheBytes int64
}

// poolBudget bounds the bytes an EnginePool's caches hold: lookahead
// templates (N·(N−1)·16 B each) and segmented transposes (N²·8 B each).
// It holds the full default ladder at N = 512 (24 transposes and 3
// templates, about 63 MB) and about 500 templates at N = 128. Each entry pins
// at most one cost matrix of its own size, so what the caches keep alive
// of evicted cost-store entries is bounded by the same figure. Eviction
// only drops the cache's reference: an engine holding an evicted entry
// keeps it until it is done.
const poolBudget = 128 << 20

// cached is one entry of the pool's caches: a lookahead template under
// tkey, or the transpose tr of one segmented cost matrix (a Gs or a Wl)
// under mkey, the matrix's identity. The matrices alias the grid's cost
// store and are immutable, and holding the pointer pins them, so a key is
// never recycled for different values (same argument as laTemplateKey).
// Entries are shared read-only by every engine the pool readies.
type cached struct {
	prev, next *cached
	bytes      int64
	tkey       laTemplateKey
	tpl        *laTemplate
	mkey       *float64
	tr         [][]float64
}

// laTemplateKey identifies a cached lookahead template: the full-message W
// matrix (by identity — the matrix is immutable and shared via the grid's
// cost store, and holding the pointer pins it, so the key cannot be
// recycled for different values), the lookahead kind, and whether the T
// vector is the end-to-end pipeline's TL (whose values also depend on the
// segmentation, so the exact T-vector guard still applies within a key —
// the flag only keeps the two modes from evicting each other).
type laTemplateKey struct {
	w     *float64
	kind  laKind
	local bool
}

// laTemplate holds the root-independent lookahead heaps: heaps[j] is
// receiver j's heap over every k != j, all backed by one array. Engines
// readied from it share the heaps and extract from them in place.
type laTemplate struct {
	n     int
	t     []float64 // T used to key the entries (nil for the -LA kind)
	heaps []laHeap
}

// NewEnginePool returns an empty pool.
func NewEnginePool() *EnginePool {
	ep := &EnginePool{
		templates: map[laTemplateKey]*cached{},
		segTrans:  map[*float64]*cached{},
	}
	ep.lru.prev, ep.lru.next = &ep.lru, &ep.lru
	return ep
}

// pools recycles EnginePools for the builds that carry no pool of their
// own: Heuristic.Schedule and the package-level ScheduleSegmented.
var pools = sync.Pool{New: func() any { return NewEnginePool() }}

// poolSchedule builds p's schedule with h on a pool checked out for the
// call.
func poolSchedule(h Heuristic, p *Problem) *Schedule {
	ep := pools.Get().(*EnginePool)
	defer pools.Put(ep)
	return ep.Schedule(h, p)
}

// Schedule builds p's schedule with h through the pool's recycled engines.
// Heuristics without an incremental engine (Optimal, custom heuristics)
// build through their own Schedule.
func (ep *EnginePool) Schedule(h Heuristic, p *Problem) *Schedule {
	switch hh := h.(type) {
	case FlatTree:
		return run(&flatEngine{d: 1}, p)
	case FEF:
		return run(ep.scanPolicy(ep.fefFor(hh, p)), p)
	case ecef:
		return run(ep.scanPolicy(ep.ecefFor(hh, p)), p)
	case BottomUp:
		return run(ep.scanPolicy(ep.buFor(p)), p)
	case Mixed:
		sc := ep.Schedule(hh.inner(p), p)
		sc.Heuristic = hh.Name()
		return sc
	case Refined:
		return Refine(p, ep.Schedule(hh.Base, p), hh.MaxRounds)
	}
	return h.Schedule(p)
}

// scanPolicy routes a shardable engine through the Scan pool when one is
// attached; the sequential engine otherwise.
func (ep *EnginePool) scanPolicy(sc parallelScanner) policy {
	if ep.Scan != nil && ep.Scan.workers > 1 {
		return &parallelPolicy{pb: ep.Scan, sc: sc}
	}
	return sc
}

// ensure sizes the pooled O(N) buffers for n clusters; the O(N²)
// lookahead buffers follow in loadLookahead.
func (ep *EnginePool) ensure(n int) {
	if ep.n == n {
		return
	}
	ep.n = n
	ep.rc = recvCache{
		heaps:      make([]senderHeap, n),
		integrated: make([]int32, n),
		joined:     make([]int32, 0, n),
		cKey:       make([]float64, n),
		cSnd:       make([]int32, n),
		nq:         make([]int32, n),
		rem:        make([]int32, 0, n),
	}
	ep.fefCW = make([]float64, n)
	ep.fefCSnd = make([]int32, n)
	ep.fefFresh = make([]int32, 0, n)
	ep.fefRem = make([]int32, 0, n)
}

// resetRecvCache restores the shared receiver cache to its initial state
// for p, keeping every allocation (including lazily grown sender heaps).
func (ep *EnginePool) resetRecvCache(p *Problem) {
	ep.ensure(p.N)
	rc := &ep.rc
	rc.wt = p.transposedW()
	for j := 0; j < p.N; j++ {
		rc.heaps[j].es = rc.heaps[j].es[:0]
		rc.integrated[j] = 0
		rc.nq[j] = 0
		rc.cKey[j] = math.Inf(1)
		rc.cSnd[j] = -1
	}
	rc.joined = append(rc.joined[:0], int32(p.Root))
	rc.rem = remInit(rc.rem, p.N, p.Root)
	rc.csync = 0
	rc.lastI = -1
}

// fefFor readies the pooled FEF engine.
func (ep *EnginePool) fefFor(h FEF, p *Problem) *fefEngine {
	ep.ensure(p.N)
	e := &ep.fefShell
	*e = fefEngine{h: h, cW: ep.fefCW, cSnd: ep.fefCSnd}
	for j := 0; j < p.N; j++ {
		e.cW[j] = math.Inf(1)
		e.cSnd[j] = -1
	}
	e.fresh = append(ep.fefFresh[:0], int32(p.Root))
	e.rem = remInit(ep.fefRem, p.N, p.Root)
	return e
}

// buFor readies the pooled BottomUp engine.
func (ep *EnginePool) buFor(p *Problem) *buEngine {
	ep.resetRecvCache(p)
	e := &ep.buShell
	*e = buEngine{rc: ep.rc}
	return e
}

// ecefFor readies the pooled engine for an ECEF-family heuristic, reading
// the lookahead heaps of the platform's template.
func (ep *EnginePool) ecefFor(h ecef, p *Problem) *ecefEngine {
	ep.resetRecvCache(p)
	e := &ep.ecefShell
	*e = ecefEngine{h: h, rc: ep.rc}
	if h.kind != laNone {
		ep.loadLookahead(&e.lookaheadSet, h, p, false)
	}
	return e
}

// loadLookahead readies a lookahead set on the platform's cached template,
// with every cursor at the start of its heap's pop order. local marks p as
// a segmented problem's TL view (laProblem), cached under its own key.
func (ep *EnginePool) loadLookahead(ls *lookaheadSet, h ecef, p *Problem, local bool) {
	n := p.N
	if len(ep.laCur) != n {
		ep.laCur = make([]int32, n)
		ep.fVal = make([]float64, n)
		ep.fTop = make([]int32, n)
		ep.inA = make([]bool, n)
	}
	clear(ep.laCur)
	*ls = lookaheadSet{la: ep.template(h, p, local).heaps, cur: ep.laCur,
		fVal: ep.fVal, fTop: ep.fTop, neg: h.kind == laMaxWT}
	// Initial extrema: A = {root}, so the root's entries are skipped here
	// exactly as the engine skips any member that joined A. The root's own
	// entry is never read; it is cleared so that a traced build's snapshot
	// does not depend on the pool's earlier builds.
	ls.fVal[p.Root], ls.fTop[p.Root] = 0, -1
	ep.inA[p.Root] = true
	for j := 0; j < n; j++ {
		if j != p.Root {
			ls.recompute(j, ep.inA)
		}
	}
	ep.inA[p.Root] = false
}

// ---------------------------------------------------------------------------
// Segmented scheduling through the pool

// ScheduleSegmented builds sp's pipelined schedule with h through the
// pool's recycled segmented engines, reusing the candidate caches, the
// per-segment transposes and the lookahead templates (the lookahead keys
// off the full-message W and the effective T vector, so plain-T templates
// are shared with the unsegmented engines — any segment size, same
// platform — while the end-to-end pipeline's TL views get their own key).
// Below segEngineMinN clusters the naive segmented pickers build instead;
// heuristics without a native segmented picker re-time their unsegmented
// tree (h.Schedule) under the per-segment model. Under the end-to-end
// pipeline the result is never worse than h's coordinator-only schedule at
// the same segmentation (coordGuard).
func (ep *EnginePool) ScheduleSegmented(h Heuristic, sp *SegmentedProblem) *SegmentedSchedule {
	return ep.scheduleSegmented(h, sp, math.Inf(1), &fallbackTree{h: h})
}

// scheduleSegmented is ScheduleSegmented under runSegmented's incumbent
// cut: nil, or a schedule with a makespan of at least bound, unless the
// unbounded build's makespan is below bound (see coordGuard). fallback
// (h's own tree) is used only when h has no native segmented picker.
func (ep *EnginePool) scheduleSegmented(h Heuristic, sp *SegmentedProblem, bound float64, fallback *fallbackTree) *SegmentedSchedule {
	return coordGuard(h, sp, bound, func(spx *SegmentedProblem, bound float64) *SegmentedSchedule {
		if spx.N < segEngineMinN {
			return segmentedWith(h, spx, segPolicyFor(h, spx), fallback, bound)
		}
		return ep.scheduleSegmentedOnce(h, spx, bound, fallback)
	})
}

// scheduleSegmentedOnce is one coordGuard pass through the pooled segmented
// engines, whatever the cluster count.
func (ep *EnginePool) scheduleSegmentedOnce(h Heuristic, sp *SegmentedProblem, bound float64, fallback *fallbackTree) *SegmentedSchedule {
	pol := ep.segEngineFor(h, sp)
	if pol != nil && ep.Scan != nil {
		pol = ep.Scan.segPolicyFor(pol)
	}
	return segmentedWith(h, sp, pol, fallback, bound)
}

// segEngineFor readies the pooled incremental segmented picker for h, or
// returns nil when h has none.
func (ep *EnginePool) segEngineFor(h Heuristic, sp *SegmentedProblem) segPolicy {
	switch hh := h.(type) {
	case FlatTree:
		return &flatSegEngine{d: 1}
	case FEF:
		ep.segFefShell = segFefEngine{e: ep.fefFor(hh, sp.Problem)}
		return &ep.segFefShell
	case ecef:
		ep.ensureSeg(sp)
		e := &ep.segEcefShel
		*e = segEcefEngine{h: hh, rc: ep.segRc}
		if hh.kind != laNone {
			// The local key flag follows the lookahead problem actually
			// used: the coordinator-estimate pass of coordGuard strips the
			// TL view and must share the plain-T template.
			ep.loadLookahead(&e.lookaheadSet, hh, sp.laProblem(), sp.lap != nil)
		}
		return e
	case BottomUp:
		ep.ensureSeg(sp)
		ep.segBuShell = segBuEngine{rc: ep.segRc}
		return &ep.segBuShell
	case Mixed:
		return ep.segEngineFor(hh.inner(sp.Problem), sp)
	}
	return nil
}

// ensureSeg sizes and resets the pooled segmented receiver cache for sp.
// The Gs/Wl transposes come from the pool's per-matrix-identity cache:
// ladder rungs and repeated schedules at the same segment size skip the
// O(N²) rebuild. ep.segRc therefore only aliases shared, read-only
// transposes.
func (ep *EnginePool) ensureSeg(sp *SegmentedProblem) {
	ep.ensure(sp.N)
	if ep.segN != sp.N {
		ep.segN = sp.N
		n := sp.N
		ep.segRc = segRecvCache{
			heaps:      make([]segSenderHeap, n),
			integrated: make([]int32, n),
			joined:     make([]int32, 0, n),
			cKey:       make([]float64, n),
			cSnd:       make([]int32, n),
			nq:         make([]int32, n),
			rem:        make([]int32, 0, n),
			last:       make([]float64, n),
		}
	}
	ep.segRc.resetWith(sp, ep.transposeOf(sp.Gs, sp.N), ep.transposeOf(sp.Wl, sp.N))
}

// transposeOf returns (building and caching on demand) the transpose of
// the n×n segmented cost matrix m. Keys are single matrices, not (Gs, Wl)
// pairs: a ladder's power-of-two segment sizes share their Gs across
// messages of every size, while each message size brings its own
// remainder Wl.
func (ep *EnginePool) transposeOf(m [][]float64, n int) [][]float64 {
	key := &m[0][0]
	if e := ep.segTrans[key]; e != nil && len(e.tr) == n {
		ep.use(e)
		return e.tr
	} else if e != nil {
		ep.drop(e)
	}
	e := &cached{mkey: key, bytes: int64(n)*int64(n)*8 + int64(n)*24}
	ep.evict(e.bytes)
	e.tr = transpose(nil, m, n)
	ep.segTrans[key] = e
	ep.admit(e)
	return e.tr
}

// template returns (building and caching on demand) the root-independent
// lookahead template for h's kind on p's platform.
func (ep *EnginePool) template(h ecef, p *Problem, local bool) *laTemplate {
	key := laTemplateKey{w: &p.W[0][0], kind: h.kind, local: local}
	if e := ep.templates[key]; e != nil {
		if tpl := e.tpl; tpl.n == p.N && (h.kind == laMinW || floatsEqual(tpl.t, p.T)) {
			ep.use(e)
			return tpl
		}
		ep.drop(e)
	}
	n := p.N
	bytes := int64(n)*int64(n-1)*int64(unsafe.Sizeof(laEntry{})) + int64(n)*int64(unsafe.Sizeof(laHeap{}))
	if h.kind != laMinW {
		bytes += int64(n) * 8
	}
	ep.evict(bytes)
	tpl := &laTemplate{n: n, heaps: laHeapsFor(h, p, nil)}
	if h.kind != laMinW {
		tpl.t = append([]float64(nil), p.T...)
	}
	e := &cached{tkey: key, tpl: tpl, bytes: bytes}
	ep.templates[key] = e
	ep.admit(e)
	return tpl
}

// use moves e to the front of the recency list.
func (ep *EnginePool) use(e *cached) {
	e.prev.next, e.next.prev = e.next, e.prev
	ep.link(e)
}

// admit counts a new entry and links it in as the most recently used.
func (ep *EnginePool) admit(e *cached) {
	ep.cacheBytes += e.bytes
	ep.link(e)
}

// link puts an unlinked e at the front of the recency list.
func (ep *EnginePool) link(e *cached) {
	e.prev, e.next = &ep.lru, ep.lru.next
	e.next.prev, ep.lru.next = e, e
}

// drop removes e from its cache and the recency list.
func (ep *EnginePool) drop(e *cached) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	ep.cacheBytes -= e.bytes
	if e.tpl != nil {
		delete(ep.templates, e.tkey)
	} else {
		delete(ep.segTrans, e.mkey)
	}
}

// evict drops least recently used entries until need more bytes fit
// poolBudget, or the caches are empty: an entry larger than the budget is
// still admitted, alone, so the entry just built is never the one evicted.
func (ep *EnginePool) evict(need int64) {
	for ep.cacheBytes+need > poolBudget && ep.lru.prev != &ep.lru {
		ep.drop(ep.lru.prev)
	}
}

// floatsEqual reports exact element-wise equality.
func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
