package sched

import (
	"math"
	"sync"
)

// EnginePool is the one place that readies the incremental engines: every
// schedule the package builds — Heuristic.Schedule, ScheduleSegmented,
// ScheduleTraced and the Pipelined ladder — runs through a pool. It
// amortises the engines' setup cost across repeated constructions with two
// mechanisms:
//
//   - Buffer reuse: the candidate caches, sender heaps and lookahead
//     backing arrays are allocated once per pool (per cluster count) and
//     reset in O(N) per schedule, so steady-state scheduling stops
//     allocating.
//   - Lookahead templates: the per-receiver lookahead heaps depend only on
//     W (and T for the -LAt/-LAT variants) — not on the root, because the
//     engine already discards members lazily once they join A. The pool
//     therefore builds each heap over *all* other clusters, caches the
//     heapified backing per (W identity, lookahead kind), and later
//     schedules — any root, same platform and size — start from a single
//     memcpy instead of an O(N²) rebuild + heapify. The root's entries are
//     filtered out on first access exactly like any cluster that joined A,
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

	// Lookahead working set (copied from a template per schedule),
	// allocated on the first lookahead engine: it is O(N²), and FEF,
	// BottomUp and plain ECEF never read it.
	laBacking []laEntry
	laHeaps   []laHeap
	fVal      []float64
	fTop      []int32
	inA       []bool // scratch membership vector ({root} at engine init)

	templates map[laTemplateKey]*laTemplate
	segTrans  map[segTransKey]*segTranspose
}

// segTransKey identifies cached segmented-engine transposes by matrix
// identity: Gs and Wl alias the grid's per-message-size EdgeCosts cache and
// are immutable, and holding the pointers pins them, so a key is never
// recycled for different values (same argument as laTemplateKey).
type segTransKey struct {
	gs, wl *float64
}

// segTranspose holds the Gs/Wl transposes for one (Gs, Wl) matrix pair.
// Entries are shared read-only by every engine the pool readies.
type segTranspose struct {
	n        int
	gsT, wlT [][]float64
}

// laTemplateKey identifies a cached lookahead template: the full-message W
// matrix (by identity — the matrix is immutable and shared via the grid's
// EdgeCosts cache, and holding the pointer pins it, so the key cannot be
// recycled for different values), the lookahead kind, and whether the T
// vector is the end-to-end pipeline's TL (whose values also depend on the
// segmentation, so the exact T-vector guard still applies within a key —
// the flag only keeps the two modes from evicting each other).
type laTemplateKey struct {
	w     *float64
	kind  laKind
	local bool
}

// laTemplate is a root-independent snapshot of the heapified lookahead
// heaps: backing[off[j]:off[j+1]] is receiver j's heap over every k != j.
type laTemplate struct {
	n       int
	t       []float64 // T used to key the entries (nil for the -LA kind)
	backing []laEntry
	off     []int
}

// NewEnginePool returns an empty pool.
func NewEnginePool() *EnginePool {
	return &EnginePool{
		templates: map[laTemplateKey]*laTemplate{},
		segTrans:  map[segTransKey]*segTranspose{},
	}
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

// ecefFor readies the pooled engine for an ECEF-family heuristic, copying
// the lookahead heaps from the platform's template.
func (ep *EnginePool) ecefFor(h ecef, p *Problem) *ecefEngine {
	ep.resetRecvCache(p)
	e := &ep.ecefShell
	*e = ecefEngine{h: h, rc: ep.rc}
	if h.kind != laNone {
		ep.loadLookahead(&e.lookaheadSet, h, p, false)
	}
	return e
}

// loadLookahead readies a lookahead set from the platform's cached
// template, pointing it at the pool's working buffers. local marks p as a
// segmented problem's TL view (laProblem), cached under its own key.
func (ep *EnginePool) loadLookahead(ls *lookaheadSet, h ecef, p *Problem, local bool) {
	n := p.N
	if len(ep.laHeaps) != n {
		ep.laBacking = make([]laEntry, n*n)
		ep.laHeaps = make([]laHeap, n)
		ep.fVal = make([]float64, n)
		ep.fTop = make([]int32, n)
		ep.inA = make([]bool, n)
	}
	tpl := ep.template(h, p, local)
	copy(ep.laBacking, tpl.backing)
	for j := 0; j < n; j++ {
		lo, hi := tpl.off[j], tpl.off[j+1]
		ep.laHeaps[j].es = ep.laBacking[lo:hi:hi]
	}
	ls.neg = h.kind == laMaxWT
	ls.la = ep.laHeaps
	ls.fVal, ls.fTop = ep.fVal, ep.fTop
	// Initial extrema: A = {root}, so the template's root entries are
	// discarded here exactly as the engine discards any member that joined
	// A.
	ep.inA[p.Root] = true
	for j := 0; j < n; j++ {
		if j == p.Root {
			continue
		}
		ls.cache(j, ls.la[j].top(ep.inA))
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
	return coordGuard(h, sp, func(spx *SegmentedProblem) *SegmentedSchedule {
		if spx.N < segEngineMinN {
			return segmentedWith(h, spx, segPolicyFor(h, spx), h)
		}
		return ep.scheduleSegmentedOnce(h, spx)
	})
}

// scheduleSegmentedOnce is one coordGuard pass through the pooled segmented
// engines, whatever the cluster count.
func (ep *EnginePool) scheduleSegmentedOnce(h Heuristic, sp *SegmentedProblem) *SegmentedSchedule {
	pol := ep.segEngineFor(h, sp)
	if pol != nil && ep.Scan != nil {
		pol = ep.Scan.segPolicyFor(pol)
	}
	return segmentedWith(h, sp, pol, h)
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
// The Gs/Wl transposes come from the pool's per-matrix-identity cache (the
// ROADMAP item behind Pipelined ladder setup cost): ladder rungs and
// repeated schedules at the same segmentation skip the O(N²) rebuild
// entirely. ep.segRc therefore only aliases shared, read-only transposes.
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
	tr := ep.transposesFor(sp)
	ep.segRc.resetWith(sp, tr.gsT, tr.wlT)
}

// transposesFor returns (building and caching on demand) the segmented
// engine's transposes of sp.Gs and sp.Wl. Like the lookahead template cache
// it is bounded by maxTemplates and simply dropped on overflow — throwaway
// Monte-Carlo platforms must not pin an unbounded set of cost matrices.
func (ep *EnginePool) transposesFor(sp *SegmentedProblem) *segTranspose {
	key := segTransKey{gs: &sp.Gs[0][0], wl: &sp.Wl[0][0]}
	if tr := ep.segTrans[key]; tr != nil && tr.n == sp.N {
		return tr
	}
	if len(ep.segTrans) >= maxTemplates {
		ep.segTrans = map[segTransKey]*segTranspose{}
	}
	tr := &segTranspose{
		n:   sp.N,
		gsT: transpose(sp.Gs, sp.N),
		wlT: transpose(sp.Wl, sp.N),
	}
	ep.segTrans[key] = tr
	return tr
}

// maxTemplates bounds the template cache. Sweeps over one platform use a
// handful of keys; Monte-Carlo streams of throwaway platforms would grow the
// cache (and pin every W matrix) without this cap, so on overflow the cache
// is simply dropped — correctness never depends on a hit.
const maxTemplates = 32

// template returns (building and caching on demand) the root-independent
// lookahead template for h's kind on p's platform.
func (ep *EnginePool) template(h ecef, p *Problem, local bool) *laTemplate {
	key := laTemplateKey{w: &p.W[0][0], kind: h.kind, local: local}
	if tpl := ep.templates[key]; tpl != nil && tpl.n == p.N &&
		(h.kind == laMinW || floatsEqual(tpl.t, p.T)) {
		return tpl
	}
	if len(ep.templates) >= maxTemplates {
		ep.templates = map[laTemplateKey]*laTemplate{}
	}
	n := p.N
	tpl := &laTemplate{n: n, off: make([]int, n+1), backing: make([]laEntry, 0, n*(n-1))}
	if h.kind != laMinW {
		tpl.t = append([]float64(nil), p.T...)
	}
	for j := 0; j < n; j++ {
		tpl.off[j] = len(tpl.backing)
		tpl.backing = laEntriesFor(tpl.backing, h, p, j)
		hp := laHeap{es: tpl.backing[tpl.off[j]:len(tpl.backing)]}
		hp.heapify()
	}
	tpl.off[n] = len(tpl.backing)
	ep.templates[key] = tpl
	return tpl
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
