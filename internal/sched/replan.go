package sched

import (
	"math"
	"slices"
)

// Drift-resilient replanning. A traced build records the incremental
// engine's per-receiver candidate state (best sender and lookahead
// extremum) as an initial snapshot plus per-round deltas. When the platform
// later drifts in one cluster's row/column (the topology.Delta contract),
// ReplanSchedule replays the old construction against the drifted costs in
// O(affected receivers) per round: only the drifted cluster, the old
// round's receiver and the receivers whose cached costs touch the changed
// row are re-evaluated. The correctness contract is byte identity: the
// replanned schedule equals a from-scratch build on the drifted problem in
// every field (pinned by the golden tests and FuzzReplanEquivalence).
//
// Why this is sound: after sync, cKey[j]/cSnd[j] is the exact
// (min over i∈A of avail[i]+W[i][j], lowest attaining index) — a state-free
// function of (A, avail, W). Likewise the post-refresh lookahead extremum
// F(j) is a state-free function of (A, W row j, T). The replay maintains
// the drifted avail vector with run's exact arithmetic and reconstitutes
// both invariants per receiver from the traced state plus the drift:
//
//   - cKey: senders whose avail matches the old build ("untainted") and
//     whose column-j weight is unchanged (every sender except the drifted
//     cluster) contribute bit-identical keys, so the traced (cKey, cSnd) is
//     the exact lexicographic minimum over that subset — its argmin is
//     itself untainted or the entry is rescanned. The drifted cluster and
//     the tainted senders are then folded in with the same (key, index)
//     comparison sync uses.
//   - F(j): only the drifted cluster's membership weight moved, so the new
//     extremum is extremum(traced F, drifted weight) unless the traced
//     extremum was realised by the drifted cluster and the drifted weight
//     regressed, in which case it is recomputed with laEntriesFor's weight
//     expression.
//
// The replay runs in two regimes. While no sender's avail has diverged and
// the drifted cluster is outside A (the "hot" prefix — it lasts until the
// drift first touches a scheduled transmission), a receiver's new cost can
// differ from its traced cost only if it is the drifted cluster itself or
// its lookahead extremum moved; those receivers form a small incrementally
// maintained dirty set, and each round's pick reduces to comparing the old
// pick against them. The reduction is exact by a case split on the old
// best value best_old = traced cost of the old receiver: every unaffected
// receiver keeps its traced cost ≥ best_old (strict below the old
// receiver's index, by the engine's first-attainer scan), so a sparse
// winner strictly below best_old is the true pick, a sparse winner equal
// to best_old with the old receiver still attaining it resolves ties at or
// below the old receiver's index, and anything else (the old pick's own
// cost drifted upward) falls back to a dense scan of that round, where
// unaffected runner-ups can surface. Once a transmission's timing diverges
// (sticky per-sender "taint") or the drifted cluster joins A, the replay
// switches to the dense scan permanently; when the set of tainted senders
// grows past a threshold, or the drift changes a round's receiver
// outright, the remaining rounds run on a warm-started engine instead.
//
// Tainting is sticky and senders are compared with the exact float values
// the engine would use, so ties resolve identically to the naive scan.

// kDelta records receiver j's cached best sender changing between
// consecutive rounds of the traced build.
type kDelta struct {
	j, snd int32
	key    float64
}

// fDelta records receiver j's cached lookahead extremum changing between
// consecutive rounds of the traced build.
type fDelta struct {
	j, top int32
	val    float64
}

// BuildTrace is the replay log of one traced schedule construction: the
// engine's candidate state after round 0 plus per-round deltas. It is tied
// to the (problem, heuristic, root) it was built from; ReplanSchedule
// checks the cheap invariants and returns nil when they do not hold.
type BuildTrace struct {
	h    ecef
	root int
	n    int
	// State after round 0's sync/refresh (valid for receivers outside A).
	initK []float64
	initS []int32
	initF []float64 // nil for plain ECEF
	initT []int32
	// kd[kOff[r]:kOff[r+1]] and fd[fOff[r]:fOff[r+1]] transform the state
	// of round r-1 into round r (round 0 has none; the initial arrays are
	// its state). Every array is exactly sized: one allocation per array
	// and no append slack retained by a cached trace.
	kd         []kDelta
	fd         []fDelta
	kOff, fOff []int32
}

// Heuristic returns the display name of the traced heuristic.
func (tr *BuildTrace) Heuristic() string { return tr.h.name }

// Traceable reports whether h supports traced builds: the ECEF family
// (ECEF, ECEF-LA, ECEF-LAt, ECEF-LAT), which the paper singles out as the
// heuristics of choice. Other heuristics schedule normally and replan by
// rebuilding.
func Traceable(h Heuristic) bool {
	_, ok := h.(ecef)
	return ok
}

// tracedPick wraps the incremental ECEF-family engine and logs its
// candidate state after every pick: a full copy after round 0, deltas
// afterwards, staged in the pool's traceBufs. The pool reuses the engine's
// buffers across schedules, so every recorded value is copied. A round's
// sync and lookahead refresh touch only receivers outside A, and entries
// of receivers already in A are frozen, so each round diffs just the
// receivers still outside A plus the one it committed, in ascending order
// — the same deltas, in the same order, as a diff over all N.
type tracedPick struct {
	e  *ecefEngine
	tr *BuildTrace
	*traceBufs
}

// traceBufs is an EnginePool's scratch for traced builds: the staged
// deltas and the previous round's state they diff against.
type traceBufs struct {
	kd           []kDelta
	fd           []fDelta
	prevK, prevF []float64
	prevS, prevT []int32
}

func (t *tracedPick) Name() string { return t.e.Name() }

func (t *tracedPick) pick(p *Problem, s *state) (int, int) {
	i, j := t.e.pick(p, s)
	rc, ls, tr := &t.e.rc, &t.e.lookaheadSet, t.tr
	if len(tr.kOff) == 1 {
		tr.initK, tr.initS = slices.Clone(rc.cKey), slices.Clone(rc.cSnd)
		t.prevK, t.prevS = append(t.prevK[:0], rc.cKey...), append(t.prevS[:0], rc.cSnd...)
		if ls.la != nil {
			tr.initF, tr.initT = slices.Clone(ls.fVal), slices.Clone(ls.fTop)
			t.prevF, t.prevT = append(t.prevF[:0], ls.fVal...), append(t.prevT[:0], ls.fTop...)
		}
		t.kd, t.fd = t.kd[:0], t.fd[:0]
	} else {
		at, _ := slices.BinarySearch(rc.rem, int32(j))
		for _, x := range rc.rem[:at] {
			t.diff(x)
		}
		t.diff(int32(j))
		for _, x := range rc.rem[at:] {
			t.diff(x)
		}
	}
	tr.kOff = append(tr.kOff, int32(len(t.kd)))
	tr.fOff = append(tr.fOff, int32(len(t.fd)))
	return i, j
}

// diff stages receiver x's deltas against the previous round.
func (t *tracedPick) diff(x int32) {
	rc, ls := &t.e.rc, &t.e.lookaheadSet
	if rc.cKey[x] != t.prevK[x] || rc.cSnd[x] != t.prevS[x] {
		t.kd = append(t.kd, kDelta{j: x, snd: rc.cSnd[x], key: rc.cKey[x]})
		t.prevK[x], t.prevS[x] = rc.cKey[x], rc.cSnd[x]
	}
	if ls.la != nil && (ls.fVal[x] != t.prevF[x] || ls.fTop[x] != t.prevT[x]) {
		t.fd = append(t.fd, fDelta{j: x, top: ls.fTop[x], val: ls.fVal[x]})
		t.prevF[x], t.prevT[x] = ls.fVal[x], ls.fTop[x]
	}
}

// ScheduleTraced builds p's schedule through ep and, for traceable
// heuristics, the replay log that lets ReplanSchedule absorb a later
// platform drift. For non-traceable heuristics the trace is nil. The
// schedule is identical to an untraced build in every field.
func ScheduleTraced(ep *EnginePool, h Heuristic, p *Problem) (*Schedule, *BuildTrace) {
	hh, ok := h.(ecef)
	if !ok {
		return ep.Schedule(h, p), nil
	}
	tr := &BuildTrace{h: hh, root: p.Root, n: p.N, kOff: make([]int32, 1, p.N), fOff: make([]int32, 1, p.N)}
	t := &tracedPick{e: ep.ecefFor(hh, p), tr: tr, traceBufs: &ep.trace}
	sc := run(t, p)
	tr.kd, tr.fd = slices.Clone(t.kd), slices.Clone(t.fd)
	return sc, tr
}

// ReplanSchedule rebuilds the traced schedule on a drifted problem. p must
// be the traced problem with only wide-area row and column `changed` of
// G/L/W (and possibly T[changed]) differing — exactly what
// topology.ApplyDelta + PatchCosts produce — with the same N and root.
// Returns nil when the trace does not apply (different N/root, or no
// trace); the caller then schedules from scratch. When it returns a
// schedule, that schedule is bit-identical to h.Schedule(p) on the drifted
// problem.
func ReplanSchedule(p *Problem, old *Schedule, tr *BuildTrace, changed int) *Schedule {
	var r Replanner
	return r.Replan(p, old, tr, changed)
}

// Replanner replays traces through reusable scratch: the replay-local
// state vectors, candidate arrays and lookahead-heap backing are recycled
// across calls, so migrating a batch of traced schedules onto one drifted
// platform (the facade plan cache's Replan migration) pays the replay, not
// per-call allocation. The zero value is ready to use. A Replanner is not
// safe for concurrent use; the schedules it returns are freshly allocated
// and independent of the scratch.
type Replanner struct {
	s  state
	rp replayer
}

// NewReplanner returns an empty Replanner (equivalent to the zero value;
// provided for call-site clarity).
func NewReplanner() *Replanner { return &Replanner{} }

// Replan is ReplanSchedule through the reusable scratch: same contract,
// same byte-identical result (pinned by TestReplannerReuseByteIdentical
// against the one-shot path).
func (r *Replanner) Replan(p *Problem, old *Schedule, tr *BuildTrace, changed int) *Schedule {
	if tr == nil || old == nil || p == nil ||
		p.N != tr.n || p.Root != tr.root ||
		changed < 0 || changed >= p.N ||
		len(old.Events) != p.N-1 || len(tr.kOff) != p.N {
		return nil
	}
	n := p.N
	s := r.resetState(p)
	sched := &Schedule{
		Heuristic:  tr.h.name,
		Root:       p.Root,
		Events:     make([]Event, 0, n-1),
		RT:         make([]float64, n),
		Idle:       make([]float64, n),
		Completion: make([]float64, n),
	}
	rp := r.resetReplayer(p, tr, changed, s)

	// Once the drift has perturbed enough senders, per-round taint
	// challenges stop being cheaper than just running the engine on the
	// remaining rounds; hand over to the warm start below.
	taintCap := n/4 + 8

	diverged := false
	for round := 0; s.sizeA < n && !diverged && len(rp.taintList) <= taintCap; round++ {
		rp.applyDeltas(tr, round)
		oldEv := &old.Events[round]

		var bi, bj int
		if rp.hot {
			var ok bool
			if bi, bj, ok = rp.sparsePick(p, s, oldEv.To); !ok {
				bi, bj = rp.densePick(p, s)
			}
		} else {
			bi, bj = rp.densePick(p, s)
		}

		// Apply with runLoop's exact round arithmetic.
		start := s.avail[bi]
		free := start + p.G[bi][bj]
		arrive := free + p.L[bi][bj]
		s.avail[bi] = free
		s.rt[bj] = arrive
		s.avail[bj] = arrive
		s.inA[bj] = true
		s.sizeA++
		sched.Events = append(sched.Events, Event{
			Round: round, From: bi, To: bj,
			Start: start, SenderFree: free, Arrive: arrive,
		})
		rp.joinOrder = append(rp.joinOrder, int32(bj))

		if bj != oldEv.To {
			// The drift moved this round's receiver: the traced state of
			// later rounds describes a different A-set and no longer
			// applies. The pick just applied is still the true engine pick,
			// so the warm start continues from here.
			diverged = true
			continue
		}
		rp.availOld[oldEv.From] = oldEv.SenderFree
		rp.availOld[oldEv.To] = oldEv.Arrive
		rp.taint(bi, s.avail)
		rp.taint(bj, s.avail)
		rp.taint(oldEv.From, s.avail)
		if rp.hot {
			if len(rp.taintList) != 0 || bj == changed {
				rp.hot = false // sticky: taints never clear, A never shrinks
			} else {
				rp.foldChangedKey(p, s, bi, bj)
			}
		}
	}
	if s.sizeA < n {
		runLoop(rp.warmEngine(p, s), p, s, sched)
		return sched
	}
	finish(p, s, sched)
	return sched
}

// replayer holds the drift-replay state.
type replayer struct {
	h       ecef
	changed int

	// Traced candidate state, maintained from the initial snapshot by
	// applying the per-round deltas (replay-local copies).
	curK []float64
	curS []int32
	curF []float64
	curT []int32

	// Divergence bookkeeping: old build's avail (reconstructed from
	// old.Events) and the senders whose new avail differs (sticky).
	availOld  []float64
	tainted   []bool
	taintList []int
	joinOrder []int32

	// Sparse-regime state.
	hot   bool      // no taints and the drifted cluster still outside A
	wcol  []float64 // drifted cluster's lookahead weight per receiver
	inD   []bool    // receiver in the dirty set
	dirty []int32   // receivers whose lookahead term the drift may move
	chK   float64   // cached exact key of the drifted receiver
	chS   int
	chLA  laHeap // lazy extremum heap for F(changed)
	chC   int32  // cursor into chLA's pop order
}

// resetState rebuilds the root-only scheduling state in the Replanner's
// reusable buffers — identical to newState(p) field for field.
func (r *Replanner) resetState(p *Problem) *state {
	s := &r.s
	s.inA = resizeBools(s.inA, p.N)
	s.rt = resizeFloats(s.rt, p.N)
	s.avail = resizeFloats(s.avail, p.N)
	s.sizeA = 1
	s.inA[p.Root] = true
	return s
}

// resetReplayer initialises the replay state in the Replanner's reusable
// buffers; every field is (re)written, so values left by a previous replay
// cannot leak into this one.
func (r *Replanner) resetReplayer(p *Problem, tr *BuildTrace, changed int, s *state) *replayer {
	n := p.N
	rp := &r.rp
	rp.h = tr.h
	rp.changed = changed
	rp.curK = append(rp.curK[:0], tr.initK...)
	rp.curS = append(rp.curS[:0], tr.initS...)
	rp.curF = append(rp.curF[:0], tr.initF...)
	rp.curT = append(rp.curT[:0], tr.initT...)
	rp.availOld = resizeFloats(rp.availOld, n)
	rp.tainted = resizeBools(rp.tainted, n)
	rp.taintList = rp.taintList[:0]
	rp.joinOrder = append(rp.joinOrder[:0], int32(p.Root))
	rp.hot = !s.inA[changed] // the root never leaves A
	rp.dirty = rp.dirty[:0]
	la := tr.h.kind != laNone
	if la {
		// The drifted cluster's lookahead weight towards every receiver,
		// hoisted out of the replay (it does not depend on the round).
		rp.wcol = resizeFloats(rp.wcol, n)
		for j := 0; j < n; j++ {
			if j == changed {
				continue
			}
			w := p.W[j][changed]
			if tr.h.kind != laMinW {
				w += p.T[changed]
			}
			rp.wcol[j] = w
		}
		// Seed the dirty set: receivers whose current lookahead term
		// already differs under the drift. Between deltas the (wc, F, top)
		// relation is fixed, so receivers outside the set keep their traced
		// cost until a delta re-adds them.
		rp.inD = resizeBools(rp.inD, n)
		for j := 0; j < n && n > 1; j++ {
			if j == changed || s.inA[j] {
				continue
			}
			if rp.fMoved(j) {
				rp.addDirty(int32(j))
			}
		}
		// Lazy extremum heap for the drifted receiver's own lookahead term
		// (its whole weight row drifted, so the trace says nothing).
		rp.chLA = laHeap{es: laEntriesFor(rp.chLA.es[:0], tr.h, p, changed)}
		rp.chLA.heapify()
		rp.chC = 0
	}
	// Exact key of the drifted receiver (its column drifted, so the trace
	// says nothing): the usual cached-best-sender scheme over A.
	rp.chK, rp.chS = rp.scanKey(p, s.avail, changed)
	return rp
}

// resizeFloats returns a zeroed length-n slice, reusing buf's backing
// array when it is large enough.
func resizeFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// resizeBools is resizeFloats for bool buffers.
func resizeBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// fMoved reports whether receiver j's lookahead term under the drift can
// differ from its traced value given the current (F, top) entry.
func (rp *replayer) fMoved(j int) bool {
	ft := int(rp.curT[j])
	if ft == rp.changed || ft < 0 {
		return true
	}
	if rp.h.kind == laMaxWT {
		return rp.wcol[j] > rp.curF[j]
	}
	return rp.wcol[j] < rp.curF[j]
}

func (rp *replayer) addDirty(j int32) {
	if !rp.inD[j] {
		rp.inD[j] = true
		rp.dirty = append(rp.dirty, j)
	}
}

// applyDeltas advances the replay-local candidate state to round r and
// re-queues receivers whose lookahead entry moved for dirty re-evaluation.
func (rp *replayer) applyDeltas(tr *BuildTrace, r int) {
	if r == 0 {
		return
	}
	for _, d := range tr.kd[tr.kOff[r]:tr.kOff[r+1]] {
		rp.curK[d.j], rp.curS[d.j] = d.key, d.snd
	}
	for _, d := range tr.fd[tr.fOff[r]:tr.fOff[r+1]] {
		rp.curF[d.j], rp.curT[d.j] = d.val, d.top
		rp.addDirty(d.j)
	}
}

// taint marks x when its new avail diverged from the old build's. Sticky:
// a later coincidental re-equality keeps the mark — challenging an equal
// sender recomputes the same key, so correctness is unaffected.
func (rp *replayer) taint(x int, avail []float64) {
	if !rp.tainted[x] && avail[x] != rp.availOld[x] {
		rp.tainted[x] = true
		rp.taintList = append(rp.taintList, x)
	}
}

// sparsePick resolves a hot-regime round by comparing only the affected
// receivers (the drifted cluster and the dirty set) against the old pick.
// ok is false when the exactness test fails — the old pick's own cost
// drifted upward, so an unaffected runner-up could win and the round needs
// the dense scan. See the file comment for the case split.
func (rp *replayer) sparsePick(p *Problem, s *state, oldTo int) (bi, bj int, ok bool) {
	best := math.Inf(1)
	bi, bj = -1, -1
	la := rp.h.kind != laNone
	ch := rp.changed

	// The drifted receiver, from its dedicated caches.
	{
		c := rp.chK
		if la {
			c += rp.chF(s)
		}
		best, bi, bj = c, rp.chS, ch
	}
	// The old round's receiver (unless it is the drifted cluster, already
	// considered above).
	if oldTo != ch {
		c := rp.curK[oldTo]
		if la {
			c += rp.evalF(p, s, oldTo)
		}
		if c < best || (c == best && oldTo < bj) {
			best, bi, bj = c, int(rp.curS[oldTo]), oldTo
		}
	}
	// Dirty receivers; entries whose term settled back to the traced value
	// are dropped (a later delta re-adds them if needed).
	for x := 0; x < len(rp.dirty); {
		j := int(rp.dirty[x])
		if s.inA[j] || j == ch {
			rp.inD[j] = false
			rp.dirty[x] = rp.dirty[len(rp.dirty)-1]
			rp.dirty = rp.dirty[:len(rp.dirty)-1]
			continue
		}
		f := rp.evalF(p, s, j)
		if f == rp.curF[j] {
			rp.inD[j] = false
			rp.dirty[x] = rp.dirty[len(rp.dirty)-1]
			rp.dirty = rp.dirty[:len(rp.dirty)-1]
		} else {
			x++
		}
		if c := rp.curK[j] + f; c < best || (c == best && j < bj) {
			best, bi, bj = c, int(rp.curS[j]), j
		}
	}
	// Exactness: unaffected receivers keep their traced cost, which the
	// engine's first-attainer scan bounds below by the old best — strictly
	// below the old receiver's index. A strict sparse win is therefore
	// global; a tie is resolvable only when the old receiver still attains
	// it. (With the old receiver drifted, its traced cost still reads from
	// the traced arrays — the drifted cluster's entries are stale there,
	// but then oldTo == changed and bestOld is unused: the drifted
	// receiver's exact cost was already considered.)
	bestOld := rp.curK[oldTo]
	if la {
		bestOld += rp.curF[oldTo]
	}
	if best < bestOld || (best == bestOld && bj <= oldTo) {
		return bi, bj, true
	}
	return 0, 0, false
}

// evalF returns the drifted lookahead term for receiver j != changed
// outside A: extremum(traced F, drifted weight), recomputed only when the
// traced extremum was realised by the drifted cluster and its weight
// regressed. ft < 0 (empty traced member set) cannot coexist with the
// drifted cluster being a member; the defensive answer is the singleton
// extremum.
func (rp *replayer) evalF(p *Problem, s *state, j int) float64 {
	if s.inA[rp.changed] {
		return rp.curF[j] // every member weight unchanged
	}
	wc, base, ft := rp.wcol[j], rp.curF[j], int(rp.curT[j])
	switch {
	case ft < 0:
		return wc
	case rp.h.kind == laMaxWT:
		if ft != rp.changed {
			if wc > base {
				return wc
			}
			return base
		}
		if wc >= base {
			return wc
		}
	case ft != rp.changed:
		if wc < base {
			return wc
		}
		return base
	case wc <= base:
		return wc
	}
	return rp.recomputeF(p, s, j)
}

// chF returns the drifted receiver's own lookahead term from its lazy
// extremum heap (members are discarded once they join A), matching
// recomputeF value-exactly.
func (rp *replayer) chF(s *state) float64 {
	top := rp.chLA.top(&rp.chC, s.inA)
	if top.k < 0 {
		return 0
	}
	if rp.h.kind == laMaxWT {
		return -top.w
	}
	return top.w
}

// foldChangedKey maintains the drifted receiver's cached exact key across
// an applied round: fold the new member, rescan only when the cached
// argmin's avail grew (it was this round's sender).
func (rp *replayer) foldChangedKey(p *Problem, s *state, bi, bj int) {
	if rp.chS == bi {
		rp.chK, rp.chS = rp.scanKey(p, s.avail, rp.changed)
		return
	}
	if key := s.avail[bj] + p.W[bj][rp.changed]; key < rp.chK || (key == rp.chK && bj < rp.chS) {
		rp.chK, rp.chS = key, bj
	}
}

// densePick reproduces the engine's round decision for every receiver from
// the traced state plus the drift: ascending receiver scan with strict
// improvement, exactly the engine's tie order.
func (rp *replayer) densePick(p *Problem, s *state) (int, int) {
	best := math.Inf(1)
	bi, bj := -1, -1
	ch := rp.changed
	chIn := s.inA[ch]
	chLive := chIn && !rp.tainted[ch] // challenges below A-membership drift
	inA, avail := s.inA, s.avail
	ck, cs := rp.curK, rp.curS
	tl := rp.taintList
	la := rp.h.kind != laNone
	for j := 0; j < p.N; j++ {
		if inA[j] {
			continue
		}
		key := ck[j]
		snd := int(cs[j])
		if j == ch || snd < 0 || snd == ch || rp.tainted[snd] {
			key, snd = rp.scanKey(p, avail, j)
		} else {
			for _, t := range tl {
				if k2 := avail[t] + p.W[t][j]; k2 < key || (k2 == key && t < snd) {
					key, snd = k2, t
				}
			}
			if chLive && ch != j {
				if k2 := avail[ch] + p.W[ch][j]; k2 < key || (k2 == key && ch < snd) {
					key, snd = k2, ch
				}
			}
		}
		c := key
		if la {
			if j == ch {
				c += rp.chF(s)
			} else {
				c += rp.evalF(p, s, j)
			}
		}
		if c < best {
			best, bi, bj = c, snd, j
		}
	}
	return bi, bj
}

// scanKey is the full candidate rescan: the exact (min over i∈A of
// avail[i]+W[i][j], lowest attaining sender) on the drifted problem. The
// join log bounds the scan to |A|.
func (rp *replayer) scanKey(p *Problem, avail []float64, j int) (float64, int) {
	bk, bi := math.Inf(1), -1
	for _, i32 := range rp.joinOrder {
		i := int(i32)
		if key := avail[i] + p.W[i][j]; key < bk || (key == bk && i < bi) {
			bk, bi = key, i
		}
	}
	return bk, bi
}

// recomputeF evaluates F(j) from scratch: the extremum of laEntriesFor's
// weight expression over k ∉ A, k != j (0 when the set is empty, the
// engine's convention).
func (rp *replayer) recomputeF(p *Problem, s *state, j int) float64 {
	max := rp.h.kind == laMaxWT
	best, found := 0.0, false
	for k := 0; k < p.N; k++ {
		if s.inA[k] || k == j {
			continue
		}
		w := p.W[j][k]
		if rp.h.kind != laMinW {
			w += p.T[k]
		}
		if !found || (max && w > best) || (!max && w < best) {
			best, found = w, true
		}
	}
	return best
}

// warmEngine builds an ECEF-family engine mid-schedule: the receiver cache
// starts cold over the full join log (the first sync folds every sender
// with the exact lexicographic-minimum comparison, so fold order is
// irrelevant) and the lookahead heaps are rebuilt for the receivers still
// outside A. Both invariants are state-free functions of (A, avail, W, T),
// so the continued build is identical to a from-scratch engine reaching the
// same round.
func (rp *replayer) warmEngine(p *Problem, s *state) *ecefEngine {
	n := p.N
	e := &ecefEngine{h: rp.h}
	e.rc = recvCache{
		wt:         p.transposedW(),
		heaps:      make([]senderHeap, n),
		integrated: make([]int32, n),
		joined:     rp.joinOrder,
		cKey:       make([]float64, n),
		cSnd:       make([]int32, n),
		nq:         make([]int32, n),
		lastI:      -1,
	}
	e.rc.rem = make([]int32, 0, n)
	for j := 0; j < n; j++ {
		e.rc.cKey[j] = math.Inf(1)
		e.rc.cSnd[j] = -1
		if !s.inA[j] {
			e.rc.rem = append(e.rc.rem, int32(j))
		}
	}
	if rp.h.kind != laNone {
		e.lookaheadSet = lookaheadSet{la: laHeapsFor(rp.h, p, s.inA), cur: make([]int32, n),
			fVal: make([]float64, n), fTop: make([]int32, n), neg: rp.h.kind == laMaxWT}
		for _, j := range e.rc.rem {
			e.recompute(int(j), s.inA)
		}
	}
	return e
}
