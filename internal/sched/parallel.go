package sched

// Parallel schedule construction. The per-round candidate scans of the
// incremental engines (engine.go, segengine.go) are per-receiver
// independent: syncing a receiver's cached best sender and scoring its
// candidate touches only that receiver's cache slots, while the shared
// inputs (the join log, avail/busy, the remaining-receiver lane) are
// read-only during a scan. The builder exploits this by cutting the
// remaining-receiver lane into contiguous chunks that workers CLAIM from a
// shared atomic cursor — work-stealing — rather than being assigned one
// fixed shard each:
//
//   - chunk scan cost is uneven (requeries and lookahead recomputes cluster
//     on a few receivers), so fixed shards make every round as slow as its
//     unluckiest worker; with claiming, fast workers drain the chunk queue
//     while a slow chunk is still in flight;
//   - the coordinating goroutine claims chunks too instead of sleeping on
//     the round barrier, so `workers` counts real scanners, not
//     1 coordinator + workers helpers.
//
// Determinism is by construction, not by tolerance:
//
//   - every candidate cost is computed with the same expression and
//     operation order as the sequential engine, wholly inside one chunk;
//   - a chunk scan is the sequential scan restricted to a contiguous slice
//     of the (ascending) remaining lane, so it keeps the chunk's first
//     minimum under the engine's tie-break order;
//   - the fold visits chunks in ascending lane order with the same strict
//     tie-break predicate, which recovers the first minimum of the full
//     sequential scan for ANY partition of the lane — in particular it is
//     independent of WHICH worker scanned a chunk and WHEN. Stealing can
//     therefore not perturb the result even though the claim order is racy.
//
// Since the per-receiver cache state (flat-requery budgets, candidate
// heaps, lookahead heaps) evolves through exactly the same per-receiver
// operations regardless of chunking, the whole construction is bit-identical
// to the sequential engine — and hence to the naive reference pickers — at
// any worker count. The determinism and equivalence tests pin this.
//
// The win is per-schedule latency on large grids (N >= a few hundred),
// where a single construction is the unit of work — per-root or
// per-message-size sweeps that cannot amortise across instances. Sweeps
// with many independent instances (the Monte-Carlo figures) parallelise
// across iterations instead and fold results in iteration order; see
// internal/experiment.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// pickCand is one chunk's best candidate; j < 0 marks an empty chunk.
type pickCand struct {
	cost float64
	i, j int32
}

// parallelScanner is implemented by incremental engines whose per-round
// scan can be chunked over the remaining-receiver lane.
type parallelScanner interface {
	policy
	// remaining returns the length of the engine's remaining-receiver lane.
	remaining() int
	// scanShard syncs and scans lane positions [lo, hi), returning the
	// chunk's candidate under the engine's scan order.
	scanShard(p *Problem, s *state, lo, hi int) pickCand
	// foldBetter reports whether next beats cur under the engine's
	// tie-break; folding chunk candidates in ascending lane order with it
	// reproduces the sequential scan's first minimum.
	foldBetter(next, cur pickCand) bool
	// commitPick records the chosen pair (join log, invalidation marks).
	commitPick(i, j int)
}

// segParallelScanner is the segmented counterpart, scanning a segState
// under the last-segment cost model.
type segParallelScanner interface {
	segPolicy
	remaining() int
	// prepareRound runs single-threaded before the fan-out: it publishes
	// per-sender state the chunk scans read concurrently (the last-segment
	// lane of freshly joined senders).
	prepareRound(st *segState)
	scanSegShard(sp *SegmentedProblem, st *segState, lo, hi int) pickCand
	foldBetter(next, cur pickCand) bool
	commitPick(i, j int)
}

// chunksPerWorker over-decomposes the lane so claiming can rebalance: with
// one chunk per worker stealing degenerates to fixed shards, while too many
// chunks drown the scan in cursor traffic and fold work.
const chunksPerWorker = 4

// stealSeqCutoff is the lane length below which a round is scanned by the
// coordinator alone: near the end of a build rounds are too small to repay
// waking the pool (the result is identical either way — a one-chunk
// partition — so the cutoff is pure scheduling, pinned by the determinism
// tests across worker counts).
const stealSeqCutoff = 64

// roundState is one round's shared work description: the chunk partition
// and the claim cursor. Workers read the descriptor fields after the wake
// channel receive (happens-before) and touch nothing else of the builder.
type roundState struct {
	sc  parallelScanner
	p   *Problem
	s   *state
	seg segParallelScanner
	sp  *SegmentedProblem
	st  *segState

	nRem    int
	nChunks int
	cursor  atomic.Int64
	cands   []pickCand
}

// runChunk scans chunk c's lane slice into its candidate slot.
func (rs *roundState) runChunk(c int) {
	lo, hi := c*rs.nRem/rs.nChunks, (c+1)*rs.nRem/rs.nChunks
	if rs.sc != nil {
		rs.cands[c] = rs.sc.scanShard(rs.p, rs.s, lo, hi)
	} else {
		rs.cands[c] = rs.seg.scanSegShard(rs.sp, rs.st, lo, hi)
	}
}

// work claims chunks until the round's queue is drained. Any worker may
// claim any chunk: per-receiver cache mutations are confined to the chunk
// that owns the receiver, and the fold order is fixed by chunk index, so
// the claim race cannot reach the result.
func (rs *roundState) work() {
	for {
		c := int(rs.cursor.Add(1)) - 1
		if c >= rs.nChunks {
			return
		}
		rs.runChunk(c)
	}
}

// ParallelBuilder owns a persistent worker pool for parallel schedule
// construction. Sweeps that build many schedules (root rotation, size
// ladders, Monte-Carlo workers) create one builder and reuse it, so the
// goroutines are spawned once per sweep rather than once per schedule.
// A builder is NOT safe for concurrent use — one per sweep worker, like
// EnginePool.
type ParallelBuilder struct {
	workers int
	// rs is heap-allocated separately so helper goroutines can hold it
	// without holding the builder: a goroutine referencing the builder
	// itself would pin it reachable forever and the GC cleanup below could
	// never fire.
	rs   *roundState
	wake []chan struct{}
	wg   *sync.WaitGroup
	// seqRounds counts rounds scanned by the coordinator alone (under
	// stealSeqCutoff); exposed for scheduling tests.
	seqRounds int
	closer    *builderCloser
}

// builderCloser owns the wake channels' shutdown; it is shared between the
// explicit Close and the GC cleanup (it must not reference the builder, or
// the cleanup would never fire), and idempotent so both may run.
type builderCloser struct {
	once sync.Once
	wake []chan struct{}
}

func (c *builderCloser) close() {
	c.once.Do(func() {
		for _, ch := range c.wake {
			close(ch)
		}
	})
}

// NewParallelBuilder starts a pool of workers-1 helper goroutines (workers
// <= 0 means GOMAXPROCS; the coordinating goroutine is the remaining
// worker). Close releases them; a builder dropped without Close is released
// by a GC cleanup, so cached reuse (sync.Pool) cannot leak the goroutines.
func NewParallelBuilder(workers int) *ParallelBuilder {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pb := &ParallelBuilder{
		workers: workers,
		rs:      &roundState{cands: make([]pickCand, workers*chunksPerWorker)},
		wake:    make([]chan struct{}, workers-1),
		wg:      &sync.WaitGroup{},
	}
	for w := range pb.wake {
		pb.wake[w] = make(chan struct{})
		// The helper captures only its wake channel, the shared round state
		// and the WaitGroup — never pb (see the rs field comment).
		go func(ch chan struct{}, rs *roundState, wg *sync.WaitGroup) {
			for range ch {
				rs.work()
				wg.Done()
			}
		}(pb.wake[w], pb.rs, pb.wg)
	}
	pb.closer = &builderCloser{wake: pb.wake}
	runtime.AddCleanup(pb, func(c *builderCloser) { c.close() }, pb.closer)
	return pb
}

// Workers returns the pool's worker count (helpers + coordinator).
func (pb *ParallelBuilder) Workers() int { return pb.workers }

// Close releases the pool's goroutines. The builder must not be used
// afterwards.
func (pb *ParallelBuilder) Close() { pb.closer.close() }

// round runs one chunked scan-and-fold over the current remaining lane:
// partition, fan out (or scan alone under the cutoff), fold ascending.
// foldBetter and the commit are the scanner's; rs.sc/rs.seg selects the
// cost model.
func (pb *ParallelBuilder) round(nRem int, foldBetter func(next, cur pickCand) bool) pickCand {
	rs := pb.rs
	rs.nRem = nRem
	rs.nChunks = pb.workers * chunksPerWorker
	if rs.nChunks > nRem {
		rs.nChunks = nRem
	}
	rs.cursor.Store(0)
	if nRem >= stealSeqCutoff && rs.nChunks > 1 {
		pb.wg.Add(len(pb.wake))
		for _, ch := range pb.wake {
			ch <- struct{}{}
		}
		rs.work() // the coordinator claims chunks too
		pb.wg.Wait()
	} else {
		rs.nChunks = 1
		rs.runChunk(0)
		pb.seqRounds++
	}
	best := pickCand{i: -1, j: -1}
	for _, c := range rs.cands[:rs.nChunks] {
		if c.j < 0 {
			continue
		}
		if best.j < 0 || foldBetter(c, best) {
			best = c
		}
	}
	return best
}

// parallelPolicy adapts a parallelScanner to the round-based run engine,
// dispatching each round's scan to the builder's pool.
type parallelPolicy struct {
	pb *ParallelBuilder
	sc parallelScanner
}

func (pp *parallelPolicy) Name() string { return pp.sc.Name() }

func (pp *parallelPolicy) pick(p *Problem, s *state) (int, int) {
	rs := pp.pb.rs
	rs.sc, rs.p, rs.s, rs.seg = pp.sc, p, s, nil
	best := pp.pb.round(pp.sc.remaining(), pp.sc.foldBetter)
	pp.sc.commitPick(int(best.i), int(best.j))
	return int(best.i), int(best.j)
}

// segParallelPolicy is parallelPolicy for the segmented engines.
type segParallelPolicy struct {
	pb *ParallelBuilder
	sc segParallelScanner
}

func (pp *segParallelPolicy) segName() string { return pp.sc.segName() }

func (pp *segParallelPolicy) pickSeg(sp *SegmentedProblem, st *segState) (int, int) {
	pp.sc.prepareRound(st)
	rs := pp.pb.rs
	rs.seg, rs.sp, rs.st, rs.sc = pp.sc, sp, st, nil
	best := pp.pb.round(pp.sc.remaining(), pp.sc.foldBetter)
	pp.sc.commitPick(int(best.i), int(best.j))
	return int(best.i), int(best.j)
}

// segPolicyFor wraps the segmented engine pol for pipelined construction on
// the pool, falling back to the sequential pol when it cannot be chunked.
func (pb *ParallelBuilder) segPolicyFor(pol segPolicy) segPolicy {
	if pb.workers <= 1 {
		return pol
	}
	if sc, ok := pol.(segParallelScanner); ok {
		return &segParallelPolicy{pb: pb, sc: sc}
	}
	return pol
}

// ---------------------------------------------------------------------------
// Chunk scans: the sequential picks of engine.go restricted to remaining
// lane positions [lo, hi).

// syncRange is recvCache.sync restricted to lane positions [lo, hi): fold
// the senders that joined since the last sync into the range's caches, then
// requery the range's receivers whose cached best sender transmitted last
// round. It does NOT advance csync — that happens once per round, at
// commit — so every chunk folds the same join-log suffix.
func (rc *recvCache) syncRange(p *Problem, s *state, lo, hi int) {
	rem := rc.rem[lo:hi]
	for _, i := range rc.joined[rc.csync:] {
		av, row := s.avail[i], p.W[i]
		for _, j := range rem {
			key := av + row[j]
			if key < rc.cKey[j] || (key == rc.cKey[j] && i < rc.cSnd[j]) {
				rc.cKey[j], rc.cSnd[j] = key, i
			}
		}
	}
	if rc.lastI >= 0 {
		for _, j := range rem {
			if rc.cSnd[j] == rc.lastI {
				rc.requery(p, s, int(j))
			}
		}
	}
}

// commitRound advances the join-log cursor (the work syncRange defers) and
// records the pair.
func (rc *recvCache) commitRound(i, j int) {
	rc.csync = len(rc.joined)
	rc.commit(i, j)
}

// ECEF family.

func (e *ecefEngine) remaining() int { return len(e.rc.rem) }

func (e *ecefEngine) scanShard(p *Problem, s *state, lo, hi int) pickCand {
	e.rc.syncRange(p, s, lo, hi)
	best := pickCand{i: -1, j: -1}
	if e.la == nil {
		for _, j := range e.rc.rem[lo:hi] {
			if c := e.rc.cKey[j]; best.j < 0 || c < best.cost {
				best = pickCand{cost: c, i: e.rc.cSnd[j], j: j}
			}
		}
	} else {
		for _, j := range e.rc.rem[lo:hi] {
			e.refresh(int(j), s.inA)
			if c := e.rc.cKey[j] + e.fVal[j]; best.j < 0 || c < best.cost {
				best = pickCand{cost: c, i: e.rc.cSnd[j], j: j}
			}
		}
	}
	return best
}

// foldBetter replicates the sequential strict improvement over ascending j:
// in chunk order, a later chunk only wins with a strictly smaller cost.
func (e *ecefEngine) foldBetter(next, cur pickCand) bool { return next.cost < cur.cost }

func (e *ecefEngine) commitPick(i, j int) { e.rc.commitRound(i, j) }

// BottomUp.

func (e *buEngine) remaining() int { return len(e.rc.rem) }

func (e *buEngine) scanShard(p *Problem, s *state, lo, hi int) pickCand {
	e.rc.syncRange(p, s, lo, hi)
	best := pickCand{i: -1, j: -1}
	for _, j := range e.rc.rem[lo:hi] {
		if c := e.rc.cKey[j] + p.T[j]; best.j < 0 || c > best.cost {
			best = pickCand{cost: c, i: e.rc.cSnd[j], j: j}
		}
	}
	return best
}

// foldBetter: BottomUp maximises with strict improvement over ascending j.
func (e *buEngine) foldBetter(next, cur pickCand) bool { return next.cost > cur.cost }

func (e *buEngine) commitPick(i, j int) { e.rc.commitRound(i, j) }

// FEF. The engine's scan is receiver-major with a (weight, sender) key, so
// lane chunks fold with the same predicate.

func (e *fefEngine) remaining() int { return len(e.rem) }

func (e *fefEngine) scanShard(p *Problem, s *state, lo, hi int) pickCand {
	wm := p.L
	if e.h.Weight == WeightFull {
		wm = p.W
	}
	rem := e.rem[lo:hi]
	for _, i := range e.fresh {
		row := wm[i]
		for _, j := range rem {
			if w := row[j]; w < e.cW[j] || (w == e.cW[j] && i < e.cSnd[j]) {
				e.cW[j], e.cSnd[j] = w, i
			}
		}
	}
	best := pickCand{i: -1, j: -1}
	for _, j := range rem {
		if w, i := e.cW[j], e.cSnd[j]; best.j < 0 || w < best.cost || (w == best.cost && i < best.i) {
			best = pickCand{cost: w, i: i, j: j}
		}
	}
	return best
}

// foldBetter replicates the naive FEF tie-break (weight, then lowest
// sender; the receiver order is the ascending fold itself).
func (e *fefEngine) foldBetter(next, cur pickCand) bool {
	return next.cost < cur.cost || (next.cost == cur.cost && next.i < cur.i)
}

func (e *fefEngine) commitPick(_, j int) {
	e.fresh = append(e.fresh[:0], int32(j))
	e.rem = remDrop(e.rem, int32(j))
}

// ---------------------------------------------------------------------------
// Segmented chunk scans: the sequential pickSeg of segengine.go restricted
// to lane positions [lo, hi). These give WithScanWorkers coverage of
// segmented and pipelined plans.

// syncSegRange is segRecvCache.sync restricted to lane positions [lo, hi).
// The last lane of freshly joined senders is published by cacheLast
// (prepareRound) before the fan-out; csync advances at commit.
func (rc *segRecvCache) syncSegRange(st *segState, lo, hi int) {
	sp := rc.sp
	rem := rc.rem[lo:hi]
	for _, i := range rc.joined[rc.csync:] {
		busy, gsRow, wlRow := st.busy[i], sp.Gs[i], sp.Wl[i]
		last := rc.last[i]
		for _, j := range rem {
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
	if rc.lastI >= 0 {
		for _, j := range rem {
			if rc.cSnd[j] == rc.lastI {
				rc.requery(st, int(j))
			}
		}
	}
}

func (rc *segRecvCache) commitSegRound(i, j int) {
	rc.csync = len(rc.joined)
	rc.commit(i, j)
}

// Segmented ECEF family.

func (e *segEcefEngine) remaining() int { return len(e.rc.rem) }

func (e *segEcefEngine) prepareRound(st *segState) { e.rc.cacheLast(st) }

func (e *segEcefEngine) scanSegShard(sp *SegmentedProblem, st *segState, lo, hi int) pickCand {
	e.rc.syncSegRange(st, lo, hi)
	best := pickCand{i: -1, j: -1}
	if e.la == nil {
		for _, j := range e.rc.rem[lo:hi] {
			if c := e.rc.cKey[j]; best.j < 0 || c < best.cost {
				best = pickCand{cost: c, i: e.rc.cSnd[j], j: j}
			}
		}
	} else {
		for _, j := range e.rc.rem[lo:hi] {
			e.refresh(int(j), st.inA)
			if c := e.rc.cKey[j] + e.fVal[j]; best.j < 0 || c < best.cost {
				best = pickCand{cost: c, i: e.rc.cSnd[j], j: j}
			}
		}
	}
	return best
}

func (e *segEcefEngine) foldBetter(next, cur pickCand) bool { return next.cost < cur.cost }

func (e *segEcefEngine) commitPick(i, j int) { e.rc.commitSegRound(i, j) }

// Segmented BottomUp.

func (e *segBuEngine) remaining() int { return len(e.rc.rem) }

func (e *segBuEngine) prepareRound(st *segState) { e.rc.cacheLast(st) }

func (e *segBuEngine) scanSegShard(sp *SegmentedProblem, st *segState, lo, hi int) pickCand {
	e.rc.syncSegRange(st, lo, hi)
	ts := sp.estT()
	best := pickCand{i: -1, j: -1}
	for _, j := range e.rc.rem[lo:hi] {
		if c := e.rc.cKey[j] + ts[j]; best.j < 0 || c > best.cost {
			best = pickCand{cost: c, i: e.rc.cSnd[j], j: j}
		}
	}
	return best
}

func (e *segBuEngine) foldBetter(next, cur pickCand) bool { return next.cost > cur.cost }

func (e *segBuEngine) commitPick(i, j int) { e.rc.commitSegRound(i, j) }

// Segmented FEF: the unsegmented fefEngine's chunk scan behind the same
// A-membership shim as its sequential pickSeg.

func (f *segFefEngine) remaining() int { return f.e.remaining() }

// prepareRound publishes the round's A-membership through the shim before
// the fan-out — the chunk scans share one shim, so the write must not be
// theirs.
func (f *segFefEngine) prepareRound(st *segState) { f.shim.inA = st.inA }

func (f *segFefEngine) scanSegShard(sp *SegmentedProblem, _ *segState, lo, hi int) pickCand {
	return f.e.scanShard(sp.Problem, &f.shim, lo, hi)
}

func (f *segFefEngine) foldBetter(next, cur pickCand) bool { return f.e.foldBetter(next, cur) }

func (f *segFefEngine) commitPick(i, j int) { f.e.commitPick(i, j) }
