package gridbcast

// The unified Session/Request/Plan API. The paper's pipeline is one flow —
// cost a platform, schedule with a heuristic, optionally segment, optionally
// refine, then execute on the virtual grid — and this file expresses it as
// one composable request path instead of a combinatorial family of
// per-call Predict/Simulate variants.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sync/atomic"

	"gridbcast/internal/intracluster"
	"gridbcast/internal/mpi"
	"gridbcast/internal/plancache"
	"gridbcast/internal/sched"
	"gridbcast/internal/topology"
)

// enginePools shares recycled scheduling engines (candidate caches, sender
// heaps, lookahead templates, segmented Gs/Wl transposes) across every
// Session in the process. A sched.EnginePool is not safe for concurrent
// use, so each Plan call checks one out for its duration; sync.Pool keeps
// the association per-P in steady state, which is the per-worker reuse
// pattern the Monte-Carlo sweeps used to hand-roll.
var enginePools = sync.Pool{New: func() any { return sched.NewEnginePool() }}

// Session binds a platform to everything needed to plan and execute
// broadcasts on it: the grid's per-message-size cost store warms up on
// first use and is shared by subsequent plans, and schedule construction
// runs through pooled incremental engines. A Session is safe for concurrent
// use — many goroutines may Plan, PlanBatch and Execute against one warmed
// platform, the serving-scale scenario the per-call API could not express.
//
// With WithPlanCache, the session additionally memoizes planning results:
// repeated requests return the cached immutable *Plan, concurrent misses
// on one key collapse into a single build, and a later Session.Replan
// migrates the cached set onto the drifted platform instead of flushing it
// (DESIGN.md §12).
type Session struct {
	g *Grid
	// fp is the platform's cost fingerprint (topology.Grid.Fingerprint); it
	// prefixes every cache key, so plans cached against one platform can
	// never serve another. Digesting a full wide-area matrix is O(n²), so
	// it is computed on first use — sessions that never touch the cache or
	// Fingerprint (the default construction) never pay for it.
	fpOnce sync.Once
	fp     uint64
	// gen is the cache generation; InvalidateCache bumps it, which changes
	// every key and lets the stale entries age out through the LRU bound.
	gen atomic.Uint64
	// cache is the plan memo (nil for default sessions — caching is opt-in
	// and the zero-option NewSession behaves exactly as before).
	cache    *plancache.Cache
	cacheCap int
}

// SessionOption configures a Session at construction.
type SessionOption func(*Session)

// DefaultPlanCacheCapacity is the plan-cache bound WithPlanCache applies
// when given a non-positive capacity.
const DefaultPlanCacheCapacity = 1024

// WithPlanCache enables the session's plan cache, bounded to capacity
// resident plans (<= 0 selects DefaultPlanCacheCapacity). Plan and
// PlanBatch then memoize by a canonical key — the platform fingerprint and
// generation plus the full normalized request option set — so a repeated
// request returns the cached plan, and concurrent misses on one key
// collapse into a single build whose result every caller shares.
//
// Cached plans are shared and immutable: callers must not mutate a *Plan
// returned by a caching session (Refine already copies on write). Request
// shapes that cannot affect the schedule bytes — WithReplan, WithContext —
// are normalized out of the key, so they hit the same entry: the entry
// carries a replay trace only if the request that built it asked for one
// (a WithReplan hit on an entry built without it gets an untraced plan,
// which Session.Replan rebuilds instead of replaying — same bytes, more
// work).
func WithPlanCache(capacity int) SessionOption {
	return func(s *Session) {
		if capacity <= 0 {
			capacity = DefaultPlanCacheCapacity
		}
		s.cacheCap = capacity
	}
}

// NewSession validates the platform and wraps it in a Session. Options are
// applied in order; NewSession(g) without options is byte-compatible with
// the pre-option API (no cache, identical planning behavior).
func NewSession(g *Grid, opts ...SessionOption) (*Session, error) {
	if g == nil {
		return nil, errors.New("gridbcast: nil grid")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	s := &Session{g: g}
	for _, o := range opts {
		if o != nil {
			o(s)
		}
	}
	if s.cacheCap > 0 {
		s.cache = plancache.New(s.cacheCap)
	}
	return s, nil
}

// Grid returns the session's platform.
func (s *Session) Grid() *Grid { return s.g }

// Fingerprint returns the session platform's cost fingerprint: a stable
// 64-bit digest of every cost-bearing parameter (see
// topology.Grid.Fingerprint). Two sessions share a fingerprint exactly when
// they would plan identically; it prefixes every plan-cache key.
func (s *Session) Fingerprint() uint64 {
	s.fpOnce.Do(func() { s.fp = s.g.Fingerprint() })
	return s.fp
}

// CacheStats is a point-in-time snapshot of a session's plan-cache
// counters. Hits counts lookups served from a resident plan, Misses
// lookups that built one, Collapsed lookups that waited on a concurrent
// build of the same key instead of building again, Evicted plans dropped
// by the LRU capacity bound, and Migrated plans carried across a Replan
// drift into the drifted session's cache (by trace replay, or rebuilt at
// the drift) rather than dropped.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Collapsed uint64
	Evicted   uint64
	Migrated  uint64
}

// CacheStats returns the plan cache's counters (zero for sessions without
// a cache).
func (s *Session) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return CacheStats(s.cache.Stats())
}

// CostStats reports the session platform's cost store (see CostStats).
// Sessions from Replan have a platform, and so a store, of their own.
func (s *Session) CostStats() CostStats { return s.g.CostStats() }

// InvalidateCache retires every cached plan by bumping the key generation:
// subsequent lookups miss and rebuild, and the stale entries age out
// through the LRU bound. Safe for concurrent use; a no-op without a cache.
func (s *Session) InvalidateCache() { s.gen.Add(1) }

// Request describes one broadcast planning problem. The zero value asks for
// best-of-paper heuristic selection from root 0 but carries no message
// size; build requests with NewRequest and the With* options.
type Request struct {
	heuristic Heuristic
	root      int
	size      int64
	sizeSet   bool
	segSize   int64
	segmented bool
	pipelined bool
	segLocal  bool
	refine    int
	refineSet bool
	overlap   bool
	replan    bool
	nocache   bool
	net       NetConfig
	netSet    bool
	ctx       context.Context
}

// Option configures a Request.
type Option func(*Request)

// NewRequest assembles a Request from options. Nil options are skipped, so
// callers may build option lists conditionally.
func NewRequest(opts ...Option) Request {
	var r Request
	for _, o := range opts {
		if o != nil {
			o(&r)
		}
	}
	return r
}

// WithHeuristic pins the scheduling heuristic (one of the exported typed
// values, or any sched.Heuristic). Without it, Plan tries every paper
// heuristic and adopts the best predicted makespan, recording the losers in
// Plan.Candidates.
func WithHeuristic(h Heuristic) Option { return func(r *Request) { r.heuristic = h } }

// WithRoot selects the source cluster (default 0).
func WithRoot(root int) Option { return func(r *Request) { r.root = root } }

// WithSize sets the broadcast payload in bytes. Every request needs one.
func WithSize(size int64) Option { return func(r *Request) { r.size = size; r.sizeSet = true } }

// WithSegments plans a pipelined broadcast with fixed segSize-byte
// segments (see DESIGN.md §7). Mutually exclusive with WithPipelined.
func WithSegments(segSize int64) Option {
	return func(r *Request) { r.segSize = segSize; r.segmented = true }
}

// WithPipelined plans a pipelined broadcast with the segment size chosen
// from the default candidate ladder; the result is never worse than the
// unsegmented schedule. Mutually exclusive with WithSegments.
func WithPipelined() Option { return func(r *Request) { r.pipelined = true } }

// WithSegmentedLocal extends segmentation below the coordinators (segmented
// and pipelined requests only): intra-cluster trees stream each segment as
// it arrives under the per-segment timing model T_i(s, K), with the
// completion model applied per segment. Every cluster keeps the faster of
// the streamed and whole-message local phases, so the plan is never worse
// than the coordinator-only pipeline; Plan.LocalSegmented reports whether
// any cluster's local phase ended up segmented. With one-segment plans the
// option is inert (byte-identical schedules).
func WithSegmentedLocal() Option { return func(r *Request) { r.segLocal = true } }

// WithRefine improves the planned schedule by local search (swap and
// re-sender moves, re-timed exactly), sweeping at most budget rounds
// (budget <= 0 sweeps until a local optimum). The result is never worse.
// Unsegmented requests only.
func WithRefine(budget int) Option {
	return func(r *Request) { r.refine = budget; r.refineSet = true }
}

// WithNet records the virtual-network configuration (jitter, per-message
// software overhead) Session.Execute applies when running the plan.
func WithNet(cfg NetConfig) Option {
	return func(r *Request) { r.net = cfg; r.netSet = true }
}

// WithContext attaches a cancellation context: Plan checks it between
// heuristic candidates, between refinement sweeps and before every segment
// size of the pipelined ladder, so long searches stop within one schedule
// construction of the cancel.
func WithContext(ctx context.Context) Option { return func(r *Request) { r.ctx = ctx } }

// WithOverlap selects the completion model (sched.Options.Overlap): when
// true, a cluster's local broadcast overlaps its later wide-area
// transmissions (the §5.2 model used by the paper's §6 simulations).
func WithOverlap(on bool) Option { return func(r *Request) { r.overlap = on } }

// WithReplan asks Plan to record the schedule construction's replay trace
// so a later Session.Replan can absorb a single-cluster platform drift in
// O(affected receivers) instead of rebuilding (DESIGN.md §11). The trace is
// recorded for pinned traceable heuristics (the ECEF family) planning an
// unsegmented, unrefined schedule; every other request shape plans normally
// and Replan falls back to a full rebuild. Without this option no trace is
// recorded, cached or not. The planned schedule is bit-identical with or
// without it.
func WithReplan() Option { return func(r *Request) { r.replan = true } }

// WithNoCache bypasses the session's plan cache for this request: the plan
// is built fresh, is not inserted into the cache, and is exclusively the
// caller's (safe to mutate). A no-op on sessions without a cache.
func WithNoCache() Option { return func(r *Request) { r.nocache = true } }

// Candidate records one heuristic tried during best-of selection.
type Candidate struct {
	// Heuristic is the candidate's display name.
	Heuristic string
	// Makespan is the candidate's predicted makespan.
	Makespan float64
}

// BuildStats reports how much work planning took.
type BuildStats struct {
	// Duration is the wall-clock time Plan spent.
	Duration time.Duration
	// Schedules counts the schedules tried (heuristic candidates × ladder
	// segment sizes). A pipelined plan counts every ladder rung, including
	// the rungs the search abandoned once they could no longer beat the
	// best segment size found so far.
	Schedules int
}

// Plan is the outcome of Session.Plan: exactly one of Schedule (single
// message rounds) or Segmented (pipelined) is set, plus the predicted
// makespan, the chosen heuristic and segmentation, the per-heuristic
// makespans when best-of selection ran, and build statistics.
type Plan struct {
	// Heuristic is the display name of the policy that produced the
	// schedule (the winner under best-of selection, including "+refine"
	// and "Pipelined-" decorations).
	Heuristic string
	// Root and Size echo the request.
	Root int
	Size int64
	// Schedule is the unsegmented schedule (nil when Segmented is set).
	Schedule *Schedule
	// Segmented is the pipelined schedule (nil for unsegmented plans).
	Segmented *SegmentedSchedule
	// SegSize and K are the chosen segmentation (0 and 1 when unsegmented).
	SegSize int64
	K       int
	// LocalSegmented reports whether the adopted schedule's local phase is
	// segmented in at least one cluster (WithSegmentedLocal requests whose
	// per-segment model actually won somewhere; the per-cluster decisions
	// are in Segmented.LocalSegmented).
	LocalSegmented bool
	// Makespan is the predicted makespan of the adopted schedule.
	Makespan float64
	// Candidates lists every heuristic tried, in paper legend order, when
	// the request did not pin one; nil otherwise.
	Candidates []Candidate
	// Overlap echoes the request's completion model (WithOverlap). Execute
	// and Refine re-time under it; callers wrapping an existing schedule in
	// a Plan literal must set it to match how the schedule was built, or
	// the pre-execution validation will reject the timing.
	Overlap bool
	// Stats reports the planning work.
	Stats BuildStats

	net    NetConfig
	netSet bool
	// owner is the session that produced the plan (nil for hand-built plan
	// literals); Execute and Replan reject plans from other sessions, whose
	// schedules were timed against a different platform.
	owner *Session
	// req echoes the planning request (ctx stripped) so Replan can rebuild
	// the same request shape on the drifted platform.
	req Request
	// trace is the construction replay log, recorded only when the building
	// request asked for it (WithReplan) and had a replayable shape; nil
	// otherwise (Replan then rebuilds).
	trace *sched.BuildTrace
	// wire memoises the plan's serialized form (WireBytes). It lives and
	// dies with the plan, so a plan-cache entry's eviction, invalidation
	// or Replan migration (which builds a new *Plan) drops it too.
	wire atomic.Pointer[[]byte]
}

// WireBytes returns the plan's memoised wire encoding, calling encode to
// fill the memo when it is empty. A plan is immutable, so one encoding
// serves every later call; callers must always pass the same encoder.
// Concurrent first calls may each run encode, but all of them return the
// one result that was kept. An encode error is returned and nothing is
// kept.
func (p *Plan) WireBytes(encode func() ([]byte, error)) ([]byte, error) {
	if b := p.wire.Load(); b != nil {
		return *b, nil
	}
	b, err := encode()
	if err != nil {
		return nil, err
	}
	if !p.wire.CompareAndSwap(nil, &b) {
		return *p.wire.Load(), nil
	}
	return b, nil
}

// validate pins down request errors at the facade boundary, before any
// value reaches problem construction or indexing.
func (s *Session) validate(req Request) error {
	if err := s.validateRootSize(req.root, req.size); err != nil {
		return err
	}
	if !req.sizeSet {
		return errors.New("gridbcast: request has no message size (use WithSize)")
	}
	if req.segmented && req.pipelined {
		return errors.New("gridbcast: WithSegments and WithPipelined are mutually exclusive")
	}
	if req.segmented {
		if req.segSize <= 0 {
			return fmt.Errorf("gridbcast: segment size %d must be positive", req.segSize)
		}
		// Refused here, before the plan cache keys, fingerprints or
		// counts the request.
		if err := sched.CheckSegments(req.size, req.segSize); err != nil {
			return err
		}
	}
	if req.segLocal && !req.segmented && !req.pipelined {
		return errors.New("gridbcast: WithSegmentedLocal needs a segmented plan (WithSegments or WithPipelined)")
	}
	if req.refineSet && (req.segmented || req.pipelined) {
		return errors.New("gridbcast: WithRefine applies to unsegmented schedules only")
	}
	if req.netSet {
		if err := req.net.Validate(s.g.TotalNodes()); err != nil {
			return err
		}
	}
	return nil
}

func (s *Session) validateRootSize(root int, size int64) error {
	if n := s.g.N(); root < 0 || root >= n {
		return fmt.Errorf("gridbcast: root %d out of range [0,%d) on a %d-cluster platform", root, n, n)
	}
	if size < 0 {
		return fmt.Errorf("gridbcast: negative message size %d", size)
	}
	return nil
}

// Plan builds the schedule the request describes and returns it with its
// predicted timing. Safe for concurrent use.
//
// On a session with WithPlanCache, Plan first consults the cache: a hit
// returns the resident immutable *Plan (its Stats report the original
// build), a miss builds and caches it, and concurrent misses on the same
// key collapse into one build. A cached build records a replay trace
// exactly when an uncached one would (WithReplan on a replayable shape);
// Session.Replan migrates replayable entries across a platform drift either
// way, by replay with a trace and by rebuild without. The build itself runs
// detached from the request's context (it is shared by every collapsed
// waiter); the context is still checked on entry.
func (s *Session) Plan(req Request) (*Plan, error) {
	pl, _, err := s.PlanInfo(req)
	return pl, err
}

// PlanOutcome reports how PlanInfo satisfied a request.
type PlanOutcome uint8

const (
	// PlanBuilt: the plan was constructed from scratch — a cache miss, or
	// any request on a session without a cache (including WithNoCache).
	PlanBuilt PlanOutcome = iota
	// PlanHit: the plan was served from the session's plan cache.
	PlanHit
	// PlanCollapsed: the request arrived while another goroutine was
	// building the same key and shares that build's result.
	PlanCollapsed
)

// String names the outcome ("built", "hit", "collapsed") for metrics
// labels.
func (o PlanOutcome) String() string {
	switch o {
	case PlanHit:
		return "hit"
	case PlanCollapsed:
		return "collapsed"
	default:
		return "built"
	}
}

// PlanInfo is Plan, additionally reporting whether the plan was built,
// served from the session's cache, or collapsed into a concurrent build of
// the same key — the per-request signal serving layers need for hit/miss
// latency accounting (Session.CacheStats only exposes cumulative
// counters, which cannot be attributed to individual requests under
// concurrency).
func (s *Session) PlanInfo(req Request) (*Plan, PlanOutcome, error) {
	if s.cache == nil || req.nocache {
		pl, err := s.planUncached(req)
		return pl, PlanBuilt, err
	}
	if err := s.validate(req); err != nil {
		return nil, PlanBuilt, err
	}
	if req.ctx != nil {
		if err := req.ctx.Err(); err != nil {
			return nil, PlanBuilt, err
		}
	}
	v, oc, err := s.cache.DoInfo(s.requestKey(req), func() (any, error) {
		breq := req
		breq.ctx = nil
		pl, err := s.planUncached(breq)
		if err != nil {
			return nil, err
		}
		return pl, nil
	})
	outcome := PlanBuilt
	switch oc {
	case plancache.Hit:
		outcome = PlanHit
	case plancache.Collapsed:
		outcome = PlanCollapsed
	}
	if err != nil {
		return nil, outcome, err
	}
	return v.(*Plan), outcome, nil
}

// requestKey folds the platform fingerprint, the cache generation and the
// full normalized request option set into the canonical cache key.
// Parameters that cannot change the schedule bytes are left out: the
// context, WithReplan (it only decides whether the build records a trace,
// so an entry's trace follows the request that built it) and WithNoCache
// (bypasses keying entirely). Floats print as %x, so
// values differing below decimal printing precision key differently.
// Heuristics key by display name — the exported typed heuristics all carry
// distinct names; custom sched.Heuristic implementations sharing a name
// would collide and should plan WithNoCache.
func (s *Session) requestKey(req Request) string {
	hname := ""
	if req.heuristic != nil {
		hname = req.heuristic.Name()
	}
	mode := "flat"
	switch {
	case req.pipelined:
		mode = "pipe"
	case req.segmented:
		mode = fmt.Sprintf("seg:%d", req.segSize)
	}
	refine := "-"
	if req.refineSet {
		refine = fmt.Sprintf("r%d", req.refine)
	}
	net := "-"
	if req.netSet {
		faults := "-"
		if req.net.Faults != nil {
			faults = fmt.Sprintf("%+v", *req.net.Faults)
		}
		net = fmt.Sprintf("j%x:s%d:o%x:f%s",
			req.net.Jitter, req.net.Seed, req.net.SoftwareOverhead, faults)
	}
	return fmt.Sprintf("%x|g%d|h%s|r%d|z%d|%s|sl%t|ov%t|%s|%s",
		s.Fingerprint(), s.gen.Load(), hname, req.root, req.size, mode,
		req.segLocal, req.overlap, refine, net)
}

// planUncached is the build path: it constructs the schedule from scratch,
// bypassing and never touching the plan cache.
func (s *Session) planUncached(req Request) (*Plan, error) {
	start := time.Now()
	ctx := req.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.validate(req); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	ep := enginePools.Get().(*sched.EnginePool)
	defer enginePools.Put(ep)

	pl := &Plan{
		Root: req.root, Size: req.size, K: 1,
		Overlap: req.overlap, net: req.net, netSet: req.netSet,
	}
	candidates := []Heuristic{req.heuristic}
	if req.heuristic == nil {
		candidates = sched.Paper()
		pl.Candidates = make([]Candidate, 0, len(candidates))
	}
	// The costed problem is heuristic-independent, so best-of selection
	// shares one across every candidate (the pipelined ladder builds its
	// own, one per segment size).
	var p *sched.Problem
	var sp *sched.SegmentedProblem
	opt := sched.Options{Overlap: req.overlap, SegmentedLocal: req.segLocal}
	var err error
	switch {
	case req.pipelined:
	case req.segmented:
		sp, err = sched.NewSegmentedProblem(s.g, req.root, req.size, req.segSize, opt)
	default:
		p, err = sched.NewProblem(s.g, req.root, req.size, opt)
	}
	if err != nil {
		return nil, err
	}
	for _, h := range candidates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc, ss, tr, built, err := s.buildOne(ctx, ep, h, req, p, sp)
		if err != nil {
			return nil, err
		}
		pl.Stats.Schedules += built
		var name string
		var span float64
		if sc != nil {
			name, span = sc.Heuristic, sc.Makespan
		} else {
			name, span = ss.Heuristic, ss.Makespan
		}
		if req.heuristic == nil {
			pl.Candidates = append(pl.Candidates, Candidate{Heuristic: name, Makespan: span})
		}
		// Strictly-smaller adoption: ties resolve to the earliest candidate,
		// matching sched.BestOf's tie-break exactly.
		if pl.Schedule == nil && pl.Segmented == nil || span < pl.Makespan {
			pl.Schedule, pl.Segmented = sc, ss
			pl.Heuristic, pl.Makespan = name, span
			pl.trace = tr
		}
	}
	// A build that overran its deadline fails even after its last
	// candidate, so a late plan is never served as a success.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pl.owner = s
	pl.req = req
	pl.req.ctx = nil // a stored context would outlive its cancellation scope
	if pl.Segmented != nil {
		pl.SegSize, pl.K = pl.Segmented.SegSize, pl.Segmented.K
		for _, on := range pl.Segmented.LocalSegmented {
			if on {
				pl.LocalSegmented = true
				break
			}
		}
	}
	pl.Stats.Duration = time.Since(start)
	return pl, nil
}

// buildOne constructs one candidate schedule for h under the request's
// mode, returning the schedule (exactly one of sc/ss non-nil), the replay
// trace when the request asked for one and the build supports it, and how
// many schedules were built. p/sp is the pre-costed problem for the mode
// (nil in pipelined mode, whose ladder costs one problem per rung).
func (s *Session) buildOne(ctx context.Context, ep *sched.EnginePool, h Heuristic, req Request, p *sched.Problem, sp *sched.SegmentedProblem) (sc *Schedule, ss *SegmentedSchedule, tr *sched.BuildTrace, built int, err error) {
	switch {
	case req.pipelined:
		opt := sched.Options{Overlap: req.overlap, SegmentedLocal: req.segLocal}
		ladder := sched.DefaultSegmentLadder(req.size)
		ss, err = sched.Pipelined{Base: h, Ladder: ladder}.BestContext(ctx, ep, s.g, req.root, req.size, opt)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		return nil, ss, nil, len(ladder), nil
	case req.segmented:
		return nil, ep.ScheduleSegmented(h, sp), nil, 1, nil
	default:
		if req.replan && replayable(req) {
			// Traced build: bit-identical schedule plus the replay log
			// Session.Replan consumes.
			sc, tr = sched.ScheduleTraced(ep, h, p)
		} else {
			sc = ep.Schedule(h, p)
		}
		built = 1
		if req.refineSet {
			sc, err = sched.RefineContext(ctx, p, sc, req.refine)
			if err != nil {
				return nil, nil, nil, 0, err
			}
			built++
		}
		return sc, nil, tr, built, nil
	}
}

// replayable reports whether req's plan shape can carry a replay trace: a
// pinned ECEF-family heuristic (sched.Traceable) planning an unsegmented,
// unrefined schedule. It decides both when buildOne records a trace
// (WithReplan requests of this shape) and which cache entries Replan
// migrates (by replay with a trace, by rebuild without one).
func replayable(req Request) bool {
	return req.heuristic != nil && sched.Traceable(req.heuristic) &&
		!req.segmented && !req.pipelined && !req.refineSet
}

// PlanBatch plans every request against the session, fanning the work
// across up to GOMAXPROCS goroutines sharing the engine pool. Workers
// claim slots by atomically incrementing a shared cursor rather than by
// fixed stripes, so one expensive request (a pipelined ladder next to flat
// plans, say) never idles the rest of a stripe behind it. plans[i]
// corresponds to reqs[i], and both the slice and every plan in it are
// identical at any worker count: each slot is computed independently and
// written exactly once, the ordered-fold determinism pattern of the
// Monte-Carlo sweeps (PR 3). Failed requests leave a nil slot; the returned
// error joins one *SlotError per failed request (nil when all requests
// planned).
//
// Each slot routes through Plan, so on a caching session a batch holding
// duplicate requests collapses them to a single build — whichever slot
// reaches the key first builds, the rest hit or wait on it — without
// changing any slot's content at any GOMAXPROCS (cached plans are byte-
// identical to fresh builds, timing statistics aside).
func (s *Session) PlanBatch(reqs []Request) ([]*Plan, error) {
	plans := make([]*Plan, len(reqs))
	errs := make([]error, len(reqs))
	nw := runtime.GOMAXPROCS(0)
	if nw > len(reqs) {
		nw = len(reqs)
	}
	if nw <= 1 {
		for i, req := range reqs {
			plans[i], errs[i] = s.Plan(req)
		}
	} else {
		var wg sync.WaitGroup
		var next atomic.Int64
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(reqs) {
						return
					}
					plans[i], errs[i] = s.Plan(reqs[i])
				}
			}()
		}
		wg.Wait()
	}
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, &SlotError{Slot: i, Err: err})
		}
	}
	return plans, errors.Join(failed...)
}

// SlotError is one failed slot of Session.PlanBatch: the joined error
// PlanBatch returns holds one *SlotError per failed request, in slot order,
// so a caller reads each slot's cause without planning it again.
type SlotError struct {
	// Slot is the index of the failed request.
	Slot int
	// Err is the error Plan returned for it.
	Err error
}

// Error reads "request <slot>: <cause>"; the cause carries the package
// prefix already.
func (e *SlotError) Error() string { return fmt.Sprintf("request %d: %v", e.Slot, e.Err) }

// Unwrap returns the slot's cause, for errors.Is and errors.As.
func (e *SlotError) Unwrap() error { return e.Err }

// Execute runs the plan message-by-message (segment-by-segment for
// pipelined plans) on the discrete-event virtual grid and returns the
// measured result. The network configuration comes from the plan's WithNet
// option; an explicit net argument overrides it. With an ideal network the
// measured makespan matches the plan's prediction.
func (s *Session) Execute(plan *Plan, net ...NetConfig) (*Result, error) {
	return s.ExecuteContext(nil, plan, net...)
}

// ExecuteContext is Execute with cooperative cancellation: the simulator
// checks ctx between event batches and the run returns ctx.Err() once it
// fires, so even degraded executions (retries, re-parenting) stop within
// one batch of the cancel. A nil ctx never cancels.
func (s *Session) ExecuteContext(ctx context.Context, plan *Plan, net ...NetConfig) (*Result, error) {
	if plan == nil || (plan.Schedule == nil && plan.Segmented == nil) {
		return nil, errors.New("gridbcast: Execute needs a plan holding a schedule")
	}
	if plan.owner != nil && plan.owner != s {
		return nil, errors.New("gridbcast: plan belongs to a different session; re-plan it against this platform (or use Session.Replan)")
	}
	// Plan literals carry no owner; catch schedules timed against a
	// platform of a different shape before they reach execution.
	if plan.Schedule != nil && len(plan.Schedule.RT) != s.g.N() {
		return nil, fmt.Errorf("gridbcast: plan schedules %d clusters, platform has %d", len(plan.Schedule.RT), s.g.N())
	}
	if plan.Segmented != nil && len(plan.Segmented.RT) != s.g.N() {
		return nil, fmt.Errorf("gridbcast: plan schedules %d clusters, platform has %d", len(plan.Segmented.RT), s.g.N())
	}
	opt := mpi.Options{IntraShape: intracluster.Binomial, Overlap: plan.Overlap, Ctx: ctx}
	if len(net) > 0 {
		opt.Net = net[0]
	} else if plan.netSet {
		opt.Net = plan.net
	}
	if plan.Segmented != nil {
		return mpi.ExecuteSegmentedSchedule(s.g, plan.Segmented, opt)
	}
	return mpi.ExecuteSchedule(s.g, plan.Schedule, plan.Size, opt)
}

// ExecuteBinomial executes the grid-unaware binomial broadcast (the
// "default MPI" baseline of the paper's Figure 6) and returns the measured
// result.
func (s *Session) ExecuteBinomial(root int, size int64, net ...NetConfig) (*Result, error) {
	return s.ExecuteBinomialContext(nil, root, size, net...)
}

// ExecuteBinomialContext is ExecuteBinomial with cooperative cancellation
// (see ExecuteContext).
func (s *Session) ExecuteBinomialContext(ctx context.Context, root int, size int64, net ...NetConfig) (*Result, error) {
	if err := s.validateRootSize(root, size); err != nil {
		return nil, err
	}
	opt := mpi.Options{Ctx: ctx}
	if len(net) > 0 {
		opt.Net = net[0]
	}
	return mpi.ExecuteBinomialGridUnaware(s.g, root, size, opt)
}

// Replan absorbs a measured single-cluster platform drift into an existing
// plan: the drifted platform reuses the costs resident in the session's
// store outside the changed row/column (topology.PatchCosts), and plans
// that recorded a construction trace (WithReplan) replay it in
// O(affected receivers) instead of rebuilding (sched.Replanner); everything
// else re-plans the stored request from scratch on the drifted platform.
// Either way the returned plan is byte-identical (timing statistics aside)
// to what Session.Plan on a freshly drifted platform would build — drift
// absorption never changes the answer, only its cost. Returns the drifted
// session alongside the plan; the input session and plan are unchanged.
//
// On a session with a plan cache, Replan additionally migrates the cached
// set instead of flushing it: every resident plan of a replayable shape (a
// pinned ECEF-family heuristic, unsegmented, unrefined) is carried onto the
// drifted platform — replayed through one shared replanner when it holds a
// trace, rebuilt from its stored request when it does not — and re-keyed
// under the drifted fingerprint in the returned session's cache, preserving
// recency order and counting in CacheStats.Migrated. The platform clone and
// cost patch are paid once for the whole set. A replayed plan carries no
// trace of its own, so the next drift rebuilds it (a rebuild records a
// fresh trace only for a WithReplan request); either way every replayable
// entry is migrated again on every later drift. Every other entry (best-of
// selection, segmented, pipelined, refined, non-ECEF heuristics) is dropped
// and rebuilds on demand.
//
// The plan must have been produced by this session's Plan (hand-built
// literals and Session.Refine outputs carry no request to re-plan).
func (s *Session) Replan(old *Plan, d PlatformDelta) (*Session, *Plan, error) {
	if old == nil || old.owner == nil {
		return nil, nil, errors.New("gridbcast: Replan needs a plan produced by Session.Plan")
	}
	if old.owner != s {
		return nil, nil, errors.New("gridbcast: plan belongs to a different session")
	}
	ng, err := s.g.ApplyDelta(d)
	if err != nil {
		return nil, nil, err
	}
	// ApplyDelta preserves platform validity (positive scales on validated
	// parameters), so the drifted session skips NewSession's re-validation.
	topology.PatchCosts(s.g, ng, d.Cluster)
	ns := &Session{g: ng, cacheCap: s.cacheCap}
	rpl := sched.NewReplanner()
	if s.cache != nil {
		ns.cache = plancache.New(ns.cacheCap)
		// Snapshot the resident plans most-recent first, then migrate from
		// the LRU end up so re-adding preserves the recency order. The
		// snapshot is taken before any replay because Range holds the cache
		// lock.
		var resident []*Plan
		s.cache.Range(func(_ string, v any) bool {
			resident = append(resident, v.(*Plan))
			return true
		})
		for i := len(resident) - 1; i >= 0; i-- {
			if mpl := ns.migratePlan(resident[i], d.Cluster, rpl); mpl != nil {
				ns.cache.Add(ns.requestKey(mpl.req), mpl, true)
			}
		}
	}
	req := old.req
	if ns.cache != nil && !req.nocache {
		// The migration loop above already carried a cache-resident old
		// plan across; serve that copy instead of replaying twice.
		if v, ok := ns.cache.Get(ns.requestKey(req)); ok {
			return ns, v.(*Plan), nil
		}
	}
	if mpl := ns.replayPlan(old, d.Cluster, rpl); mpl != nil {
		if ns.cache != nil && !req.nocache {
			ns.cache.Add(ns.requestKey(req), mpl, true)
		}
		return ns, mpl, nil
	}
	// No applicable trace (or problem construction error): full re-plan,
	// which surfaces any real error — and, on a caching session, seeds the
	// migrated cache with the fresh build.
	pl, err := ns.Plan(req)
	if err != nil {
		return nil, nil, err
	}
	return ns, pl, nil
}

// migratePlan carries one cache-resident plan onto this (drifted)
// session's platform: a traced plan is replayed (replayPlan), an untraced
// plan of a replayable shape is rebuilt from its stored request, and any
// other plan returns nil (the caller drops the entry). Either way the
// result is a fresh immutable plan owned by this session, bit-identical to
// a from-scratch build on the drifted platform.
func (ns *Session) migratePlan(old *Plan, changed int, rpl *sched.Replanner) *Plan {
	if mpl := ns.replayPlan(old, changed, rpl); mpl != nil || !replayable(old.req) {
		return mpl
	}
	pl, err := ns.planUncached(old.req)
	if err != nil {
		return nil
	}
	return pl
}

// replayPlan replays one traced plan onto this (drifted) session's
// platform through the shared replanner, returning a fresh immutable plan
// owned by this session, or nil when the plan carries no applicable trace.
// The replayed schedule is bit-identical to a from-scratch build on the
// drifted platform.
func (ns *Session) replayPlan(old *Plan, changed int, rpl *sched.Replanner) *Plan {
	if old.trace == nil || old.Schedule == nil {
		return nil
	}
	start := time.Now()
	req := old.req
	p, err := sched.NewProblem(ns.g, req.root, req.size, sched.Options{Overlap: req.overlap})
	if err != nil {
		return nil
	}
	sc := rpl.Replan(p, old.Schedule, old.trace, changed)
	if sc == nil {
		return nil
	}
	return &Plan{
		Heuristic: sc.Heuristic,
		Root:      req.root, Size: req.size,
		Schedule: sc, K: 1,
		Makespan: sc.Makespan,
		Overlap:  req.overlap,
		net:      req.net, netSet: req.netSet,
		owner: ns, req: req,
		// The replay produces no trace of its own; a further drift rebuilds
		// this plan from its stored request (recording a fresh trace when
		// the request asked for one).
		Stats: BuildStats{Duration: time.Since(start), Schedules: 1},
	}
}

// Refine improves an unsegmented plan's schedule by local search, sweeping
// at most budget rounds (budget <= 0 sweeps until a local optimum), and
// returns a new Plan holding the refined schedule; the input plan is not
// modified — copy-on-write, so refining a cache-resident plan leaves the
// cached entry (schedule, trace, ownership) untouched for later hits.
// Refinement re-times candidates under the plan's own completion model
// (WithOverlap carries through), so the result is never worse than the
// input. ctx cancels between sweeps.
func (s *Session) Refine(ctx context.Context, plan *Plan, budget int) (*Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if plan == nil || plan.Schedule == nil {
		return nil, errors.New("gridbcast: Refine needs a plan holding an unsegmented schedule")
	}
	if err := s.validateRootSize(plan.Root, plan.Size); err != nil {
		return nil, err
	}
	p, err := sched.NewProblem(s.g, plan.Root, plan.Size, sched.Options{Overlap: plan.Overlap})
	if err != nil {
		return nil, err
	}
	sc, err := sched.RefineContext(ctx, p, plan.Schedule, budget)
	if err != nil {
		return nil, err
	}
	// The refined schedule is not the traced one, and the output no longer
	// matches any stored request shape, so trace, owner and request stay
	// unset: Replan rejects it (re-plan with WithRefine + WithReplan to
	// keep a drift-absorbing refined plan). The wire memo starts empty.
	return &Plan{
		Heuristic: sc.Heuristic,
		Root:      plan.Root, Size: plan.Size,
		Schedule: sc, Segmented: plan.Segmented,
		SegSize: plan.SegSize, K: plan.K,
		LocalSegmented: plan.LocalSegmented,
		Makespan:       sc.Makespan,
		Candidates:     plan.Candidates,
		Overlap:        plan.Overlap,
		Stats:          plan.Stats,
		net:            plan.net, netSet: plan.netSet,
	}, nil
}
