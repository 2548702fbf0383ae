package gridbcast_test

// Facade plan-cache contract tests: hits are byte-identical to fresh
// builds, concurrent misses collapse to one build, eviction and
// invalidation retire entries, Refine copies on write, and Replan migrates
// the cached set onto the drifted platform byte-identically (DESIGN.md
// §12).

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	gridbcast "gridbcast"
	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// cacheSession wraps NewSession(g, WithPlanCache(capacity)) with the test
// boilerplate.
func cacheSession(t *testing.T, g *gridbcast.Grid, capacity int) *gridbcast.Session {
	t.Helper()
	s, err := gridbcast.NewSession(g, gridbcast.WithPlanCache(capacity))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCacheHitMatchesUncachedPlan: across request shapes — best-of
// selection, pinned heuristics, segmentation, pipelining, refinement,
// completion models — the cached session's plan content equals the default
// session's, and a repeated request returns the resident pointer without a
// second build.
func TestCacheHitMatchesUncachedPlan(t *testing.T) {
	g := gridbcast.Grid5000()
	cached := cacheSession(t, g, 64)
	plain, err := gridbcast.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[string]gridbcast.Request{
		"best-of": gridbcast.NewRequest(gridbcast.WithSize(1 << 20)),
		"pinned": gridbcast.NewRequest(
			gridbcast.WithHeuristic(gridbcast.ECEFLAT), gridbcast.WithSize(1<<20), gridbcast.WithRoot(2)),
		"segmented": gridbcast.NewRequest(
			gridbcast.WithHeuristic(gridbcast.ECEFLAT), gridbcast.WithSize(1<<20), gridbcast.WithSegments(1<<18)),
		"pipelined": gridbcast.NewRequest(
			gridbcast.WithHeuristic(gridbcast.ECEFLA), gridbcast.WithSize(1<<20), gridbcast.WithPipelined()),
		"refined": gridbcast.NewRequest(
			gridbcast.WithHeuristic(gridbcast.FEF), gridbcast.WithSize(1<<20), gridbcast.WithRefine(2)),
		"overlap": gridbcast.NewRequest(
			gridbcast.WithHeuristic(gridbcast.ECEF), gridbcast.WithSize(1<<20), gridbcast.WithOverlap(true)),
	}
	misses := uint64(0)
	for name, req := range shapes {
		want, err := plain.Plan(req)
		if err != nil {
			t.Fatalf("%s: uncached plan: %v", name, err)
		}
		got, err := cached.Plan(req)
		if err != nil {
			t.Fatalf("%s: cached plan: %v", name, err)
		}
		planContent(t, name, got, want)
		misses++
		again, err := cached.Plan(req)
		if err != nil {
			t.Fatalf("%s: cache hit: %v", name, err)
		}
		if again != got {
			t.Fatalf("%s: hit returned a different plan object", name)
		}
		st := cached.CacheStats()
		if st.Misses != misses {
			t.Fatalf("%s: %d misses, want %d (hit rebuilt)", name, st.Misses, misses)
		}
	}
	if st := cached.CacheStats(); st.Hits != uint64(len(shapes)) {
		t.Fatalf("stats %+v: want %d hits", st, len(shapes))
	}
}

// TestCacheSingleflightCollapse: many goroutines racing one request on a
// fresh cached session observe exactly one build; every caller shares the
// builder's plan. Runs under -race in CI (facade race + chaos jobs).
func TestCacheSingleflightCollapse(t *testing.T) {
	const workers = 16
	sess := cacheSession(t, gridbcast.Grid5000(), 8)
	req := gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.ECEFLAT), gridbcast.WithSize(1<<20))
	plans := make([]*gridbcast.Plan, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pl, err := sess.Plan(req)
			if err != nil {
				t.Error(err)
			}
			plans[w] = pl
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if plans[w] != plans[0] {
			t.Fatalf("worker %d got a different plan object", w)
		}
	}
	st := sess.CacheStats()
	if st.Misses != 1 || st.Hits+st.Collapsed != workers-1 {
		t.Fatalf("stats %+v: want 1 miss and %d hits+collapsed", st, workers-1)
	}
	if built := plans[0].Stats.Schedules; built != 1 {
		t.Fatalf("shared plan built %d schedules, want 1", built)
	}
}

// TestWithNoCacheBypass: a WithNoCache request builds fresh, touches no
// counters, and leaves no resident entry behind.
func TestWithNoCacheBypass(t *testing.T) {
	sess := cacheSession(t, gridbcast.Grid5000(), 8)
	req := gridbcast.NewRequest(
		gridbcast.WithHeuristic(gridbcast.ECEFLAT), gridbcast.WithSize(1<<20), gridbcast.WithNoCache())
	a, err := sess.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("WithNoCache returned a shared plan")
	}
	planContent(t, "nocache", a, b)
	if st := sess.CacheStats(); st != (gridbcast.CacheStats{}) {
		t.Fatalf("WithNoCache moved the counters: %+v", st)
	}
}

// TestRefusedSegmentCountSkipsCache: a segmented request whose segment
// count exceeds sched.MaxSegments is refused by validation, before the plan
// cache keys or counts it, through Plan and PlanBatch alike.
func TestRefusedSegmentCountSkipsCache(t *testing.T) {
	sess := cacheSession(t, gridbcast.Grid5000(), 8)
	req := gridbcast.NewRequest(gridbcast.WithSize(1<<20), gridbcast.WithSegments(1))
	if _, err := sess.Plan(req); err == nil || !strings.Contains(err.Error(), "segments") {
		t.Fatalf("Plan error %v, want the segment-count refusal", err)
	}
	if _, err := sess.PlanBatch([]gridbcast.Request{req}); err == nil {
		t.Fatal("PlanBatch accepted an oversized segment count")
	}
	if st := sess.CacheStats(); st != (gridbcast.CacheStats{}) {
		t.Fatalf("refused request moved the counters: %+v", st)
	}
	// The largest admitted count still plans.
	if _, err := sess.Plan(gridbcast.NewRequest(gridbcast.WithSize(1<<20), gridbcast.WithSegments(128))); err != nil {
		t.Fatalf("8192 segments refused: %v", err)
	}
}

// TestPlanBatchCollapsesDuplicates: a batch full of duplicate requests
// builds each distinct key once, and every slot's content is identical at
// any GOMAXPROCS.
func TestPlanBatchCollapsesDuplicates(t *testing.T) {
	g := gridbcast.RandomGrid(9, 12)
	reqs := make([]gridbcast.Request, 24)
	for i := range reqs {
		reqs[i] = gridbcast.NewRequest(
			gridbcast.WithHeuristic(gridbcast.ECEFLAT),
			gridbcast.WithSize(1<<20),
			gridbcast.WithRoot(i%3)) // 3 distinct keys, 8 duplicates each
	}
	var want []*gridbcast.Plan
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		sess := cacheSession(t, g, 16)
		plans, err := sess.PlanBatch(reqs)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if st := sess.CacheStats(); st.Misses != 3 {
			t.Fatalf("GOMAXPROCS %d: %d misses, want 3 (duplicates rebuilt)", procs, st.Misses)
		}
		for i, pl := range plans {
			if pl == nil {
				t.Fatalf("GOMAXPROCS %d: slot %d nil", procs, i)
			}
			if plans[i%3] != pl {
				t.Fatalf("GOMAXPROCS %d: duplicate slot %d not collapsed", procs, i)
			}
		}
		if want == nil {
			want = plans[:3]
			continue
		}
		for i := 0; i < 3; i++ {
			planContent(t, "batch", plans[i], want[i])
			if !reflect.DeepEqual(plans[i].Schedule, want[i].Schedule) {
				t.Fatalf("GOMAXPROCS %d: slot %d schedule bytes diverge", procs, i)
			}
		}
	}
}

// TestCacheLRUEviction: requests beyond the capacity evict the least
// recently used plan, and re-requesting it rebuilds.
func TestCacheLRUEviction(t *testing.T) {
	sess := cacheSession(t, gridbcast.Grid5000(), 2)
	req := func(root int) gridbcast.Request {
		return gridbcast.NewRequest(
			gridbcast.WithHeuristic(gridbcast.ECEF), gridbcast.WithSize(1<<16), gridbcast.WithRoot(root))
	}
	for root := 0; root < 3; root++ {
		if _, err := sess.Plan(req(root)); err != nil {
			t.Fatal(err)
		}
	}
	st := sess.CacheStats()
	if st.Evicted != 1 || st.Misses != 3 {
		t.Fatalf("stats %+v: want 1 eviction over 3 misses", st)
	}
	// Root 0 was evicted; root 2 is resident.
	if _, err := sess.Plan(req(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Plan(req(0)); err != nil {
		t.Fatal(err)
	}
	st = sess.CacheStats()
	if st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("stats %+v: want the evicted key to rebuild and the resident one to hit", st)
	}
}

// TestInvalidateCache: bumping the generation retires every resident plan —
// the same request misses, rebuilds, and the rebuilt content matches.
func TestInvalidateCache(t *testing.T) {
	sess := cacheSession(t, gridbcast.Grid5000(), 8)
	req := gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.ECEFLAT), gridbcast.WithSize(1<<20))
	a, err := sess.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	sess.InvalidateCache()
	b, err := sess.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("invalidated entry served")
	}
	planContent(t, "invalidate", a, b)
	if st := sess.CacheStats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats %+v: want 2 misses, 0 hits", st)
	}
}

// TestRefineCachedPlanCopyOnWrite is the regression for refining a
// cache-resident plan: Refine returns a fresh improved plan, while the
// resident entry — pointer, schedule bytes, replan eligibility — is
// untouched and keeps serving hits.
func TestRefineCachedPlanCopyOnWrite(t *testing.T) {
	g := gridbcast.RandomGrid(41, 9)
	sess := cacheSession(t, g, 8)
	req := gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.FlatTree), gridbcast.WithSize(1<<20))
	cachedPlan, err := sess.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	scheduleBefore := *cachedPlan.Schedule
	eventsBefore := append(scheduleBefore.Events[:0:0], scheduleBefore.Events...)
	// Fill the cached plan's wire memo: the refined copy must not inherit
	// bytes that encode the unrefined schedule.
	if _, err := cachedPlan.WireBytes(func() ([]byte, error) { return []byte("cached"), nil }); err != nil {
		t.Fatal(err)
	}

	refined, err := sess.Refine(nil, cachedPlan, 0)
	if err != nil {
		t.Fatal(err)
	}
	if refined == cachedPlan || refined.Schedule == cachedPlan.Schedule {
		t.Fatal("Refine returned the cached object")
	}
	if refined.Root != cachedPlan.Root || refined.Size != cachedPlan.Size || refined.K != cachedPlan.K {
		t.Fatalf("refined plan dropped request fields: %+v", refined)
	}
	if b, _ := refined.WireBytes(func() ([]byte, error) { return []byte("fresh"), nil }); string(b) != "fresh" {
		t.Fatalf("refined plan inherited the cached plan's wire memo %q", b)
	}
	if refined.Makespan > cachedPlan.Makespan {
		t.Fatalf("refinement regressed: %g > %g", refined.Makespan, cachedPlan.Makespan)
	}

	again, err := sess.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if again != cachedPlan {
		t.Fatal("refining evicted or replaced the cached entry")
	}
	if again.Schedule.Makespan != scheduleBefore.Makespan ||
		!reflect.DeepEqual(again.Schedule.Events, eventsBefore) {
		t.Fatal("refining mutated the cached schedule")
	}
	// The cached entry still migrates: it kept its trace and ownership.
	d := gridbcast.PlatformDelta{Cluster: 1, OutGapScale: 2}
	if _, _, err := sess.Replan(cachedPlan, d); err != nil {
		t.Fatalf("cached plan lost replan eligibility after Refine: %v", err)
	}
	// The refined copy is detached (no owner) and Replan rejects it.
	if _, _, err := sess.Replan(refined, d); err == nil {
		t.Fatal("Replan accepted a refined (detached) plan")
	}
}

// cacheDriftSet mirrors the sched golden drifts at the facade: slower
// out-links, faster+slower in-links, a changed local broadcast time, and
// the identity drift.
func cacheDriftSet(c int) []gridbcast.PlatformDelta {
	return []gridbcast.PlatformDelta{
		{Cluster: c, OutGapScale: 5},
		{Cluster: c, InGapScale: 0.2, InLatScale: 3},
		{Cluster: c, OutLatScale: 2.5, BcastTime: 1.5},
		{Cluster: c},
	}
}

// TestReplanMigratesCache is the drift-migration contract over the golden
// drift set: Replan carries every traced resident plan onto the drifted
// platform, each migrated plan is byte-identical to planning from scratch
// there, hits on the drifted session need no rebuild, and untraced
// entries (best-of selection) are dropped and rebuilt on demand.
func TestReplanMigratesCache(t *testing.T) {
	r := stats.NewRand(23)
	grids := []*gridbcast.Grid{
		gridbcast.Grid5000(),
		topology.RandomClusteredGrid(r, 5),
		topology.RandomGrid(r, 12),
	}
	for _, g := range grids {
		tracedReqs := []gridbcast.Request{
			gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.ECEFLAT), gridbcast.WithSize(1<<20)),
			gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.ECEFLA), gridbcast.WithSize(1<<20),
				gridbcast.WithRoot(g.N()-1)),
			gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.ECEF), gridbcast.WithSize(1<<18),
				gridbcast.WithOverlap(true)),
		}
		bestOf := gridbcast.NewRequest(gridbcast.WithSize(1 << 20))
		for _, d := range cacheDriftSet(g.N() - 1) {
			sess := cacheSession(t, g, 32)
			for _, req := range tracedReqs {
				if _, err := sess.Plan(req); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sess.Plan(bestOf); err != nil {
				t.Fatal(err)
			}
			anchor, err := sess.Plan(tracedReqs[0])
			if err != nil {
				t.Fatal(err)
			}

			ns, migrated, err := sess.Replan(anchor, d)
			if err != nil {
				t.Fatalf("delta %+v: %v", d, err)
			}
			st := ns.CacheStats()
			if st.Migrated != uint64(len(tracedReqs)) {
				t.Fatalf("delta %+v: migrated %d entries, want %d", d, st.Migrated, len(tracedReqs))
			}
			if ns.Fingerprint() == sess.Fingerprint() && d != (gridbcast.PlatformDelta{Cluster: g.N() - 1}) {
				t.Fatalf("delta %+v: drifted fingerprint unchanged", d)
			}

			// Scratch reference on the same drifted platform.
			scratch, err := gridbcast.NewSession(ns.Grid())
			if err != nil {
				t.Fatal(err)
			}
			for i, req := range tracedReqs {
				want, err := scratch.Plan(req)
				if err != nil {
					t.Fatal(err)
				}
				before := ns.CacheStats()
				got, err := ns.Plan(req)
				if err != nil {
					t.Fatal(err)
				}
				after := ns.CacheStats()
				if after.Misses != before.Misses {
					t.Fatalf("delta %+v req %d: migrated entry missed (rebuilt)", d, i)
				}
				planContent(t, "migrated", got, want)
				if !reflect.DeepEqual(got.Schedule, want.Schedule) {
					t.Fatalf("delta %+v req %d: migrated schedule not byte-identical to scratch", d, i)
				}
				if i == 0 {
					planContent(t, "replan-return", migrated, want)
				}
			}
			// The untraced best-of entry was dropped; it rebuilds on demand
			// with content identical to scratch.
			before := ns.CacheStats()
			got, err := ns.Plan(bestOf)
			if err != nil {
				t.Fatal(err)
			}
			if after := ns.CacheStats(); after.Misses != before.Misses+1 {
				t.Fatalf("delta %+v: best-of entry survived migration without a trace", d)
			}
			want, err := scratch.Plan(bestOf)
			if err != nil {
				t.Fatal(err)
			}
			planContent(t, "best-of rebuild", got, want)
		}
	}
}

// TestFingerprintStability: sessions on equal-cost platforms share a
// fingerprint; a drift moves it.
func TestFingerprintStability(t *testing.T) {
	g := gridbcast.Grid5000()
	a, err := gridbcast.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	b := cacheSession(t, gridbcast.Grid5000(), 4)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal platforms, different fingerprints")
	}
	plan, err := b.Plan(gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.ECEFLAT), gridbcast.WithSize(1<<20)))
	if err != nil {
		t.Fatal(err)
	}
	ns, _, err := b.Replan(plan, gridbcast.PlatformDelta{Cluster: 0, OutGapScale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ns.Fingerprint() == b.Fingerprint() {
		t.Fatal("drifted platform kept the fingerprint")
	}
}

// TestCachedPlanExecutes: plans served from the cache (including migrated
// ones) stay executable on their owning session.
func TestCachedPlanExecutes(t *testing.T) {
	sess := cacheSession(t, gridbcast.Grid5000(), 4)
	req := gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.ECEFLAT), gridbcast.WithSize(1<<20))
	plan, err := sess.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := sess.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Execute(hit)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("executed makespan %g", res.Makespan)
	}
	ns, migrated, err := sess.Replan(plan, gridbcast.PlatformDelta{Cluster: 1, OutGapScale: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Execute(migrated); err != nil {
		t.Fatalf("migrated plan rejected by its own session: %v", err)
	}
	if _, err := sess.Execute(migrated); err == nil {
		t.Fatal("old session executed a drifted plan")
	}
}
