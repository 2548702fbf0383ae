package sched

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gridbcast/internal/intracluster"
	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// TestEnginePoolMatchesEngine pins the pool's contract: schedules from one
// reused pool are bit-identical to the naive reference pickers, across
// heuristics, roots, sizes and repeated reuse of the same pool.
func TestEnginePoolMatchesEngine(t *testing.T) {
	ep := NewEnginePool()
	g := topology.Grid5000()
	for _, m := range []int64{1 << 10, 1 << 20, 9 << 20} {
		for root := 0; root < g.N(); root++ {
			p := MustProblem(g, root, m, Options{})
			for _, h := range append(equivalenceHeuristics(), Mixed{}) {
				assertIdentical(t, h.Name(), ep.Schedule(h, p), Reference{Base: h}.Schedule(p))
			}
		}
	}
	// Random platforms of varying sizes force buffer regrowth between
	// schedules; repeat each problem to exercise the warm-template path.
	for trial := 0; trial < 12; trial++ {
		r := stats.NewRand(stats.SplitSeed(31, int64(trial)))
		n := 2 + r.Intn(50)
		g := topology.RandomGrid(r, n)
		p := MustProblem(g, r.Intn(n), 1<<20, Options{Overlap: trial%2 == 0})
		for _, h := range equivalenceHeuristics() {
			for rep := 0; rep < 2; rep++ {
				assertIdentical(t, h.Name(), ep.Schedule(h, p), Reference{Base: h}.Schedule(p))
			}
		}
	}
}

// TestEnginePoolTemplatesAreRootIndependent verifies the headline reuse: one
// lookahead template per (platform, size, kind) serves every root, so a full
// root rotation builds no more templates than a single root does.
func TestEnginePoolTemplatesAreRootIndependent(t *testing.T) {
	ep := NewEnginePool()
	g := topology.Grid5000()
	for root := 0; root < g.N(); root++ {
		p := MustProblem(g, root, 1<<20, Options{})
		for _, h := range ECEFFamily() {
			ep.Schedule(h, p)
		}
	}
	// ECEF has no lookahead; LA, LAt and LAT contribute one kind each.
	if len(ep.templates) != 3 {
		t.Fatalf("root rotation built %d templates, want 3", len(ep.templates))
	}
}

// TestEnginePoolTemplateInvalidation pins the T guard: the same W matrix
// with different local broadcast times (another intra-cluster tree shape)
// must rebuild the -LAt/-LAT templates rather than reuse stale entries.
func TestEnginePoolTemplateInvalidation(t *testing.T) {
	ep := NewEnginePool()
	g := topology.Grid5000()
	pBin := MustProblem(g, 0, 1<<20, Options{IntraShape: intracluster.Binomial})
	pFlat := MustProblem(g, 0, 1<<20, Options{IntraShape: intracluster.Flat})
	if floatsEqual(pBin.T, pFlat.T) {
		t.Fatal("test premise broken: shapes predict identical T")
	}
	for _, p := range []*Problem{pBin, pFlat} {
		for _, h := range []Heuristic{ECEFLAt(), ECEFLAT()} {
			assertIdentical(t, h.Name(), ep.Schedule(h, p), Reference{Base: h}.Schedule(p))
		}
	}
}

// descending is a custom heuristic with neither an incremental engine nor
// a naive picker: the root sends to every other cluster in descending
// index order. Reference panics on it.
type descending struct{}

func (descending) Name() string { return "descending" }

func (descending) Schedule(p *Problem) *Schedule {
	var pairs [][2]int
	for j := p.N - 1; j >= 0; j-- {
		if j != p.Root {
			pairs = append(pairs, [2]int{p.Root, j})
		}
	}
	return Replay(p, pairs)
}

// TestEnginePoolFallback covers heuristics without pooled engines: they
// delegate to their own Schedule. Segmented builds re-time that
// unsegmented tree (h.Schedule, not Reference, which panics on Optimal and
// custom heuristics) under the per-segment model.
func TestEnginePoolFallback(t *testing.T) {
	ep := NewEnginePool()
	p := MustProblem(topology.RandomGrid(stats.NewRand(3), 9), 0, 1<<20, Options{})
	h := Refined{Base: ECEFLA(), MaxRounds: 1}
	assertIdentical(t, h.Name(), ep.Schedule(h, p), h.Schedule(p))

	sp := MustSegmentedProblem(topology.RandomGrid(stats.NewRand(3), 9), 0, 1<<20, 256<<10, Options{})
	for _, h := range []Heuristic{Optimal{}, Refined{Base: ECEFLA(), MaxRounds: 1}, descending{}} {
		want := EvaluateSegmented(sp, pairsOf(h.Schedule(sp.Problem)))
		want.Heuristic = h.Name()
		assertSegIdentical(t, h.Name(), ep.ScheduleSegmented(h, sp), want)
		assertSegIdentical(t, h.Name(), ScheduleSegmented(h, sp), want)
	}
}

// TestPooledScheduleParallelCallers drives Heuristic.Schedule and
// ScheduleSegmented, which share the package's pool of engine pools, from
// 8 goroutines at once, on small and large platforms. Every build must
// equal its sequential counterpart; run under -race it also pins that no
// two callers ever share a checked-out pool.
func TestPooledScheduleParallelCallers(t *testing.T) {
	type job struct {
		h  Heuristic
		p  *Problem
		sp *SegmentedProblem
		sc *Schedule
		ss *SegmentedSchedule
	}
	var jobs []job
	for _, n := range []int{9, 64, 200} {
		g := topology.RandomGrid(stats.NewRand(int64(n)), n)
		p := MustProblem(g, 1, 1<<20, Options{Overlap: true})
		sp := MustSegmentedProblem(g, 1, 1<<20, 256<<10, Options{Overlap: true})
		for _, h := range segmentedHeuristics() {
			jobs = append(jobs, job{h: h, p: p, sp: sp, sc: h.Schedule(p), ss: ScheduleSegmented(h, sp)})
		}
	}
	const callers = 8
	errs := make(chan string, callers*len(jobs))
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range jobs {
				jb := jobs[(k+c)%len(jobs)]
				if !reflect.DeepEqual(jb.h.Schedule(jb.p), jb.sc) {
					errs <- fmt.Sprintf("%s n=%d: concurrent Schedule diverges", jb.h.Name(), jb.p.N)
				}
				if !reflect.DeepEqual(ScheduleSegmented(jb.h, jb.sp), jb.ss) {
					errs <- fmt.Sprintf("%s n=%d: concurrent ScheduleSegmented diverges", jb.h.Name(), jb.p.N)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestEnginePoolCachesBoundedByBytes builds ECEF-LA schedules at 40
// distinct sizes on a 512-cluster platform: each size brings a new W, so a
// new 4 MB lookahead template, and the pool's caches must stay within
// poolBudget while the schedules stay identical to a fresh pool's.
func TestEnginePoolCachesBoundedByBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("512-cluster builds")
	}
	g := topology.RandomSizedGrid(stats.NewRand(3), 512)
	ep := NewEnginePool()
	h := ECEFLA()
	for k := 0; k < 40; k++ {
		p := MustProblem(g, k%g.N(), int64(1<<20+k*4096), Options{})
		got := ep.Schedule(h, p)
		if ep.cacheBytes > poolBudget {
			t.Fatalf("size %d: pool caches hold %d bytes, budget %d", k, ep.cacheBytes, poolBudget)
		}
		if k%13 == 0 {
			assertIdentical(t, h.Name(), got, NewEnginePool().Schedule(h, p))
		}
	}
	var sum int64
	for _, e := range ep.templates {
		sum += e.bytes
	}
	if sum != ep.cacheBytes || len(ep.templates) >= 40 {
		t.Errorf("%d templates of %d bytes resident, counted %d", len(ep.templates), sum, ep.cacheBytes)
	}
}
