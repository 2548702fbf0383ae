package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	gridbcast "gridbcast"
	"gridbcast/internal/topology"
	"gridbcast/internal/vnet"
)

// The simulate workload is the researcher's path: a single-goroutine sweep
// over seeded Table 2 platforms that plans through the gridbcast facade and
// executes every plan on the discrete-event simulator (mpi over vnet and
// sim), strict, jittered, pipelined, under faults and under the overlap
// completion model.

const (
	// simCombos is the combo cycle: for each n = 8..64 in steps of 8,
	// three Table 2 RandomGrid platforms and one RandomClusteredGrid.
	// Table 2 platforms are the majority so that the median execution
	// sits inside their (cheap, smooth) cost range rather than on the gap
	// between the two kinds. A run ends on a whole cycle, so every run
	// holds the same mix.
	simCombos = 32
	// simPlatforms is the platform list's length, four draws per combo.
	// Instance i runs on a fresh clone of entry i mod simPlatforms.
	simPlatforms = 4 * simCombos
	// simJitterRuns is how many jittered executions of the strict plan an
	// instance makes (a small Monte-Carlo over jitter seeds).
	simJitterRuns = 4
	// simPrefix is how many leading instances the exact figures (fault
	// counters, overlap gap) are taken over, so they do not depend on how
	// many instances a run completes.
	simPrefix = 64
	// simHeapAt is the instance count after which the live heap is probed.
	simHeapAt = 32
	// simBlock is the instances between gauge readings (gauge.go).
	simBlock = 4
	simSize  = 1 << 20
	simSegSz = 16 << 20
	// simLocalSeg is the clustered platforms' segment size. On platforms
	// with real local trees the ladder prices every rung's per-segment
	// local model, O(nodes x K) up to K = 4096, which costs as much as the
	// simulation and varies with the rung that wins; fixed 1 MiB segments
	// (K = 16) keep the simulator the dominant and steady cost there.
	simLocalSeg = 1 << 20
	// strictTol and strictSegTol bound |simulated - predicted| / predicted
	// for strict-model plans: the simulator sums the same terms in event
	// order, so they agree to rounding (the repository's own tests use
	// 1e-9 for whole-message and 1e-8 for segmented plans). The largest
	// relative error seen is reported.
	strictTol    = 1e-9
	strictSegTol = 1e-8
)

// simGauge corrects simulate's times (gauge.go).
var simGauge = gauge{sensitivity: 0.7}

// checkStrict fails the instance when a strict execution misses its
// prediction by more than tol (relative), and tracks the largest error.
func (st *simStats) checkStrict(i int, what string, simulated, predicted, tol float64) {
	st.strictChecked++
	rel := math.Abs(simulated-predicted) / predicted
	if rel > st.strictMaxRel {
		st.strictMaxRel = rel
	}
	if !(rel <= tol) {
		st.fail("instance %d: %s simulated %.17g, predicted %.17g", i, what, simulated, predicted)
	}
}

// simPlatform is one entry of the platform list.
type simPlatform struct {
	g         *topology.Grid
	clustered bool
}

func genPlatforms(seed int64) []simPlatform {
	r := rand.New(rand.NewSource(seed))
	out := make([]simPlatform, simPlatforms)
	for j := range out {
		combo := j % simCombos
		n := 8 * (combo/4 + 1)
		if combo%4 < 3 {
			out[j] = simPlatform{g: topology.RandomGrid(r, n)}
		} else {
			out[j] = simPlatform{g: topology.RandomClusteredGrid(r, n), clustered: true}
		}
	}
	return out
}

// simStats is one simulate phase's record.
type simStats struct {
	instances     int
	failed        int64
	problems      []string
	log           *opLog // per instance; latencies per Execute
	heapMB        float64
	messages      int64
	execTime      time.Duration
	retries       int64
	reparents     int64
	lost          int64
	reached       int64
	nodes         int64
	overlapGaps   []float64
	shadowPlans   int
	shadowBuilds  int
	setups        []float64 // seconds per platform-list generation
	faultRuns     int
	jitterRuns    int
	strictChecked int
	strictMaxRel  float64
}

func (st *simStats) fail(format string, args ...any) {
	st.failed++
	if len(st.problems) < 5 {
		st.problems = append(st.problems, fmt.Sprintf(format, args...))
	}
}

// coordEndpoint is cluster c's coordinator endpoint under the executor's
// rank layout (clusters in order, coordinator first).
func coordEndpoint(g *topology.Grid, c int) int {
	e := 0
	for i := 0; i < c; i++ {
		e += g.Clusters[i].Nodes
	}
	return e
}

// faultPlan crashes a non-root coordinator halfway through the predicted
// broadcast and drops a few attempts on the first scheduled wide-area link.
func faultPlan(g *topology.Grid, pl *gridbcast.Plan, r *rand.Rand) *gridbcast.FaultPlan {
	n := g.N()
	crash := (pl.Root + 1 + r.Intn(n-1)) % n
	fp := &gridbcast.FaultPlan{
		Crashes: []vnet.Crash{{Node: coordEndpoint(g, crash), At: 0.5 * pl.Makespan}},
	}
	if sc := pl.Schedule; sc != nil && len(sc.Events) > 0 {
		ev := sc.Events[0]
		fp.Loss = []vnet.Loss{{From: coordEndpoint(g, ev.From), To: coordEndpoint(g, ev.To), Drops: r.Intn(6)}}
	}
	return fp
}

// shadowJob is a plan an instance built, to be decomposed after the
// instance's span closes so the decomposition stays outside it.
type shadowJob struct {
	parent, root uint64
	ps           planShape
}

// simPhase runs instances for dur (and at least simPrefix of them),
// tracing them on l when l is non-nil.
func simPhase(cfg config, dur time.Duration, l *lane) *simStats {
	st := &simStats{}
	var list []simPlatform
	for began := time.Now(); !setupDone(st.setups, began); {
		st.setups = append(st.setups, simGauge.timeSetup(func() { list = genPlatforms(cfg.seed) }))
	}

	var sh *shadower
	if l != nil {
		sh = newShadower(newCostSeen())
	}
	paper := gridbcast.Heuristics()
	st.log = newOpLog(simGauge, simBlock)
	for i := 0; i < simPrefix || i%simCombos != 0 || st.log.elapsed() < dur; i++ {
		base := list[i%len(list)]
		jobs := st.instance(cfg.seed, i, base.g.Clone(), base.clustered, paper[i%len(paper)], l)
		st.instances++
		st.log.end()
		if len(jobs) > 0 {
			g := base.g.Clone()
			for _, j := range jobs {
				sh.build(l, j.parent, j.root, g, j.ps, false)
			}
			sh.seen.forget(g)
		}
		if st.instances == simHeapAt {
			st.log.pause(func() { st.heapMB = liveHeapMB() })
		}
	}
	st.log.finish()
	if sh != nil {
		st.shadowPlans, st.shadowBuilds = sh.plans, sh.schedules
	}
	return st
}

// instance runs one platform's plans and executions and checks them. It
// returns the plans to decompose when traced.
func (st *simStats) instance(seed int64, i int, g *topology.Grid, clustered bool, pipeBase gridbcast.Heuristic, l *lane) []shadowJob {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	root := r.Intn(g.N())
	nodes := g.TotalNodes()
	reqID := l.newID()
	t0 := time.Now()
	defer func() { l.record(reqID, "instance", "measured", 0, reqID, t0, time.Now()) }()
	var jobs []shadowJob

	var s *gridbcast.Session
	var err error
	l.timed("gridbcast.session", reqID, reqID, func() { s, err = gridbcast.NewSession(g) })
	if err != nil {
		st.fail("instance %d: NewSession: %v", i, err)
		return nil
	}
	l.timed("topology.edgecosts", reqID, reqID, func() { g.EdgeCosts(simSize) })

	plan := func(ps planShape) *gridbcast.Plan {
		var pl *gridbcast.Plan
		id := l.newID()
		t := time.Now()
		pl, err = s.Plan(gridbcast.NewRequest(ps.options()...))
		l.record(id, "gridbcast.plan.built", "measured", reqID, reqID, t, time.Now())
		if err != nil {
			st.fail("instance %d: plan %+v: %v", i, ps, err)
			return nil
		}
		if l != nil {
			jobs = append(jobs, shadowJob{parent: id, root: reqID, ps: ps})
		}
		return pl
	}
	exec := func(span string, pl *gridbcast.Plan, net ...gridbcast.NetConfig) *gridbcast.Result {
		var res *gridbcast.Result
		t := time.Now()
		res, err = s.Execute(pl, net...)
		d := time.Since(t)
		l.record(l.newID(), span, "measured", reqID, reqID, t, t.Add(d))
		if err != nil {
			st.fail("instance %d: %s: %v", i, span, err)
			return nil
		}
		st.execTime += d
		st.log.lat = append(st.log.lat, float64(d)/1e6)
		st.messages += res.Messages
		return res
	}

	// Strict best-of plan at 1 MiB: the simulated makespan must equal the
	// prediction exactly.
	strict := plan(planShape{root: root, size: simSize})
	if strict == nil {
		return jobs
	}
	if res := exec("mpi.execute", strict); res != nil {
		st.checkStrict(i, "strict plan", res.Makespan, strict.Makespan, strictTol)
	}
	// Jittered executions: each must reach every node.
	jitter := func(pl *gridbcast.Plan) {
		if res := exec("mpi.execute_jitter", pl, gridbcast.NetConfig{Jitter: 0.1, Seed: r.Int63() + 1}); res != nil {
			st.jitterRuns++
			if res.NodesReached != nodes || !(res.Makespan > 0) {
				st.fail("instance %d: jittered run reached %d/%d nodes", i, res.NodesReached, nodes)
			}
		}
	}
	for k := 0; k < simJitterRuns; k++ {
		jitter(strict)
	}
	// Pipelined segmented-local 16 MiB plan: the segment-size ladder on
	// Table 2 platforms, fixed 1 MiB segments on clustered ones (see
	// simLocalSeg).
	segShape := planShape{heuristic: pipeBase, root: root, size: simSegSz, segLocal: true}
	if clustered {
		segShape.segSize = simLocalSeg
	} else {
		segShape.pipelined = true
	}
	if seg := plan(segShape); seg != nil {
		if res := exec("mpi.execute_seg", seg); res != nil {
			st.checkStrict(i, "pipelined plan", res.Makespan, seg.Makespan, strictSegTol)
		}
		jitter(seg)
	}
	// Every fourth instance, rotating over both kinds: the strict plan
	// under a seeded fault plan. The run must terminate; the counters are
	// exact.
	if i%4 == (i/4)%4 {
		fp := faultPlan(g, strict, r)
		if res := exec("mpi.execute_fault", strict, gridbcast.NetConfig{Faults: fp}); res != nil {
			st.faultRuns++
			if res.NodesReached > nodes {
				st.fail("instance %d: fault run reached %d of %d nodes", i, res.NodesReached, nodes)
			}
			if i < simPrefix {
				st.retries += res.Retries
				st.reparents += res.Reparents
				st.lost += res.Lost
				st.reached += int64(res.NodesReached)
				st.nodes += int64(nodes)
			}
		}
	}
	// Overlap-model plan: executed under the strict simulator, so the gap
	// to its prediction is the model error ROADMAP item 5 names.
	if ov := plan(planShape{heuristic: gridbcast.ECEFLAT, root: root, size: simSize, overlap: true}); ov != nil {
		if res := exec("mpi.execute_overlap", ov); res != nil && i < simPrefix {
			st.overlapGaps = append(st.overlapGaps, math.Abs(res.Makespan-ov.Makespan)/ov.Makespan)
		}
	}
	return jobs
}

// runSimulate runs the simulate workload; traced, an untraced phase and a
// traced phase share the time.
func runSimulate(cfg config) (*result, error) {
	res := newResult()
	account := func(st *simStats) {
		res.attempted += int64(st.instances)
		res.failed += st.failed
		res.problem(st.problems...)
	}
	if !cfg.trace {
		st := simPhase(cfg, cfg.dur(), nil)
		account(st)
		res.endToEnd(st.log, st.setups, st.heapMB)
		res.info["overlap_gap_rel"] = mean(st.overlapGaps)
		res.info["strict_checked"] = st.strictChecked
		res.info["jitter_runs"] = st.jitterRuns
		res.info["fault_runs"] = st.faultRuns
		res.info["strict_max_rel_err"] = st.strictMaxRel
		return res, nil
	}
	plain := simPhase(cfg, cfg.dur()/2, nil)
	account(plain)
	tr := newTracer()
	st := simPhase(cfg, cfg.dur()/2, tr.lane())
	account(st)
	sum := tr.summarize()
	for _, m := range []struct{ metric, span string }{
		{"gridbcast.plan_us.built.p50", "gridbcast.plan.built"},
		{"mpi.execute_us.p50", "mpi.execute"},
		{"mpi.execute_seg_us.p50", "mpi.execute_seg"},
		{"mpi.execute_fault_us.p50", "mpi.execute_fault"},
	} {
		res.set(m.metric, quantile(sum.durUS[m.span], 0.5), "us")
		res.samples[m.metric] = len(sum.durUS[m.span])
	}
	res.set("gridbcast.plan_us.built.p99", quantile(sum.durUS["gridbcast.plan.built"], 0.99), "us")
	res.samples["gridbcast.plan_us.built.p99"] = len(sum.durUS["gridbcast.plan.built"])
	sum.schedMetrics(res, st.shadowPlans, st.shadowBuilds)
	if st.execTime > 0 {
		res.set("mpi.messages_per_s", float64(st.messages)/st.execTime.Seconds(), "1/s")
	}
	res.set("mpi.retries", float64(st.retries), "count")
	res.set("mpi.reparents", float64(st.reparents), "count")
	res.set("mpi.lost", float64(st.lost), "count")
	if st.nodes > 0 {
		res.set("mpi.nodes_reached_frac", float64(st.reached)/float64(st.nodes), "ratio")
	}
	res.set("mpi.overlap_gap_rel", mean(st.overlapGaps), "ratio")
	res.samples["mpi.overlap_gap_rel"] = len(st.overlapGaps)
	plainOps := plain.log.rate()
	tracedOps := st.log.rate()
	if err := finishTrace(cfg, res, tr, sum, plainOps, tracedOps); err != nil {
		return nil, err
	}
	return res, nil
}
