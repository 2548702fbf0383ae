package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"time"

	gridbcast "gridbcast"
	"gridbcast/internal/service"
)

const (
	// hotWarmOps is serve-hot's untimed Zipf traffic after each of the 64
	// requests has been served once.
	hotWarmOps = 2000
	// coldCacheCap is serve-cold's per-platform plan-cache capacity (the
	// facade default, passed as gridbcastd's -cache-cap), and coldWarmOps
	// its untimed warm-up, which issues more keys than the cache holds so
	// the timed phase runs with a full, evicting cache.
	coldCacheCap = gridbcast.DefaultPlanCacheCapacity
	coldWarmOps  = 1152
	// coldSampleEvery selects the serve-cold responses checked byte for
	// byte against an independent registry.
	coldSampleEvery = 16
	// hotBlock and coldBlock are the requests between gauge readings
	// (gauge.go), some tens of milliseconds.
	hotBlock  = 256
	coldBlock = 20
)

// hotGauge and coldGauge correct the serve workloads' times (gauge.go).
var (
	hotGauge  = gauge{sensitivity: 1}
	coldGauge = gauge{sensitivity: 0.8}
)

// clientStats is one client's record of a phase.
type clientStats struct {
	log        *opLog // timed requests
	overheadUS []float64
	respBytes  []float64
	planUS     map[string][]float64 // server elapsed_us by outcome
	ops        int64
	failed     int64
	rejected   int64
	refOps     [64]int64
	samples    []servedSample
	problems   []string
}

type servedSample struct {
	it    *item
	plans [][]byte
}

func (cs *clientStats) fail(format string, args ...any) {
	cs.failed++
	if len(cs.problems) < 5 {
		cs.problems = append(cs.problems, fmt.Sprintf(format, args...))
	}
}

// servePhase is one daemon's life: set-up, warm-up, a timed closed loop,
// and the correctness checks.
type servePhase struct {
	cfg    config
	hot    bool
	client *http.Client
	d      *daemon
	st     stream
	// refs holds serve-hot's reference plan bytes, by item.ref.
	refs [64][]byte
	// traced-run state: the tracer and the independent registry, whose
	// platforms' grids also carry the shadow decomposition.
	tr    *tracer
	indep *service.Registry
}

// servePhaseOut is what a phase measured.
type servePhaseOut struct {
	setups      []float64 // seconds per set-up, in order
	heapMB      float64
	timed       *clientStats
	warm        *clientStats
	cache       gridbcast.CacheStats // delta over the timed loop
	schedPlans  int
	schedBuilds int
	tr          *tracer
}

func (ph *servePhase) gauge() gauge {
	if ph.hot {
		return hotGauge
	}
	return coldGauge
}

func runServePhase(cfg config, hot, traced bool, client *http.Client, dur time.Duration) (*servePhaseOut, error) {
	ph := &servePhase{cfg: cfg, hot: hot, client: client}
	out := &servePhaseOut{}
	cacheCap := 0
	if !hot {
		cacheCap = coldCacheCap
	}
	// Daemons are started and stopped until set-up is timed often
	// enough; the last one serves.
	began := time.Now()
	for {
		var d *daemon
		var err error
		setup := ph.gauge().timeSetup(func() { d, err = startDaemon(client, cacheCap) })
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, setup)
		if setupDone(out.setups, began) {
			ph.d = d
			break
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			ph.d.stop()
		}
	}()

	if hot {
		ph.st = newHotStream(cfg.seed)
	} else {
		ph.st = newColdStream(cfg.seed)
	}
	var sh *shadower
	var l *lane
	if traced {
		var err error
		if ph.indep, err = service.NewRegistry(serveSpecs, coldCacheCap); err != nil {
			return nil, err
		}
		ph.tr = newTracer()
		l, sh = ph.tr.lane(), newShadower(newCostSeen())
	}

	// Warm-up: every hot request once, in order, to record the reference
	// responses; then untimed stream traffic.
	out.warm = &clientStats{}
	if hot {
		var buf bytes.Buffer
		for _, it := range hotItems(cfg.seed) {
			it := it
			if plans := ph.do(out.warm, &buf, &it, l, sh, false); plans != nil {
				ph.refs[it.ref] = append([]byte(nil), plans[0]...)
			}
		}
	}
	warmOps := coldWarmOps
	if hot {
		warmOps = hotWarmOps
	}
	warm := ph.loop(l, sh, false, 0, warmOps)
	out.warm.merge(warm)
	out.heapMB = liveHeapMB()
	if sh != nil {
		sh.plans, sh.schedules = 0, 0 // count the timed loop's builds only
	}

	before := ph.d.cacheStats()
	timed := ph.loop(l, sh, true, dur, 0)
	after := ph.d.cacheStats()
	out.timed = timed
	out.cache = gridbcast.CacheStats{
		Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Collapsed: after.Collapsed - before.Collapsed, Evicted: after.Evicted - before.Evicted,
	}
	stopped = true
	if err := ph.d.stop(); err != nil {
		return nil, fmt.Errorf("daemon drain: %w", err)
	}
	ph.d = nil // let the served registry go before verification builds another

	if sh != nil {
		out.schedPlans, out.schedBuilds = sh.plans, sh.schedules
	}
	if err := ph.verify(out); err != nil {
		return nil, err
	}
	out.tr = ph.tr
	return out, nil
}

// loop runs the closed loop: one client sends its next request when the
// previous reply is in, until dur elapses on the loop's clock (dur > 0)
// or ops requests have been sent, and returns the client's record. A timed
// loop logs every request on its own clock, which leaves the gauge
// readings out.
func (ph *servePhase) loop(l *lane, sh *shadower, timed bool, dur time.Duration, ops int) *clientStats {
	cs := &clientStats{}
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	if timed {
		every := coldBlock
		if ph.hot {
			every = hotBlock
		}
		cs.log = newOpLog(ph.gauge(), every)
		clock = cs.log.elapsed
	}
	var buf bytes.Buffer
	for n := 0; (ops > 0 && n < ops) || (ops == 0 && clock() < dur); n++ {
		ph.do(cs, &buf, ph.st.next(), l, sh, timed)
	}
	if timed {
		cs.log.finish()
	}
	return cs
}

func (cs *clientStats) merge(o *clientStats) {
	cs.overheadUS = append(cs.overheadUS, o.overheadUS...)
	cs.respBytes = append(cs.respBytes, o.respBytes...)
	if len(o.planUS) > 0 && cs.planUS == nil {
		cs.planUS = map[string][]float64{}
	}
	for k, v := range o.planUS {
		cs.planUS[k] = append(cs.planUS[k], v...)
	}
	cs.ops += o.ops
	cs.failed += o.failed
	cs.rejected += o.rejected
	for i := range cs.refOps {
		cs.refOps[i] += o.refOps[i]
	}
	cs.samples = append(cs.samples, o.samples...)
	for _, p := range o.problems {
		if len(cs.problems) < 5 {
			cs.problems = append(cs.problems, p)
		}
	}
}

// do sends one request, checks the reply and, on a traced lane, records its
// spans and shadow decomposition. It returns the reply's raw plan bytes
// (nil on failure).
func (ph *servePhase) do(cs *clientStats, buf *bytes.Buffer, it *item, l *lane, sh *shadower, timed bool) [][]byte {
	reqID := l.newID()
	rootName := "warmup"
	if timed {
		rootName = "request"
	}
	t0 := time.Now()
	resp, err := ph.client.Post(ph.d.url+it.path, "application/json", bytes.NewReader(it.body))
	status := 0
	buf.Reset()
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	t1 := time.Now()
	cs.ops++
	if timed {
		cs.log.add(float64(t1.Sub(t0)) / 1e6)
	}
	// The root span is the client round trip; the reply's checks and the
	// shadow decomposition below run after it.
	l.record(reqID, rootName, "measured", 0, reqID, t0, t1)
	if err != nil {
		cs.fail("%s: transport: %v", it.path, err)
		return nil
	}
	if status == http.StatusTooManyRequests || status >= 500 {
		cs.rejected++
	}
	if status != http.StatusOK {
		cs.fail("%s: status %d: %.200s", it.path, status, buf.Bytes())
		return nil
	}
	body := buf.Bytes()
	var plans [][]byte
	var head planHead
	var elapsedUS float64
	outcome := "batch"
	if it.batch() {
		var br batchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			cs.fail("batch response: %v", err)
			return nil
		}
		if len(br.Plans) != len(it.shapes) {
			cs.fail("batch: %d plans for %d requests", len(br.Plans), len(it.shapes))
			return nil
		}
		for i, p := range br.Plans {
			if br.Errors[i] != nil || !echoes(p, it.shapes[i]) {
				cs.fail("batch slot %d: wrong or missing plan", i)
				return nil
			}
			plans = append(plans, p)
		}
		elapsedUS = br.ElapsedUS
	} else {
		h, plan, err := splitPlanResponse(body)
		if err != nil {
			cs.fail("plan response: %v", err)
			return nil
		}
		if !echoes(plan, it.shapes[0]) {
			cs.fail("plan does not echo root %d size %d", it.shapes[0].root, it.shapes[0].size)
			return nil
		}
		if it.ref >= 0 && ph.refs[it.ref] != nil {
			cs.refOps[it.ref]++
			if !bytes.Equal(plan, ph.refs[it.ref]) {
				cs.fail("hot request %d: plan differs from its reference response", it.ref)
				return nil
			}
		}
		plans = [][]byte{plan}
		head, elapsedUS, outcome = h, h.ElapsedUS, h.Outcome
	}
	if timed && !ph.hot && it.seq%coldSampleEvery == 0 && l == nil {
		kept := make([][]byte, len(plans))
		for i, p := range plans {
			kept[i] = append([]byte(nil), p...)
		}
		cs.samples = append(cs.samples, servedSample{it: it, plans: kept})
	}
	if l == nil {
		return plans
	}

	// Traced: the server-reported facade time as a child of the round
	// trip, then the shadow decomposition of the service and the build.
	rtt := t1.Sub(t0)
	elapsed := time.Duration(elapsedUS * 1e3)
	gbStart := t0.Add((rtt - elapsed) / 2)
	gbID := l.newID()
	gbName := "gridbcast.plan." + outcome
	if it.batch() {
		gbName = "gridbcast.batch"
	}
	l.record(gbID, gbName, "reported", reqID, reqID, gbStart, gbStart.Add(elapsed))
	if cs.planUS == nil {
		cs.planUS = map[string][]float64{}
	}
	cs.planUS[outcome] = append(cs.planUS[outcome], elapsedUS)
	if timed {
		cs.overheadUS = append(cs.overheadUS, float64(rtt-elapsed)/1e3)
		cs.respBytes = append(cs.respBytes, float64(len(body)))
	}
	var decErr error
	l.shadow("service.decode", reqID, reqID, func() { decErr = strictDecode(it) })
	if decErr != nil {
		cs.fail("strict decode of the generated body: %v", decErr)
		return nil
	}
	// The shadow build runs before the independent plan, so it is the
	// first to cost each size on the independent platform's grid.
	p, _ := ph.indep.Lookup(it.platform)
	if outcome == "built" || outcome == "batch" {
		for _, ps := range it.shapes {
			traced := ps.heuristic != nil && !ps.pipelined && ps.segSize == 0
			sh.build(l, gbID, reqID, p.Session.Grid(), ps, traced)
		}
	}
	direct := make([]*gridbcast.Plan, len(it.shapes))
	for i, ps := range it.shapes {
		want, pl, err := wantPlanJSON(ph.indep, it.platform, ps, ph.hot)
		if err != nil {
			cs.fail("independent plan: %v", err)
			return nil
		}
		if !bytes.Equal(plans[i], want) {
			cs.fail("%s slot %d: served plan differs from direct Session.Plan", it.path, i)
			return nil
		}
		direct[i] = pl
	}
	l.shadow("service.encode", reqID, reqID, func() { encodeResponse(ph.indep, it, head, elapsedUS, direct) })
	return plans
}

// strictDecode decodes a request body the way the service does: unknown
// fields and trailing data are errors.
func strictDecode(it *item) error {
	dec := json.NewDecoder(bytes.NewReader(it.body))
	dec.DisallowUnknownFields()
	var v any = &service.PlanRequest{}
	if it.batch() {
		v = &service.BatchRequest{}
	}
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// encodeResponse builds and encodes the response the service writes for
// the request: EncodePlan per plan, then the JSON encoder.
func encodeResponse(reg *service.Registry, it *item, head planHead, elapsedUS float64, plans []*gridbcast.Plan) {
	p, _ := reg.Lookup(it.platform)
	var v any
	if it.batch() {
		br := service.BatchResponse{
			Platform: it.platform, Generation: p.Generation, ElapsedUS: elapsedUS,
			Plans: make([]*service.PlanJSON, len(plans)), Errors: make([]*string, len(plans)),
		}
		for i, pl := range plans {
			br.Plans[i] = service.EncodePlan(pl)
		}
		v = br
	} else {
		v = service.PlanResponse{
			Platform: it.platform, Generation: p.Generation,
			Fingerprint: fmt.Sprintf("%016x", p.Session.Fingerprint()),
			Outcome:     head.Outcome, ElapsedUS: elapsedUS,
			Plan: service.EncodePlan(plans[0]),
		}
	}
	json.NewEncoder(io.Discard).Encode(v)
}

// verify runs the post-run byte-identity checks on an independent
// registry: serve-hot's 64 reference responses (a wrong reference fails
// every reply that matched it) and serve-cold's sampled replies.
func (ph *servePhase) verify(out *servePhaseOut) error {
	reg := ph.indep
	if reg == nil {
		var err error
		if reg, err = service.NewRegistry(serveSpecs, coldCacheCap); err != nil {
			return err
		}
	}
	st := out.timed
	if ph.hot {
		for _, it := range hotItems(ph.cfg.seed) {
			want, _, err := wantPlanJSON(reg, it.platform, it.shapes[0], false)
			if err != nil {
				return err
			}
			if !bytes.Equal(ph.refs[it.ref], want) {
				out.warm.fail("hot request %d: reference differs from direct Session.Plan", it.ref)
				st.failed += st.refOps[it.ref]
			}
		}
	}
	for _, s := range st.samples {
		for i, ps := range s.it.shapes {
			want, _, err := wantPlanJSON(reg, s.it.platform, ps, false)
			if err != nil {
				return err
			}
			if !bytes.Equal(s.plans[i], want) {
				st.fail("%s seq %d slot %d: served plan differs from direct Session.Plan", s.it.path, s.it.seq, i)
				break
			}
		}
	}
	return nil
}

// runServe runs serve-hot (hot) or serve-cold. Untraced, one phase
// measures the end-to-end metrics. Traced, an untraced phase and a traced
// phase share the time, each on a fresh daemon fed the same seeded stream,
// and the per-layer metrics come from the traced phase.
func runServe(cfg config, hot bool) (*result, error) {
	client, tr := newClient()
	defer tr.CloseIdleConnections()
	res := newResult()
	res.info["closed_loop_clients"] = 1
	account := func(o *servePhaseOut) {
		res.attempted += o.warm.ops + o.timed.ops
		res.failed += o.warm.failed + o.timed.failed
		res.problem(o.warm.problems...)
		res.problem(o.timed.problems...)
	}
	if !cfg.trace {
		o, err := runServePhase(cfg, hot, false, client, cfg.dur())
		if err != nil {
			return nil, err
		}
		account(o)
		res.endToEnd(o.timed.log, o.setups, o.heapMB)
		res.info["cache"] = o.cache
		res.info["verified_samples"] = len(o.timed.samples)
		return res, nil
	}

	half := cfg.dur() / 2
	plain, err := runServePhase(cfg, hot, false, client, half)
	if err != nil {
		return nil, err
	}
	account(plain)
	plainOps := plain.timed.log.rate()
	rejected := plain.timed.rejected + plain.warm.rejected
	debug.FreeOSMemory() // hand the first daemon's heap back before the second starts
	o, err := runServePhase(cfg, hot, true, client, half)
	if err != nil {
		return nil, err
	}
	account(o)
	sum := o.tr.summarize()
	tracedOps := o.timed.log.rate()

	pct := func(name string, xs []float64, q float64, unit string) {
		res.set(name, quantile(xs, q), unit)
		res.samples[name] = len(xs)
	}
	st := o.timed
	plan := st.planUS
	pct("service.overhead_us.p50", st.overheadUS, 0.50, "us")
	pct("service.overhead_us.p99", st.overheadUS, 0.99, "us")
	pct("service.decode_us.p50", sum.durUS["service.decode"], 0.50, "us")
	pct("service.encode_us.p50", sum.durUS["service.encode"], 0.50, "us")
	res.set("service.response_bytes.mean", mean(st.respBytes), "bytes")
	res.samples["service.response_bytes.mean"] = len(st.respBytes)
	res.set("service.rejected", float64(rejected+o.timed.rejected+o.warm.rejected), "count")
	pct("gridbcast.plan_us.hit.p50", plan["hit"], 0.50, "us")
	pct("gridbcast.plan_us.built.p50", plan["built"], 0.50, "us")
	pct("gridbcast.plan_us.built.p99", plan["built"], 0.99, "us")
	cs := o.cache
	lookups := cs.Hits + cs.Misses + cs.Collapsed
	hitRate := 0.0
	if lookups > 0 {
		hitRate = float64(cs.Hits) / float64(lookups)
	}
	res.set("plancache.hit_rate", hitRate, "ratio")
	res.set("plancache.hits", float64(cs.Hits), "count")
	res.set("plancache.lookups", float64(lookups), "count")
	res.set("plancache.evicted", float64(cs.Evicted), "count")
	res.set("plancache.collapsed", float64(cs.Collapsed), "count")
	sum.schedMetrics(res, o.schedPlans, o.schedBuilds)
	if err := finishTrace(cfg, res, o.tr, sum, plainOps, tracedOps); err != nil {
		return nil, err
	}
	return res, nil
}
