package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// The traced run's span recorder. Spans are recorded by the benchmark's
// own code around each call into a layer's public function, kept in
// memory, and written out once the run ends. A span's layer is its name
// up to the first dot (service, gridbcast, topology, sched, mpi); the
// roots ("request", "instance", and "warmup" for untimed warm-up traffic)
// are the end-to-end operations.
//
// Kinds say where a span's interval comes from:
//   - measured: timed around the call by the benchmark;
//   - reported: a duration the server reported (the response's elapsed_us),
//     placed inside the client-measured round trip that carried it;
//   - shadow: the same work replayed in-process after the request through
//     the layer's public function (strict decode, EncodePlan, EdgeCosts,
//     NewProblem, EnginePool.Schedule, ...), attributed to the span whose
//     work it decomposes.
//
// A span's self time is its duration minus its children's durations.
// Shadow children do not lie inside their parent's interval, so
// attribution is by duration, not by interval overlap. A root's self time
// is unattributed: no layer span accounts for it. Where children's
// durations exceed their parent's, the excess is double counted; the
// parent's self time is clamped at zero and the excess reported.

// Span is one recorded interval.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Root is the ID of the end-to-end operation the span belongs to.
	Root  uint64 `json:"root"`
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s *Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer owns the run's clock origin and one lane per goroutine.
type tracer struct {
	t0    time.Time
	lanes []*lane
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// lane returns a fresh single-goroutine recorder. Call before starting the
// goroutine that uses it.
func (t *tracer) lane() *lane {
	l := &lane{t: t, base: uint64(len(t.lanes)+1) << 40}
	t.lanes = append(t.lanes, l)
	return l
}

// lane records spans for one goroutine. A nil *lane records nothing, so
// untraced runs share the traced code path at the cost of a nil check.
type lane struct {
	t     *tracer
	base  uint64
	n     uint64
	spans []Span
}

// newID reserves a span ID, so children can name a parent that is
// recorded after them (0 on a nil lane).
func (l *lane) newID() uint64 {
	if l == nil {
		return 0
	}
	l.n++
	return l.base | l.n
}

// record stores a finished span under a reserved ID; root 0 makes the
// span its own root.
func (l *lane) record(id uint64, name, kind string, parent, root uint64, start, end time.Time) {
	if l == nil {
		return
	}
	if root == 0 {
		root = id
	}
	l.spans = append(l.spans, Span{
		ID: id, Parent: parent, Root: root, Name: name, Kind: kind,
		Start: start.Sub(l.t.t0).Nanoseconds(), End: end.Sub(l.t.t0).Nanoseconds(),
	})
}

// timed runs f inside a measured span.
func (l *lane) timed(name string, parent, root uint64, f func()) {
	if l == nil {
		f()
		return
	}
	start := time.Now()
	f()
	l.record(l.newID(), name, "measured", parent, root, start, time.Now())
}

// shadow runs f inside a shadow span attributed to parent; on a nil lane
// it does nothing, since shadow work exists only to be measured.
func (l *lane) shadow(name string, parent, root uint64, f func()) {
	if l == nil {
		return
	}
	start := time.Now()
	f()
	l.record(l.newID(), name, "shadow", parent, root, start, time.Now())
}

// traceSummary is what the per-layer metrics are derived from. Only spans
// under timed roots count, except in firstEvalUS.
type traceSummary struct {
	// durUS holds span durations in microseconds, by span name.
	durUS map[string][]float64
	// firstEvalUS holds every topology.edgecosts span's duration, warm-up
	// included: a platform's grid costs each size once and keeps it, so
	// the serve workloads make most first evaluations before timing.
	firstEvalUS []float64
	// selfUS sums self time per layer: time measured around a layer's
	// call, reported by the server, or replayed in shadow, minus the
	// children's.
	selfUS map[string]float64
	// unattributedUS sums the roots' self time: end-to-end time that no
	// layer span accounts for (HTTP transport, routing and admission in
	// the serve workloads; the benchmark's own checks in simulate).
	unattributedUS float64
	// excessUS sums, over every span, how far its children's durations
	// exceed its own: time counted twice, clamped out of the parent's
	// self time so that it shows here and in coverage.
	excessUS float64
	// rootUS sums the timed roots' durations.
	rootUS float64
	roots  int
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

func (t *tracer) summarize() *traceSummary {
	sum := &traceSummary{durUS: map[string][]float64{}, selfUS: map[string]float64{}}
	child := map[uint64]time.Duration{}
	timedRoot := map[uint64]bool{}
	for _, l := range t.lanes {
		for i := range l.spans {
			s := &l.spans[i]
			if s.Parent != 0 {
				child[s.Parent] += s.dur()
			}
			if s.Name == "request" || s.Name == "instance" {
				timedRoot[s.ID] = true
			}
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for _, l := range t.lanes {
		for i := range l.spans {
			s := &l.spans[i]
			d := s.dur()
			if s.Name == "topology.edgecosts" {
				sum.firstEvalUS = append(sum.firstEvalUS, us(d))
			}
			if !timedRoot[s.Root] {
				continue
			}
			self := d - child[s.ID]
			if self < 0 {
				sum.excessUS += us(-self)
				self = 0
			}
			if s.Parent == 0 {
				sum.rootUS += us(d)
				sum.roots++
				sum.unattributedUS += us(self)
				continue
			}
			sum.durUS[s.Name] = append(sum.durUS[s.Name], us(d))
			sum.selfUS[layerOf(s.Name)] += us(self)
		}
	}
	return sum
}

// share returns x as a share of the timed roots' time.
func (s *traceSummary) share(x float64) float64 {
	if s.rootUS == 0 {
		return 0
	}
	return x / s.rootUS
}

// coverage is the layers' summed self time over the timed end-to-end
// time. Over a tree of spans it equals 1 - unattributed + double counted,
// so a missing span lowers it and an overlapping one raises it.
func (s *traceSummary) coverage() float64 {
	total := 0.0
	for _, v := range s.selfUS {
		total += v
	}
	return s.share(total)
}

// maxSpansWritten caps the spans file; the summary always uses every span.
const maxSpansWritten = 200000

// write stores the spans as JSON lines and returns how many it wrote.
func (t *tracer) write(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, l := range t.lanes {
		for i := range l.spans {
			if n == maxSpansWritten {
				break
			}
			if err := enc.Encode(&l.spans[i]); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	if err := f.Close(); err != nil {
		return n, fmt.Errorf("close spans file: %w", err)
	}
	return n, nil
}

// schedMetrics sets the topology and sched per-layer metrics from the
// shadow decomposition's spans.
func (s *traceSummary) schedMetrics(res *result, plans, schedules int) {
	for _, m := range []struct{ metric, span string }{
		{"topology.edgecosts_us.p50", "topology.edgecosts"},
		{"sched.problem_us.p50", "sched.problem"},
		{"sched.schedule_us.p50", "sched.schedule"},
		{"sched.traced_schedule_us.p50", "sched.traced_schedule"},
		{"sched.ladder_us.p50", "sched.ladder"},
	} {
		xs := s.durUS[m.span]
		if m.span == "topology.edgecosts" {
			xs = s.firstEvalUS
		}
		res.set(m.metric, quantile(xs, 0.5), "us")
		res.samples[m.metric] = len(xs)
	}
	if plans > 0 {
		res.set("sched.schedules_per_plan.mean", float64(schedules)/float64(plans), "count")
		res.samples["sched.schedules_per_plan.mean"] = plans
	}
}

// finishTrace sets trace.coverage, trace.unattributed,
// trace.double_counted and trace.overhead (traced over untraced op rate),
// reports the self time per layer and writes the spans under
// cfg.spansDir.
func finishTrace(cfg config, res *result, t *tracer, sum *traceSummary, plainOps, tracedOps float64) error {
	res.set("trace.coverage", sum.coverage(), "ratio")
	res.set("trace.unattributed", sum.share(sum.unattributedUS), "ratio")
	res.set("trace.double_counted", sum.share(sum.excessUS), "ratio")
	res.set("trace.overhead", tracedOps/plainOps, "ratio")
	res.info["untraced_ops_per_s"] = plainOps
	res.info["traced_ops_per_s"] = tracedOps
	res.info["self_us_by_layer"] = sum.selfUS
	res.info["unattributed_us"] = sum.unattributedUS
	res.info["double_counted_us"] = sum.excessUS
	res.info["timed_roots"] = sum.roots
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	n, err := t.write(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	res.info["spans_file"] = path
	res.info["spans_written"] = n
	return nil
}
