// Command perfbench is gridbcast's end-to-end benchmark. It generates a
// workload from a seed, drives the real serving stack (serve-hot,
// serve-cold) or the facade's plan-and-simulate path (simulate) for a
// fixed time, checks every output, and prints its metrics. With --trace 1
// it instead replays the workload with spans around each call into a
// layer and prints per-layer metrics.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload serve-hot --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result object; the line before
// it is a report with sample counts, the environment and the failures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
}

func (c config) dur() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one invocation's outcome.
type result struct {
	attempted, failed int64
	metrics           map[string]metric
	samples           map[string]int
	info              map[string]any
	problems          []string
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, samples: map[string]int{}, info: map[string]any{}}
}

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *result) problem(ps ...string) {
	for _, p := range ps {
		if len(r.problems) < 10 {
			r.problems = append(r.problems, p)
		}
	}
}

// perLayer lists every per-layer metric with its unit; a traced run prints
// all of them, zero where the workload bypasses the layer.
var perLayer = []struct{ name, unit string }{
	{"service.overhead_us.p50", "us"},
	{"service.overhead_us.p99", "us"},
	{"service.decode_us.p50", "us"},
	{"service.encode_us.p50", "us"},
	{"service.response_bytes.mean", "bytes"},
	{"service.rejected", "count"},
	{"gridbcast.plan_us.hit.p50", "us"},
	{"gridbcast.plan_us.built.p50", "us"},
	{"gridbcast.plan_us.built.p99", "us"},
	{"plancache.hit_rate", "ratio"},
	{"plancache.hits", "count"},
	{"plancache.lookups", "count"},
	{"plancache.evicted", "count"},
	{"plancache.collapsed", "count"},
	{"topology.edgecosts_us.p50", "us"},
	{"sched.problem_us.p50", "us"},
	{"sched.schedule_us.p50", "us"},
	{"sched.traced_schedule_us.p50", "us"},
	{"sched.ladder_us.p50", "us"},
	{"sched.schedules_per_plan.mean", "count"},
	{"mpi.execute_us.p50", "us"},
	{"mpi.execute_seg_us.p50", "us"},
	{"mpi.execute_fault_us.p50", "us"},
	{"mpi.messages_per_s", "1/s"},
	{"mpi.retries", "count"},
	{"mpi.reparents", "count"},
	{"mpi.lost", "count"},
	{"mpi.nodes_reached_frac", "ratio"},
	{"mpi.overlap_gap_rel", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.unattributed", "ratio"},
	{"trace.double_counted", "ratio"},
	{"trace.overhead", "ratio"},
}

// endToEnd lists the untraced run's metrics.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
}

var workloads = map[string]func(config) (*result, error){
	"serve-hot":  func(c config) (*result, error) { return runServe(c, true) },
	"serve-cold": func(c config) (*result, error) { return runServe(c, false) },
	"simulate":   runSimulate,
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "serve-hot | serve-cold | simulate")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced replay and prints per-layer metrics")
	fs.StringVar(&cfg.spansDir, "spans-dir", filepath.Join(".bench_build", "spans"), "where the traced run writes its spans")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	wl, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload serve-hot|serve-cold|simulate, --seconds > 0, --trace 0|1\n")
		return 2
	}
	cfg.trace = trace == 1
	// One core: the gauge reads the core the loop runs on, and the
	// program's work must run there too.
	runtime.GOMAXPROCS(1)

	res, err := wl(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	out := map[string]metric{}
	for _, m := range want {
		v, ok := res.metrics[m.name]
		if !ok {
			v = metric{0, m.unit}
		}
		out[m.name] = v
	}

	report := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "trace": trace, "seconds": cfg.seconds,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"attempted": res.attempted, "succeeded": res.attempted - res.failed, "failed": res.failed,
		"error_rate": errorRate(res), "samples": res.samples, "info": res.info,
		"problems": res.problems,
	}
	rb, _ := json.Marshal(report)
	fmt.Println(string(rb))
	printTable(os.Stderr, cfg, out, res)

	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, out}
	fb, _ := json.Marshal(final)
	fmt.Println(string(fb))
	return 0
}

const (
	// setupTime and setupMinReps bound how long and how often a run
	// repeats its set-up to time it.
	setupTime    = time.Second
	setupMinReps = 16
)

// setupDone reports whether a run has timed enough set-ups, given their
// times so far and when the first began.
func setupDone(setups []float64, began time.Time) bool {
	return len(setups) >= setupMinReps && time.Since(began) >= setupTime
}

// endToEnd sets the untraced run's metrics: op rate and latency
// quantiles from the timed loop and set-up time from the repeated
// set-ups, all corrected for host speed (gauge.go), and the live heap.
// The uncorrected figures go to the report line.
func (r *result) endToEnd(log *opLog, setups []float64, heapMB float64) {
	ops, dur, lat := log.corrected()
	r.set("ops_per_s", float64(ops)/dur.Seconds(), "1/s")
	r.set("latency_p50_ms", quantile(lat, 0.50), "ms")
	r.set("latency_p99_ms", quantile(lat, 0.99), "ms")
	r.set("setup_s", quantile(append([]float64(nil), setups...), 0.5), "s")
	r.set("heap_mb", heapMB, "MB")
	r.samples["ops_per_s"] = ops
	r.samples["latency_p50_ms"] = len(lat)
	r.samples["latency_p99_ms"] = len(lat)
	r.samples["setup_s"] = len(setups)
	readings := make([]float64, len(log.readings))
	for i, d := range log.readings {
		readings[i] = float64(d) / float64(gaugeRef)
	}
	r.info["gauge_blocks"] = len(log.blockEnd)
	r.info["gauge_slowdown_quantiles"] = latencyQuantiles(readings)
	if n := len(log.done); n > 0 {
		r.info["uncorrected_ops_per_s"] = float64(n) / log.done[n-1].Seconds()
	}
	r.info["uncorrected_latency_ms_quantiles"] = latencyQuantiles(append([]float64(nil), log.lat...))
}

func errorRate(r *result) float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

func printTable(w io.Writer, cfg config, ms map[string]metric, res *result) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%t: attempted %d, failed %d\n", cfg.workload, cfg.seed, cfg.trace, res.attempted, res.failed)
	for _, n := range names {
		line := fmt.Sprintf("  %-32s %14.6g %s", n, ms[n].Value, ms[n].Unit)
		if k, ok := res.samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", k)
		}
		fmt.Fprintln(w, line)
	}
}

// liveHeapMB is the live heap after forced collections. The second
// collection empties the sync.Pool victim caches (engine pools, simulator
// pools), whose contents depend on scheduling, not on the workload.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// newClient is the closed loop's HTTP client: keep-alive connections.
func newClient() (*http.Client, *http.Transport) {
	tr := &http.Transport{
		MaxIdleConns:        4,
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr}, tr
}
