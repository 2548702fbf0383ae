// Command benchjson runs the repository benchmarks (or parses an existing
// `go test -bench` transcript) and emits a machine-readable JSON summary, so
// successive PRs can track the performance trajectory in BENCH_*.json files.
//
// Usage:
//
//	benchjson [-bench regex] [-benchtime 1x] [-out BENCH_1.json]
//	go test -run NONE -bench . -benchmem | benchjson -in - -out BENCH_1.json
//
// With -in (a file path, or "-" for stdin) no benchmarks are executed; the
// transcript is parsed instead. Otherwise the tool invokes
// `go test -run NONE -bench <regex> -benchmem -benchtime <t>` on the module
// root and parses its output. Lines that are not benchmark results are
// ignored, so transcripts with metadata (goos, pkg, PASS) parse cleanly.
// -bench, -benchtime and -count given alongside -in are recorded in the
// snapshot as run mode records them, so a transcript recorded outside
// benchjson (test binaries run alternately, say) still says how it ran.
//
// -baseline FILE embeds another benchjson snapshot — a same-machine,
// same-session re-measurement of the PREVIOUS snapshot's code — into the
// output. cmd/benchdiff's chain then compares timings against that paired
// baseline instead of the committed predecessor, which keeps the gate
// meaningful when the recording machine's speed has drifted between
// snapshots (allocation counts, being machine-independent, are still
// compared against the committed predecessor). -baseline-note records why
// the rebaseline was needed; benchdiff prints it with every affected
// comparison so the provenance is auditable.
//
// Every snapshot records the processor count of the machine benchjson runs
// on (nproc; parse a transcript on the machine that recorded it) and the
// GOMAXPROCS its benchmarks ran at (read from the transcript's
// benchmark-name suffixes), so a reader — and cmd/benchdiff — can tell a
// single-core recording from a multi-core one without prose.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the full benchmark name including sub-benchmarks, with the
	// trailing -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Iterations is b.N of the reported run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the reported ns/op.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when -benchmem was on.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds every custom b.ReportMetric value by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the emitted document.
type Report struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	Bench       string `json:"bench,omitempty"`
	BenchTime   string `json:"benchtime,omitempty"`
	// Count is the -count repetition the snapshot was distilled from
	// (omitted when 1): each benchmark records its best ns/op run, the
	// standard way to cut scheduler and frequency noise out of snapshots
	// that feed cmd/benchdiff.
	Count int `json:"count,omitempty"`
	// NProc is runtime.NumCPU() of the machine benchjson ran on.
	NProc int `json:"nproc,omitempty"`
	// GOMAXPROCS is the value the benchmarks ran at, from the -N suffix the
	// testing package appends to names (no suffix means 1); omitted when
	// the transcript mixes values or has no results.
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	Results    []Result `json:"results"`
	// Baseline, when present, holds a re-measurement of the PREVIOUS
	// snapshot's code taken on the same machine and in the same session as
	// Results (see -baseline). BaselineNote documents why.
	Baseline     []Result `json:"baseline,omitempty"`
	BaselineNote string   `json:"baseline_note,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, collects the results and writes the
// report to -out, or to stdout.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	bench := fs.String("bench", ".", "benchmark regex passed to go test -bench")
	benchtime := fs.String("benchtime", "1x", "benchtime passed to go test")
	count := fs.Int("count", 1, "go test -count repetitions; each benchmark keeps its best run")
	in := fs.String("in", "", "parse this transcript (\"-\" for stdin) instead of running go test; -bench, -benchtime and -count, when given, record how it was run")
	out := fs.String("out", "", "output file (default stdout)")
	baseline := fs.String("baseline", "", "benchjson snapshot re-measuring the previous snapshot's code on this machine; embedded for benchdiff's paired timing comparison")
	baselineNote := fs.String("baseline-note", "", "provenance note stored alongside -baseline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *count < 1 {
		*count = 1
	}
	if *baselineNote != "" && *baseline == "" {
		return fmt.Errorf("-baseline-note given without -baseline")
	}

	rep := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NProc:       runtime.NumCPU(),
	}
	if *baseline != "" {
		results, err := LoadResults(*baseline)
		if err != nil {
			return err
		}
		rep.Baseline, rep.BaselineNote = results, *baselineNote
	}
	// The run fields: in run mode the values go test ran with; for a parsed
	// transcript the ones given on the command line, which describe how the
	// transcript was recorded.
	if *in == "" {
		rep.Bench, rep.BenchTime = *bench, *benchtime
	} else {
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "bench":
				rep.Bench = *bench
			case "benchtime":
				rep.BenchTime = *benchtime
			}
		})
	}
	if *count > 1 {
		rep.Count = *count
	}
	// Results are fully collected — and, in run mode, the go test exit
	// status checked — before the output file is touched, so a failed or
	// partial benchmark run never clobbers an existing BENCH_*.json.
	var err error
	switch {
	case *in == "-":
		rep.Results, rep.GOMAXPROCS, err = Parse(stdin)
	case *in != "":
		rep.Results, rep.GOMAXPROCS, err = parseFile(*in)
	default:
		rep.Results, rep.GOMAXPROCS, err = runBenchmarks(*bench, *benchtime, *count)
	}
	if err != nil {
		return err
	}

	if *out == "" {
		return writeReport(stdout, &rep)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := writeReport(f, &rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeReport(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func parseFile(path string) ([]Result, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return Parse(f)
}

// runBenchmarks runs the root package's benchmarks and parses the output.
func runBenchmarks(bench, benchtime string, count int) ([]Result, int, error) {
	cmd := exec.Command("go", "test", "-run", "NONE",
		"-bench", bench, "-benchmem", "-benchtime", benchtime,
		"-count", strconv.Itoa(count), ".")
	cmd.Dir = moduleRoot()
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	results, procs, perr := Parse(pipe)
	if err := cmd.Wait(); err != nil {
		return nil, 0, fmt.Errorf("go test: %w", err)
	}
	return results, procs, perr
}

// Parse extracts benchmark results from a `go test -bench` transcript, and
// the GOMAXPROCS its benchmarks ran at (0 when it has no results or mixes
// values).
func Parse(r io.Reader) ([]Result, int, error) {
	var out []Result
	procs := -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		// Echo the transcript so piped runs stay observable.
		fmt.Fprintln(os.Stderr, line)
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkX --- FAIL"
		}
		name, p := splitProcs(fields[0])
		switch procs {
		case -1:
			procs = p
		case p:
		default:
			procs = 0
		}
		res := Result{Name: name, Iterations: iters}
		// The tail is (value, unit) pairs.
		for k := 2; k+1 < len(fields); k += 2 {
			v, err := strconv.ParseFloat(fields[k], 64)
			if err != nil {
				continue
			}
			switch unit := fields[k+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = &v
			case "allocs/op":
				res.AllocsPerOp = &v
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[unit] = v
			}
		}
		out = append(out, res)
	}
	return mergeBest(out), max(procs, 0), sc.Err()
}

// mergeBest collapses repeated runs of one benchmark (-count > 1, or a
// concatenated transcript) into the run with the lowest ns/op — noise only
// ever adds time — keeping first-seen order.
func mergeBest(rs []Result) []Result {
	seen := make(map[string]int, len(rs))
	out := rs[:0]
	for _, r := range rs {
		if i, ok := seen[r.Name]; ok {
			if r.NsPerOp < out[i].NsPerOp {
				out[i] = r
			}
			continue
		}
		seen[r.Name] = len(out)
		out = append(out, r)
	}
	return out
}

// LoadResults reads the Results of an existing benchjson snapshot, for
// embedding as a Baseline.
func LoadResults(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return rep.Results, nil
}

// moduleRoot resolves the enclosing module's directory, so the benchmarks
// run against the root package no matter where benchjson is invoked from.
func moduleRoot() string {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	gomod := strings.TrimSpace(string(out))
	if err != nil || gomod == "" || gomod == os.DevNull {
		return "." // outside a module: fall back to the current directory
	}
	return filepath.Dir(gomod)
}

// splitProcs splits the -GOMAXPROCS suffix the testing package appends to
// benchmark names off name and returns it (1 when absent: the testing
// package omits "-1"). The suffix reflects the benchmark run's GOMAXPROCS,
// so it must be recognised syntactically (a trailing -digits), not by this
// process's own processor count.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || name[i+1] < '0' || name[i+1] > '9' {
		return name, 1
	}
	return name[:i], n
}
