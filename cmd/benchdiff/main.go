// Command benchdiff compares BENCH_*.json snapshots produced by
// cmd/benchjson and exits non-zero when a benchmark present in both files
// regressed beyond the tolerance in ns/op or allocs/op. It is the CI gate
// that keeps the repository's performance trajectory monotone (see the
// bench-regression job in .github/workflows/ci.yml).
//
// Usage:
//
//	benchdiff [-tol 0.10] [-alloc-tol 0.10] [-ns-floor 100000] [-alloc-slack 2] old.json new.json
//	benchdiff -chain [flags] BENCH_*.json          # diff consecutive snapshots
//	benchdiff -print-latest BENCH_*.json           # print the newest snapshot name
//
// Snapshot ordering is NUMERIC on the integer embedded in the file name
// (BENCH_10.json sorts after BENCH_5.json), not lexicographic and not the
// `sort -V` the CI scripts used to rely on; -chain and -print-latest both
// use it. -summary FILE appends a Markdown report of every comparison to
// FILE (CI passes $GITHUB_STEP_SUMMARY so regressions are readable from the
// run page).
//
// Rules:
//
//   - Only benchmarks present in BOTH snapshots are compared; added
//     benchmarks are listed informationally, removed ones produce a
//     warning (a silently dropped benchmark is how regressions hide).
//   - ns/op: a regression when new > old·(1+tol), but only for benchmarks
//     whose old ns/op is at least -ns-floor — smoke runs execute one or a
//     few iterations, so sub-floor timings are timer noise, not signal.
//   - allocs/op: a regression when new > old·(1+tol) + -alloc-slack.
//     Allocation counts are deterministic, so the floor is a small
//     absolute slack rather than a magnitude cutoff.
//   - When the NEW snapshot embeds a baseline (cmd/benchjson -baseline: the
//     previous snapshot's code re-measured on the same machine and in the
//     same session as the new results), timing comparisons use the baseline
//     values instead of the committed predecessor's — a paired same-machine
//     A/B, immune to recording-machine speed drift between snapshots.
//     Benchmarks absent from the baseline still compare against the
//     committed values, and allocs/op (machine-independent) always does.
//     The baseline note is printed with the comparison for auditability.
//   - Rows measuring parallel construction (names containing "Parallel" or
//     "workers=") from a new snapshot recorded on one core — GOMAXPROCS 1
//     or nproc 1, as cmd/benchjson records them — are labelled "not a
//     speedup measurement": their worker counts time scheduling overhead,
//     not parallelism. Snapshots without those fields are not labelled.
//   - A compared snapshot recorded with fewer than 16 -count rounds (as
//     cmd/benchjson records them; a snapshot without the field counts as
//     one round) gets a warning line, not a failure: a best-of timing over
//     few rounds on a noisy host says more about the rounds run than about
//     the code. When the new snapshot embeds a baseline, only its own
//     count is checked, since both sides' timings come from its recording.
//
// Exit status: 0 when clean, 1 on regressions, 2 on usage or read errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// result mirrors cmd/benchjson's Result.
type result struct {
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// report mirrors cmd/benchjson's Report.
type report struct {
	GeneratedAt  string   `json:"generated_at"`
	GoVersion    string   `json:"go_version"`
	Count        int      `json:"count,omitempty"`
	NProc        int      `json:"nproc,omitempty"`
	GOMAXPROCS   int      `json:"gomaxprocs,omitempty"`
	Results      []result `json:"results"`
	Baseline     []result `json:"baseline,omitempty"`
	BaselineNote string   `json:"baseline_note,omitempty"`
}

// Options tune the comparison.
type Options struct {
	// Tol is the relative ns/op regression tolerance (0.10 = +10%).
	Tol float64
	// AllocTol is the relative allocs/op tolerance; negative means "same
	// as Tol". Allocation counts are machine-independent, so CI diffs
	// against snapshots from other hardware keep AllocTol tight while
	// widening Tol.
	AllocTol float64
	// NsFloor is the minimum old ns/op for the timing check to apply.
	NsFloor float64
	// AllocSlack is the absolute allocs/op slack added on top of AllocTol.
	AllocSlack float64
}

func (o Options) allocTol() float64 {
	if o.AllocTol < 0 {
		return o.Tol
	}
	return o.AllocTol
}

// Delta is the comparison outcome for one benchmark common to both files.
type Delta struct {
	Name            string
	OldNs, NewNs    float64
	NsRatio         float64 // new/old
	OldAllocs       *float64
	NewAllocs       *float64
	NsRegressed     bool
	AllocsRegressed bool
	NsBelowFloor    bool
	// NotSpeedup marks a parallel row from a single-core snapshot
	// (LabelSingleCore).
	NotSpeedup bool
}

// Regressed reports whether either metric regressed.
func (d *Delta) Regressed() bool { return d.NsRegressed || d.AllocsRegressed }

// Compare diffs the snapshots benchmark-by-benchmark. added and removed list
// names only in one snapshot, in sorted order.
func Compare(old, new []result, opt Options) (deltas []Delta, added, removed []string) {
	oldBy := make(map[string]result, len(old))
	for _, r := range old {
		oldBy[r.Name] = r
	}
	seen := make(map[string]bool, len(new))
	for _, nr := range new {
		seen[nr.Name] = true
		or, ok := oldBy[nr.Name]
		if !ok {
			added = append(added, nr.Name)
			continue
		}
		d := Delta{Name: nr.Name, OldNs: or.NsPerOp, NewNs: nr.NsPerOp,
			OldAllocs: or.AllocsPerOp, NewAllocs: nr.AllocsPerOp}
		if or.NsPerOp > 0 {
			d.NsRatio = nr.NsPerOp / or.NsPerOp
		}
		d.NsBelowFloor = or.NsPerOp < opt.NsFloor
		if !d.NsBelowFloor && nr.NsPerOp > or.NsPerOp*(1+opt.Tol) {
			d.NsRegressed = true
		}
		if or.AllocsPerOp != nil && nr.AllocsPerOp != nil &&
			*nr.AllocsPerOp > *or.AllocsPerOp*(1+opt.allocTol())+opt.AllocSlack {
			d.AllocsRegressed = true
		}
		deltas = append(deltas, d)
	}
	for _, r := range old {
		if !seen[r.Name] {
			removed = append(removed, r.Name)
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	sort.Strings(added)
	sort.Strings(removed)
	return deltas, added, removed
}

// notSpeedupNote is how reports label a parallel row recorded on one core.
const notSpeedupNote = "not a speedup measurement (1-core snapshot)"

// notSpeedup reports whether row name of snapshot r times parallel
// construction (Parallel, workers=) on a snapshot recorded on one core.
func notSpeedup(name string, r *report) bool {
	return (r.GOMAXPROCS == 1 || r.NProc == 1) &&
		(strings.Contains(name, "Parallel") || strings.Contains(name, "workers="))
}

// LabelSingleCore sets NotSpeedup on the deltas whose rows in the new
// snapshot r are parallel rows recorded on one core.
func LabelSingleCore(deltas []Delta, r *report) {
	for i := range deltas {
		deltas[i].NotSpeedup = notSpeedup(deltas[i].Name, r)
	}
}

// minCount is the fewest -count rounds a snapshot can record without a
// warning.
const minCount = 16

// countWarning returns the warning for snapshot r at path when it records
// fewer than minCount rounds, or "" when it records enough.
func countWarning(path string, r *report) string {
	n := max(r.Count, 1) // benchjson omits count when it is 1
	if n >= minCount {
		return ""
	}
	return fmt.Sprintf("%s records count %d, below %d: its best-of timings depend on how many rounds were run", path, n, minCount)
}

// SortSnapshots orders snapshot file names by the first integer embedded in
// their base name, ascending (BENCH_2.json < BENCH_10.json); names without
// an integer sort first, lexicographically. The input is not modified.
func SortSnapshots(names []string) []string {
	s := append([]string(nil), names...)
	sort.SliceStable(s, func(i, j int) bool {
		ni, oki := snapshotIndex(s[i])
		nj, okj := snapshotIndex(s[j])
		switch {
		case oki && okj && ni != nj:
			return ni < nj
		case oki != okj:
			return !oki
		default:
			return s[i] < s[j]
		}
	})
	return s
}

// snapshotIndex extracts the first integer run from a file's base name.
func snapshotIndex(name string) (int, bool) {
	base := filepath.Base(name)
	start := -1
	for i := 0; i <= len(base); i++ {
		if i < len(base) && base[i] >= '0' && base[i] <= '9' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			n, err := strconv.Atoi(base[start:i])
			return n, err == nil
		}
	}
	return 0, false
}

// ApplyBaseline rewrites the committed predecessor's timings with the new
// snapshot's embedded same-machine baseline: for every benchmark present in
// both, old ns/op becomes the baseline's ns/op. Allocation counts keep the
// committed values (they are machine-independent, so the committed history
// remains the stricter and correct reference), and benchmarks the baseline
// does not cover keep their committed timings. The input slice is not
// modified.
func ApplyBaseline(old, baseline []result) []result {
	ns := make(map[string]float64, len(baseline))
	for _, r := range baseline {
		ns[r.Name] = r.NsPerOp
	}
	out := append([]result(nil), old...)
	for i := range out {
		if v, ok := ns[out[i].Name]; ok {
			out[i].NsPerOp = v
		}
	}
	return out
}

// diffFiles loads and compares one snapshot pair, printing the human report
// to stdout and appending the Markdown report to md (when non-nil). It
// returns the number of regressed benchmarks.
func diffFiles(oldPath, newPath string, opt Options, verbose bool, md *strings.Builder) (int, error) {
	old, err := load(oldPath)
	if err != nil {
		return 0, err
	}
	new, err := load(newPath)
	if err != nil {
		return 0, err
	}
	oldResults := old.Results
	if len(new.Baseline) > 0 {
		oldResults = ApplyBaseline(oldResults, new.Baseline)
		fmt.Printf("benchdiff: %s embeds a same-machine baseline for %s; timings compared against it (note: %s)\n",
			newPath, oldPath, orDash(new.BaselineNote))
		if md != nil {
			fmt.Fprintf(md, "> ⚖️ `%s` embeds a same-machine re-measurement of `%s`'s code; timings are compared against it. Note: %s\n\n",
				newPath, oldPath, orDash(new.BaselineNote))
		}
	}
	deltas, added, removed := Compare(oldResults, new.Results, opt)
	LabelSingleCore(deltas, new)
	// With an embedded baseline both sides' timings come from the new
	// snapshot's recording, so only its round count matters.
	warnings := []string{countWarning(newPath, new)}
	if len(new.Baseline) == 0 {
		warnings = append(warnings, countWarning(oldPath, old))
	}
	for _, w := range warnings {
		if w == "" {
			continue
		}
		fmt.Printf("benchdiff: warning: %s\n", w)
		if md != nil {
			fmt.Fprintf(md, "> ⚠️ %s\n\n", w)
		}
	}

	bad := 0
	for _, d := range deltas {
		if d.Regressed() {
			bad++
		}
		if d.Regressed() || verbose || d.NotSpeedup {
			fmt.Printf("%s %-60s ns/op %12.0f -> %12.0f (%+.1f%%)%s%s\n",
				verdict(&d), d.Name, d.OldNs, d.NewNs, (d.NsRatio-1)*100,
				allocsColumn(&d), noteColumn(&d))
		}
	}
	fmt.Printf("benchdiff: %s -> %s: %d compared, %d regressed, %d added, %d removed (tol %+.0f%%, ns floor %gns)\n",
		oldPath, newPath, len(deltas), bad, len(added), len(removed), opt.Tol*100, opt.NsFloor)
	for _, name := range added {
		fmt.Printf("  added:   %s%s\n", name, noteColumn(&Delta{NotSpeedup: notSpeedup(name, new)}))
	}
	for _, name := range removed {
		fmt.Printf("  REMOVED: %s\n", name)
	}
	if md != nil {
		Markdown(md, oldPath, newPath, deltas, added, removed, opt)
		for _, name := range added {
			if notSpeedup(name, new) {
				fmt.Fprintf(md, "- `%s`: %s\n", name, notSpeedupNote)
			}
		}
	}
	return bad, nil
}

// Markdown appends one comparison's report to b: a one-line verdict plus a
// table of the regressed benchmarks (every compared one when none
// regressed and the set is small enough to stay readable).
func Markdown(b *strings.Builder, oldPath, newPath string, deltas []Delta, added, removed []string, opt Options) {
	bad := 0
	for _, d := range deltas {
		if d.Regressed() {
			bad++
		}
	}
	verdict := "✅ clean"
	if bad > 0 {
		verdict = fmt.Sprintf("❌ %d regression(s)", bad)
	}
	fmt.Fprintf(b, "### benchdiff `%s` → `%s`: %s\n\n", oldPath, newPath, verdict)
	fmt.Fprintf(b, "%d compared, %d added, %d removed (ns tol %+.0f%%, alloc tol %+.0f%% ±%g, ns floor %gns)\n\n",
		len(deltas), len(added), len(removed), opt.Tol*100, opt.allocTol()*100, opt.AllocSlack, opt.NsFloor)
	rows := make([]Delta, 0, len(deltas))
	for _, d := range deltas {
		if d.Regressed() || d.NotSpeedup {
			rows = append(rows, d)
		}
	}
	const maxCleanRows = 32
	if bad == 0 && len(deltas) <= maxCleanRows {
		rows = deltas
	}
	if len(rows) > 0 {
		b.WriteString("| benchmark | ns/op (old → new) | Δns | allocs/op (old → new) | status |\n")
		b.WriteString("|---|---|---|---|---|\n")
		for _, d := range rows {
			allocs := "—"
			if d.OldAllocs != nil && d.NewAllocs != nil {
				allocs = fmt.Sprintf("%.0f → %.0f", *d.OldAllocs, *d.NewAllocs)
			}
			status := "ok"
			switch {
			case d.NsRegressed && d.AllocsRegressed:
				status = "**ns+allocs regression**"
			case d.NsRegressed:
				status = "**ns regression**"
			case d.AllocsRegressed:
				status = "**allocs regression**"
			case d.NsBelowFloor:
				status = "below ns floor"
			}
			if d.NotSpeedup {
				status += "; " + notSpeedupNote
			}
			fmt.Fprintf(b, "| %s | %.0f → %.0f | %+.1f%% | %s | %s |\n",
				d.Name, d.OldNs, d.NewNs, (d.NsRatio-1)*100, allocs, status)
		}
		b.WriteString("\n")
	}
	for _, name := range added {
		fmt.Fprintf(b, "- added: `%s`\n", name)
	}
	for _, name := range removed {
		fmt.Fprintf(b, "- **removed**: `%s`\n", name)
	}
	b.WriteString("\n")
}

func main() {
	tol := flag.Float64("tol", 0.10, "relative ns/op regression tolerance (0.10 = +10%)")
	allocTol := flag.Float64("alloc-tol", -1, "relative allocs/op tolerance (negative = same as -tol)")
	nsFloor := flag.Float64("ns-floor", 100000, "skip the ns/op check when the old value is below this (timer noise)")
	allocSlack := flag.Float64("alloc-slack", 2, "absolute allocs/op slack on top of the allocs tolerance")
	verbose := flag.Bool("v", false, "print every compared benchmark, not only regressions")
	chain := flag.Bool("chain", false, "diff consecutive snapshots of the numerically sorted file list")
	printLatest := flag.Bool("print-latest", false, "print the numerically newest snapshot name and exit")
	summary := flag.String("summary", "", "append a Markdown report to this file (CI: $GITHUB_STEP_SUMMARY)")
	flag.Parse()

	if *printLatest {
		if flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: benchdiff -print-latest SNAPSHOT...")
			os.Exit(2)
		}
		sorted := SortSnapshots(flag.Args())
		fmt.Println(sorted[len(sorted)-1])
		return
	}

	var files []string
	switch {
	case *chain:
		if flag.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "usage: benchdiff -chain [flags] SNAPSHOT SNAPSHOT...")
			os.Exit(2)
		}
		files = SortSnapshots(flag.Args())
	default:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] old.json new.json")
			os.Exit(2)
		}
		files = flag.Args()
	}

	opt := Options{Tol: *tol, AllocTol: *allocTol, NsFloor: *nsFloor, AllocSlack: *allocSlack}
	var md *strings.Builder
	if *summary != "" {
		md = &strings.Builder{}
	}
	// The summary is flushed before any exit — including a mid-chain load
	// failure — so the run page keeps the report of every pair already
	// compared.
	flushSummary := func() {
		if md == nil {
			return
		}
		f, err := os.OpenFile(*summary, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fatal(err)
		}
		if _, err := f.WriteString(md.String()); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	bad := 0
	for i := 1; i < len(files); i++ {
		n, err := diffFiles(files[i-1], files[i], opt, *verbose, md)
		if err != nil {
			if md != nil {
				fmt.Fprintf(md, "### benchdiff `%s` → `%s`: ⚠️ %v\n\n", files[i-1], files[i], err)
			}
			flushSummary()
			fatal(err)
		}
		bad += n
	}
	flushSummary()
	if bad > 0 {
		os.Exit(1)
	}
}

func orDash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}

func verdict(d *Delta) string {
	if d.Regressed() {
		return "FAIL"
	}
	return "ok  "
}

func allocsColumn(d *Delta) string {
	if d.OldAllocs == nil || d.NewAllocs == nil {
		return ""
	}
	return fmt.Sprintf("  allocs/op %8.0f -> %8.0f", *d.OldAllocs, *d.NewAllocs)
}

func noteColumn(d *Delta) string {
	note := ""
	switch {
	case d.NsRegressed && d.AllocsRegressed:
		note = "  [ns+allocs regression]"
	case d.NsRegressed:
		note = "  [ns regression]"
	case d.AllocsRegressed:
		note = "  [allocs regression]"
	case d.NsBelowFloor:
		note = "  [ns below floor, timing not compared]"
	}
	if d.NotSpeedup {
		note += "  [" + notSpeedupNote + "]"
	}
	return note
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return &rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
