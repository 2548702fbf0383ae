package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func f(v float64) *float64 { return &v }

func opts() Options { return Options{Tol: 0.10, AllocTol: -1, NsFloor: 100000, AllocSlack: 2} }

func TestCompareFlagsNsRegression(t *testing.T) {
	old := []result{{Name: "BenchmarkA", NsPerOp: 1e6, AllocsPerOp: f(100)}}
	new := []result{{Name: "BenchmarkA", NsPerOp: 1.2e6, AllocsPerOp: f(100)}}
	deltas, _, _ := Compare(old, new, opts())
	if len(deltas) != 1 || !deltas[0].NsRegressed || deltas[0].AllocsRegressed {
		t.Fatalf("deltas = %+v", deltas)
	}
}

func TestCompareWithinToleranceIsClean(t *testing.T) {
	old := []result{{Name: "BenchmarkA", NsPerOp: 1e6, AllocsPerOp: f(100)}}
	new := []result{{Name: "BenchmarkA", NsPerOp: 1.09e6, AllocsPerOp: f(108)}}
	deltas, _, _ := Compare(old, new, opts())
	if deltas[0].Regressed() {
		t.Fatalf("within-tolerance drift flagged: %+v", deltas[0])
	}
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	old := []result{{Name: "BenchmarkA", NsPerOp: 1e6, AllocsPerOp: f(100)}}
	new := []result{{Name: "BenchmarkA", NsPerOp: 1e6, AllocsPerOp: f(120)}}
	deltas, _, _ := Compare(old, new, opts())
	if !deltas[0].AllocsRegressed || deltas[0].NsRegressed {
		t.Fatalf("deltas = %+v", deltas[0])
	}
}

func TestCompareAllocSlackAbsorbsTinyCounts(t *testing.T) {
	// 1 -> 3 allocs is +200% but within the absolute slack; 1 -> 4 is not.
	old := []result{{Name: "BenchmarkA", NsPerOp: 1e6, AllocsPerOp: f(1)}}
	ok := []result{{Name: "BenchmarkA", NsPerOp: 1e6, AllocsPerOp: f(3)}}
	deltas, _, _ := Compare(old, ok, opts())
	if deltas[0].AllocsRegressed {
		t.Fatalf("slack not applied: %+v", deltas[0])
	}
	bad := []result{{Name: "BenchmarkA", NsPerOp: 1e6, AllocsPerOp: f(4)}}
	deltas, _, _ = Compare(old, bad, opts())
	if !deltas[0].AllocsRegressed {
		t.Fatalf("beyond-slack growth not flagged: %+v", deltas[0])
	}
}

func TestCompareNsFloorSilencesNoise(t *testing.T) {
	// 3µs benchmarks jitter wildly at -benchtime 1x; the floor mutes the
	// timing check but allocs are still compared.
	old := []result{{Name: "BenchmarkTiny", NsPerOp: 3000, AllocsPerOp: f(10)}}
	new := []result{{Name: "BenchmarkTiny", NsPerOp: 9000, AllocsPerOp: f(30)}}
	deltas, _, _ := Compare(old, new, opts())
	if deltas[0].NsRegressed || !deltas[0].NsBelowFloor {
		t.Fatalf("floor not applied: %+v", deltas[0])
	}
	if !deltas[0].AllocsRegressed {
		t.Fatalf("allocs regression hidden by the floor: %+v", deltas[0])
	}
}

func TestCompareAddedAndRemoved(t *testing.T) {
	old := []result{
		{Name: "BenchmarkKept", NsPerOp: 1e6},
		{Name: "BenchmarkGone", NsPerOp: 1e6},
	}
	new := []result{
		{Name: "BenchmarkKept", NsPerOp: 1e6},
		{Name: "BenchmarkNew", NsPerOp: 5e6},
	}
	deltas, added, removed := Compare(old, new, opts())
	if len(deltas) != 1 || deltas[0].Name != "BenchmarkKept" {
		t.Fatalf("deltas = %+v", deltas)
	}
	if len(added) != 1 || added[0] != "BenchmarkNew" {
		t.Fatalf("added = %v", added)
	}
	if len(removed) != 1 || removed[0] != "BenchmarkGone" {
		t.Fatalf("removed = %v", removed)
	}
}

func TestCompareMissingAllocsSkipsAllocCheck(t *testing.T) {
	old := []result{{Name: "BenchmarkA", NsPerOp: 1e6}}
	new := []result{{Name: "BenchmarkA", NsPerOp: 1e6, AllocsPerOp: f(1e9)}}
	deltas, _, _ := Compare(old, new, opts())
	if deltas[0].Regressed() {
		t.Fatalf("alloc check ran without a baseline: %+v", deltas[0])
	}
}

func TestCompareSeparateAllocTolerance(t *testing.T) {
	// Cross-machine CI diffs widen the timing tolerance but keep the
	// machine-independent allocation tolerance tight.
	old := []result{{Name: "BenchmarkA", NsPerOp: 1e6, AllocsPerOp: f(100)}}
	new := []result{{Name: "BenchmarkA", NsPerOp: 1.8e6, AllocsPerOp: f(120)}}
	wide := Options{Tol: 1.0, AllocTol: 0.10, NsFloor: 100000, AllocSlack: 2}
	deltas, _, _ := Compare(old, new, wide)
	if deltas[0].NsRegressed {
		t.Fatalf("ns flagged despite wide tolerance: %+v", deltas[0])
	}
	if !deltas[0].AllocsRegressed {
		t.Fatalf("alloc regression missed under tight alloc tolerance: %+v", deltas[0])
	}
}

func TestApplyBaselineRetimesSharedBenchmarks(t *testing.T) {
	// The recording machine slowed down between snapshots: the committed
	// predecessor says 1ms, but its code re-measured today takes 1.5ms. The
	// paired baseline keeps the timing gate honest — the new snapshot's
	// 1.55ms is +3% against the same-machine baseline, not +55% against the
	// stale committed value — while allocs stay pinned to the committed
	// (machine-independent) history.
	old := []result{
		{Name: "BenchmarkA", NsPerOp: 1e6, AllocsPerOp: f(100)},
		{Name: "BenchmarkUncovered", NsPerOp: 1e6, AllocsPerOp: f(50)},
	}
	baseline := []result{
		{Name: "BenchmarkA", NsPerOp: 1.5e6, AllocsPerOp: f(100)},
		{Name: "BenchmarkOnlyInBaseline", NsPerOp: 9e9},
	}
	new := []result{
		{Name: "BenchmarkA", NsPerOp: 1.55e6, AllocsPerOp: f(120)},
		{Name: "BenchmarkUncovered", NsPerOp: 1.55e6, AllocsPerOp: f(50)},
	}
	rebased := ApplyBaseline(old, baseline)
	if old[0].NsPerOp != 1e6 {
		t.Fatal("ApplyBaseline mutated its input")
	}
	if len(rebased) != 2 || rebased[0].NsPerOp != 1.5e6 || *rebased[0].AllocsPerOp != 100 {
		t.Fatalf("rebased = %+v", rebased)
	}
	deltas, _, _ := Compare(rebased, new, opts())
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if d := byName["BenchmarkA"]; d.NsRegressed {
		t.Fatalf("paired +3%% flagged as regression: %+v", d)
	}
	if d := byName["BenchmarkA"]; !d.AllocsRegressed {
		t.Fatalf("alloc growth hidden by the baseline: %+v", d)
	}
	// A benchmark the baseline does not cover still compares against the
	// committed timing — an incomplete baseline cannot mute the gate.
	if d := byName["BenchmarkUncovered"]; !d.NsRegressed {
		t.Fatalf("uncovered benchmark skipped the committed comparison: %+v", d)
	}
}

func TestSortSnapshotsNumeric(t *testing.T) {
	// The shell's `ls | sort -V` ordering broke down on double-digit
	// indices in some locales; the tool owns the ordering now, numerically.
	got := SortSnapshots([]string{
		"BENCH_10.json", "BENCH_2.json", "BENCH_1.json", "BENCH_5.json", "BENCH_21.json",
	})
	want := []string{"BENCH_1.json", "BENCH_2.json", "BENCH_5.json", "BENCH_10.json", "BENCH_21.json"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestSortSnapshotsPathsAndStragglers(t *testing.T) {
	got := SortSnapshots([]string{"/tmp/BENCH_12.json", "BENCH_3.json", "BENCH_base.json"})
	want := []string{"BENCH_base.json", "BENCH_3.json", "/tmp/BENCH_12.json"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if n, ok := snapshotIndex("BENCH_42.json"); !ok || n != 42 {
		t.Fatalf("snapshotIndex(BENCH_42.json) = %d, %v", n, ok)
	}
	if _, ok := snapshotIndex("BENCH.json"); ok {
		t.Fatal("index found in an unnumbered name")
	}
}

func TestMarkdownSummary(t *testing.T) {
	old := []result{
		{Name: "BenchmarkA", NsPerOp: 1e6, AllocsPerOp: f(100)},
		{Name: "BenchmarkGone", NsPerOp: 1e6},
	}
	new := []result{
		{Name: "BenchmarkA", NsPerOp: 2e6, AllocsPerOp: f(100)},
		{Name: "BenchmarkNew", NsPerOp: 1e6},
	}
	deltas, added, removed := Compare(old, new, opts())
	var b strings.Builder
	Markdown(&b, "BENCH_1.json", "BENCH_2.json", deltas, added, removed, opts())
	out := b.String()
	for _, want := range []string{
		"### benchdiff `BENCH_1.json` → `BENCH_2.json`: ❌ 1 regression(s)",
		"| BenchmarkA | 1000000 → 2000000 | +100.0% | 100 → 100 | **ns regression** |",
		"- added: `BenchmarkNew`",
		"- **removed**: `BenchmarkGone`",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// A clean small comparison lists every benchmark instead.
	deltas, added, removed = Compare(old[:1], old[:1], opts())
	b.Reset()
	Markdown(&b, "a.json", "b.json", deltas, added, removed, opts())
	if out := b.String(); !strings.Contains(out, "✅ clean") || !strings.Contains(out, "| BenchmarkA |") {
		t.Errorf("clean summary malformed:\n%s", out)
	}
}

// TestLabelSingleCoreParallelRows pins the honest-snapshot label: parallel
// rows (Parallel, workers=) of a snapshot recorded at GOMAXPROCS 1 or on a
// 1-CPU machine say they are not a speedup measurement, in the text and
// Markdown reports; other rows, multi-core snapshots and snapshots that do
// not record the fields are left alone.
func TestLabelSingleCoreParallelRows(t *testing.T) {
	old := []result{
		{Name: "BenchmarkPipelinedLadderParallel/workers=8", NsPerOp: 1e6},
		{Name: "BenchmarkParallelBuild/n=512/workers=4", NsPerOp: 1e6},
		{Name: "BenchmarkLargeGrid/ECEF/n=512", NsPerOp: 1e6},
	}
	new := append(append([]result(nil), old...), result{Name: "BenchmarkWorkStealingBuild/workers=2", NsPerOp: 1e6})
	for _, tc := range []struct {
		rep  report
		want bool
	}{
		{report{NProc: 2, GOMAXPROCS: 1}, true},
		{report{NProc: 1, GOMAXPROCS: 4}, true},
		{report{NProc: 2, GOMAXPROCS: 2}, false},
		{report{}, false},
	} {
		deltas, added, _ := Compare(old, new, opts())
		LabelSingleCore(deltas, &tc.rep)
		for _, d := range deltas {
			if want := tc.want && d.Name != "BenchmarkLargeGrid/ECEF/n=512"; d.NotSpeedup != want {
				t.Errorf("%+v: %s labelled %t, want %t", tc.rep, d.Name, d.NotSpeedup, want)
			}
			if d.NotSpeedup && !strings.Contains(noteColumn(&d), notSpeedupNote) {
				t.Errorf("text report omits the label: %q", noteColumn(&d))
			}
		}
		if len(added) != 1 || notSpeedup(added[0], &tc.rep) != tc.want {
			t.Errorf("%+v: added rows %v not labelled %t", tc.rep, added, tc.want)
		}
		if tc.want {
			var b strings.Builder
			Markdown(&b, "a.json", "b.json", deltas, added, nil, opts())
			if !strings.Contains(b.String(), "| BenchmarkParallelBuild/n=512/workers=4 | 1000000 → 1000000 | +0.0% | — | ok; "+notSpeedupNote+" |") {
				t.Errorf("Markdown omits the label:\n%s", b.String())
			}
		}
	}
}

func TestCountWarning(t *testing.T) {
	for _, c := range []struct {
		count int
		warn  bool
	}{{0, true}, {5, true}, {15, true}, {16, false}, {20, false}} {
		w := countWarning("BENCH_9.json", &report{Count: c.count})
		if (w != "") != c.warn {
			t.Fatalf("count %d: warning %q, want warn=%v", c.count, w, c.warn)
		}
	}
	if w := countWarning("BENCH_9.json", &report{}); !strings.Contains(w, "BENCH_9.json records count 1, below 16") {
		t.Fatalf("omitted count: warning %q", w)
	}
}

// TestDiffFilesWarnsOnLowCount: a pair with a low-count snapshot reports a
// warning in the Markdown summary but no regression; with an embedded
// baseline only the new snapshot's count is checked.
func TestDiffFilesWarnsOnLowCount(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep report) string {
		t.Helper()
		path := filepath.Join(dir, name)
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rows := []result{{Name: "BenchmarkA", NsPerOp: 1e6, AllocsPerOp: f(10)}}
	low := write("BENCH_1.json", report{Count: 5, Results: rows})
	high := write("BENCH_2.json", report{Count: 16, Results: rows})
	paired := write("BENCH_3.json", report{Count: 16, Results: rows, Baseline: rows})
	for _, c := range []struct {
		old, new string
		warn     bool
	}{{low, high, true}, {high, low, true}, {high, high, false}, {low, paired, false}} {
		var md strings.Builder
		bad, err := diffFiles(c.old, c.new, opts(), false, &md)
		if err != nil || bad != 0 {
			t.Fatalf("%s -> %s: %d regressed, err %v", c.old, c.new, bad, err)
		}
		if got := strings.Contains(md.String(), "records count 5, below 16"); got != c.warn {
			t.Fatalf("%s -> %s: warned %v, want %v:\n%s", c.old, c.new, got, c.warn, md.String())
		}
	}
}

func TestDiffFilesComparesBestBesideRoundSpread(t *testing.T) {
	// A snapshot carrying benchjson's per-row round spread (rounds, median,
	// max) diffs against one without it, in either order, on best-of
	// ns/op: a median far past the tolerance is not a regression.
	dir := t.TempDir()
	old := filepath.Join(dir, "BENCH_1.json")
	new := filepath.Join(dir, "BENCH_2.json")
	const oldSnap = `{"generated_at":"2026-08-08T12:00:00Z","go_version":"go1.24","count":16,
  "results":[{"name":"BenchmarkA","iterations":20,"ns_per_op":1000000,"allocs_per_op":10}]}`
	const newSnap = `{"generated_at":"2026-10-21T12:00:00Z","go_version":"go1.24","count":16,
  "results":[{"name":"BenchmarkA","iterations":20,"ns_per_op":1010000,"allocs_per_op":10,
    "rounds":16,"median_ns_per_op":1900000,"max_ns_per_op":2500000}]}`
	for path, snap := range map[string]string{old: oldSnap, new: newSnap} {
		if err := os.WriteFile(path, []byte(snap), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]string{{old, new}, {new, old}} {
		var md strings.Builder
		if bad, err := diffFiles(pair[0], pair[1], opts(), false, &md); err != nil || bad != 0 {
			t.Fatalf("%s -> %s: %d regressed, err %v", pair[0], pair[1], bad, err)
		}
	}
}
