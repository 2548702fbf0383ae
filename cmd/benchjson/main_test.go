package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseTranscript(t *testing.T) {
	const transcript = `goos: linux
goarch: amd64
pkg: gridbcast
BenchmarkFoo/n=10-4     	       3	      3011 ns/op	    1082 B/op	      10 allocs/op
BenchmarkBar            	       5	    125000 ns/op	         0.52 vs-unseg
PASS
`
	rs, _, err := Parse(strings.NewReader(transcript))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("parsed %d results", len(rs))
	}
	foo := rs[0]
	if foo.Name != "BenchmarkFoo/n=10" || foo.Iterations != 3 || foo.NsPerOp != 3011 {
		t.Fatalf("foo = %+v", foo)
	}
	if foo.BytesPerOp == nil || *foo.BytesPerOp != 1082 || foo.AllocsPerOp == nil || *foo.AllocsPerOp != 10 {
		t.Fatalf("foo mem = %+v", foo)
	}
	if rs[1].Metrics["vs-unseg"] != 0.52 {
		t.Fatalf("bar metrics = %+v", rs[1].Metrics)
	}
}

func TestParseMergesRepeatedRunsKeepingBest(t *testing.T) {
	// -count > 1 repeats every benchmark; the snapshot keeps the fastest
	// run of each (noise only adds time).
	const transcript = `BenchmarkFoo-4     	      20	      3500 ns/op	      10 allocs/op
BenchmarkBar-4     	      20	      9000 ns/op
BenchmarkFoo-4     	      20	      3011 ns/op	      10 allocs/op
BenchmarkFoo-4     	      20	      4100 ns/op	      10 allocs/op
`
	rs, procs, err := Parse(strings.NewReader(transcript))
	if err != nil {
		t.Fatal(err)
	}
	if procs != 4 {
		t.Fatalf("GOMAXPROCS %d, want 4 from the -4 suffixes", procs)
	}
	if len(rs) != 2 {
		t.Fatalf("parsed %d results, want merged 2", len(rs))
	}
	if rs[0].Name != "BenchmarkFoo" || rs[0].NsPerOp != 3011 {
		t.Fatalf("best run not kept: %+v", rs[0])
	}
	if rs[1].Name != "BenchmarkBar" {
		t.Fatalf("order not preserved: %+v", rs[1])
	}
}

func TestLoadResultsForBaselineEmbedding(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BASE.json")
	const snap = `{"generated_at":"2026-08-08T12:00:00Z","go_version":"go1.24",
  "results":[{"name":"BenchmarkFoo","iterations":20,"ns_per_op":1500000}]}`
	if err := os.WriteFile(path, []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := LoadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Name != "BenchmarkFoo" || rs[0].NsPerOp != 1.5e6 {
		t.Fatalf("results = %+v", rs)
	}
	empty := filepath.Join(dir, "EMPTY.json")
	if err := os.WriteFile(empty, []byte(`{"results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadResults(empty); err == nil {
		t.Fatal("empty snapshot accepted as a baseline")
	}
}

// TestParseRecordsGOMAXPROCS pins the snapshot's GOMAXPROCS field: read
// from the name suffix, 1 when the testing package omitted it, 0 (unknown)
// when the transcript mixes values or holds no results. Names whose last
// dash-separated part is not all digits keep it.
func TestParseRecordsGOMAXPROCS(t *testing.T) {
	for _, tc := range []struct {
		transcript string
		want       int
	}{
		{"BenchmarkA/workers=8-2 \t 20 \t 100 ns/op\nBenchmarkB-2 \t 20 \t 100 ns/op\n", 2},
		{"BenchmarkA/workers=8 \t 20 \t 100 ns/op\n", 1},
		{"BenchmarkA-2 \t 20 \t 100 ns/op\nBenchmarkA-4 \t 20 \t 90 ns/op\n", 0},
		{"PASS\n", 0},
	} {
		rs, procs, err := Parse(strings.NewReader(tc.transcript))
		if err != nil {
			t.Fatal(err)
		}
		if procs != tc.want {
			t.Errorf("%q: GOMAXPROCS %d, want %d", tc.transcript, procs, tc.want)
		}
		if len(rs) > 0 && rs[0].Name != "BenchmarkA/workers=8" && rs[0].Name != "BenchmarkA" {
			t.Errorf("%q: name %q not stripped", tc.transcript, rs[0].Name)
		}
	}
	for name, want := range map[string]string{"BenchmarkX/n-x": "BenchmarkX/n-x", "BenchmarkX-": "BenchmarkX-", "BenchmarkX-+3": "BenchmarkX-+3", "BenchmarkX-16": "BenchmarkX"} {
		if got, _ := splitProcs(name); got != want {
			t.Errorf("splitProcs(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestParseModeRecordsRunFlags: a transcript parsed with -in records the
// -bench, -benchtime and -count it was recorded with when they are given,
// as run mode does, and leaves them empty when they are not.
func TestParseModeRecordsRunFlags(t *testing.T) {
	dir := t.TempDir()
	transcript := filepath.Join(dir, "bench.txt")
	const lines = "BenchmarkFoo-2 \t 20 \t 3500 ns/op\nBenchmarkFoo-2 \t 20 \t 3011 ns/op\n"
	if err := os.WriteFile(transcript, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want Report
	}{
		{[]string{"-bench", "BenchmarkFoo|BenchmarkBar", "-benchtime", "20x", "-count", "2"},
			Report{Bench: "BenchmarkFoo|BenchmarkBar", BenchTime: "20x", Count: 2}},
		{[]string{"-benchtime", "3x"}, Report{BenchTime: "3x"}},
		{nil, Report{}},
	} {
		out := filepath.Join(dir, "out.json")
		args := append([]string{"-in", transcript, "-out", out}, tc.args...)
		if err := run(args, nil, nil); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var got Report
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if got.Bench != tc.want.Bench || got.BenchTime != tc.want.BenchTime || got.Count != tc.want.Count {
			t.Errorf("%q: bench %q benchtime %q count %d, want %q %q %d", tc.args,
				got.Bench, got.BenchTime, got.Count, tc.want.Bench, tc.want.BenchTime, tc.want.Count)
		}
		if got.GOMAXPROCS != 2 || len(got.Results) != 1 || got.Results[0].NsPerOp != 3011 {
			t.Errorf("%q: results %+v at GOMAXPROCS %d", tc.args, got.Results, got.GOMAXPROCS)
		}
	}
}
