package experiment

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"gridbcast/internal/sched"
	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// renderAll serialises the Monte-Carlo figure tables to bytes. Byte
// equality of the rendered tables is the strongest practical determinism
// oracle: it covers every float of every point, not a tolerance.
func renderAll(t *testing.T, mc MonteCarlo) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, fig := range []*Figure{
		mc.Fig1(), mc.Fig2(), mc.Fig3(), mc.Fig4(),
		mc.FigSegmentsRandom(6, []int64{64 << 10, 4 << 20}, []int{1, 4, 16}),
	} {
		if err := fig.WriteDAT(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSweepsByteIdenticalAcrossGOMAXPROCS runs the Fig 1–4 sweeps (and the
// random segment sweep) at GOMAXPROCS ∈ {1, 2, 8} with the worker count
// defaulting to GOMAXPROCS, and asserts the rendered figure tables are
// byte-identical: the ordered fold makes every statistic worker-count-exact,
// not merely convergent.
func TestSweepsByteIdenticalAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got := renderAll(t, MonteCarlo{Iterations: 40, Seed: 7})
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("figure tables diverge at GOMAXPROCS=%d", procs)
		}
	}
}

// TestSweepsByteIdenticalWithParallelScan repeats the oracle with the
// schedule construction itself parallelised (MonteCarlo.ScanWorkers →
// gridbcast.WithScanWorkers): the figures must not move by a single byte.
func TestSweepsByteIdenticalWithParallelScan(t *testing.T) {
	base := MonteCarlo{Iterations: 30, Seed: 11, Workers: 2}
	want := renderAll(t, base)
	for _, scan := range []int{2, 5} {
		mc := base
		mc.ScanWorkers = scan
		if !bytes.Equal(want, renderAll(t, mc)) {
			t.Fatalf("figure tables diverge with ScanWorkers=%d", scan)
		}
	}
}

// TestParallelBuildByteIdenticalAcrossGOMAXPROCS pins the builder's own
// contract at the scheduler level: with the worker count defaulting to
// GOMAXPROCS, the serialised schedules of every heuristic are byte-identical
// at GOMAXPROCS ∈ {1, 2, 8}.
func TestParallelBuildByteIdenticalAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := topology.RandomGrid(stats.NewRand(3), 96)
	p := sched.MustProblem(g, 2, 1<<20, sched.Options{Overlap: true})
	hs := append(sched.Paper(), sched.Mixed{})
	var want []byte
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		pb := sched.NewParallelBuilder(0)
		ep := sched.NewEnginePool()
		ep.Scan = pb
		var buf bytes.Buffer
		for _, h := range hs {
			fmt.Fprintf(&buf, "%+v\n", ep.Schedule(h, p))
		}
		pb.Close()
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("schedules diverge at GOMAXPROCS=%d", procs)
		}
	}
}

// TestSegmentedParallelByteIdenticalAcrossGOMAXPROCS extends the builder
// contract to the segmented engine behind WithScanWorkers: with the scan
// pool sized to GOMAXPROCS, the serialised pipelined schedules of every
// paper heuristic are byte-identical at GOMAXPROCS ∈ {1, 2, 8} — the
// work-stealing chunk claims must be unobservable in the result.
func TestSegmentedParallelByteIdenticalAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := topology.RandomGrid(stats.NewRand(21), 96)
	var want []byte
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		pb := sched.NewParallelBuilder(0)
		ep := sched.NewEnginePool()
		ep.Scan = pb
		var buf bytes.Buffer
		for _, h := range sched.Paper() {
			sp := sched.MustSegmentedProblem(g, 2, 4<<20, 256<<10, sched.Options{})
			fmt.Fprintf(&buf, "%+v\n", ep.ScheduleSegmented(h, sp))
		}
		pb.Close()
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("segmented schedules diverge at GOMAXPROCS=%d", procs)
		}
	}
}
