package mpi

import (
	"fmt"
	"math"
	"testing"

	"gridbcast/internal/intracluster"
	"gridbcast/internal/sched"
	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
	"gridbcast/internal/vnet"
)

// TestExecutionMatchesPredictionRandomGrids is the central cross-validation
// of the repository: the analytic makespan (internal/sched) and the
// message-by-message execution on the virtual network (this package) are
// independent implementations of the same model, so on an ideal network
// they must agree to floating-point tolerance for every heuristic.
func TestExecutionMatchesPredictionRandomGrids(t *testing.T) {
	r := stats.NewRand(31)
	for trial := 0; trial < 10; trial++ {
		n := 2 + r.Intn(9)
		g := topology.RandomGrid(r, n)
		root := r.Intn(n)
		p := sched.MustProblem(g, root, 1<<20, sched.Options{})
		for _, h := range sched.Paper() {
			sc := h.Schedule(p)
			res, err := ExecuteSchedule(g, sc, 1<<20, Options{})
			if err != nil {
				t.Fatalf("%s: %v", h.Name(), err)
			}
			if math.Abs(res.Makespan-sc.Makespan) > 1e-9 {
				t.Errorf("%s on n=%d: measured %g != predicted %g",
					h.Name(), n, res.Makespan, sc.Makespan)
			}
		}
	}
}

func TestExecutionMatchesPredictionGrid5000(t *testing.T) {
	g := topology.Grid5000()
	for _, m := range []int64{1 << 10, 1 << 20, 4 << 20} {
		p := sched.MustProblem(g, 0, m, sched.Options{})
		for _, h := range sched.Paper() {
			sc := h.Schedule(p)
			res, err := ExecuteSchedule(g, sc, m, Options{})
			if err != nil {
				t.Fatalf("%s: %v", h.Name(), err)
			}
			if math.Abs(res.Makespan-sc.Makespan) > 1e-9 {
				t.Errorf("%s at m=%d: measured %g != predicted %g",
					h.Name(), m, res.Makespan, sc.Makespan)
			}
		}
	}
}

func TestBinomialExecutionMatchesPrediction(t *testing.T) {
	g := topology.Grid5000()
	for _, m := range []int64{1 << 16, 1 << 22} {
		want := sched.PredictBinomialGridUnaware(g, 0, m)
		res, err := ExecuteBinomialGridUnaware(g, 0, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Makespan-want) > 1e-9 {
			t.Errorf("m=%d: measured %g != predicted %g", m, res.Makespan, want)
		}
		// 88 processes, 87 messages.
		if res.Messages != 87 {
			t.Errorf("messages = %d, want 87", res.Messages)
		}
	}
}

func TestCoordinatorArrivalsMatchScheduleRT(t *testing.T) {
	g := topology.Grid5000()
	p := sched.MustProblem(g, 0, 1<<20, sched.Options{})
	sc := sched.ECEFLAT().Schedule(p)
	res, err := ExecuteSchedule(g, sc, 1<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < g.N(); c++ {
		if math.Abs(res.CoordinatorArrival[c]-sc.RT[c]) > 1e-9 {
			t.Errorf("cluster %d: arrival %g != RT %g", c, res.CoordinatorArrival[c], sc.RT[c])
		}
	}
}

func TestMessageCountSchedule(t *testing.T) {
	g := topology.Grid5000()
	p := sched.MustProblem(g, 0, 1<<20, sched.Options{})
	sc := sched.FlatTree{}.Schedule(p)
	res, err := ExecuteSchedule(g, sc, 1<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 5 inter-cluster + intra edges: (31-1)+(29-1)+(6-1)+(0)+(0)+(20-1).
	wantIntra := int64(30 + 28 + 5 + 0 + 0 + 19)
	if res.Messages != 5+wantIntra {
		t.Errorf("messages = %d, want %d", res.Messages, 5+wantIntra)
	}
}

func TestJitterPerturbsButStaysClose(t *testing.T) {
	g := topology.Grid5000()
	p := sched.MustProblem(g, 0, 1<<20, sched.Options{})
	sc := sched.ECEF().Schedule(p)
	res, err := ExecuteSchedule(g, sc, 1<<20, Options{Net: vnet.Config{Jitter: 0.05, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan == sc.Makespan {
		t.Error("jitter should perturb the measured makespan")
	}
	if res.Makespan < sc.Makespan*0.8 || res.Makespan > sc.Makespan*1.2 {
		t.Errorf("jittered makespan %g too far from prediction %g", res.Makespan, sc.Makespan)
	}
}

func TestSoftwareOverheadSlowsExecution(t *testing.T) {
	g := topology.Grid5000()
	p := sched.MustProblem(g, 0, 1<<20, sched.Options{})
	sc := sched.ECEF().Schedule(p)
	slow, err := ExecuteSchedule(g, sc, 1<<20, Options{Net: vnet.Config{SoftwareOverhead: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Makespan <= sc.Makespan {
		t.Errorf("overhead did not slow execution: %g vs %g", slow.Makespan, sc.Makespan)
	}
	// An overhead this large pushes arrivals far past the analytic deadlines;
	// armed deadlines would re-parent receivers. A fault-free run must arm
	// none, so it reaches every node without a single repair.
	slower, err := ExecuteSchedule(g, sc, 1<<20, Options{Net: vnet.Config{SoftwareOverhead: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if slower.Reparents != 0 || slower.Retries != 0 || slower.NodesReached != g.TotalNodes() {
		t.Errorf("fault-free run repaired: reparents %d, retries %d, reached %d/%d",
			slower.Reparents, slower.Retries, slower.NodesReached, g.TotalNodes())
	}
}

func TestExecuteRejectsForeignSchedule(t *testing.T) {
	g5 := topology.Grid5000()
	r := stats.NewRand(1)
	other := topology.RandomGrid(r, 4)
	p := sched.MustProblem(other, 0, 1<<20, sched.Options{})
	sc := sched.ECEF().Schedule(p)
	if _, err := ExecuteSchedule(g5, sc, 1<<20, Options{}); err == nil {
		t.Error("schedule for another grid accepted")
	}
}

func TestExecuteBinomialValidation(t *testing.T) {
	g := topology.Grid5000()
	if _, err := ExecuteBinomialGridUnaware(g, 99, 1<<20, Options{}); err == nil {
		t.Error("bad root accepted")
	}
	if _, err := ExecuteBinomialGridUnaware(&topology.Grid{}, 0, 1, Options{}); err == nil {
		t.Error("invalid grid accepted")
	}
}

// TestStuckExecutionReportsLiveCount: the grid-unaware binomial executor
// has no recovery protocol, so a crashed rank leaves itself and its whole
// subtree blocked in Recv. The error must count those processes, which
// means reading the count before Shutdown unwinds them.
func TestStuckExecutionReportsLiveCount(t *testing.T) {
	g := topology.Grid5000()
	tree := intracluster.New(intracluster.Binomial, g.TotalNodes())
	const crashed = 32
	var subtree func(r int) int
	subtree = func(r int) int {
		n := 1
		for _, c := range tree.Children[r] {
			n += subtree(c)
		}
		return n
	}
	want := subtree(crashed)
	if want < 2 {
		t.Fatalf("rank %d has no subtree; pick a rank with children", crashed)
	}
	opt := Options{Net: vnet.Config{Faults: &vnet.FaultPlan{Crashes: []vnet.Crash{{Node: crashed}}}}}
	_, err := ExecuteBinomialGridUnaware(g, 0, 1<<20, opt)
	if err == nil {
		t.Fatal("execution with a crashed subtree reported success")
	}
	if got, wantMsg := err.Error(), fmt.Sprintf("mpi: %d processes never completed", want); got != wantMsg {
		t.Errorf("error %q, want %q", got, wantMsg)
	}
}

func TestRootRotationExecution(t *testing.T) {
	g := topology.Grid5000()
	for root := 0; root < g.N(); root++ {
		p := sched.MustProblem(g, root, 1<<20, sched.Options{})
		sc := sched.BottomUp{}.Schedule(p)
		res, err := ExecuteSchedule(g, sc, 1<<20, Options{})
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		if math.Abs(res.Makespan-sc.Makespan) > 1e-9 {
			t.Errorf("root %d: measured %g != predicted %g", root, res.Makespan, sc.Makespan)
		}
	}
}

func TestIntraShapeVariantsMatchPrediction(t *testing.T) {
	g := topology.Grid5000()
	for _, shape := range intracluster.Shapes {
		p, err := sched.NewProblem(g, 0, 1<<20, sched.Options{IntraShape: shape})
		if err != nil {
			t.Fatal(err)
		}
		sc := sched.ECEF().Schedule(p)
		res, err := ExecuteSchedule(g, sc, 1<<20, Options{IntraShape: shape})
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if math.Abs(res.Makespan-sc.Makespan) > 1e-9 {
			t.Errorf("%v: measured %g != predicted %g", shape, res.Makespan, sc.Makespan)
		}
	}
}

func TestOverlapScheduleRefusedByExecutor(t *testing.T) {
	// The executor implements the strict two-phase model; schedules timed
	// under the overlap model have different completions and must be
	// rejected by the validation step rather than silently mis-measured.
	g := topology.Grid5000()
	p := sched.MustProblem(g, 0, 1<<20, sched.Options{Overlap: true})
	sc := sched.ECEF().Schedule(p)
	if _, err := ExecuteSchedule(g, sc, 1<<20, Options{}); err == nil {
		// Only fails when completions actually differ; on this platform
		// the root cluster's completion differs, so an error is expected.
		t.Log("overlap schedule accepted (completions happened to coincide)")
	}
}

func TestBinomialHonoursModelledBcastTime(t *testing.T) {
	// On Monte-Carlo grids (single-node clusters with explicit BcastTime)
	// the grid-unaware binomial must still pay each cluster's local
	// broadcast, and prediction must match execution.
	g := topology.RandomGrid(stats.NewRand(8), 8)
	want := sched.PredictBinomialGridUnaware(g, 0, 1<<20)
	res, err := ExecuteBinomialGridUnaware(g, 0, 1<<20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("measured %g != predicted %g", res.Makespan, want)
	}
	// The makespan must include at least the largest modelled BcastTime.
	maxT := 0.0
	for _, c := range g.Clusters {
		if c.BcastTime > maxT {
			maxT = c.BcastTime
		}
	}
	if res.Makespan < maxT {
		t.Errorf("makespan %g below largest local broadcast %g", res.Makespan, maxT)
	}
}
