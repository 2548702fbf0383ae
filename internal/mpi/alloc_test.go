package mpi

import (
	"math"
	"testing"

	"gridbcast/internal/sched"
	"gridbcast/internal/topology"
	"gridbcast/internal/vnet"
)

// TestSegmentedExecutionAllocsIndependentOfK pins that no allocation is
// made per simulated message: on GRID5000, a pipelined broadcast in 64
// segments sends 16 times the messages of one in 4, yet allocates the same
// number of objects up to a small constant (the message slab and the
// buffers that grow geometrically with the traffic).
func TestSegmentedExecutionAllocsIndependentOfK(t *testing.T) {
	g := topology.Grid5000()
	const m = 4 << 20
	allocs := func(k int64) float64 {
		ss := sched.ScheduleSegmented(sched.Mixed{}, sched.MustSegmentedProblem(g, 0, m, m/k, sched.Options{}))
		return testing.AllocsPerRun(20, func() {
			if _, err := ExecuteSegmentedSchedule(g, ss, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(4), allocs(64)
	t.Logf("allocs per execution: K=4 %v, K=64 %v", few, many)
	if many-few > 16 {
		t.Errorf("K=64 allocates %v objects per execution, K=4 %v: more than 16 apart", many, few)
	}
}

// TestJitteredExecutionAllocBudget bounds a whole-message GRID5000
// execution on a jittered network: its 87 messages and 88 processes share a
// fixed budget below one allocation per process, so neither per-message nor
// per-process garbage fits in it.
func TestJitteredExecutionAllocBudget(t *testing.T) {
	g := topology.Grid5000()
	sc := sched.ECEFLAT().Schedule(sched.MustProblem(g, 0, 1<<20, sched.Options{}))
	opt := Options{Net: vnet.Config{Jitter: 0.1, Seed: 5}}
	n := testing.AllocsPerRun(20, func() {
		if _, err := ExecuteSchedule(g, sc, 1<<20, opt); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per execution: %v", n)
	if n > 80 {
		t.Errorf("jittered execution allocates %v objects, budget 80", n)
	}
}

// TestIdleFaultPlanAllocBudget pins that arming receive deadlines costs
// no allocation per receive: a GRID5000 execution under a Degrade plan
// that never fires (it starts long after the broadcast ends) allocates
// within a small constant of the same execution with no plan.
func TestIdleFaultPlanAllocBudget(t *testing.T) {
	g := topology.Grid5000()
	sc := sched.ECEFLAT().Schedule(sched.MustProblem(g, 0, 1<<20, sched.Options{}))
	idle := &vnet.FaultPlan{Degrade: []vnet.Degrade{{From: 0, To: 1, After: 1e6, GapScale: 2}}}
	allocs := func(net vnet.Config) float64 {
		return testing.AllocsPerRun(20, func() {
			res, err := ExecuteSchedule(g, sc, 1<<20, Options{Net: net})
			if err != nil {
				t.Fatal(err)
			}
			if res.Reparents != 0 || math.Abs(res.Makespan-sc.Makespan) > 1e-9 {
				t.Fatalf("the idle plan acted: makespan %v (predicted %v), %d reparents", res.Makespan, sc.Makespan, res.Reparents)
			}
		})
	}
	plain, armed := allocs(vnet.Config{}), allocs(vnet.Config{Faults: idle})
	t.Logf("allocs per execution: no plan %v, idle Degrade plan %v", plain, armed)
	if armed-plain > 8 {
		t.Errorf("an idle fault plan adds %v allocations per execution, budget 8", armed-plain)
	}
}
