// Package gridbcast reproduces "Scheduling Heuristics for Efficient
// Broadcast Operations on Grid Environments" (Barchet-Steffenel & Mounié,
// PMEO-PDS/IPPS 2006): broadcast scheduling for hierarchical grids built
// from heterogeneous clusters, under the pLogP communication model.
//
// The package is a facade over the implementation packages:
//
//   - describe a platform (topology.Grid, or the built-in GRID5000 dataset
//     of the paper's Table 3, or random platforms per Table 2);
//   - schedule a broadcast with any of the paper's heuristics (FlatTree,
//     FEF, ECEF, ECEF-LA, and the paper's ECEF-LAt, ECEF-LAT, BottomUp),
//     getting a full timed schedule and its predicted makespan;
//   - execute the schedule message-by-message on a discrete-event virtual
//     grid to obtain a measured makespan;
//   - regenerate every figure and table of the paper's evaluation
//     (internal/experiment, cmd/simfigs).
//
// The public API is the Session/Request/Plan triple: a Session wraps one
// validated platform (with its cost caches and pooled scheduling engines)
// and is safe for concurrent use; a Request composes what to plan from
// functional options; a Plan holds the schedule, its predicted makespan and
// how it was chosen, ready for Session.Execute.
//
// Quick start:
//
//	g := gridbcast.Grid5000()
//	sess, err := gridbcast.NewSession(g)
//	plan, err := sess.Plan(gridbcast.NewRequest(
//		gridbcast.WithHeuristic(gridbcast.ECEFLAT),
//		gridbcast.WithSize(1<<20)))
//	res, err := sess.Execute(plan)
//	fmt.Println(plan.Makespan, res.Makespan)
//
// Omit WithHeuristic to let Plan pick the best paper heuristic (the winner
// and every candidate's makespan end up in the Plan); add WithSegments or
// WithPipelined for the large-message pipelined workload, WithRefine for
// local-search improvement, and WithContext to make long searches
// cancellable.
// Session.PlanBatch fans independent requests across the engine pool with
// deterministic results at any worker count.
package gridbcast

import (
	"gridbcast/internal/mpi"
	"gridbcast/internal/sched"
	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
	"gridbcast/internal/vnet"
)

// Re-exported platform types: a Grid is a set of Clusters plus the
// inter-cluster pLogP matrix. See gridbcast/internal/topology for details.
type (
	// Grid describes a hierarchical platform.
	Grid = topology.Grid
	// Cluster is one homogeneous group of machines.
	Cluster = topology.Cluster
	// Schedule is a timed broadcast schedule.
	Schedule = sched.Schedule
	// Result is a measured (simulated) execution outcome.
	Result = mpi.Result
	// NetConfig tunes the virtual network used by Session.Execute (jitter,
	// per-message software overhead).
	NetConfig = vnet.Config
	// Heuristic is a named scheduling policy.
	Heuristic = sched.Heuristic
	// Problem is a costed scheduling instance.
	Problem = sched.Problem
	// SegmentedSchedule is a timed pipelined (multi-segment) schedule.
	SegmentedSchedule = sched.SegmentedSchedule
	// PlatformDelta describes a measured single-cluster platform drift
	// (scaled wide-area links and/or a changed local broadcast time) for
	// Session.Replan.
	PlatformDelta = topology.Delta
	// FaultPlan is a deterministic, seed-driven failure scenario (link
	// degradation, message loss, node crashes) injected through
	// NetConfig.Faults.
	FaultPlan = vnet.FaultPlan
	// CostStats describes a platform's cost store, the byte-bounded cache
	// of pLogP matrices evaluated per message size: resident Bytes, the
	// Sizes resident, and the sizes Evicted so far.
	CostStats = topology.CostStats
)

// Grid5000 returns the paper's 88-machine, 6-cluster GRID5000 platform
// (Table 3).
func Grid5000() *Grid { return topology.Grid5000() }

// RandomGrid draws an n-cluster platform with the paper's Table 2
// parameter distribution, deterministically from seed.
func RandomGrid(seed int64, n int) *Grid {
	return topology.RandomGrid(stats.NewRand(seed), n)
}

// LoadGrid reads a platform from a JSON file (see Grid.SaveFile).
func LoadGrid(path string) (*Grid, error) { return topology.LoadFile(path) }
