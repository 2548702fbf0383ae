// Package topology models hierarchical grid platforms: a set of clusters,
// each a group of logically homogeneous machines, interconnected by
// heterogeneous wide-area links described with pLogP parameters.
//
// This mirrors the paper's two-level view (Table 1 of the paper ranks
// communication levels by latency: WAN-TCP > LAN-TCP > localhost > shared
// memory): inter-cluster communications happen between per-cluster
// coordinators over the wide-area matrix, intra-cluster communications use
// the cluster's local interconnect parameters.
package topology

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync/atomic"

	"gridbcast/internal/plogp"
)

// Cluster is one homogeneous group of machines.
type Cluster struct {
	// Name identifies the cluster (site name in GRID5000 terms).
	Name string `json:"name"`
	// Nodes is the number of machines, including the coordinator.
	Nodes int `json:"nodes"`
	// Intra holds the pLogP parameters of the local interconnect,
	// used to predict and simulate the intra-cluster broadcast.
	Intra plogp.Params `json:"intra"`
	// BcastTime, when > 0, overrides the predicted intra-cluster
	// broadcast time T_i (seconds). The paper's simulations (§6) draw
	// T directly from Table 2 instead of deriving it from a node count,
	// so random grids set this field.
	BcastTime float64 `json:"bcast_time,omitempty"`
}

// Grid is a complete platform description.
type Grid struct {
	// Clusters lists the platform's clusters; index in this slice is the
	// cluster id used throughout the repository.
	Clusters []Cluster `json:"clusters"`
	// Inter[i][j] holds the pLogP parameters of the wide-area link from
	// cluster i's coordinator to cluster j's coordinator. Inter[i][i] is
	// ignored. The matrix need not be symmetric.
	Inter [][]plogp.Params `json:"inter"`

	// costs is the grid's bounded per-message-size cache of evaluated
	// pLogP matrices (costs.go). Platform descriptions are immutable once
	// costed (construction-time edits happen before the first EdgeCosts
	// call), so an entry is never stale; it only leaves under the store's
	// byte budget.
	costs costStore
	// valid records a successful Validate of a costed grid, under the same
	// immutable-once-costed contract; failures are never recorded.
	valid atomic.Bool
}

// N returns the number of clusters.
func (g *Grid) N() int { return len(g.Clusters) }

// TotalNodes returns the number of machines over all clusters.
func (g *Grid) TotalNodes() int {
	t := 0
	for _, c := range g.Clusters {
		t += c.Nodes
	}
	return t
}

// Latency returns L_{i,j} in seconds.
func (g *Grid) Latency(i, j int) float64 { return g.Inter[i][j].L }

// Gap returns g_{i,j}(m) in seconds.
func (g *Grid) Gap(i, j int, m int64) float64 { return g.Inter[i][j].Gap(m) }

// Validate checks structural consistency: matching matrix shape, positive
// node counts, valid link parameters. Once the grid has been costed
// (EdgeCosts or PatchCosts), a success is remembered and later calls
// return nil without re-walking the link table; a failure is re-checked
// on every call.
func (g *Grid) Validate() error {
	if g.valid.Load() {
		return nil
	}
	if err := g.validate(); err != nil {
		return err
	}
	g.costs.mu.Lock()
	costed := g.costs.lat != nil
	g.costs.mu.Unlock()
	if costed {
		g.valid.Store(true)
	}
	return nil
}

func (g *Grid) validate() error {
	n := g.N()
	if n == 0 {
		return errors.New("topology: grid has no clusters")
	}
	if len(g.Inter) != n {
		return fmt.Errorf("topology: inter matrix has %d rows, want %d", len(g.Inter), n)
	}
	for i, row := range g.Inter {
		if len(row) != n {
			return fmt.Errorf("topology: inter row %d has %d entries, want %d", i, len(row), n)
		}
		for j := range row {
			if i == j {
				continue
			}
			if err := row[j].Validate(); err != nil {
				return fmt.Errorf("topology: link %d->%d: %w", i, j, err)
			}
		}
	}
	for i, c := range g.Clusters {
		if c.Nodes <= 0 {
			return fmt.Errorf("topology: cluster %d (%s) has %d nodes", i, c.Name, c.Nodes)
		}
		if c.BcastTime < 0 {
			return fmt.Errorf("topology: cluster %d (%s) negative bcast time", i, c.Name)
		}
		if c.BcastTime == 0 {
			if err := c.Intra.Validate(); err != nil {
				return fmt.Errorf("topology: cluster %d (%s) intra params: %w", i, c.Name, err)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the grid.
func (g *Grid) Clone() *Grid {
	ng := &Grid{
		Clusters: append([]Cluster(nil), g.Clusters...),
		Inter:    make([][]plogp.Params, len(g.Inter)),
	}
	for i, row := range g.Inter {
		ng.Inter[i] = append([]plogp.Params(nil), row...)
	}
	return ng
}

// WriteJSON serialises the grid.
func (g *Grid) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// MaxClusters bounds the platforms the file readers (ReadJSON, ParseFits)
// accept. A grid's cost matrices grow as n² — at the cap one fully derived
// message size is about 402 MB — so a platform file must not be able to
// ask for more.
const MaxClusters = 4096

// ReadJSON deserialises and validates a grid of at most MaxClusters
// clusters. Decode errors carry the line:column of the offending byte, so a
// malformed platform file is diagnosable from the message alone.
func ReadJSON(r io.Reader) (*Grid, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("topology: read: %w", err)
	}
	var g Grid
	if err := json.Unmarshal(data, &g); err != nil {
		var se *json.SyntaxError
		var te *json.UnmarshalTypeError
		switch {
		case errors.As(err, &se):
			line, col := lineCol(data, se.Offset)
			return nil, fmt.Errorf("topology: decode: line %d column %d: %w", line, col, err)
		case errors.As(err, &te):
			line, col := lineCol(data, te.Offset)
			return nil, fmt.Errorf("topology: decode: line %d column %d: %w", line, col, err)
		}
		return nil, fmt.Errorf("topology: decode: %w", err)
	}
	if n := g.N(); n > MaxClusters {
		return nil, fmt.Errorf("topology: %d clusters exceeds the limit of %d", n, MaxClusters)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// lineCol converts a byte offset into 1-based line and column numbers.
func lineCol(data []byte, offset int64) (line, col int) {
	if offset > int64(len(data)) {
		offset = int64(len(data))
	}
	line, col = 1, 1
	for _, b := range data[:offset] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

// LoadFile reads a grid from a JSON file; errors name the file.
func LoadFile(path string) (*Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// SaveFile writes a grid to a JSON file.
func (g *Grid) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Table2 holds the simulation parameter ranges of the paper's Table 2.
// Values are seconds; the paper gives milliseconds.
var Table2 = struct {
	LMin, LMax float64 // inter-cluster latency
	GMin, GMax float64 // inter-cluster gap for the simulated message size
	TMin, TMax float64 // intra-cluster broadcast time
}{
	LMin: 0.001, LMax: 0.015,
	GMin: 0.100, GMax: 0.600,
	TMin: 0.020, TMax: 3.000,
}

// RandomGrid draws a grid of n clusters with parameters uniform in the
// Table 2 ranges, reproducing the Monte-Carlo setting of the paper's §6.
// Each directed link gets an independent L and g; each cluster gets an
// independent broadcast time T. The gap is size-independent (the paper
// simulates a fixed 1 MB payload, so g is a scalar draw).
func RandomGrid(r *rand.Rand, n int) *Grid {
	if n < 1 {
		panic("topology: RandomGrid needs n >= 1")
	}
	g := &Grid{
		Clusters: make([]Cluster, n),
		Inter:    make([][]plogp.Params, n),
	}
	for i := range g.Clusters {
		g.Clusters[i] = Cluster{
			Name:      fmt.Sprintf("c%d", i),
			Nodes:     1,
			BcastTime: uniform(r, Table2.TMin, Table2.TMax),
		}
	}
	for i := range g.Inter {
		g.Inter[i] = make([]plogp.Params, n)
		for j := range g.Inter[i] {
			if i == j {
				continue
			}
			g.Inter[i][j] = plogp.Params{
				L: uniform(r, Table2.LMin, Table2.LMax),
				G: plogp.Constant(uniform(r, Table2.GMin, Table2.GMax)),
			}
		}
	}
	return g
}

// RandomSizedGrid is RandomGrid with size-dependent gaps: each link's gap
// at 1 MB is drawn from the Table 2 range as before, but a fraction of it
// (drawn uniform in [2%, 10%], modelling per-message packet processing) is
// fixed and the rest scales linearly with message size. RandomGrid's
// constant gaps make every segment as expensive as the whole message, so
// segmented-broadcast studies (DESIGN.md §7) use this variant; at the
// paper's fixed 1 MB size both distributions agree.
func RandomSizedGrid(r *rand.Rand, n int) *Grid {
	const calib = int64(1 << 20)
	g := RandomGrid(r, n)
	for i := range g.Inter {
		for j := range g.Inter[i] {
			if i == j {
				continue
			}
			g1mb := g.Inter[i][j].G.At(calib)
			fixed := uniform(r, 0.02, 0.10) * g1mb
			g.Inter[i][j].G = plogp.Linear(fixed, (g1mb-fixed)/float64(calib))
		}
	}
	return g
}

// RandomClusteredGrid is RandomSizedGrid with real multi-node clusters:
// instead of the paper's modelled per-cluster broadcast time (Table 2's T
// draw), each cluster gets a node count uniform in [2, 33) and LAN-class
// intra parameters, so the local broadcast is an actual tree the
// end-to-end pipeline (sched.Options.SegmentedLocal) can stream. Wide-area
// links keep RandomSizedGrid's size-dependent gap split. The T values such
// platforms induce (binomial over 2-32 nodes at 100 MB/s-class LANs) sit in
// Table 2's range at the paper's 1 MB calibration size.
func RandomClusteredGrid(r *rand.Rand, n int) *Grid {
	g := RandomSizedGrid(r, n)
	for i := range g.Clusters {
		g.Clusters[i].BcastTime = 0
		g.Clusters[i].Nodes = 2 + r.Intn(31)
		// LAN-class intra link: ~100 MB/s bandwidth with a drawn fixed
		// per-message gap (packet processing) and sub-millisecond latency.
		fixed := uniform(r, 2e-5, 2e-4)
		bw := uniform(r, 50e6, 200e6)
		g.Clusters[i].Intra = plogp.Params{
			L: uniform(r, 2e-5, 5e-4),
			G: plogp.Linear(fixed, 1/bw),
		}
	}
	return g
}

// RandomSymmetricGrid is RandomGrid with L and g drawn once per unordered
// pair, so the link matrices are symmetric. The paper does not state whether
// its draws are symmetric; both variants are provided and compared in an
// ablation bench.
func RandomSymmetricGrid(r *rand.Rand, n int) *Grid {
	g := RandomGrid(r, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.Inter[j][i] = g.Inter[i][j]
		}
	}
	return g
}

func uniform(r *rand.Rand, lo, hi float64) float64 {
	return lo + r.Float64()*(hi-lo)
}
