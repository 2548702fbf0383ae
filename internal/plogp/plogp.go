// Package plogp implements the parameterised LogP (pLogP) network
// performance model of Kielmann et al. ("Network performance-aware
// collective communication for clustered wide area systems", Parallel
// Computing 27(11), 2001), the model used by the paper to cost both
// inter-cluster transfers and intra-cluster broadcasts.
//
// pLogP describes a link by
//
//	L     — end-to-end latency (one way, seconds),
//	g(m)  — gap: the minimum interval between consecutive message
//	        transmissions of size m; 1/g(m) is the effective bandwidth,
//	os(m) — send overhead (CPU time the sender is busy),
//	or(m) — receive overhead,
//	P     — number of processors.
//
// The gap and overheads are functions of message size m; this package
// represents them as piecewise-linear interpolants over measured points,
// which is exactly how pLogP parameter files produced by Kielmann's MPI
// benchmark are consumed in practice.
package plogp

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Point is one measured (message size, seconds) sample of a size-dependent
// parameter such as g(m) or os(m).
type Point struct {
	Size int64   `json:"size"`
	Sec  float64 `json:"sec"`
}

// SizeFunc is a piecewise-linear, size-dependent cost function built from
// measured points. Between points it interpolates linearly; beyond the last
// point it extrapolates with the slope of the final segment (per-byte cost),
// and below the first point it is clamped to the first value. The zero value
// is unusable; build instances with NewSizeFunc, Linear or Constant.
type SizeFunc struct {
	pts []Point
}

// NewSizeFunc builds a SizeFunc from measured points. Points are sorted by
// size; duplicate sizes or negative costs are rejected.
func NewSizeFunc(pts []Point) (SizeFunc, error) {
	if len(pts) == 0 {
		return SizeFunc{}, errors.New("plogp: SizeFunc needs at least one point")
	}
	s := append([]Point(nil), pts...)
	// slices.SortFunc with a capture-free comparison allocates nothing (a
	// sort.Slice closure and its reflect swapper cost allocations on every
	// call), and platform generation builds one SizeFunc per link.
	slices.SortFunc(s, func(a, b Point) int { return cmp.Compare(a.Size, b.Size) })
	for i, p := range s {
		if p.Sec < 0 {
			return SizeFunc{}, fmt.Errorf("plogp: negative cost %g at size %d", p.Sec, p.Size)
		}
		if p.Size < 0 {
			return SizeFunc{}, fmt.Errorf("plogp: negative size %d", p.Size)
		}
		if i > 0 && p.Size == s[i-1].Size {
			return SizeFunc{}, fmt.Errorf("plogp: duplicate size %d", p.Size)
		}
	}
	return SizeFunc{pts: s}, nil
}

// MustSizeFunc is NewSizeFunc that panics on error; intended for static
// datasets and tests.
func MustSizeFunc(pts []Point) SizeFunc {
	f, err := NewSizeFunc(pts)
	if err != nil {
		panic(err)
	}
	return f
}

// Linear returns the SizeFunc fixed + perByte*m, the usual two-parameter
// latency/bandwidth approximation. perByte must be non-negative.
func Linear(fixed, perByte float64) SizeFunc {
	return MustSizeFunc([]Point{
		{Size: 0, Sec: fixed},
		{Size: 1 << 20, Sec: fixed + perByte*float64(1<<20)},
	})
}

// Constant returns the SizeFunc that ignores message size.
func Constant(sec float64) SizeFunc {
	return MustSizeFunc([]Point{{Size: 0, Sec: sec}})
}

// Valid reports whether f was properly constructed.
func (f SizeFunc) Valid() bool { return len(f.pts) > 0 }

// Points returns a copy of the interpolation points.
func (f SizeFunc) Points() []Point { return append([]Point(nil), f.pts...) }

// NumPoints returns the interpolation point count.
func (f SizeFunc) NumPoints() int { return len(f.pts) }

// PointAt returns the i-th interpolation point without copying the backing
// slice. Points' defensive copy is one allocation per call, which callers
// digesting a full n² wide-area matrix (topology.Grid.Fingerprint) cannot
// afford.
func (f SizeFunc) PointAt(i int) Point { return f.pts[i] }

// At evaluates the function at message size m bytes.
func (f SizeFunc) At(m int64) float64 {
	if len(f.pts) == 0 {
		panic("plogp: evaluating zero SizeFunc")
	}
	if len(f.pts) == 1 {
		return f.pts[0].Sec
	}
	if m <= f.pts[0].Size {
		return f.pts[0].Sec
	}
	// Find first point with Size >= m.
	i := sort.Search(len(f.pts), func(i int) bool { return f.pts[i].Size >= m })
	if i == len(f.pts) {
		// Extrapolate with the last segment's slope.
		a, b := f.pts[len(f.pts)-2], f.pts[len(f.pts)-1]
		slope := (b.Sec - a.Sec) / float64(b.Size-a.Size)
		v := b.Sec + slope*float64(m-b.Size)
		if v < 0 {
			v = 0
		}
		return v
	}
	if f.pts[i].Size == m {
		return f.pts[i].Sec
	}
	a, b := f.pts[i-1], f.pts[i]
	frac := float64(m-a.Size) / float64(b.Size-a.Size)
	return a.Sec + frac*(b.Sec-a.Sec)
}

// Scale returns a new SizeFunc with every cost multiplied by k (k ≥ 0).
func (f SizeFunc) Scale(k float64) SizeFunc {
	if k < 0 {
		panic("plogp: negative scale")
	}
	pts := f.Points()
	for i := range pts {
		pts[i].Sec *= k
	}
	return MustSizeFunc(pts)
}

// MarshalJSON encodes the function as its point list; the zero SizeFunc
// encodes as null so optional parameters (os, or) and unused matrix
// diagonals survive serialisation.
func (f SizeFunc) MarshalJSON() ([]byte, error) {
	if len(f.pts) == 0 {
		return []byte("null"), nil
	}
	return json.Marshal(f.pts)
}

// UnmarshalJSON decodes and validates a point list; null restores the zero
// SizeFunc.
func (f *SizeFunc) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = SizeFunc{}
		return nil
	}
	var pts []Point
	if err := json.Unmarshal(data, &pts); err != nil {
		return err
	}
	nf, err := NewSizeFunc(pts)
	if err != nil {
		return err
	}
	*f = nf
	return nil
}

// Params is a full pLogP parameter set for one link or one homogeneous
// cluster interconnect.
type Params struct {
	// L is the one-way latency in seconds.
	L float64 `json:"L"`
	// G is the gap function g(m).
	G SizeFunc `json:"g"`
	// Os and Or are the send/receive overhead functions. They may be the
	// zero SizeFunc, in which case they are treated as 0 (the paper's
	// cost expressions use only L and g).
	Os SizeFunc `json:"os,omitempty"`
	Or SizeFunc `json:"or,omitempty"`
}

// Validate checks internal consistency.
func (p *Params) Validate() error {
	if p.L < 0 {
		return fmt.Errorf("plogp: negative latency %g", p.L)
	}
	if !p.G.Valid() {
		return errors.New("plogp: missing gap function")
	}
	return nil
}

// Gap returns g(m) in seconds.
func (p *Params) Gap(m int64) float64 { return p.G.At(m) }

// SendOverhead returns os(m), or 0 when unset.
func (p *Params) SendOverhead(m int64) float64 {
	if !p.Os.Valid() {
		return 0
	}
	return p.Os.At(m)
}

// RecvOverhead returns or(m), or 0 when unset.
func (p *Params) RecvOverhead(m int64) float64 {
	if !p.Or.Valid() {
		return 0
	}
	return p.Or.At(m)
}

// PointToPoint returns the pLogP prediction for a single message of m bytes
// between two idle endpoints: g(m) + L. (In pLogP the receiver owns the
// message at time g(m)+L after the send starts; see Kielmann et al. §3.)
func (p *Params) PointToPoint(m int64) float64 { return p.Gap(m) + p.L }

// FromBandwidth builds Params from the familiar latency (seconds) and
// bandwidth (bytes/second) pair: g(m) = g0 + m/bw. g0 is the fixed
// per-message gap (packet processing); bw must be positive.
func FromBandwidth(latency, g0, bw float64) Params {
	if bw <= 0 {
		panic("plogp: bandwidth must be positive")
	}
	return Params{L: latency, G: Linear(g0, 1/bw)}
}
