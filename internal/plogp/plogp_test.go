package plogp

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func TestNewSizeFuncValidation(t *testing.T) {
	cases := []struct {
		name string
		pts  []Point
		ok   bool
	}{
		{"empty", nil, false},
		{"single", []Point{{0, 1}}, true},
		{"sorted", []Point{{0, 1}, {10, 2}}, true},
		{"unsorted accepted", []Point{{10, 2}, {0, 1}}, true},
		{"dup size", []Point{{5, 1}, {5, 2}}, false},
		{"negative cost", []Point{{0, -1}}, false},
		{"negative size", []Point{{-1, 1}}, false},
	}
	for _, c := range cases {
		_, err := NewSizeFunc(c.pts)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestNewSizeFuncSortsPoints(t *testing.T) {
	f := MustSizeFunc([]Point{{200, 4}, {0, 1}, {100, 2}})
	want := []Point{{0, 1}, {100, 2}, {200, 4}}
	for i, p := range want {
		if got := f.PointAt(i); got != p {
			t.Fatalf("point %d = %v, want %v (all: %v)", i, got, p, f.Points())
		}
	}
	if got := f.At(150); got != 3 {
		t.Errorf("At(150) = %g, want 3", got)
	}
}

// TestConstantAllocatesOnce pins the cost of the per-link SizeFuncs
// platform generation builds: the point copy is the only allocation.
func TestConstantAllocatesOnce(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Constant(0.25) }); n != 1 {
		t.Errorf("Constant allocates %g times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { Linear(1e-3, 1e-8) }); n != 1 {
		t.Errorf("Linear allocates %g times, want 1", n)
	}
}

func TestSizeFuncInterpolation(t *testing.T) {
	f := MustSizeFunc([]Point{{0, 1}, {100, 2}, {200, 4}})
	cases := []struct {
		m    int64
		want float64
	}{
		{0, 1}, {50, 1.5}, {100, 2}, {150, 3}, {200, 4},
		{300, 6}, // extrapolated with last slope 0.02/byte
		{-10, 1}, // clamped below
	}
	for _, c := range cases {
		if got := f.At(c.m); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%d) = %g, want %g", c.m, got, c.want)
		}
	}
}

func TestSizeFuncSinglePointConstant(t *testing.T) {
	f := Constant(0.25)
	for _, m := range []int64{0, 1, 1 << 30} {
		if f.At(m) != 0.25 {
			t.Fatalf("Constant.At(%d) = %g", m, f.At(m))
		}
	}
}

func TestSizeFuncExtrapolationClampsAtZero(t *testing.T) {
	// Decreasing tail must not extrapolate below zero.
	f := MustSizeFunc([]Point{{0, 10}, {100, 1}})
	if got := f.At(10000); got != 0 {
		t.Errorf("negative extrapolation not clamped: %g", got)
	}
}

func TestLinear(t *testing.T) {
	f := Linear(0.5, 1e-6)
	if got := f.At(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("At(0) = %g", got)
	}
	if got := f.At(2 << 20); math.Abs(got-(0.5+float64(2<<20)*1e-6)) > 1e-9 {
		t.Errorf("At(2MiB) = %g", got)
	}
}

func TestScale(t *testing.T) {
	f := Linear(1, 0).Scale(3)
	if got := f.At(123); math.Abs(got-3) > 1e-12 {
		t.Errorf("Scale: got %g, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative scale should panic")
		}
	}()
	f.Scale(-1)
}

func TestSizeFuncJSONRoundTrip(t *testing.T) {
	f := MustSizeFunc([]Point{{0, 0.1}, {1 << 20, 0.6}})
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var g SizeFunc
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	for _, m := range []int64{0, 1000, 1 << 20, 1 << 22} {
		if f.At(m) != g.At(m) {
			t.Fatalf("roundtrip mismatch at %d: %g vs %g", m, f.At(m), g.At(m))
		}
	}
}

func TestSizeFuncJSONRejectsBad(t *testing.T) {
	var f SizeFunc
	if err := json.Unmarshal([]byte(`[]`), &f); err == nil {
		t.Error("empty point list should fail")
	}
	if err := json.Unmarshal([]byte(`[{"size":0,"sec":-1}]`), &f); err == nil {
		t.Error("negative cost should fail")
	}
}

func TestParamsValidate(t *testing.T) {
	p := Params{L: 0.01, G: Constant(0.1)}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := Params{L: -1, G: Constant(0.1)}
	if bad.Validate() == nil {
		t.Error("negative latency accepted")
	}
	missing := Params{L: 0.1}
	if missing.Validate() == nil {
		t.Error("missing gap accepted")
	}
}

func TestParamsCostHelpers(t *testing.T) {
	p := Params{L: 0.010, G: Constant(0.100)}
	if got := p.PointToPoint(1 << 20); math.Abs(got-0.110) > 1e-12 {
		t.Errorf("PointToPoint = %g, want 0.110", got)
	}
	if p.SendOverhead(10) != 0 || p.RecvOverhead(10) != 0 {
		t.Error("unset overheads should be zero")
	}
	p.Os = Constant(0.001)
	p.Or = Constant(0.002)
	if p.SendOverhead(10) != 0.001 || p.RecvOverhead(10) != 0.002 {
		t.Error("overheads not returned")
	}
}

func TestFromBandwidth(t *testing.T) {
	// 10 ms latency, 1 ms fixed gap, 100 MB/s.
	p := FromBandwidth(0.010, 0.001, 100e6)
	want := 0.001 + 1e6/100e6 // 11 ms gap for 1 MB
	if got := p.Gap(1e6); math.Abs(got-want) > 1e-9 {
		t.Errorf("Gap(1MB) = %g, want %g", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("zero bandwidth should panic")
		}
	}()
	FromBandwidth(0.01, 0, 0)
}

func TestZeroSizeFuncPanics(t *testing.T) {
	var f SizeFunc
	defer func() {
		if recover() == nil {
			t.Error("zero SizeFunc should panic on At")
		}
	}()
	f.At(1)
}

// Property: for monotonically non-decreasing points, At is monotone in m.
func TestSizeFuncMonotoneProperty(t *testing.T) {
	f := func(rawSizes []uint16, m1, m2 uint32) bool {
		if len(rawSizes) == 0 {
			return true
		}
		// Build strictly increasing sizes with non-decreasing costs.
		pts := make([]Point, 0, len(rawSizes))
		size, cost := int64(0), 0.0
		for _, s := range rawSizes {
			size += int64(s) + 1
			cost += float64(s % 10)
			pts = append(pts, Point{Size: size, Sec: cost})
		}
		fn := MustSizeFunc(pts)
		a, b := int64(m1), int64(m2)
		if a > b {
			a, b = b, a
		}
		return fn.At(a) <= fn.At(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: At matches points exactly at knots.
func TestSizeFuncKnotProperty(t *testing.T) {
	f := func(rawSizes []uint16) bool {
		if len(rawSizes) == 0 {
			return true
		}
		pts := make([]Point, 0, len(rawSizes))
		size := int64(0)
		for i, s := range rawSizes {
			size += int64(s) + 1
			pts = append(pts, Point{Size: size, Sec: float64(i%7) + 0.5})
		}
		fn := MustSizeFunc(pts)
		for _, p := range pts {
			if math.Abs(fn.At(p.Size)-p.Sec) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
