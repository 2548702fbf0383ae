package intracluster

import (
	"math"
	"testing"
	"testing/quick"

	"gridbcast/internal/plogp"
)

var testParams = plogp.Params{L: 0.001, G: plogp.Constant(0.010)}

func TestShapeString(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Shapes {
		name := s.String()
		if name == "" || seen[name] {
			t.Errorf("shape %d renders %q, empty or shared", int(s), name)
		}
		seen[name] = true
	}
	if Shape(99).String() == "" {
		t.Error("unknown shape should still render")
	}
}

func TestTreesAreValidSpanningTrees(t *testing.T) {
	for _, s := range Shapes {
		for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 100} {
			tree := New(s, p)
			if err := tree.Validate(); err != nil {
				t.Errorf("%v/%d: %v", s, p, err)
			}
		}
	}
}

func TestNewPanicsOnBadInput(t *testing.T) {
	for name, fn := range map[string]func(){
		"p=0":       func() { New(Binomial, 0) },
		"bad shape": func() { New(Shape(42), 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// depth returns the number of edges on t's longest root-to-leaf path.
func depth(t *Tree) int {
	var walk func(n int) int
	walk = func(n int) int {
		d := 0
		for _, c := range t.Children[n] {
			if cd := walk(c) + 1; cd > d {
				d = cd
			}
		}
		return d
	}
	return walk(0)
}

func TestDepths(t *testing.T) {
	cases := []struct {
		shape Shape
		p     int
		depth int
	}{
		{Flat, 8, 1},
		{Chain, 8, 7},
		{Binomial, 8, 3},
		{Binomial, 9, 3}, // depth is floor(log2 p); the 4th round is the root's first send
		{Binomial, 16, 4},
		{Binomial, 1, 0},
		{Binary, 7, 2},
		{Flat, 1, 0},
	}
	for _, c := range cases {
		if got := depth(New(c.shape, c.p)); got != c.depth {
			t.Errorf("%v/%d depth = %d, want %d", c.shape, c.p, got, c.depth)
		}
	}
}

func TestBinomialStructureSmall(t *testing.T) {
	// P=8: root sends to 4, 2, 1 (largest subtree first).
	tree := New(Binomial, 8)
	want := []int{4, 2, 1}
	if len(tree.Children[0]) != 3 {
		t.Fatalf("root children = %v", tree.Children[0])
	}
	for i, c := range want {
		if tree.Children[0][i] != c {
			t.Errorf("root child %d = %d, want %d", i, tree.Children[0][i], c)
		}
	}
	// Node 4's children: 6, 5.
	if len(tree.Children[4]) != 2 || tree.Children[4][0] != 6 || tree.Children[4][1] != 5 {
		t.Errorf("children of 4 = %v, want [6 5]", tree.Children[4])
	}
}

func TestFlatCompletion(t *testing.T) {
	// Flat over p nodes: last arrival = (p-1)*g + L.
	p := 6
	got := Predict(Flat, p, testParams, 1<<20)
	want := float64(p-1)*0.010 + 0.001
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("flat completion = %g, want %g", got, want)
	}
}

func TestChainCompletion(t *testing.T) {
	// Chain: each hop costs g + L.
	p := 5
	got := Predict(Chain, p, testParams, 1<<20)
	want := float64(p-1) * (0.010 + 0.001)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("chain completion = %g, want %g", got, want)
	}
}

func TestBinomialCompletionPowerOfTwo(t *testing.T) {
	// For P=2^k the critical path is the depth-long relay chain, each hop
	// costing g+L: node 0 -> 4 -> 6 -> 7.
	got := Predict(Binomial, 8, testParams, 0)
	want := 3 * (0.010 + 0.001)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("binomial completion = %g, want %g", got, want)
	}
}

func TestSingleNodeIsFree(t *testing.T) {
	for _, s := range Shapes {
		if got := Predict(s, 1, testParams, 1<<20); got != 0 {
			t.Errorf("%v single node = %g, want 0", s, got)
		}
	}
}

func TestOverheadsExtendCompletion(t *testing.T) {
	base := Predict(Binomial, 8, testParams, 1<<10)
	p := testParams
	p.Os = plogp.Constant(0.005)
	p.Or = plogp.Constant(0.002)
	withOv := Predict(Binomial, 8, p, 1<<10)
	if withOv <= base {
		t.Errorf("overheads did not extend completion: %g vs %g", withOv, base)
	}
}

func TestBinomialBeatsFlatAndChainForLargeP(t *testing.T) {
	p := 64
	bin := Predict(Binomial, p, testParams, 1<<20)
	flat := Predict(Flat, p, testParams, 1<<20)
	chain := Predict(Chain, p, testParams, 1<<20)
	if bin >= flat {
		t.Errorf("binomial (%g) should beat flat (%g) at p=%d", bin, flat, p)
	}
	if bin >= chain {
		t.Errorf("binomial (%g) should beat chain (%g) at p=%d", bin, chain, p)
	}
}

func TestArrivalTimesRootZero(t *testing.T) {
	tree := New(Binomial, 16)
	at := tree.ArrivalTimes(testParams, 1<<20)
	if at[0] != 0 {
		t.Errorf("root arrival = %g, want 0", at[0])
	}
	for n := 1; n < 16; n++ {
		if at[n] <= at[tree.Parent[n]] {
			t.Errorf("node %d arrives (%g) before its parent (%g)", n, at[n], at[tree.Parent[n]])
		}
	}
}

// Property: every shape over any p is a valid spanning tree and completion
// is non-negative and monotone in message size under a linear gap.
func TestTreeProperty(t *testing.T) {
	params := plogp.Params{L: 0.002, G: plogp.Linear(0.001, 1e-8)}
	f := func(pRaw uint8, shapeRaw uint8, m1, m2 uint32) bool {
		p := int(pRaw%128) + 1
		shape := Shapes[int(shapeRaw)%len(Shapes)]
		tree := New(shape, p)
		if tree.Validate() != nil {
			return false
		}
		a, b := int64(m1), int64(m2)
		if a > b {
			a, b = b, a
		}
		ca, cb := tree.Completion(params, a), tree.Completion(params, b)
		return ca >= 0 && ca <= cb+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: binomial depth is floor(log2 p).
func TestBinomialDepthProperty(t *testing.T) {
	f := func(pRaw uint16) bool {
		p := int(pRaw%1000) + 1
		want := 0
		for (1 << (want + 1)) <= p {
			want++
		}
		return depth(New(Binomial, p)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// refBinomialChildren is the loop-based binomial construction that
// AppendChildren's bit arithmetic replaces: node r's children are r | 2^k
// for k below r's lowest set bit, highest first.
func refBinomialChildren(p int) [][]int {
	children := make([][]int, p)
	maxBit := 0
	for (1 << (maxBit + 1)) < p {
		maxBit++
	}
	if p == 1 {
		return children
	}
	for r := 0; r < p; r++ {
		low := maxBit + 1
		if r != 0 {
			low = 0
			for r&(1<<low) == 0 {
				low++
			}
		}
		for k := low - 1; k >= 0; k-- {
			if c := r | (1 << k); c < p {
				children[r] = append(children[r], c)
			}
		}
	}
	return children
}

func TestBinomialMatchesLoopConstruction(t *testing.T) {
	for p := 1; p <= 130; p++ {
		tree, want := New(Binomial, p), refBinomialChildren(p)
		for r := range want {
			if len(tree.Children[r]) != len(want[r]) {
				t.Fatalf("p=%d: children of %d = %v, want %v", p, r, tree.Children[r], want[r])
			}
			for i := range want[r] {
				if tree.Children[r][i] != want[r][i] {
					t.Fatalf("p=%d: children of %d = %v, want %v", p, r, tree.Children[r], want[r])
				}
			}
		}
	}
}

// TestPredictMatchesTreeCompletion pins Predict, which walks the shape
// without building a tree, to the tree's Completion bit for bit.
func TestPredictMatchesTreeCompletion(t *testing.T) {
	params := plogp.Params{L: 0.0013, G: plogp.Linear(1e-4, 3e-9), Os: plogp.Constant(2e-5), Or: plogp.Linear(1e-5, 1e-10)}
	for _, s := range Shapes {
		for p := 1; p <= 130; p++ {
			for _, m := range []int64{0, 1000, 1 << 20} {
				if got, want := Predict(s, p, params, m), New(s, p).Completion(params, m); got != want {
					t.Fatalf("%v p=%d m=%d: Predict %v, Completion %v", s, p, m, got, want)
				}
			}
		}
	}
}
