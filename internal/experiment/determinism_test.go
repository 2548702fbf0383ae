package experiment

import (
	"bytes"
	"runtime"
	"testing"
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
