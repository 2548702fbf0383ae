package gridbcast_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"testing"

	gridbcast "gridbcast"
	"gridbcast/internal/sched"
	"gridbcast/internal/service"
	"gridbcast/internal/stats"
	"gridbcast/internal/topology"
)

// These digests pin the planner's output itself — every event, every
// per-cluster time and every makespan, bit for bit — for every paper
// heuristic plus Mixed and FEF-gap+lat, on three platforms, in five planning modes at two
// message sizes, plus the wire bytes of a few served plans. The package's
// other byte-identity tests compare two implementations (engine against
// the naive pickers, bounded against unbounded ladder, replay against
// rebuild, AppendPlan against encoding/json); a change that moves both
// sides of such a pair together shifts schedules without any of them
// noticing. These do not move.
//
// Re-record with GOLDEN_PRINT=1 go test -run 'TestPlannerGoldens|TestPlanWireGoldens' .
// only when a change is *supposed* to alter a schedule, a predicted time or
// the wire encoding, and say in the change which digests moved and why.
var plannerGoldens = map[string]string{
	"g5k/flat-strict/1MiB":            "7390524a1bdd0ce1",
	"g5k/flat-strict/16MiB":           "0aab2ee8c49b4277",
	"g5k/flat-overlap/1MiB":           "b19b11565f5bfafb",
	"g5k/flat-overlap/16MiB":          "2004363ade3e76f0",
	"g5k/fixed-segment/1MiB":          "7a6029e90ca23234",
	"g5k/fixed-segment/16MiB":         "fc36fc5771fdaea7",
	"g5k/pipelined/1MiB":              "8ac575c482d412dd",
	"g5k/pipelined/16MiB":             "40bef63f0d1913c2",
	"g5k/pipelined-seglocal/1MiB":     "784157067349c91b",
	"g5k/pipelined-seglocal/16MiB":    "5ef23f246814decb",
	"r7x128/flat-strict/1MiB":         "f973b78d7846cda1",
	"r7x128/flat-strict/16MiB":        "f6b2118693acb61a",
	"r7x128/flat-overlap/1MiB":        "0b1beb20cbeab3ba",
	"r7x128/flat-overlap/16MiB":       "12eb5733490b652d",
	"r7x128/fixed-segment/1MiB":       "2c746459556b147e",
	"r7x128/fixed-segment/16MiB":      "76aae246fd0dfa00",
	"r7x128/pipelined/1MiB":           "cf88fb6f3e6a147f",
	"r7x128/pipelined/16MiB":          "18cace93b2e40e98",
	"r7x128/pipelined-seglocal/1MiB":  "cf88fb6f3e6a147f",
	"r7x128/pipelined-seglocal/16MiB": "18cace93b2e40e98",
	"rc3x16/flat-strict/1MiB":         "cfe23db8d7e25dd5",
	"rc3x16/flat-strict/16MiB":        "40741b182ed76ed0",
	"rc3x16/flat-overlap/1MiB":        "52f4d004fa8d749b",
	"rc3x16/flat-overlap/16MiB":       "b22f41261a6a1004",
	"rc3x16/fixed-segment/1MiB":       "dc2892e072774c5b",
	"rc3x16/fixed-segment/16MiB":      "4f2eab2b1c8817de",
	"rc3x16/pipelined/1MiB":           "3b9ccf7068ce4871",
	"rc3x16/pipelined/16MiB":          "f83b337fcaf4ee48",
	"rc3x16/pipelined-seglocal/1MiB":  "ebec52934f7a5ca0",
	"rc3x16/pipelined-seglocal/16MiB": "1c44e83128eccf1e",
}

// goldenPlatforms are the recorded platforms: the paper's GRID5000, a
// 128-cluster Table 2 draw, and a small clustered draw whose clusters run
// real local trees (so SegmentedLocal is live).
func goldenPlatforms() []struct {
	name string
	g    *topology.Grid
} {
	return []struct {
		name string
		g    *topology.Grid
	}{
		{"g5k", topology.Grid5000()},
		{"r7x128", topology.RandomGrid(stats.NewRand(7), 128)},
		{"rc3x16", topology.RandomClusteredGrid(stats.NewRand(3), 16)},
	}
}

// goldenModes are the recorded planning modes, as request options.
var goldenModes = []struct {
	name string
	opts []gridbcast.Option
}{
	{"flat-strict", nil},
	{"flat-overlap", []gridbcast.Option{gridbcast.WithOverlap(true)}},
	{"fixed-segment", []gridbcast.Option{gridbcast.WithSegments(256 << 10)}},
	{"pipelined", []gridbcast.Option{gridbcast.WithPipelined()}},
	{"pipelined-seglocal", []gridbcast.Option{gridbcast.WithPipelined(), gridbcast.WithSegmentedLocal()}},
}

var goldenSizes = []struct {
	name string
	m    int64
}{{"1MiB", 1 << 20}, {"16MiB", 16 << 20}}

// digest folds values into an FNV-64a hash, floats by their bits, in the
// little-endian layout internal/mpi's goldenHash uses.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	d.h.Write(b[:])
}

func (d digest) f(v float64) { d.u64(math.Float64bits(v)) }

func (d digest) floats(vs []float64) {
	d.u64(uint64(len(vs)))
	for _, v := range vs {
		d.f(v)
	}
}

func (d digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d digest) flag(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d digest) events(es []sched.Event) {
	d.u64(uint64(len(es)))
	for _, e := range es {
		d.u64(uint64(e.Round))
		d.u64(uint64(e.From))
		d.u64(uint64(e.To))
		d.f(e.Start)
		d.f(e.SenderFree)
		d.f(e.Arrive)
	}
}

func (d digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// plan folds every field of a plan that its schedule determines.
func (d digest) plan(pl *gridbcast.Plan) {
	d.str(pl.Heuristic)
	d.u64(uint64(pl.Root))
	d.u64(uint64(pl.Size))
	d.u64(uint64(pl.SegSize))
	d.u64(uint64(pl.K))
	d.flag(pl.LocalSegmented)
	d.f(pl.Makespan)
	d.u64(uint64(len(pl.Candidates)))
	for _, c := range pl.Candidates {
		d.str(c.Heuristic)
		d.f(c.Makespan)
	}
	if sc := pl.Schedule; sc != nil {
		d.str(sc.Heuristic)
		d.events(sc.Events)
		d.floats(sc.RT)
		d.floats(sc.Idle)
		d.floats(sc.Completion)
		d.f(sc.Makespan)
	}
	if ss := pl.Segmented; ss != nil {
		d.str(ss.Heuristic)
		d.u64(uint64(ss.SegSize))
		d.u64(uint64(ss.K))
		d.events(ss.Events)
		d.floats(ss.FirstRT)
		d.floats(ss.RT)
		d.floats(ss.Idle)
		d.floats(ss.Completion)
		d.f(ss.Makespan)
		d.flag(ss.LocalSeg)
		for _, on := range ss.LocalSegmented {
			d.flag(on)
		}
	}
}

// goldenHeuristics is every paper heuristic plus Mixed and FEF on full
// gap+latency weights.
func goldenHeuristics() []sched.Heuristic {
	return append(sched.Paper(), sched.Mixed{}, sched.FEF{Weight: sched.WeightFull})
}

func TestPlannerGoldens(t *testing.T) {
	print := os.Getenv("GOLDEN_PRINT") != ""
	for _, pf := range goldenPlatforms() {
		s, err := gridbcast.NewSession(pf.g)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range goldenModes {
			for _, size := range goldenSizes {
				key := pf.name + "/" + mode.name + "/" + size.name
				d := newDigest()
				for _, h := range goldenHeuristics() {
					opts := append([]gridbcast.Option{gridbcast.WithHeuristic(h), gridbcast.WithSize(size.m)}, mode.opts...)
					pl, err := s.Plan(gridbcast.NewRequest(opts...))
					if err != nil {
						t.Fatalf("%s %s: %v", key, h.Name(), err)
					}
					d.plan(pl)
				}
				got := d.sum()
				if print {
					fmt.Printf("\t%q: %q,\n", key, got)
					continue
				}
				if want := plannerGoldens[key]; got != want {
					t.Errorf("%s: planner digest %s, recorded %s", key, got, want)
				}
			}
		}
	}
}

// wireGoldens pins the served wire bytes (service.AppendPlan) of a few
// plans: best-of selections (so Candidates are encoded), a whole-message
// plan, fixed segments, and a pipelined plan with streamed local phases.
var wireGoldens = map[string]string{
	"g5k/best-of/flat-strict/1MiB":          "5ba2ced98faf928e",
	"g5k/best-of/flat-overlap/16MiB":        "f31ed448e5c3c0f1",
	"g5k/ECEF-LAT/pipelined-seglocal/16MiB": "3883c9a738927f55",
	"r7x128/best-of/fixed-segment/16MiB":    "f43e902de6ee6dc6",
	"rc3x16/Mixed/pipelined/1MiB":           "d7ed5c3330ac8bbd",
}

func TestPlanWireGoldens(t *testing.T) {
	print := os.Getenv("GOLDEN_PRINT") != ""
	cases := []struct {
		key  string
		g    *topology.Grid
		opts []gridbcast.Option
	}{
		{"g5k/best-of/flat-strict/1MiB", topology.Grid5000(),
			[]gridbcast.Option{gridbcast.WithSize(1 << 20)}},
		{"g5k/best-of/flat-overlap/16MiB", topology.Grid5000(),
			[]gridbcast.Option{gridbcast.WithSize(16 << 20), gridbcast.WithOverlap(true)}},
		{"g5k/ECEF-LAT/pipelined-seglocal/16MiB", topology.Grid5000(),
			[]gridbcast.Option{gridbcast.WithHeuristic(sched.ECEFLAT()), gridbcast.WithSize(16 << 20),
				gridbcast.WithPipelined(), gridbcast.WithSegmentedLocal()}},
		{"r7x128/best-of/fixed-segment/16MiB", topology.RandomGrid(stats.NewRand(7), 128),
			[]gridbcast.Option{gridbcast.WithSize(16 << 20), gridbcast.WithSegments(256 << 10)}},
		{"rc3x16/Mixed/pipelined/1MiB", topology.RandomClusteredGrid(stats.NewRand(3), 16),
			[]gridbcast.Option{gridbcast.WithHeuristic(sched.Mixed{}), gridbcast.WithSize(1 << 20),
				gridbcast.WithPipelined()}},
	}
	for _, c := range cases {
		s, err := gridbcast.NewSession(c.g)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := s.Plan(gridbcast.NewRequest(c.opts...))
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		b, err := service.AppendPlan(nil, pl)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		d := newDigest()
		d.u64(uint64(len(b)))
		d.h.Write(b)
		got := d.sum()
		if print {
			fmt.Printf("\t%q: %q,\n", c.key, got)
			continue
		}
		if want := wireGoldens[c.key]; got != want {
			t.Errorf("%s: wire digest %s, recorded %s", c.key, got, want)
		}
	}
}
