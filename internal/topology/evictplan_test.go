package topology_test

import (
	"encoding/json"
	"testing"

	gridbcast "gridbcast"
	"gridbcast/internal/service"
)

// TestPlanAfterEvictionEncodesIdentically builds plans, evicts every cost
// size they read from the grid's store, and builds them again: the
// re-costed sizes must give plans that encode byte for byte as before.
func TestPlanAfterEvictionEncodesIdentically(t *testing.T) {
	g := gridbcast.RandomGrid(7, 48)
	g.SetCostBudget(1 << 20)
	reqs := []gridbcast.Request{
		gridbcast.NewRequest(gridbcast.WithSize(3 << 20)),
		gridbcast.NewRequest(gridbcast.WithSize(5<<20+123), gridbcast.WithPipelined()),
		gridbcast.NewRequest(gridbcast.WithSize(4<<20), gridbcast.WithSegments(300<<10), gridbcast.WithHeuristic(gridbcast.ECEFLAT)),
	}
	encode := func() [][]byte {
		s, err := gridbcast.NewSession(g)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, req := range reqs {
			pl, err := s.Plan(req)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(service.EncodePlan(pl))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	before := encode()
	resident := g.CostStats()
	if resident.Sizes < len(reqs) {
		t.Fatalf("plans left %d sizes resident", resident.Sizes)
	}
	// Every size costed from here on is newer than the plans' sizes, so
	// the first evictions are exactly theirs.
	for m := int64(1); g.CostStats().Evicted < resident.Evicted+int64(resident.Sizes); m++ {
		g.EdgeCosts(m)
	}
	t.Logf("plans left %+v resident; now %+v", resident, g.CostStats())
	after := encode()
	for i := range before {
		if string(before[i]) != string(after[i]) {
			t.Errorf("request %d: plan built from re-costed sizes encodes differently", i)
		}
	}
}
