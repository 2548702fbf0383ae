package gridbcast

import (
	"fmt"
	"strings"

	"gridbcast/internal/sched"
)

// Typed heuristic selection. Each value is a ready-to-use scheduling policy
// for Request's WithHeuristic option; all are stateless and safe to share
// across goroutines. The names match the paper's legends (ParseHeuristic
// maps the string form back for CLI use).
var (
	// FlatTree is the root-sends-to-everyone baseline (§4.1).
	FlatTree Heuristic = sched.FlatTree{}
	// FEF is Fastest Edge First with the paper's latency-only edge weight
	// (§4.2).
	FEF Heuristic = sched.FEF{}
	// FEFGapLat is the FEF ablation weighing edges by g(m)+L.
	FEFGapLat Heuristic = sched.FEF{Weight: sched.WeightFull}
	// ECEF is Early Completion Edge First (§4.3).
	ECEF Heuristic = sched.ECEF()
	// ECEFLA is ECEF with the min-W lookahead (§4.3).
	ECEFLA Heuristic = sched.ECEFLA()
	// ECEFLAt is the paper's first grid-aware heuristic (§5.1).
	ECEFLAt Heuristic = sched.ECEFLAt()
	// ECEFLAT is the paper's second grid-aware heuristic (§5.2).
	ECEFLAT Heuristic = sched.ECEFLAT()
	// BottomUp is the paper's max-min heuristic (§5.3).
	BottomUp Heuristic = sched.BottomUp{}
	// Mixed is the paper's closing recommendation (§6): ECEF-LA on small
	// grids, ECEF-LAT past the threshold.
	Mixed Heuristic = sched.Mixed{}
)

// ParseHeuristic resolves a display name ("ECEF-LAT", "Mixed", ...) to its
// typed heuristic — the CLI- and service-facing counterpart of the exported
// heuristic values above. Input is canonicalized before matching:
// surrounding whitespace is trimmed and the comparison is case-insensitive,
// so the variants JSON clients inevitably send ("ecef-lat ", "mixed") still
// resolve. An exact match always wins; otherwise the first case-insensitive
// match in legend order is taken — "ecef-la" followed by a lowercase "t" is
// therefore ECEF-LAt, not ECEF-LAT (the two exact names differ only in
// case; spell the capital-T variant exactly to pin it). The error text
// lists the exact names.
func ParseHeuristic(name string) (Heuristic, error) {
	if h, ok := sched.ByName(name); ok {
		return h, nil
	}
	canon := strings.TrimSpace(name)
	if h, ok := sched.ByName(canon); ok {
		return h, nil
	}
	for _, h := range parseOrder() {
		if strings.EqualFold(h.Name(), canon) {
			return h, nil
		}
	}
	return nil, fmt.Errorf("gridbcast: unknown heuristic %q (have %v)", name, HeuristicNames())
}

// parseOrder is the full heuristic registry in legend order — the Paper
// set, then Mixed and the FEF weight ablation — freshly allocated so
// callers can never alias a shared backing array.
func parseOrder() []Heuristic {
	all := make([]Heuristic, 0, 9)
	all = append(all, sched.Paper()...)
	return append(all, sched.Mixed{}, sched.FEF{Weight: sched.WeightFull})
}

// Heuristics returns the scheduling heuristics compared in the paper, in
// its legend order. The slice is the caller's: mutating it cannot affect
// later calls or the facade's own best-of selection.
func Heuristics() []Heuristic {
	return append([]Heuristic(nil), sched.Paper()...)
}

// HeuristicNames lists every heuristic name accepted by ParseHeuristic,
// including the Mixed adaptive strategy and the FEF weight ablation. The
// slice is a fresh copy on every call.
func HeuristicNames() []string {
	all := parseOrder()
	names := make([]string, len(all))
	for i, h := range all {
		names[i] = h.Name()
	}
	return names
}
