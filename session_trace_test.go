package gridbcast

import "testing"

// TestCachedTraceFollowsRequest: a cached build records a replay trace
// exactly when an uncached one would — a WithReplan request of a replayable
// shape — and a WithReplan request that hits an entry built without it
// shares that untraced plan (WithReplan is normalised out of the key).
func TestCachedTraceFollowsRequest(t *testing.T) {
	sess, err := NewSession(Grid5000(), WithPlanCache(16))
	if err != nil {
		t.Fatal(err)
	}
	plan := func(opts ...Option) *Plan {
		t.Helper()
		pl, err := sess.Plan(NewRequest(opts...))
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	plain := plan(WithHeuristic(ECEFLAT), WithSize(1<<20))
	if plain.trace != nil {
		t.Fatal("a cached build without WithReplan recorded a trace")
	}
	if traced := plan(WithHeuristic(ECEFLAT), WithSize(1<<20), WithRoot(1), WithReplan()); traced.trace == nil {
		t.Fatal("a cached WithReplan build recorded no trace")
	}
	hit := plan(WithHeuristic(ECEFLAT), WithSize(1<<20), WithReplan())
	if hit != plain || hit.trace != nil {
		t.Fatal("a WithReplan hit on an untraced entry did not share it")
	}
	if st := sess.CacheStats(); st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("stats %+v: want 2 misses and 1 hit", st)
	}
	// Shapes that cannot carry a trace get none, asked or not.
	for name, opts := range map[string][]Option{
		"best-of":   {WithSize(1 << 20)},
		"non-ECEF":  {WithHeuristic(FEF), WithSize(1 << 20)},
		"refined":   {WithHeuristic(ECEFLAT), WithSize(1 << 20), WithRefine(1)},
		"segmented": {WithHeuristic(ECEFLAT), WithSize(1 << 20), WithSegments(1 << 18)},
		"pipelined": {WithHeuristic(ECEFLAT), WithSize(1 << 20), WithPipelined()},
	} {
		if pl := plan(append(opts, WithReplan())...); pl.trace != nil {
			t.Fatalf("%s: recorded a trace", name)
		}
		if replayable(NewRequest(opts...)) {
			t.Fatalf("%s: counted as replayable", name)
		}
	}
}
