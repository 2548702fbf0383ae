package gridbcast_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	gridbcast "gridbcast"
	"gridbcast/internal/service"
)

// BenchmarkServePlan measures end-to-end POST /v1/plan handler throughput
// at the two cache extremes: "hit" replays one request (pure cache
// serving — decode, lookup, admission, encode), "miss" makes every
// request key unique so every plan is built. Reports plans/s and the
// service histogram's p50/p99 alongside the standard ns/op.
func BenchmarkServePlan(b *testing.B) {
	bench := func(b *testing.B, body func(i int) string) {
		reg, err := service.NewRegistry(
			[]service.PlatformSpec{{Name: "g5k", Source: "grid5000"}},
			service.CacheCapacityFor(service.DefaultMaxInflight))
		if err != nil {
			b.Fatal(err)
		}
		s := service.New(reg, service.Config{})
		post := func(payload string) int {
			req := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(payload))
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
			return w.Code
		}
		// Warm once so the "hit" variant never measures its own miss.
		if code := post(body(-1)); code != http.StatusOK {
			b.Fatalf("warmup status %d", code)
		}
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if code := post(body(i)); code != http.StatusOK {
				b.Fatalf("iteration %d: status %d", i, code)
			}
		}
		elapsed := time.Since(start)
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "plans/s")
		// The sort order puts "built" before "hit", so in the hit variant
		// the hit series (the measured path) wins the metric slot.
		for _, sn := range s.Metrics().Snapshot() {
			if sn.Outcome == "hit" || sn.Outcome == "built" {
				b.ReportMetric(sn.P50US, "p50_us")
				b.ReportMetric(sn.P99US, "p99_us")
			}
		}
	}
	b.Run("hit", func(b *testing.B) {
		bench(b, func(int) string {
			return `{"platform":"g5k","heuristic":"ECEF-LAT","size":1048576}`
		})
	})
	b.Run("miss", func(b *testing.B) {
		bench(b, func(i int) string {
			// i == -1 (warmup) and every iteration key differently.
			return fmt.Sprintf(`{"platform":"g5k","heuristic":"ECEF-LAT","size":%d}`, 1<<20+i+1)
		})
	})
}

// BenchmarkEncodePlan times a served plan's wire encoding over an r128 plan
// mix (flat paper heuristics and best-of at non-round sizes, pipelined and
// fixed-segment plans): "json" is json.Marshal(EncodePlan(pl)), the
// reflection-based reference, and "append" is service.MarshalPlan, the
// encoder the handlers use. One op encodes the whole mix; both produce the
// same bytes.
func BenchmarkEncodePlan(b *testing.B) {
	g, err := service.LoadGridSource("random:7:128")
	if err != nil {
		b.Fatal(err)
	}
	ses, err := gridbcast.NewSession(g)
	if err != nil {
		b.Fatal(err)
	}
	var plans []*gridbcast.Plan
	add := func(opts ...gridbcast.Option) {
		pl, err := ses.Plan(gridbcast.NewRequest(opts...))
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, pl)
	}
	for i, h := range gridbcast.Heuristics() {
		add(gridbcast.WithHeuristic(h), gridbcast.WithRoot(3*i), gridbcast.WithSize(int64(200003*(i+1))))
	}
	add(gridbcast.WithSize(1000003))
	add(gridbcast.WithHeuristic(gridbcast.ECEFLAT), gridbcast.WithSize(4194311), gridbcast.WithPipelined())
	add(gridbcast.WithHeuristic(gridbcast.ECEFLA), gridbcast.WithSize(4194311), gridbcast.WithSegments(262144))
	var bytesOut int
	for _, pl := range plans {
		want, err := json.Marshal(service.EncodePlan(pl))
		if err != nil {
			b.Fatal(err)
		}
		if got, err := service.MarshalPlan(pl); err != nil || !bytes.Equal(got, want) {
			b.Fatalf("%s: MarshalPlan differs from json.Marshal(EncodePlan) (err %v)", pl.Heuristic, err)
		}
		bytesOut += len(want)
	}
	for _, enc := range []struct {
		name   string
		encode func(*gridbcast.Plan) ([]byte, error)
	}{
		{"json", func(pl *gridbcast.Plan) ([]byte, error) { return json.Marshal(service.EncodePlan(pl)) }},
		{"append", service.MarshalPlan},
	} {
		b.Run(enc.name, func(b *testing.B) {
			b.SetBytes(int64(bytesOut))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, pl := range plans {
					if _, err := enc.encode(pl); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
