package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gridbcast "gridbcast"
)

// newTestServer builds a server over grid5000 plus a small random grid.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	reg, err := NewRegistry([]PlatformSpec{
		{Name: "g5k", Source: "grid5000"},
		{Name: "rnd", Source: "random:5:6"},
	}, CacheCapacityFor(cfg.MaxInflight))
	if err != nil {
		t.Fatal(err)
	}
	return New(reg, cfg)
}

// post runs one JSON POST through the handler.
func post(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func get(t *testing.T, s *Server, path string, v any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if v != nil {
		if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
			t.Fatalf("GET %s: decode: %v (body %s)", path, err, w.Body)
		}
	}
	return w
}

// TestServePlanByteIdentical is the transport-fidelity acceptance check: a
// plan served through POST /v1/plan marshals byte-identically to the same
// plan obtained from Session.Plan directly, across flat, best-of and
// pipelined request shapes.
func TestServePlanByteIdentical(t *testing.T) {
	s := newTestServer(t, Config{})
	p, _ := s.reg.Lookup("g5k")

	cases := []struct {
		name string
		body string
		opts []gridbcast.Option
	}{
		{
			name: "flat-heuristic",
			body: `{"platform":"g5k","heuristic":"ECEF-LAT","root":2,"size":1048576}`,
			opts: []gridbcast.Option{
				gridbcast.WithHeuristic(gridbcast.ECEFLAT),
				gridbcast.WithRoot(2), gridbcast.WithSize(1 << 20),
			},
		},
		{
			name: "best-of-overlap",
			body: `{"platform":"g5k","root":0,"size":262144,"overlap":true}`,
			opts: []gridbcast.Option{
				gridbcast.WithSize(1 << 18), gridbcast.WithOverlap(true),
			},
		},
		{
			name: "pipelined-local",
			body: `{"platform":"g5k","heuristic":"ECEF-LA","root":1,"size":1048576,"pipelined":true,"segmented_local":true}`,
			opts: []gridbcast.Option{
				gridbcast.WithHeuristic(gridbcast.ECEFLA),
				gridbcast.WithRoot(1), gridbcast.WithSize(1 << 20),
				gridbcast.WithPipelined(), gridbcast.WithSegmentedLocal(),
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := post(t, s, "/v1/plan", c.body)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body)
			}
			var resp struct {
				Plan json.RawMessage `json:"plan"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			direct, err := p.Session.Plan(gridbcast.NewRequest(c.opts...))
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(EncodePlan(direct))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resp.Plan, want) {
				t.Errorf("served plan differs from direct plan:\n got %s\nwant %s", resp.Plan, want)
			}
		})
	}
}

func TestServeErrorPaths(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		status           int
		contains         string
	}{
		{"unknown-platform", "/v1/plan", `{"platform":"nope","size":1}`, http.StatusNotFound, `unknown platform "nope" (have g5k, rnd)`},
		{"missing-platform", "/v1/plan", `{"size":1}`, http.StatusBadRequest, "missing platform"},
		{"bad-heuristic", "/v1/plan", `{"platform":"g5k","heuristic":"nope","size":1}`, http.StatusBadRequest, "unknown heuristic"},
		{"bad-size", "/v1/plan", `{"platform":"g5k","size":-1}`, http.StatusBadRequest, "size"},
		{"bad-root", "/v1/plan", `{"platform":"g5k","root":99,"size":1}`, http.StatusBadRequest, "root"},
		{"unknown-field", "/v1/plan", `{"platform":"g5k","size":1,"bogus":true}`, http.StatusBadRequest, "bogus"},
		{"not-json", "/v1/plan", `hello`, http.StatusBadRequest, "decode"},
		{"trailing-data", "/v1/plan", `{"platform":"g5k","size":1}{"again":1}`, http.StatusBadRequest, "trailing"},
		{"empty-batch", "/v1/plan/batch", `{"platform":"g5k","requests":[]}`, http.StatusBadRequest, "empty batch"},
		{"batch-slot-platform", "/v1/plan/batch", `{"platform":"g5k","requests":[{"platform":"g5k","size":1}]}`, http.StatusBadRequest, "batch level"},
		{"batch-slot-deadline", "/v1/plan/batch", `{"platform":"g5k","requests":[{"size":1,"deadline_ms":5}]}`, http.StatusBadRequest, "batch level"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := post(t, s, c.path, c.body)
			if w.Code != c.status {
				t.Fatalf("status %d, want %d (body %s)", w.Code, c.status, w.Body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
				t.Fatalf("error body is not ErrorResponse JSON: %s", w.Body)
			}
			if er.Status != c.status || !strings.Contains(er.Error, c.contains) {
				t.Errorf("error body %+v, want status %d containing %q", er, c.status, c.contains)
			}
		})
	}

	// Method patterns reject a GET on a POST route.
	w := get(t, s, "/v1/plan", nil)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: status %d, want 405", w.Code)
	}

	c := s.metrics.CountersSnapshot()
	if c.BadRequest == 0 || c.NotFound != 1 {
		t.Errorf("counters %+v: want bad_request > 0, not_found == 1", c)
	}
}

// TestServeSaturation fills the admission semaphore and checks the 429
// path: Retry-After header, descriptive body, saturated counter.
func TestServeSaturation(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 2})
	for i := 0; i < 2; i++ {
		s.sem <- struct{}{}
	}
	defer func() { <-s.sem; <-s.sem }()

	w := post(t, s, "/v1/plan", `{"platform":"g5k","size":1048576}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") != "1" {
		t.Errorf("missing Retry-After header")
	}
	if !strings.Contains(w.Body.String(), "admission limit (2 in-flight") {
		t.Errorf("body %s", w.Body)
	}
	if c := s.metrics.CountersSnapshot(); c.Saturated != 1 {
		t.Errorf("saturated counter %d, want 1", c.Saturated)
	}

	// Batch admission shares the same semaphore.
	w = post(t, s, "/v1/plan/batch", `{"platform":"g5k","requests":[{"size":1}]}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("batch status %d, want 429", w.Code)
	}
}

// TestServeDeadline drives a deliberately heavy uncached request through a
// 1 ms deadline_ms and expects 504. no_cache keeps the context attached to
// the build (cached builds deliberately detach it). The request — a
// pipelined best-of at 16 MiB on 256 clusters — takes 40–80 ms on a fresh
// registry, far past the deadline, and a build that finishes after its
// deadline is refused too, so the 504 does not depend on where the
// deadline lands inside the build.
func TestServeDeadline(t *testing.T) {
	reg, err := NewRegistry([]PlatformSpec{{Name: "big", Source: "random:7:256"}}, 64)
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	body := `{"platform":"big","size":16777216,"pipelined":true,"segmented_local":true,"no_cache":true,"deadline_ms":1}`
	w := post(t, s, "/v1/plan", body)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", w.Code, w.Body)
	}
	if c := s.metrics.CountersSnapshot(); c.Deadline != 1 {
		t.Errorf("deadline counter %d, want 1", c.Deadline)
	}
}

// TestServeClientCancel sends a request whose transport context is already
// canceled and expects the nginx-convention 499.
func TestServeClientCancel(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/plan",
		strings.NewReader(`{"platform":"g5k","size":1048576}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != statusClientClosedRequest {
		t.Fatalf("status %d, want 499 (body %s)", w.Code, w.Body)
	}
	if c := s.metrics.CountersSnapshot(); c.Canceled != 1 {
		t.Errorf("canceled counter %d, want 1", c.Canceled)
	}
}

// TestServeBatch checks slot mirroring: good slots plan, a bad slot gets
// its own error while the rest of the batch succeeds.
func TestServeBatch(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"platform":"g5k","requests":[
		{"heuristic":"ECEF-LAT","size":1048576},
		{"size":-7},
		{"heuristic":"FlatTree","size":65536}
	]}`
	w := post(t, s, "/v1/plan/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Plans) != 3 || len(resp.Errors) != 3 {
		t.Fatalf("slot counts %d/%d, want 3/3", len(resp.Plans), len(resp.Errors))
	}
	for i, wantPlan := range []bool{true, false, true} {
		if (resp.Plans[i] != nil) != wantPlan || (resp.Errors[i] == nil) != wantPlan {
			t.Errorf("slot %d: plan=%v err=%v", i, resp.Plans[i] != nil, resp.Errors[i])
		}
	}
	if resp.Errors[1] == nil || !strings.Contains(*resp.Errors[1], "size") {
		t.Errorf("slot 1 error %v, want a size validation message", resp.Errors[1])
	}
	if resp.Plans[0].Heuristic != "ECEF-LAT" || resp.Plans[2].Heuristic != "FlatTree" {
		t.Errorf("slot heuristics %q/%q", resp.Plans[0].Heuristic, resp.Plans[2].Heuristic)
	}
}

// TestServeIntrospection exercises /v1/platforms, /healthz and /metrics
// after a little traffic: cache stats, hit/built latency series and
// request counters must all be visible.
func TestServeIntrospection(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 4})
	plan := `{"platform":"g5k","heuristic":"ECEF-LAT","size":1048576}`
	for i := 0; i < 3; i++ {
		if w := post(t, s, "/v1/plan", plan); w.Code != http.StatusOK {
			t.Fatalf("plan %d: status %d", i, w.Code)
		}
	}

	var plats struct {
		Generation uint64         `json:"generation"`
		Platforms  []PlatformInfo `json:"platforms"`
	}
	get(t, s, "/v1/platforms", &plats)
	if plats.Generation != 1 || len(plats.Platforms) != 2 {
		t.Fatalf("platforms response %+v", plats)
	}
	g5k := plats.Platforms[0]
	if g5k.Name != "g5k" || g5k.Clusters != 6 || g5k.Nodes == 0 || len(g5k.Fingerprint) != 16 {
		t.Errorf("g5k info %+v", g5k)
	}
	if g5k.Cache.Hits != 2 || g5k.Cache.Misses != 1 || g5k.Cache.HitRate < 0.6 {
		t.Errorf("cache stats %+v, want 2 hits / 1 miss", g5k.Cache)
	}
	// The one ECEF-LAT build derived G, W and WT at 1 MiB on 6 clusters.
	if want := (CostStatsJSON{Bytes: 3 * (6*6*8 + 6*24), Sizes: 1}); g5k.Costs != want {
		t.Errorf("cost stats %+v, want %+v", g5k.Costs, want)
	}

	var health HealthResponse
	get(t, s, "/healthz", &health)
	if health.Status != "ok" || health.Generation != 1 || health.Platforms != 2 {
		t.Errorf("health %+v", health)
	}

	var m MetricsResponse
	get(t, s, "/metrics", &m)
	if m.Requests.Total != 3 || m.Requests.OK != 3 || m.InflightLimit != 4 || m.Inflight != 0 {
		t.Errorf("metrics counters %+v inflight %d/%d", m.Requests, m.Inflight, m.InflightLimit)
	}
	if len(m.Platforms) != 2 || m.Platforms[0].Costs != g5k.Costs {
		t.Errorf("/metrics platforms %+v, want g5k's cost stats %+v", m.Platforms, g5k.Costs)
	}
	series := map[string]uint64{}
	for _, sn := range m.PlanLatencies {
		series[sn.Platform+"/"+sn.Heuristic+"/"+sn.Outcome] = sn.Count
		if sn.Count > 0 && (sn.P50US <= 0 || sn.P99US < sn.P50US) {
			t.Errorf("series %+v: bad quantiles", sn)
		}
	}
	if series["g5k/ECEF-LAT/built"] != 1 || series["g5k/ECEF-LAT/hit"] != 2 {
		t.Errorf("latency series %v, want 1 built + 2 hits", series)
	}
}

// TestReloadUnderLoad is the acceptance race test: hammer /v1/plan from
// many goroutines while reloading the registry repeatedly. Every request
// must succeed — a reload swaps the table without invalidating in-flight
// sessions — and the generation must land at 1+reloads.
func TestReloadUnderLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	if err := gridbcast.Grid5000().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry([]PlatformSpec{{Name: "p", Source: path}}, 256)
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{MaxInflight: 64})

	const (
		workers   = 8
		perWorker = 25
		reloads   = 20
	)
	var failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Mix of repeated (hit) and distinct (miss) requests.
				size := 1 << 20
				if i%3 == 0 {
					size += w*1000 + i
				}
				body := fmt.Sprintf(`{"platform":"p","heuristic":"ECEF-LAT","size":%d}`, size)
				rec := post(t, s, "/v1/plan", body)
				if rec.Code != http.StatusOK {
					failed.Add(1)
					t.Errorf("worker %d req %d: status %d: %s", w, i, rec.Code, rec.Body)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < reloads; i++ {
			if _, err := reg.Reload(); err != nil {
				t.Errorf("reload %d: %v", i, err)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-done
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d requests failed during reloads", n)
	}
	if gen := reg.Generation(); gen != 1+reloads {
		t.Fatalf("generation %d, want %d", gen, 1+reloads)
	}
}

// TestGracefulDrain starts a real http.Server, fires a slow uncached plan,
// then shuts down: Shutdown must wait for the in-flight request, which
// must complete with 200.
func TestGracefulDrain(t *testing.T) {
	s := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go httpSrv.Serve(ln)

	type result struct {
		code int
		body string
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/plan", "application/json",
			strings.NewReader(`{"platform":"rnd","size":2097152,"pipelined":true,"no_cache":true}`))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		resc <- result{code: resp.StatusCode, body: string(b)}
	}()

	// Wait until the request is admitted (or already finished) before
	// starting the drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() == 0 && len(resc) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-resc
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request got %d during drain: %s", r.code, r.body)
	}
}

// BenchmarkServePlan lives in the root package's bench suite
// (bench_service_test.go) so the benchjson/benchdiff snapshot chain —
// which benchmarks the module root — picks it up.

// planRequestFields and batchRequestFields are the JSON names the strict
// decoder accepts (encoding/json matches them case-insensitively).
var (
	planRequestFields = []string{"platform", "heuristic", "root", "size", "segment_size", "pipelined",
		"segmented_local", "refine", "overlap", "no_cache", "deadline_ms"}
	batchRequestFields = []string{"platform", "deadline_ms", "requests"}
)

// checkKnownFields fails unless every key of the JSON object body is one of
// fields; nested batch requests are checked against planRequestFields.
func checkKnownFields(t *testing.T, body []byte, fields []string) {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(body, &obj); err != nil {
		return // null, or not an object the decoder filled by key
	}
	for key, val := range obj {
		known := false
		for _, f := range fields {
			known = known || strings.EqualFold(key, f)
		}
		if !known {
			t.Fatalf("decoder accepted unknown field %q in %q", key, body)
		}
		if strings.EqualFold(key, "requests") {
			var items []json.RawMessage
			if json.Unmarshal(val, &items) == nil {
				for _, it := range items {
					checkKnownFields(t, it, planRequestFields)
				}
			}
		}
	}
}

// FuzzDecodePlanRequest drives the strict request decoder over arbitrary
// /v1/plan and /v1/plan/batch bodies. It must never panic. A body it
// accepts holds only known field names, and the same body followed by more
// data is rejected. Run through the whole handler, a request refused as a
// 4xx leaves the platform's cost store untouched: no O(N²) work happens
// before a request is known to be good.
func FuzzDecodePlanRequest(f *testing.F) {
	for _, seed := range []struct {
		body  string
		batch bool
	}{
		{`{"platform":"r","heuristic":"ECEF-LAT","root":1,"size":1048576}`, false},
		{`{"platform":"r","size":4194304,"segment_size":262144,"segmented_local":true}`, false},
		{`{"platform":"r","size":1048576,"pipelined":true,"no_cache":true}`, false},
		{`{"platform":"r","heuristic":"FEF","size":65536,"refine":2,"overlap":true}`, false},
		{`{"platform":"r","size":1048576,"segment_size":1}`, false},
		{`{"platform":"r","size":9223372036854775807,"pipelined":true}`, false},
		{`{"platform":"r","size":1,"bogus":true}`, false},
		{`{"platform":"r","size":1}{"platform":"r"}`, false},
		{`{"PLATFORM":"r","Size":7}`, false},
		{`null`, false},
		{`{"platform":"r","requests":[{"size":65536},{"size":-1},{"size":1048576,"segment_size":1}]}`, true},
		{`{"platform":"r","requests":[{"size":1,"platform":"r"}]}`, true},
		{`{"platform":"r","requests":[{"size":1,"extra":0}]}`, true},
		{`{"platform":"r","requests":[]}`, true},
	} {
		f.Add(seed.body, seed.batch)
	}
	reg, err := NewRegistry([]PlatformSpec{{Name: "r", Source: "random:3:32"}}, 256)
	if err != nil {
		f.Fatal(err)
	}
	s := New(reg, Config{})
	p, _ := reg.Lookup("r")
	// Warm the session so the one-time fingerprint is not charged to the
	// first fuzzed request.
	p.Session.Fingerprint()
	f.Fuzz(func(t *testing.T, body string, batch bool) {
		path, fields := "/v1/plan", planRequestFields
		var v any = &PlanRequest{}
		if batch {
			path, fields = "/v1/plan/batch", batchRequestFields
			v = &BatchRequest{}
		}
		decode := func(b string) error {
			w := httptest.NewRecorder()
			return s.decodeBody(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(b)), v)
		}
		if decode(body) == nil {
			checkKnownFields(t, []byte(body), fields)
			if decode(body+`{}`) == nil {
				t.Fatalf("decoder accepted trailing data after %q", body)
			}
		}
		before := p.Session.CostStats()
		w := post(t, s, path, body)
		if w.Code >= 400 && w.Code < 500 {
			if after := p.Session.CostStats(); after != before {
				t.Fatalf("status %d for %q, yet the cost store changed: %+v -> %+v", w.Code, body, before, after)
			}
		}
	})
}
