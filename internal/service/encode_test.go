package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	gridbcast "gridbcast"
	"gridbcast/internal/sched"
)

// wantPlanBytes is the reference encoding AppendPlan must reproduce.
func wantPlanBytes(t testing.TB, pl *gridbcast.Plan) []byte {
	t.Helper()
	want, err := json.Marshal(EncodePlan(pl))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// checkAppendPlan asserts AppendPlan(prefix, pl) is prefix followed by
// json.Marshal(EncodePlan(pl)); the prefix makes the reuse table's offsets
// absolute, as they are inside a batch body.
func checkAppendPlan(t *testing.T, pl *gridbcast.Plan) {
	t.Helper()
	want := wantPlanBytes(t, pl)
	prefix := []byte(`{"plans":[`)
	got, err := AppendPlan(append([]byte(nil), prefix...), pl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendPlan differs from json.Marshal(EncodePlan):\n got %.400s\nwant %.400s", got[min(len(prefix), len(got)):], want)
	}
}

// wireModes are the plan shapes of the byte-identity matrix.
var wireModes = []struct{ name, fields string }{
	{"flat", ``},
	{"pipelined", `,"pipelined":true`},
	{"fixed-segment", `,"segment_size":131072`},
	{"segmented-local", `,"segment_size":131072,"segmented_local":true`},
	{"overlap", `,"overlap":true`},
}

// TestAppendPlanMatchesEncoder pins AppendPlan to json.Marshal(EncodePlan)
// over every paper heuristic, Mixed and best-of, every plan mode and three
// sizes (one not round), on GRID5000 and a 128-cluster random grid.
func TestAppendPlanMatchesEncoder(t *testing.T) {
	heuristics := []string{""} // best-of
	for _, h := range gridbcast.Heuristics() {
		heuristics = append(heuristics, h.Name())
	}
	heuristics = append(heuristics, gridbcast.Mixed.Name())
	sizes := []int64{65536, 1000003, 4194304}
	for _, src := range []string{"grid5000", "random:7:128"} {
		g, err := LoadGridSource(src)
		if err != nil {
			t.Fatal(err)
		}
		ses, err := gridbcast.NewSession(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range wireModes {
			for _, h := range heuristics {
				for _, size := range sizes {
					if testing.Short() && size != sizes[1] {
						continue
					}
					body := fmt.Sprintf(`{"heuristic":%q,"root":%d,"size":%d%s}`, h, int(size)%g.N(), size, mode.fields)
					var pr PlanRequest
					if err := json.Unmarshal([]byte(body), &pr); err != nil {
						t.Fatal(err)
					}
					opts, err := pr.options(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					pl, err := ses.Plan(gridbcast.NewRequest(opts...))
					if err != nil {
						t.Fatalf("%s %s: %v", src, body, err)
					}
					t.Run(fmt.Sprintf("%s/%s/%s/%d", src, mode.name, h, size), func(t *testing.T) {
						checkAppendPlan(t, pl)
					})
				}
			}
		}
	}
}

// TestAppendPlanEdgeShapes covers what served plans never hold but the
// encoder must still write like encoding/json: nil and empty slices, zero
// K, strings that need escaping, and floats on both sides of the
// exponent-format cut-offs.
func TestAppendPlanEdgeShapes(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		-1e-7, 5e-324, math.MaxFloat64, 123456789.125, 1e-7, 1e-7}
	cases := []*gridbcast.Plan{
		{Heuristic: "", K: 0},
		{Heuristic: `a"b\c<d>&e` + "\n é\xff", Candidates: []gridbcast.Candidate{{Heuristic: "x<y", Makespan: 1e22}}},
		{Heuristic: "empty", Schedule: &gridbcast.Schedule{RT: []float64{}}},
		{Heuristic: "floats", Makespan: 3e-9, Schedule: &gridbcast.Schedule{
			Events: []sched.Event{{Round: 0, From: 0, To: 1, Start: 0, SenderFree: 1e-7, Arrive: 1e21}},
			RT:     floats, Idle: floats, Completion: floats,
		}},
		{Heuristic: "seg", SegSize: 4096, K: 3, LocalSegmented: true, Overlap: true, Segmented: &gridbcast.SegmentedSchedule{
			Events:         []sched.Event{{Round: 0, From: 1, To: 0, Start: 2.5, SenderFree: 2.5, Arrive: 7}},
			FirstRT:        floats,
			LocalSegmented: []bool{true, false},
		}},
		{Heuristic: "no-local", Segmented: &gridbcast.SegmentedSchedule{LocalSegmented: []bool{}}},
	}
	for i, pl := range cases {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkAppendPlan(t, pl) })
	}
}

// TestAppendPlanRejectsNonFinite: a NaN or infinite float fails the encode,
// as it fails json.Marshal, with the same error text and b unextended.
func TestAppendPlanRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		pl := &gridbcast.Plan{Heuristic: "x", Schedule: &gridbcast.Schedule{RT: []float64{1, bad, 1}}}
		_, wantErr := json.Marshal(EncodePlan(pl))
		got, err := AppendPlan([]byte("keep"), pl)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("%v: err %v, want %v", bad, err, wantErr)
		}
		if string(got) != "keep" {
			t.Errorf("%v: buffer %q, want it unextended", bad, got)
		}
	}
}

// FuzzAppendPlan feeds arbitrary float64s into every float field of a plan:
// AppendPlan must match json.Marshal(EncodePlan) byte for byte, or both
// must fail.
func FuzzAppendPlan(f *testing.F) {
	f.Add(0.0, math.Copysign(0, -1), 1e-6, 1e21, 5e-324, 1.5)
	f.Add(math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), -1e-7, math.MaxFloat64, 1e-320, 12.75)
	f.Add(math.NaN(), 1.0, 2.0, 3.0, 4.0, 5.0)
	f.Add(1.0, math.Inf(1), math.Inf(-1), 3.0, 3.0, 3.0)
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g float64) {
		evs := []sched.Event{
			{Round: 0, From: 0, To: 1, Start: a, SenderFree: b, Arrive: c},
			{Round: 1, From: 1, To: 2, Start: c, SenderFree: d, Arrive: e},
		}
		vals := []float64{a, b, c, d, e, g, -a, g}
		plans := []*gridbcast.Plan{
			{Heuristic: "ECEF-LAT", Makespan: g, K: 1,
				Candidates: []gridbcast.Candidate{{Heuristic: "FEF", Makespan: d}},
				Schedule:   &gridbcast.Schedule{Events: evs, RT: vals, Idle: vals[2:], Completion: vals[4:]}},
			{Heuristic: "Pipelined-ECEF-LA", Makespan: e, SegSize: 4096, K: 2,
				Segmented: &gridbcast.SegmentedSchedule{Events: evs, FirstRT: vals, RT: vals[1:], Idle: vals[3:], Completion: vals[5:]}},
		}
		for _, pl := range plans {
			want, wantErr := json.Marshal(EncodePlan(pl))
			got, err := AppendPlan(nil, pl)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("AppendPlan err %v, json.Marshal err %v", err, wantErr)
			}
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("AppendPlan differs:\n got %s\nwant %s", got, want)
			}
		}
	})
}

// TestServeBatchBodyMatchesEncoder: a batch reply that holds plans of every
// kind and a failed slot is byte for byte json.Encoder's output for the
// equivalent BatchResponse, trailing newline included.
func TestServeBatchBodyMatchesEncoder(t *testing.T) {
	s := newWireServer(t)
	p, _ := s.reg.Lookup("r128")
	body := `{"platform":"r128","requests":[
		{"heuristic":"ECEF-LAT","root":1,"size":1048576},
		{"size":-7},
		{"heuristic":"ECEF-LA","size":4194304,"segment_size":262144},
		{"heuristic":"ECEF-LAt","root":2,"size":1048576,"pipelined":true},
		{"size":65536},
		{"size":1048576,"segment_size":1}
	]}`
	w := post(t, s, "/v1/plan/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var got struct {
		ElapsedUS float64 `json:"elapsed_us"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	var br BatchRequest
	if err := json.Unmarshal([]byte(body), &br); err != nil {
		t.Fatal(err)
	}
	ref, err := gridbcast.NewSession(p.Session.Grid())
	if err != nil {
		t.Fatal(err)
	}
	want := BatchResponse{
		Platform: p.Name, Generation: p.Generation, ElapsedUS: got.ElapsedUS,
		Plans: make([]*PlanJSON, len(br.Requests)), Errors: make([]*string, len(br.Requests)),
	}
	failed := 0
	for i := range br.Requests {
		opts, err := br.Requests[i].options(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		pl, err := ref.Plan(gridbcast.NewRequest(opts...))
		if err != nil {
			msg := err.Error()
			want.Errors[i] = &msg
			failed++
			continue
		}
		want.Plans[i] = EncodePlan(pl)
	}
	if failed != 2 {
		t.Fatalf("setup: %d failed slots, want 2", failed)
	}
	var wantBody bytes.Buffer
	if err := json.NewEncoder(&wantBody).Encode(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Body.Bytes(), wantBody.Bytes()) {
		t.Fatalf("batch reply differs from the encoder's output:\n got %.300s\nwant %.300s", w.Body.Bytes(), wantBody.Bytes())
	}
	if cl := w.Header().Get("Content-Length"); cl != fmt.Sprint(w.Body.Len()) {
		t.Errorf("Content-Length %q, body is %d bytes", cl, w.Body.Len())
	}
}

// TestServeBatchPlansFailedSlotOnce: a slot that fails inside the build
// (after the cache lookup) counts one cache miss, so the handler took its
// message from PlanBatch's error rather than planning it again.
func TestServeBatchPlansFailedSlotOnce(t *testing.T) {
	s := newWireServer(t)
	p, _ := s.reg.Lookup("g5k")
	before := p.Session.CacheStats()
	w := post(t, s, "/v1/plan/batch", `{"platform":"g5k","requests":[
		{"heuristic":"FEF","size":65536},
		{"size":1048576,"segment_size":1}
	]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Errors[1] == nil || !strings.Contains(*resp.Errors[1], "segments") {
		t.Fatalf("slot 1 error %v, want the segment-count message", resp.Errors[1])
	}
	if st := p.Session.CacheStats(); st.Misses-before.Misses != 2 {
		t.Errorf("%d cache misses for a batch of two slots, want 2 (one per slot)", st.Misses-before.Misses)
	}
}
