package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"testing"

	gridbcast "gridbcast"
)

// newWireServer builds a server over the two platforms the serving
// benchmark uses: the paper's GRID5000 and a 128-cluster random grid.
func newWireServer(t *testing.T) *Server {
	t.Helper()
	reg, err := NewRegistry([]PlatformSpec{
		{Name: "g5k", Source: "grid5000"},
		{Name: "r128", Source: "random:7:128"},
	}, CacheCapacityFor(0))
	if err != nil {
		t.Fatal(err)
	}
	return New(reg, Config{})
}

// servedPlan is what checkPlanBody reads back from a /v1/plan reply.
type servedPlan struct {
	Outcome   string          `json:"outcome"`
	ElapsedUS float64         `json:"elapsed_us"`
	Plan      json.RawMessage `json:"plan"`
}

// checkPlanBody asserts that a /v1/plan reply is byte for byte what
// json.Encoder writes for the full PlanResponse, with the plan re-planned
// on an independent session over the same grid and the one per-request
// field, elapsed_us, echoed from the reply. It also checks Content-Length.
func checkPlanBody(t *testing.T, p *Platform, ref *gridbcast.Session, reqBody string, code int, hdr http.Header, body []byte) servedPlan {
	t.Helper()
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var got servedPlan
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decode reply: %v", err)
	}
	var pr PlanRequest
	if err := json.Unmarshal([]byte(reqBody), &pr); err != nil {
		t.Fatal(err)
	}
	opts, err := pr.options(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ref.Plan(gridbcast.NewRequest(opts...))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(PlanResponse{
		Platform:    p.Name,
		Generation:  p.Generation,
		Fingerprint: fmt.Sprintf("%016x", p.Session.Fingerprint()),
		Outcome:     got.Outcome,
		ElapsedUS:   got.ElapsedUS,
		Plan:        EncodePlan(direct),
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("%s reply differs from the encoder's output:\n got %.300s\nwant %.300s", got.Outcome, body, want.Bytes())
	}
	if cl := hdr.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("Content-Length %q, body is %d bytes", cl, len(body))
	}
	return got
}

// wireShapes are the plan kinds the byte-identity test covers on each
// platform: flat, fixed-segment, pipelined and best-of.
var wireShapes = []struct{ name, fields string }{
	{"flat", `"heuristic":"ECEF-LAT","root":1,"size":1048576`},
	{"fixed-segment", `"heuristic":"ECEF-LA","size":4194304,"segment_size":262144`},
	{"pipelined", `"heuristic":"ECEF-LAt","root":2,"size":1048576,"pipelined":true`},
	{"best-of", `"size":65536`},
}

// TestServePlanBodyMatchesEncoder pins the memoised response path to the
// encoder it replaced: built, hit and memo-served replies are byte-identical
// to json.Encoder over the full PlanResponse, on both platforms and for
// every plan kind.
func TestServePlanBodyMatchesEncoder(t *testing.T) {
	s := newWireServer(t)
	for _, name := range []string{"g5k", "r128"} {
		p, _ := s.reg.Lookup(name)
		ref, err := gridbcast.NewSession(p.Session.Grid())
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range wireShapes {
			t.Run(name+"/"+sh.name, func(t *testing.T) {
				body := fmt.Sprintf(`{"platform":%q,%s}`, name, sh.fields)
				var plans [][]byte
				for k, want := range []string{"built", "hit", "hit"} {
					w := post(t, s, "/v1/plan", body)
					got := checkPlanBody(t, p, ref, body, w.Code, w.Header(), w.Body.Bytes())
					if got.Outcome != want {
						t.Fatalf("request %d: outcome %q, want %q", k, got.Outcome, want)
					}
					plans = append(plans, got.Plan)
				}
				if !bytes.Equal(plans[0], plans[2]) {
					t.Error("memo-served plan differs from the built one")
				}
			})
		}
	}
}

// TestServePlanCollapsedBody covers the third outcome: requests that arrive
// while another request builds the same key share its plan and must reply
// with the same bytes. Collapse depends on timing, so fresh keys are tried
// until one collapses.
func TestServePlanCollapsedBody(t *testing.T) {
	s := newWireServer(t)
	p, _ := s.reg.Lookup("r128")
	ref, err := gridbcast.NewSession(p.Session.Grid())
	if err != nil {
		t.Fatal(err)
	}
	const clients = 6
	for attempt := 0; attempt < 20; attempt++ {
		body := fmt.Sprintf(`{"platform":"r128","size":%d}`, 1<<20+attempt)
		var wg sync.WaitGroup
		start := make(chan struct{})
		type reply struct {
			code int
			hdr  http.Header
			body []byte
		}
		replies := make([]reply, clients)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				w := post(t, s, "/v1/plan", body)
				replies[i] = reply{w.Code, w.Header(), w.Body.Bytes()}
			}(i)
		}
		close(start)
		wg.Wait()
		collapsed := false
		for _, r := range replies {
			got := checkPlanBody(t, p, ref, body, r.code, r.hdr, r.body)
			collapsed = collapsed || got.Outcome == "collapsed"
		}
		if collapsed {
			return
		}
	}
	t.Fatal("no request collapsed into a concurrent build in 20 attempts")
}

// errProbe marks a WireBytes call whose encoder ran, i.e. whose memo was
// empty; the probe's error keeps the memo empty.
var errProbe = errors.New("memo empty")

// memoFilled reports whether pl holds memoised wire bytes, without filling
// the memo.
func memoFilled(pl *gridbcast.Plan) bool {
	_, err := pl.WireBytes(func() ([]byte, error) { return nil, errProbe })
	return !errors.Is(err, errProbe)
}

// TestWireMemoFillsOnHitOnly: a stream of distinct keys, each built once,
// leaves no cached plan holding memo bytes; the first hit fills the memo
// with exactly the plan's encoding.
func TestWireMemoFillsOnHitOnly(t *testing.T) {
	s := newWireServer(t)
	p, _ := s.reg.Lookup("g5k")
	const keys = 40
	reqs := make([]gridbcast.Request, keys)
	for i := range reqs {
		size := int64(1<<16 + i)
		if w := post(t, s, "/v1/plan", fmt.Sprintf(`{"platform":"g5k","heuristic":"FEF","size":%d}`, size)); w.Code != http.StatusOK {
			t.Fatalf("key %d: status %d: %s", i, w.Code, w.Body)
		}
		reqs[i] = gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.FEF), gridbcast.WithSize(size))
	}
	for i, req := range reqs {
		pl, outcome, err := p.Session.PlanInfo(req)
		if err != nil || outcome != gridbcast.PlanHit {
			t.Fatalf("key %d: outcome %v, err %v; want a cache-resident plan", i, outcome, err)
		}
		if memoFilled(pl) {
			t.Fatalf("key %d: a plan built once holds memo bytes", i)
		}
	}

	if w := post(t, s, "/v1/plan", `{"platform":"g5k","heuristic":"FEF","size":65536}`); w.Code != http.StatusOK {
		t.Fatalf("hit: status %d", w.Code)
	}
	pl, _ := p.Session.Plan(reqs[0])
	if !memoFilled(pl) {
		t.Fatal("a hit left the memo empty")
	}
	got, err := pl.WireBytes(func() ([]byte, error) { return nil, errProbe })
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(EncodePlan(pl))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("memo bytes differ from json.Marshal(EncodePlan(pl))")
	}
}

// TestWireMemoConcurrentFirstHits races many first hits on one key (run
// under -race): every reply carries the same plan bytes, and afterwards the
// memo holds them.
func TestWireMemoConcurrentFirstHits(t *testing.T) {
	s := newWireServer(t)
	p, _ := s.reg.Lookup("g5k")
	const body = `{"platform":"g5k","heuristic":"ECEF-LA","root":3,"size":2097152}`
	if w := post(t, s, "/v1/plan", body); w.Code != http.StatusOK {
		t.Fatalf("build: status %d", w.Code)
	}
	const clients = 16
	plans := make([]json.RawMessage, clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			w := post(t, s, "/v1/plan", body)
			var got servedPlan
			if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || got.Outcome != "hit" {
				t.Errorf("client %d: status %d, outcome %q, err %v", i, w.Code, got.Outcome, err)
				return
			}
			plans[i] = got.Plan
		}(i)
	}
	close(start)
	wg.Wait()
	pl, err := p.Session.Plan(gridbcast.NewRequest(
		gridbcast.WithHeuristic(gridbcast.ECEFLA), gridbcast.WithRoot(3), gridbcast.WithSize(1<<21)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(EncodePlan(pl))
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range plans {
		if !bytes.Equal(got, want) {
			t.Errorf("client %d: plan differs from json.Marshal(EncodePlan(pl))", i)
		}
	}
	if !memoFilled(pl) {
		t.Error("concurrent hits left the memo empty")
	}
}

// TestServePlanBodyAfterReplan: Session.Replan migrates cached plans into
// new *Plan values, so a hit on the drifted session must serve the drifted
// plan's bytes, never the memo of the plan it replaced.
func TestServePlanBodyAfterReplan(t *testing.T) {
	s := newWireServer(t)
	p, _ := s.reg.Lookup("g5k")
	const body = `{"platform":"g5k","heuristic":"ECEF-LAT","size":1048576}`
	for k := 0; k < 2; k++ { // build, then a hit that fills the memo
		if w := post(t, s, "/v1/plan", body); w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
	}
	req := gridbcast.NewRequest(gridbcast.WithHeuristic(gridbcast.ECEFLAT), gridbcast.WithSize(1<<20))
	old, err := p.Session.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if !memoFilled(old) {
		t.Fatal("setup: the hit left the memo empty")
	}
	ns, _, err := p.Session.Replan(old, gridbcast.PlatformDelta{Cluster: 0, OutLatScale: 3, OutGapScale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := ns.CacheStats(); st.Migrated == 0 {
		t.Fatalf("setup: nothing migrated (%+v)", st)
	}
	// Serve the drifted session under the same name, as a reload would.
	drifted := &Platform{Name: p.Name, Source: p.Source, Generation: p.Generation + 1, Session: ns}
	s.reg.cur.Store(&table{gen: drifted.Generation, platforms: map[string]*Platform{p.Name: drifted}, names: []string{p.Name}})

	ref, err := gridbcast.NewSession(ns.Grid())
	if err != nil {
		t.Fatal(err)
	}
	var plans []json.RawMessage
	for k := 0; k < 2; k++ { // migrated hit, then memo-served hit
		w := post(t, s, "/v1/plan", body)
		got := checkPlanBody(t, drifted, ref, body, w.Code, w.Header(), w.Body.Bytes())
		if got.Outcome != "hit" {
			t.Fatalf("request %d on the drifted session: outcome %q, want hit", k, got.Outcome)
		}
		plans = append(plans, got.Plan)
	}
	oldBytes, err := json.Marshal(EncodePlan(old))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(plans[0], oldBytes) {
		t.Error("the drift did not change the plan; the test cannot tell a stale memo apart")
	}
}
