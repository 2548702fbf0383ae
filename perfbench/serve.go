package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"time"

	gridbcast "gridbcast"
	"gridbcast/internal/service"
)

// The serve workloads drive the real internal/service handler through a
// net/http.Server on a loopback TCP listener, wired the way cmd/gridbcastd
// wires it, with a closed loop of one client: it sends its next request
// only after the reply, the shape of an MPI job blocked on its plan. The
// whole process runs on one core (main.go), client and daemon alike.

// serveSpecs is the daemon's registry: the paper's GRID5000 platform and a
// 128-cluster Table 2 random platform.
var serveSpecs = []service.PlatformSpec{
	{Name: "g5k", Source: "grid5000"},
	{Name: "r128", Source: "random:7:128"},
}

// daemon is one in-process gridbcastd.
type daemon struct {
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan error
}

// startDaemon builds the registry, starts serving on a fresh loopback port
// and returns once /healthz answers 200. cacheCap <= 0 sizes the plan
// caches from the default admission limit, as cmd/gridbcastd does.
func startDaemon(client *http.Client, cacheCap int) (*daemon, error) {
	if cacheCap <= 0 {
		cacheCap = service.CacheCapacityFor(service.DefaultMaxInflight)
	}
	reg, err := service.NewRegistry(serveSpecs, cacheCap)
	if err != nil {
		return nil, err
	}
	srv := service.New(reg, service.Config{
		MaxInflight:    service.DefaultMaxInflight,
		DefaultTimeout: service.DefaultPlanTimeout,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	if err := d.waitHealthy(client); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitHealthy(client *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy after 10s: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon and waits for its serve goroutine to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// cacheStats sums the plan-cache counters of every served platform.
func (d *daemon) cacheStats() gridbcast.CacheStats {
	var sum gridbcast.CacheStats
	for _, p := range d.srv.Registry().Platforms() {
		cs := p.Session.CacheStats()
		sum.Hits += cs.Hits
		sum.Misses += cs.Misses
		sum.Collapsed += cs.Collapsed
		sum.Evicted += cs.Evicted
		sum.Migrated += cs.Migrated
	}
	return sum
}

// item is one generated request.
type item struct {
	seq      int
	path     string
	platform string
	body     []byte
	shapes   []planShape // one for /v1/plan, the slots of a batch
	// ref indexes the hot workload's reference responses (-1 for cold).
	ref int
}

func (it *item) batch() bool { return it.path == "/v1/plan/batch" }

func planRequest(platform string, ps planShape) service.PlanRequest {
	pr := service.PlanRequest{
		Platform: platform, Root: ps.root, Size: ps.size,
		SegmentSize: ps.segSize, Pipelined: ps.pipelined,
		SegmentedLocal: ps.segLocal, Overlap: ps.overlap,
	}
	if ps.heuristic != nil {
		pr.Heuristic = ps.heuristic.Name()
	}
	return pr
}

func newPlanItem(platform string, ps planShape) item {
	body, _ := json.Marshal(planRequest(platform, ps))
	return item{path: "/v1/plan", platform: platform, body: body, shapes: []planShape{ps}, ref: -1}
}

func newBatchItem(platform string, shapes []planShape) item {
	br := service.BatchRequest{Platform: platform}
	for _, ps := range shapes {
		pr := planRequest("", ps)
		br.Requests = append(br.Requests, pr)
	}
	body, _ := json.Marshal(br)
	return item{path: "/v1/plan/batch", platform: platform, body: body, shapes: shapes, ref: -1}
}

// heuristicChoices are the heuristics the serve workloads request: the
// eight paper heuristics (the seven of best-of plus Mixed) and best-of
// (nil).
func heuristicChoices() []gridbcast.Heuristic {
	hs := gridbcast.Heuristics()
	hs = append(hs, gridbcast.Mixed, nil)
	return hs
}

// hotItems is serve-hot's fixed set of 64 distinct requests, in Zipf rank
// order: 12 shapes on r128 (best-of, the eight paper heuristics, three
// pipelined) at four sizes take ranks 0-47, and 4 shapes on g5k take the
// tail ranks 48-63 (about 5% of the traffic), so the median request is an
// r128 plan of about 20 KB rather than the boundary between the two
// platforms. The shapes are fixed so that every seed loads the same mix;
// the seed draws the roots and the Zipf sequence.
func hotItems(seed int64) []item {
	r := rand.New(rand.NewSource(seed))
	sizes := []int64{64 << 10, 512 << 10, 4 << 20, 16 << 20}
	type shape struct {
		heuristic gridbcast.Heuristic
		pipelined bool
	}
	r128 := []shape{}
	for _, h := range heuristicChoices() {
		r128 = append(r128, shape{h, false})
	}
	r128 = append(r128, shape{gridbcast.ECEFLAT, true}, shape{nil, true}, shape{gridbcast.FEF, true})
	g5k := []shape{{nil, false}, {gridbcast.ECEFLAT, false}, {gridbcast.BottomUp, false}, {nil, true}}
	items := make([]item, 0, 64)
	add := func(platform string, n int, sh shape, size int64) {
		ps := planShape{heuristic: sh.heuristic, root: r.Intn(n), size: size, pipelined: sh.pipelined}
		it := newPlanItem(platform, ps)
		it.ref = len(items)
		items = append(items, it)
	}
	for i := 0; i < 48; i++ {
		add("r128", 128, r128[i%len(r128)], sizes[(i+i/len(r128))%len(sizes)])
	}
	for i := 0; i < 16; i++ {
		add("g5k", 6, g5k[i%len(g5k)], sizes[(i+i/len(g5k))%len(sizes)])
	}
	return items
}

// stream hands out the workload's requests in seeded order.
type stream interface{ next() *item }

// hotStream draws items by a Zipf law over their rank.
type hotStream struct {
	items []item
	zipf  *rand.Zipf
	seq   int
}

func newHotStream(seed int64) *hotStream {
	items := hotItems(seed)
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	return &hotStream{items: items, zipf: rand.NewZipf(r, 1.1, 1, uint64(len(items)-1))}
}

func (s *hotStream) next() *item {
	it := s.items[s.zipf.Uint64()]
	it.seq = s.seq
	s.seq++
	return &it
}

// coldSizes is serve-cold's fixed pool of 64 non-round sizes, geometric
// between 4 KiB and 16 MiB.
func coldSizes() []int64 {
	sizes := make([]int64, 64)
	for k := range sizes {
		f := float64(int64(1)<<12) * math.Pow(4096, float64(k)/63)
		sizes[k] = int64(f) - int64(k%7) - 1
	}
	return sizes
}

// coldStream generates requests that never repeat a cache key: uniform
// roots and heuristics, sizes from the fixed pool, with 10% pipelined, 5%
// fixed-segment, 5% batches of 8 slots and 10% on g5k. The g5k share
// (cheap plans) puts the median request inside the r128 ECEF/Mixed cost
// band rather than on the edge between it and the lookahead heuristics',
// where the median would swing with small shifts in relative cost.
//
// Heuristics and sizes are stratified rather than drawn: each request kind
// cycles through the heuristic choices and (in a seeded order) its size
// pool, so every run holds the same mix and only the roots and the order
// depend on the seed.
type coldStream struct {
	r     *rand.Rand
	seq   int
	seen  map[string]bool
	sizes []int64
	perm  []int
	hs    []gridbcast.Heuristic
	// count is the number of shapes issued per platform and kind.
	count map[string]int
}

func newColdStream(seed int64) *coldStream {
	r := rand.New(rand.NewSource(seed))
	sizes := coldSizes()
	return &coldStream{
		r: r, seen: map[string]bool{}, sizes: sizes, perm: r.Perm(len(sizes)),
		hs: heuristicChoices(), count: map[string]int{},
	}
}

// shape issues the next unseen shape of a kind on a platform. Segmented
// shapes cost edge matrices at every segment and last-segment size, which
// the platform keeps for good, so they use every fourth size of the pool
// (and fixed segments split the message in 2, 4 or 8) to bound the
// process's memory.
func (s *coldStream) shape(platform string, kind int) planShape {
	n := map[string]int{"g5k": 6, "r128": 128}[platform]
	ck := fmt.Sprintf("%s/%d", platform, kind)
	k := s.count[ck]
	s.count[ck]++
	nh := len(s.hs)
	ps := planShape{heuristic: s.hs[k%nh]}
	switch kind {
	case kindFlat:
		ps.size = s.sizes[s.perm[(k/nh)%len(s.sizes)]]
	case kindPipelined:
		ps.pipelined = true
		ps.size = s.sizes[4*((k/nh)%(len(s.sizes)/4))+3]
	case kindSegmented:
		ps.size = s.sizes[4*((k/nh)%(len(s.sizes)/4))+3]
		ps.segSize = ps.size/int64(2<<((k/nh/16)%3)) + 1
	}
	if platform == "g5k" {
		// Six roots make a small key space; alternating the completion
		// model doubles it, so runs of any length the benchmark is used
		// with stay distinct.
		ps.overlap = (k/(nh*len(s.sizes)))%2 == 1
	}
	hname := "best"
	if ps.heuristic != nil {
		hname = ps.heuristic.Name()
	}
	r0 := s.r.Intn(n)
	for j := 0; j < n; j++ {
		ps.root = (r0 + j) % n
		key := fmt.Sprintf("%s|%s|%d|%d|%d|%t|%t", platform, hname, ps.root, ps.size, ps.segSize, ps.pipelined, ps.overlap)
		if !s.seen[key] {
			s.seen[key] = true
			return ps
		}
	}
	// Every root of this shape was issued already: repeat one.
	ps.root = r0
	return ps
}

const (
	kindFlat = iota
	kindPipelined
	kindSegmented
)

func (s *coldStream) next() *item {
	var it item
	switch s.seq % 20 {
	case 0, 10:
		it = newPlanItem("r128", s.shape("r128", kindPipelined))
	case 5:
		it = newPlanItem("r128", s.shape("r128", kindSegmented))
	case 15:
		shapes := make([]planShape, 8)
		for i := range shapes {
			shapes[i] = s.shape("r128", kindFlat)
		}
		it = newBatchItem("r128", shapes)
	case 7, 17:
		it = newPlanItem("g5k", s.shape("g5k", kindFlat))
	default:
		it = newPlanItem("r128", s.shape("r128", kindFlat))
	}
	it.seq = s.seq
	s.seq++
	return &it
}

// planHead is the fixed-size prefix of a /v1/plan response.
type planHead struct {
	Outcome   string  `json:"outcome"`
	ElapsedUS float64 `json:"elapsed_us"`
}

var planField = []byte(`,"plan":`)

// splitPlanResponse returns a /v1/plan response's head fields and the raw
// bytes of its "plan" object, which the service writes last.
func splitPlanResponse(body []byte) (planHead, []byte, error) {
	var h planHead
	body = bytes.TrimRight(body, "\n")
	i := bytes.Index(body, planField)
	if i < 0 || len(body) == 0 || body[len(body)-1] != '}' {
		return h, nil, errors.New("response has no plan")
	}
	head := append(append([]byte(nil), body[:i]...), '}')
	if err := json.Unmarshal(head, &h); err != nil {
		return h, nil, fmt.Errorf("response head: %w", err)
	}
	return h, body[i+len(planField) : len(body)-1], nil
}

// batchResponse is a /v1/plan/batch response with its plans kept raw.
type batchResponse struct {
	ElapsedUS float64           `json:"elapsed_us"`
	Plans     []json.RawMessage `json:"plans"`
	Errors    []*string         `json:"errors"`
}

// echoes reports whether a plan's JSON echoes the request's root and size,
// the check every response gets; sampled responses are checked byte for
// byte against an independent registry.
func echoes(plan []byte, ps planShape) bool {
	want := fmt.Sprintf(`"root":%d,"size":%d,`, ps.root, ps.size)
	head := plan
	if len(head) > 256 {
		head = head[:256]
	}
	return bytes.Contains(head, []byte(want))
}

// wantPlanJSON is the byte-identity reference: the JSON of a direct
// Session.Plan of the same request on an independent registry. Unless
// cached, the plan is built outside the registry's plan cache, so checking
// a stream of distinct requests holds no plans.
func wantPlanJSON(reg *service.Registry, platform string, ps planShape, cached bool) ([]byte, *gridbcast.Plan, error) {
	p, ok := reg.Lookup(platform)
	if !ok {
		return nil, nil, fmt.Errorf("no platform %q", platform)
	}
	opts := ps.options()
	if !cached {
		opts = append(opts, gridbcast.WithNoCache())
	}
	pl, err := p.Session.Plan(gridbcast.NewRequest(opts...))
	if err != nil {
		return nil, nil, err
	}
	b, err := json.Marshal(service.EncodePlan(pl))
	return b, pl, err
}
