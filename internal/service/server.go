package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	gridbcast "gridbcast"
)

// Config tunes the server.
type Config struct {
	// MaxInflight bounds concurrently admitted planning requests (/v1/plan
	// and /v1/plan/batch); excess requests are rejected with 429 instead of
	// queueing without bound. <= 0 selects DefaultMaxInflight.
	MaxInflight int
	// DefaultTimeout bounds planning time for requests that set no
	// deadline_ms. <= 0 selects DefaultPlanTimeout. It should not exceed
	// MaxDeadline, which cmd/gridbcastd enforces at startup.
	DefaultTimeout time.Duration
	// MaxBodyBytes bounds request bodies. <= 0 selects DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Log receives one line per reload and per rejected admission burst;
	// nil discards.
	Log *log.Logger
}

// Defaults for Config's zero fields.
const (
	DefaultMaxInflight  = 64
	DefaultPlanTimeout  = 30 * time.Second
	DefaultMaxBodyBytes = 1 << 20
)

// MaxDeadline caps a request's deadline_ms: a larger value gets a 400.
// Without a cap, deadline_ms above 9,223,372,036,854 overflows the
// time.Duration it is converted to, and any very large value leaves the
// build unbounded. A fixed cap also lets the daemon bound how long it
// writes a response.
const MaxDeadline = 5 * time.Minute

// checkDeadline refuses a deadline_ms above MaxDeadline.
func checkDeadline(deadlineMS int64) error {
	if capMS := MaxDeadline.Milliseconds(); deadlineMS > capMS {
		return fmt.Errorf("deadline_ms %d exceeds the cap of %d (%v)", deadlineMS, capMS, MaxDeadline)
	}
	return nil
}

// CacheCapacityFor sizes a registry session's plan cache from the
// admission limit: every admitted request can install at most one entry,
// so a capacity of many admission windows keeps the steady-state working
// set of a saturated server resident while still bounding memory. The
// floor keeps small deployments at the facade default.
func CacheCapacityFor(maxInflight int) int {
	if maxInflight <= 0 {
		maxInflight = DefaultMaxInflight
	}
	cap := 64 * maxInflight
	if cap < gridbcast.DefaultPlanCacheCapacity {
		cap = gridbcast.DefaultPlanCacheCapacity
	}
	const maxCap = 1 << 16
	if cap > maxCap {
		cap = maxCap
	}
	return cap
}

// Server wires the registry, admission control, metrics and the HTTP
// transport together. Construct with New, serve via Handler.
type Server struct {
	reg      *Registry
	cfg      Config
	metrics  *Metrics
	sem      chan struct{}
	inflight atomic.Int64
	mux      *http.ServeMux
}

// New builds a server over a loaded registry.
func New(reg *Registry, cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = DefaultPlanTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{
		reg:     reg,
		cfg:     cfg,
		metrics: NewMetrics(),
		sem:     make(chan struct{}, cfg.MaxInflight),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/plan", s.handlePlan)
	s.mux.HandleFunc("POST /v1/plan/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/platforms", s.handlePlatforms)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /admin/reload", s.handleReload)
	return s
}

// Handler returns the HTTP handler. Graceful drain is the caller's:
// http.Server.Shutdown stops accepting and waits for in-flight handlers,
// which is exactly the admission-bounded planning work.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the registry (cmd/gridbcastd's SIGHUP path reloads it).
func (s *Server) Registry() *Registry { return s.reg }

// Metrics exposes the metrics state (tests and future transports).
func (s *Server) Metrics() *Metrics { return s.metrics }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// writeJSON writes a 2xx JSON body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeError writes the uniform error body.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	c := s.metrics.Counters()
	switch status {
	case http.StatusBadRequest:
		c.BadRequest.Add(1)
	case http.StatusNotFound:
		c.NotFound.Add(1)
	case http.StatusTooManyRequests:
		c.Saturated.Add(1)
	case statusClientClosedRequest:
		c.Canceled.Add(1)
	case http.StatusGatewayTimeout:
		c.Deadline.Add(1)
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, ErrorResponse{Error: msg, Status: status})
}

// statusClientClosedRequest is nginx's convention for "the client went
// away mid-request"; Go has no named constant for it.
const statusClientClosedRequest = 499

// planStatus maps a facade planning error to an HTTP status. Context
// errors are transport conditions; everything else Plan returns is a
// request-shape problem (the facade validates before building), so the
// descriptive message goes back as a 400.
func planStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusBadRequest
	}
}

// decodeBody strictly decodes a JSON body into v: unknown fields,
// trailing garbage and oversized bodies are all 400-class errors.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request body: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errors.New("decode request body: trailing data after JSON value")
	}
	return nil
}

// admit acquires an admission slot, or reports saturation.
func (s *Server) admit() bool {
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return true
	default:
		return false
	}
}

func (s *Server) release() {
	s.inflight.Add(-1)
	<-s.sem
}

// planContext derives the planning context from the transport: the
// client's disconnect cancels it, and deadline_ms (or the server default)
// bounds it. The handlers have refused a deadline_ms above MaxDeadline, so
// the conversion cannot overflow.
func (s *Server) planContext(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if deadlineMS > 0 {
		timeout = time.Duration(deadlineMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), timeout)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counters().Total.Add(1)
	var pr PlanRequest
	if err := s.decodeBody(w, r, &pr); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if pr.Platform == "" {
		s.writeError(w, http.StatusBadRequest, "missing platform name")
		return
	}
	if err := checkDeadline(pr.DeadlineMS); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The platform pointer is resolved once and held for the request's
	// lifetime: a concurrent registry reload swaps the table but never
	// touches this session, so in-flight plans are reload-safe by
	// construction.
	p, ok := s.reg.Lookup(pr.Platform)
	if !ok {
		s.writeError(w, http.StatusNotFound,
			fmt.Sprintf("unknown platform %q (have %s)", pr.Platform, strings.Join(s.reg.Names(), ", ")))
		return
	}
	if !s.admit() {
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("server at its admission limit (%d in-flight plans)", s.cfg.MaxInflight))
		return
	}
	defer s.release()

	ctx, cancel := s.planContext(r, pr.DeadlineMS)
	defer cancel()
	opts, err := pr.options(ctx)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	start := time.Now()
	pl, outcome, err := p.Session.PlanInfo(gridbcast.NewRequest(opts...))
	elapsed := time.Since(start)
	if err != nil {
		s.writeError(w, planStatus(err), err.Error())
		return
	}
	var planJSON []byte
	if outcome == gridbcast.PlanHit {
		// Only a hit fills the memo: a plan requested once keeps no bytes.
		// The memo lives as long as the plan, so it keeps an exact-size
		// copy rather than MarshalPlan's estimated capacity.
		planJSON, err = pl.WireBytes(func() ([]byte, error) {
			b, err := MarshalPlan(pl)
			return bytes.Clone(b), err
		})
	} else {
		planJSON, err = MarshalPlan(pl)
	}
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encode plan: "+err.Error())
		return
	}
	s.metrics.Observe(p.Name, pr.heuristicLabel(), outcome.String(), elapsed)
	s.metrics.Counters().OK.Add(1)
	// Marshalling the head cannot fail: its fields are strings, an integer
	// and a finite duration.
	head, _ := json.Marshal(PlanResponse{
		Platform:    p.Name,
		Generation:  p.Generation,
		Fingerprint: fmt.Sprintf("%016x", p.Session.Fingerprint()),
		Outcome:     outcome.String(),
		ElapsedUS:   us(elapsed),
	})
	writePlanResponse(w, head, planJSON)
}

// writePlanResponse writes a 200 PlanResponse body from head, the response
// marshalled with a nil Plan, and planJSON, the marshalled plan. Plan is
// the last field, so the body is head with its closing `null}` replaced by
// planJSON: byte for byte what json.Encoder writes for the full response,
// trailing newline included, without re-encoding or re-scanning the plan.
func writePlanResponse(w http.ResponseWriter, head, planJSON []byte) {
	head = bytes.TrimSuffix(head, []byte("null}"))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(planJSON)+2))
	w.WriteHeader(http.StatusOK)
	// A failed write means the client has gone; there is nobody to tell.
	w.Write(head)
	w.Write(planJSON)
	w.Write([]byte("}\n"))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counters().Total.Add(1)
	var br BatchRequest
	if err := s.decodeBody(w, r, &br); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if br.Platform == "" {
		s.writeError(w, http.StatusBadRequest, "missing platform name")
		return
	}
	if len(br.Requests) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if err := checkDeadline(br.DeadlineMS); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	p, ok := s.reg.Lookup(br.Platform)
	if !ok {
		s.writeError(w, http.StatusNotFound,
			fmt.Sprintf("unknown platform %q (have %s)", br.Platform, strings.Join(s.reg.Names(), ", ")))
		return
	}
	if !s.admit() {
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("server at its admission limit (%d in-flight plans)", s.cfg.MaxInflight))
		return
	}
	defer s.release()

	ctx, cancel := s.planContext(r, br.DeadlineMS)
	defer cancel()
	reqs := make([]gridbcast.Request, len(br.Requests))
	for i := range br.Requests {
		item := &br.Requests[i]
		if item.Platform != "" {
			s.writeError(w, http.StatusBadRequest,
				fmt.Sprintf("request %d: platform is set at the batch level", i))
			return
		}
		if item.DeadlineMS != 0 {
			s.writeError(w, http.StatusBadRequest,
				fmt.Sprintf("request %d: deadline_ms is set at the batch level", i))
			return
		}
		opts, err := item.options(ctx)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("request %d: %v", i, err))
			return
		}
		reqs[i] = gridbcast.NewRequest(opts...)
	}
	start := time.Now()
	plans, batchErr := p.Session.PlanBatch(reqs)
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil && allNil(plans) {
		// The whole batch died on the transport deadline or a client
		// disconnect; report the condition instead of a body of nulls.
		s.writeError(w, planStatus(err), err.Error())
		return
	}
	// Marshalling the head cannot fail: its fields are strings, an integer
	// and a finite duration.
	head, _ := json.Marshal(BatchResponse{
		Platform:   p.Name,
		Generation: p.Generation,
		ElapsedUS:  us(elapsed),
	})
	body, err := appendBatchBody(head, plans, slotMessages(batchErr, len(plans)))
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encode plan: "+err.Error())
		return
	}
	s.metrics.Observe(p.Name, "batch", "batch", elapsed)
	s.metrics.Counters().OK.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// slotMessages reads each failed slot's message from PlanBatch's joined
// error, so no failed slot is planned a second time to recover it. A slot
// the error does not name reads "planning failed".
func slotMessages(err error, slots int) []string {
	msgs := make([]string, slots)
	for i := range msgs {
		msgs[i] = "planning failed"
	}
	joined, _ := err.(interface{ Unwrap() []error })
	if joined == nil {
		return msgs
	}
	for _, e := range joined.Unwrap() {
		var se *gridbcast.SlotError
		if errors.As(e, &se) && se.Slot >= 0 && se.Slot < slots {
			msgs[se.Slot] = se.Err.Error()
		}
	}
	return msgs
}

// appendBatchBody builds a 200 BatchResponse body from head, the response
// marshalled with nil Plans and Errors, and the per-slot results: each
// plan's AppendPlan bytes, or the slot's error message. The body is byte
// for byte what json.Encoder writes for the full response, trailing newline
// included.
func appendBatchBody(head []byte, plans []*gridbcast.Plan, msgs []string) ([]byte, error) {
	head = bytes.TrimSuffix(head, []byte(`null,"errors":null}`))
	size := len(head) + 32
	for i, pl := range plans {
		if pl != nil {
			size += planWireSize(pl)
		} else {
			size += len(msgs[i]) + 8
		}
	}
	b := append(make([]byte, 0, size), head...)
	b = append(b, '[')
	var err error
	for i, pl := range plans {
		if i > 0 {
			b = append(b, ',')
		}
		if pl == nil {
			b = append(b, "null"...)
			continue
		}
		if b, err = AppendPlan(b, pl); err != nil {
			return nil, err
		}
	}
	b = append(b, `],"errors":[`...)
	for i, pl := range plans {
		if i > 0 {
			b = append(b, ',')
		}
		if pl != nil {
			b = append(b, "null"...)
		} else {
			b = appendString(b, msgs[i])
		}
	}
	return append(b, "]}\n"...), nil
}

func allNil(plans []*gridbcast.Plan) bool {
	for _, pl := range plans {
		if pl != nil {
			return false
		}
	}
	return true
}

func (s *Server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	infos := make([]PlatformInfo, 0)
	for _, p := range s.reg.Platforms() {
		infos = append(infos, platformInfo(p))
	}
	writeJSON(w, http.StatusOK, struct {
		Generation uint64         `json:"generation"`
		Platforms  []PlatformInfo `json:"platforms"`
	}{s.reg.Generation(), infos})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:     "ok",
		Generation: s.reg.Generation(),
		UptimeS:    s.metrics.Uptime().Seconds(),
		Platforms:  len(s.reg.Names()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	infos := make([]PlatformInfo, 0)
	for _, p := range s.reg.Platforms() {
		infos = append(infos, platformInfo(p))
	}
	writeJSON(w, http.StatusOK, MetricsResponse{
		UptimeS:       s.metrics.Uptime().Seconds(),
		Generation:    s.reg.Generation(),
		Inflight:      int(s.inflight.Load()),
		InflightLimit: s.cfg.MaxInflight,
		Requests:      s.metrics.CountersSnapshot(),
		Platforms:     infos,
		PlanLatencies: s.metrics.Snapshot(),
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	gen, err := s.reg.Reload()
	if err != nil {
		s.logf("reload failed (still serving generation %d): %v", gen, err)
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.logf("reloaded platform registry: generation %d (%d platforms)", gen, len(s.reg.Names()))
	writeJSON(w, http.StatusOK, ReloadResponse{
		Generation: gen,
		Platforms:  len(s.reg.Names()),
		ElapsedUS:  us(time.Since(start)),
	})
}
