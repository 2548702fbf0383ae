package service

import (
	"context"
	"fmt"
	"time"

	gridbcast "gridbcast"
)

// PlanRequest is the JSON body of POST /v1/plan, and (with Platform and
// DeadlineMS empty) one element of a batch request. The zero value of
// every optional field means "not requested", matching the facade's
// option semantics; unknown fields are rejected at decode time.
type PlanRequest struct {
	// Platform names the registry entry to plan against.
	Platform string `json:"platform"`
	// Heuristic pins the scheduling policy (ParseHeuristic names, trimmed
	// and case-insensitive). Empty selects best-of-paper.
	Heuristic string `json:"heuristic,omitempty"`
	// Root and Size describe the broadcast.
	Root int   `json:"root"`
	Size int64 `json:"size"`
	// SegmentSize > 0 plans fixed segments; Pipelined searches the ladder.
	SegmentSize int64 `json:"segment_size,omitempty"`
	Pipelined   bool  `json:"pipelined,omitempty"`
	// SegmentedLocal extends segmentation below the coordinators.
	SegmentedLocal bool `json:"segmented_local,omitempty"`
	// Refine, when non-nil, runs local-search refinement with the given
	// sweep budget (0 sweeps to a local optimum).
	Refine *int `json:"refine,omitempty"`
	// Overlap selects the §5.2 completion model.
	Overlap bool `json:"overlap,omitempty"`
	// NoCache bypasses the session's plan cache for this request.
	NoCache bool `json:"no_cache,omitempty"`
	// DeadlineMS bounds planning time; 0 uses the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// options translates the request to facade options. The context carries
// the transport deadline; heuristic resolution errors surface as 400s.
func (pr *PlanRequest) options(ctx context.Context) ([]gridbcast.Option, error) {
	opts := []gridbcast.Option{
		gridbcast.WithRoot(pr.Root),
		gridbcast.WithSize(pr.Size),
		gridbcast.WithContext(ctx),
		gridbcast.WithOverlap(pr.Overlap),
	}
	if pr.Heuristic != "" {
		h, err := gridbcast.ParseHeuristic(pr.Heuristic)
		if err != nil {
			return nil, err
		}
		opts = append(opts, gridbcast.WithHeuristic(h))
	}
	if pr.SegmentSize > 0 {
		opts = append(opts, gridbcast.WithSegments(pr.SegmentSize))
	}
	if pr.Pipelined {
		opts = append(opts, gridbcast.WithPipelined())
	}
	if pr.SegmentedLocal {
		opts = append(opts, gridbcast.WithSegmentedLocal())
	}
	if pr.Refine != nil {
		opts = append(opts, gridbcast.WithRefine(*pr.Refine))
	}
	if pr.NoCache {
		opts = append(opts, gridbcast.WithNoCache())
	}
	return opts, nil
}

// heuristicLabel is the metrics series label for the request.
func (pr *PlanRequest) heuristicLabel() string {
	if pr.Heuristic == "" {
		return "best"
	}
	if h, err := gridbcast.ParseHeuristic(pr.Heuristic); err == nil {
		return h.Name()
	}
	return pr.Heuristic
}

// EventJSON is one scheduled transmission.
type EventJSON struct {
	Round      int     `json:"round"`
	From       int     `json:"from"`
	To         int     `json:"to"`
	Start      float64 `json:"start"`
	SenderFree float64 `json:"sender_free"`
	Arrive     float64 `json:"arrive"`
}

// ScheduleJSON is an unsegmented schedule's wire form.
type ScheduleJSON struct {
	Events     []EventJSON `json:"events"`
	RT         []float64   `json:"rt"`
	Idle       []float64   `json:"idle"`
	Completion []float64   `json:"completion"`
}

// SegmentedJSON is a pipelined schedule's wire form.
type SegmentedJSON struct {
	Events         []EventJSON `json:"events"`
	FirstRT        []float64   `json:"first_rt"`
	RT             []float64   `json:"rt"`
	Idle           []float64   `json:"idle"`
	Completion     []float64   `json:"completion"`
	LocalSegmented []bool      `json:"local_segmented,omitempty"`
}

// CandidateJSON is one best-of candidate.
type CandidateJSON struct {
	Heuristic string  `json:"heuristic"`
	Makespan  float64 `json:"makespan"`
}

// PlanJSON is the wire form of a gridbcast.Plan. It carries every
// deterministic field of the plan — schedule bytes, timings, candidates —
// and deliberately omits BuildStats, whose wall-clock duration differs
// between a fresh build and a cache hit; a plan served through the
// transport therefore marshals byte-identically to the same plan obtained
// from Session.Plan directly (pinned by TestServePlanByteIdentical).
type PlanJSON struct {
	Heuristic      string          `json:"heuristic"`
	Root           int             `json:"root"`
	Size           int64           `json:"size"`
	Makespan       float64         `json:"makespan"`
	SegSize        int64           `json:"seg_size,omitempty"`
	K              int             `json:"k,omitempty"`
	LocalSegmented bool            `json:"local_segmented,omitempty"`
	Overlap        bool            `json:"overlap,omitempty"`
	Candidates     []CandidateJSON `json:"candidates,omitempty"`
	Schedule       *ScheduleJSON   `json:"schedule,omitempty"`
	Segmented      *SegmentedJSON  `json:"segmented,omitempty"`
}

// EncodePlan translates a facade plan to its wire form. The handlers do not
// call it: they write plans with AppendPlan, whose bytes equal
// json.Marshal(EncodePlan(pl)) without reflection. PlanJSON and EncodePlan
// stay as the schema and as the reference AppendPlan is tested against.
func EncodePlan(pl *gridbcast.Plan) *PlanJSON {
	out := &PlanJSON{
		Heuristic:      pl.Heuristic,
		Root:           pl.Root,
		Size:           pl.Size,
		Makespan:       pl.Makespan,
		SegSize:        pl.SegSize,
		K:              pl.K,
		LocalSegmented: pl.LocalSegmented,
		Overlap:        pl.Overlap,
	}
	for _, c := range pl.Candidates {
		out.Candidates = append(out.Candidates, CandidateJSON{Heuristic: c.Heuristic, Makespan: c.Makespan})
	}
	if sc := pl.Schedule; sc != nil {
		sj := &ScheduleJSON{
			Events:     make([]EventJSON, len(sc.Events)),
			RT:         sc.RT,
			Idle:       sc.Idle,
			Completion: sc.Completion,
		}
		for i, ev := range sc.Events {
			sj.Events[i] = EventJSON{
				Round: ev.Round, From: ev.From, To: ev.To,
				Start: ev.Start, SenderFree: ev.SenderFree, Arrive: ev.Arrive,
			}
		}
		out.Schedule = sj
	}
	if ss := pl.Segmented; ss != nil {
		sj := &SegmentedJSON{
			Events:         make([]EventJSON, len(ss.Events)),
			FirstRT:        ss.FirstRT,
			RT:             ss.RT,
			Idle:           ss.Idle,
			Completion:     ss.Completion,
			LocalSegmented: ss.LocalSegmented,
		}
		for i, ev := range ss.Events {
			sj.Events[i] = EventJSON{
				Round: ev.Round, From: ev.From, To: ev.To,
				Start: ev.Start, SenderFree: ev.SenderFree, Arrive: ev.Arrive,
			}
		}
		out.Segmented = sj
	}
	return out
}

// PlanResponse is the body of a successful POST /v1/plan.
type PlanResponse struct {
	Platform    string    `json:"platform"`
	Generation  uint64    `json:"generation"`
	Fingerprint string    `json:"fingerprint"`
	Outcome     string    `json:"outcome"`
	ElapsedUS   float64   `json:"elapsed_us"`
	Plan        *PlanJSON `json:"plan"`
}

// BatchRequest is the body of POST /v1/plan/batch: one platform, many
// requests, planned through Session.PlanBatch (deterministic slot results
// at any worker count, duplicate requests collapsed by the plan cache).
type BatchRequest struct {
	Platform string `json:"platform"`
	// DeadlineMS bounds the whole batch; 0 uses the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Requests are per-slot plan requests. Platform and DeadlineMS must be
	// unset on elements (the batch-level values govern).
	Requests []PlanRequest `json:"requests"`
}

// BatchResponse is the body of a successful batch call. Plans[i] and
// Errors[i] mirror Requests[i]: exactly one is set per slot.
type BatchResponse struct {
	Platform   string      `json:"platform"`
	Generation uint64      `json:"generation"`
	ElapsedUS  float64     `json:"elapsed_us"`
	Plans      []*PlanJSON `json:"plans"`
	Errors     []*string   `json:"errors"`
}

// PlatformInfo is one GET /v1/platforms entry.
type PlatformInfo struct {
	Name        string         `json:"name"`
	Source      string         `json:"source"`
	Generation  uint64         `json:"generation"`
	Fingerprint string         `json:"fingerprint"`
	Clusters    int            `json:"clusters"`
	Nodes       int            `json:"nodes"`
	Cache       CacheStatsJSON `json:"cache"`
	Costs       CostStatsJSON  `json:"costs"`
}

// CostStatsJSON exports a platform's cost store: resident bytes, resident
// message sizes and sizes evicted by the store's byte budget.
type CostStatsJSON struct {
	Bytes   int64 `json:"bytes"`
	Sizes   int   `json:"sizes"`
	Evicted int64 `json:"evicted"`
}

// CacheStatsJSON exports a session's plan-cache counters with the derived
// hit rate.
type CacheStatsJSON struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Collapsed uint64  `json:"collapsed"`
	Evicted   uint64  `json:"evicted"`
	Migrated  uint64  `json:"migrated"`
	HitRate   float64 `json:"hit_rate"`
}

func cacheStatsJSON(cs gridbcast.CacheStats) CacheStatsJSON {
	out := CacheStatsJSON{
		Hits: cs.Hits, Misses: cs.Misses, Collapsed: cs.Collapsed,
		Evicted: cs.Evicted, Migrated: cs.Migrated,
	}
	if lookups := cs.Hits + cs.Misses + cs.Collapsed; lookups > 0 {
		out.HitRate = float64(cs.Hits) / float64(lookups)
	}
	return out
}

func platformInfo(p *Platform) PlatformInfo {
	g := p.Session.Grid()
	return PlatformInfo{
		Name:        p.Name,
		Source:      p.Source,
		Generation:  p.Generation,
		Fingerprint: fmt.Sprintf("%016x", p.Session.Fingerprint()),
		Clusters:    g.N(),
		Nodes:       g.TotalNodes(),
		Cache:       cacheStatsJSON(p.Session.CacheStats()),
		Costs:       CostStatsJSON(p.Session.CostStats()),
	}
}

// MetricsResponse is the body of GET /metrics.
type MetricsResponse struct {
	UptimeS       float64          `json:"uptime_s"`
	Generation    uint64           `json:"generation"`
	Inflight      int              `json:"inflight"`
	InflightLimit int              `json:"inflight_limit"`
	Requests      CountersSnapshot `json:"requests"`
	Platforms     []PlatformInfo   `json:"platforms"`
	PlanLatencies []SeriesSnapshot `json:"plan_latencies"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status     string  `json:"status"`
	Generation uint64  `json:"generation"`
	UptimeS    float64 `json:"uptime_s"`
	Platforms  int     `json:"platforms"`
}

// ReloadResponse is the body of a successful POST /admin/reload.
type ReloadResponse struct {
	Generation uint64  `json:"generation"`
	Platforms  int     `json:"platforms"`
	ElapsedUS  float64 `json:"elapsed_us"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// us converts a duration to microseconds for wire fields.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
