// Package service is the long-running broadcast-planning daemon behind
// cmd/gridbcastd: a platform registry of warmed, cache-enabled Sessions, an
// HTTP/JSON transport over Session.Plan/PlanBatch with per-request context
// deadlines and bounded admission, and an observability layer (atomic
// counters, fixed-bucket latency histograms, plan-cache statistics). See
// DESIGN.md §13 for the architecture.
package service

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	gridbcast "gridbcast"
	"gridbcast/internal/topology"
)

// PlatformSpec names one registry entry and where to load it from. Sources
// are resolved by LoadGridSource: the built-in "grid5000", "random:<seed>:<n>"
// (the paper's Table 2 Monte-Carlo distribution), a *.fits measured-
// parameter file (cmd/plogpfit output), or a platform JSON file.
type PlatformSpec struct {
	Name   string
	Source string
}

// ParsePlatformSpec parses the CLI form "name=source".
func ParsePlatformSpec(s string) (PlatformSpec, error) {
	name, source, ok := strings.Cut(s, "=")
	name, source = strings.TrimSpace(name), strings.TrimSpace(source)
	if !ok || name == "" || source == "" {
		return PlatformSpec{}, fmt.Errorf("service: platform spec %q: want name=source", s)
	}
	return PlatformSpec{Name: name, Source: source}, nil
}

// MaxRandomClusters caps n in a "random:<seed>:<n>" source. A random grid
// holds n² pLogP entries and every plan costs O(n²) matrices, so an
// unbounded n in a registry spec or reload could exhaust memory.
const MaxRandomClusters = 4096

// LoadGridSource resolves a platform source string to a validated grid.
// File-backed sources re-read the file on every call, which is what makes
// Registry.Reload pick up re-measured fits.
func LoadGridSource(source string) (*gridbcast.Grid, error) {
	switch {
	case strings.EqualFold(source, "grid5000"):
		return gridbcast.Grid5000(), nil
	case strings.HasPrefix(source, "random:"):
		parts := strings.Split(source, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("service: source %q: want random:<seed>:<clusters>", source)
		}
		seed, err1 := strconv.ParseInt(parts[1], 10, 64)
		n, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || n < 1 {
			return nil, fmt.Errorf("service: source %q: bad seed or cluster count", source)
		}
		if n > MaxRandomClusters {
			return nil, fmt.Errorf("service: source %q: %d clusters exceeds the limit of %d", source, n, MaxRandomClusters)
		}
		return gridbcast.RandomGrid(seed, n), nil
	case strings.HasSuffix(source, ".fits"):
		return topology.LoadFits(source)
	default:
		return gridbcast.LoadGrid(source)
	}
}

// Platform is one registry entry: a named, warmed, cache-enabled Session.
// A Platform handed out by Lookup stays valid for the lifetime of the
// request that looked it up, across any number of concurrent reloads — a
// reload swaps the table, it never touches handed-out Sessions.
type Platform struct {
	Name string
	// Source echoes the spec the platform was loaded from.
	Source string
	// Generation is the registry generation that loaded this entry.
	Generation uint64
	// Session plans against the platform; safe for concurrent use.
	Session *gridbcast.Session
}

// table is one immutable registry generation.
type table struct {
	gen       uint64
	platforms map[string]*Platform
	names     []string
}

// Registry is the daemon's locked platform table. Lookups are a single
// atomic pointer load on the hot path; Reload builds a complete new table
// off to the side (re-reading file-backed sources) and swaps it in only
// when every platform loaded — a failed reload leaves the serving table
// untouched. In-flight requests keep planning against the Sessions they
// already hold, so a reload never invalidates running work.
type Registry struct {
	specs    []PlatformSpec
	cacheCap int

	reloadMu sync.Mutex // serializes Reload; lookups never take it
	cur      atomic.Pointer[table]
}

// NewRegistry loads every spec (generation 1) and fails fast if any
// platform is unloadable. cacheCap sizes each Session's plan cache
// (see CacheCapacityFor).
func NewRegistry(specs []PlatformSpec, cacheCap int) (*Registry, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("service: registry needs at least one platform")
	}
	seen := map[string]bool{}
	for _, sp := range specs {
		if seen[sp.Name] {
			return nil, fmt.Errorf("service: duplicate platform name %q", sp.Name)
		}
		seen[sp.Name] = true
	}
	r := &Registry{specs: append([]PlatformSpec(nil), specs...), cacheCap: cacheCap}
	t, err := r.load(1)
	if err != nil {
		return nil, err
	}
	r.cur.Store(t)
	return r, nil
}

// load builds one complete table at the given generation.
func (r *Registry) load(gen uint64) (*table, error) {
	t := &table{gen: gen, platforms: make(map[string]*Platform, len(r.specs))}
	for _, sp := range r.specs {
		g, err := LoadGridSource(sp.Source)
		if err != nil {
			return nil, fmt.Errorf("service: platform %q: %w", sp.Name, err)
		}
		sess, err := gridbcast.NewSession(g, gridbcast.WithPlanCache(r.cacheCap))
		if err != nil {
			return nil, fmt.Errorf("service: platform %q: %w", sp.Name, err)
		}
		// Warm the session: the fingerprint digest (O(n²)) and the default-
		// size edge costs are paid here, not by the first request.
		sess.Fingerprint()
		t.platforms[sp.Name] = &Platform{
			Name: sp.Name, Source: sp.Source, Generation: gen, Session: sess,
		}
		t.names = append(t.names, sp.Name)
	}
	sort.Strings(t.names)
	return t, nil
}

// Lookup returns the named platform from the current generation.
func (r *Registry) Lookup(name string) (*Platform, bool) {
	p, ok := r.cur.Load().platforms[name]
	return p, ok
}

// Names lists the current generation's platform names, sorted.
func (r *Registry) Names() []string {
	return append([]string(nil), r.cur.Load().names...)
}

// Generation returns the current table generation (1 after NewRegistry,
// +1 per successful Reload).
func (r *Registry) Generation() uint64 { return r.cur.Load().gen }

// Platforms returns the current generation's entries in name order.
func (r *Registry) Platforms() []*Platform {
	t := r.cur.Load()
	out := make([]*Platform, 0, len(t.names))
	for _, name := range t.names {
		out = append(out, t.platforms[name])
	}
	return out
}

// Reload rebuilds the whole table from the registry's specs — re-reading
// every file-backed source, so re-measured pLogP fits and edited platform
// files take effect — and swaps it in atomically. On any load error the
// old table keeps serving and the error is returned. Returns the new
// generation.
func (r *Registry) Reload() (uint64, error) {
	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	gen := r.cur.Load().gen + 1
	t, err := r.load(gen)
	if err != nil {
		return r.cur.Load().gen, err
	}
	r.cur.Store(t)
	return gen, nil
}
