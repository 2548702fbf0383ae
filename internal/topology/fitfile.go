// Fit files are the text format cmd/plogpfit emits for measured platforms:
// one cluster line per cluster and one link line per directed wide-area
// link, every pLogP parameter spelled with full float precision so a
// written file parses back to a cost-identical (same Fingerprint) grid.
// The format exists so measured parameter sets can move between tools — a
// plogpfit run on one machine produces a file the gridbcastd platform
// registry loads on another — without going through the JSON platform
// schema, mirroring how Kielmann's pLogP benchmark publishes parameter
// files in practice.
//
// Grammar (one record per line, '#' starts a comment, blank lines are
// skipped):
//
//	fits v1
//	cluster <index> <name> <nodes> <bcast_time_seconds>
//	intra   <index> <L_seconds> <size>:<seconds> [<size>:<seconds> ...]
//	link    <from> <to> <L_seconds> <size>:<seconds> [<size>:<seconds> ...]
//
// The header line is mandatory. Cluster indices must cover 0..n-1, with n
// at most MaxClusters; a cluster with bcast_time 0 needs an intra line (its
// local pLogP parameters); every off-diagonal link must be present. Names
// are Go-quoted, so they may contain spaces.
package topology

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"gridbcast/internal/plogp"
)

// fitsHeader is the version line opening every fit file.
const fitsHeader = "fits v1"

// WriteFits serialises the grid in plogpfit's fit-file format. Floats are
// written with strconv's shortest round-trip formatting, so ParseFits
// reconstructs a grid with an identical Fingerprint.
func WriteFits(w io.Writer, g *Grid) error {
	if err := g.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# gridbcast measured pLogP platform (cmd/plogpfit)\n%s\n", fitsHeader)
	for i, c := range g.Clusters {
		fmt.Fprintf(bw, "cluster %d %s %d %s\n", i, strconv.Quote(c.Name), c.Nodes, ftoa(c.BcastTime))
		if c.BcastTime == 0 {
			fmt.Fprintf(bw, "intra %d %s%s\n", i, ftoa(c.Intra.L), fitPoints(c.Intra.G))
		}
	}
	for i := range g.Inter {
		for j := range g.Inter[i] {
			if i == j {
				continue
			}
			p := g.Inter[i][j]
			fmt.Fprintf(bw, "link %d %d %s%s\n", i, j, ftoa(p.L), fitPoints(p.G))
		}
	}
	return bw.Flush()
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func fitPoints(f plogp.SizeFunc) string {
	var sb strings.Builder
	for i := 0; i < f.NumPoints(); i++ {
		p := f.PointAt(i)
		sb.WriteString(" ")
		sb.WriteString(strconv.FormatInt(p.Size, 10))
		sb.WriteString(":")
		sb.WriteString(ftoa(p.Sec))
	}
	return sb.String()
}

// ParseFits reads a fit file into a validated grid. name labels the source
// in errors; every parse error names name:line and echoes the offending
// field, so a malformed measurement file is diagnosable from the message
// alone.
func ParseFits(r io.Reader, name string) (*Grid, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	fail := func(format string, args ...any) error {
		return fmt.Errorf("topology: %s:%d: %s", name, lineNo, fmt.Sprintf(format, args...))
	}

	type clusterRec struct {
		cluster  Cluster
		hasIntra bool
	}
	clusters := map[int]*clusterRec{}
	links := map[[2]int]plogp.Params{}
	sawHeader := false

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sawHeader {
			if line != fitsHeader {
				return nil, fail("not a fit file: first record %q, want %q", line, fitsHeader)
			}
			sawHeader = true
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "cluster":
			if len(fields) != 5 {
				return nil, fail("cluster record needs 4 fields (index name nodes bcast_time), have %d", len(fields)-1)
			}
			idx, err := strconv.Atoi(fields[1])
			if err != nil || idx < 0 {
				return nil, fail("bad cluster index %q", fields[1])
			}
			if idx >= MaxClusters {
				// Indices are dense, so this file has too many clusters.
				return nil, fail("cluster index %d exceeds the limit of %d clusters", idx, MaxClusters)
			}
			if _, dup := clusters[idx]; dup {
				return nil, fail("duplicate cluster %d", idx)
			}
			cname, err := strconv.Unquote(fields[2])
			if err != nil {
				return nil, fail("bad cluster name %s: %v", fields[2], err)
			}
			nodes, err := strconv.Atoi(fields[3])
			if err != nil || nodes <= 0 {
				return nil, fail("bad node count %q", fields[3])
			}
			bt, err := strconv.ParseFloat(fields[4], 64)
			if err != nil || bt < 0 {
				return nil, fail("bad bcast time %q", fields[4])
			}
			clusters[idx] = &clusterRec{cluster: Cluster{Name: cname, Nodes: nodes, BcastTime: bt}}
		case "intra":
			if len(fields) < 4 {
				return nil, fail("intra record needs at least 3 fields (index L size:sec...), have %d", len(fields)-1)
			}
			idx, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fail("bad intra cluster index %q", fields[1])
			}
			rec, ok := clusters[idx]
			if !ok {
				return nil, fail("intra record for cluster %d before its cluster record", idx)
			}
			if rec.hasIntra {
				return nil, fail("duplicate intra record for cluster %d", idx)
			}
			p, err := parseParams(fields[2], fields[3:])
			if err != nil {
				return nil, fail("intra %d: %v", idx, err)
			}
			rec.cluster.Intra = p
			rec.hasIntra = true
		case "link":
			if len(fields) < 5 {
				return nil, fail("link record needs at least 4 fields (from to L size:sec...), have %d", len(fields)-1)
			}
			from, err1 := strconv.Atoi(fields[1])
			to, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || from < 0 || to < 0 {
				return nil, fail("bad link endpoints %q -> %q", fields[1], fields[2])
			}
			if from == to {
				return nil, fail("link %d->%d is a self-loop", from, to)
			}
			if _, dup := links[[2]int{from, to}]; dup {
				return nil, fail("duplicate link %d->%d", from, to)
			}
			p, err := parseParams(fields[3], fields[4:])
			if err != nil {
				return nil, fail("link %d->%d: %v", from, to, err)
			}
			links[[2]int{from, to}] = p
		default:
			return nil, fail("unknown record %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topology: %s: %w", name, err)
	}
	if !sawHeader {
		lineNo++
		return nil, fail("empty input: missing %q header", fitsHeader)
	}

	// Assemble: indices must cover 0..n-1 densely.
	n := len(clusters)
	g := &Grid{Clusters: make([]Cluster, n), Inter: make([][]plogp.Params, n)}
	for idx, rec := range clusters {
		if idx >= n {
			var missing []int
			for i := 0; i < n; i++ {
				if _, ok := clusters[i]; !ok {
					missing = append(missing, i)
				}
			}
			sort.Ints(missing)
			return nil, fmt.Errorf("topology: %s: cluster indices not dense: have %d clusters but index %d (missing %v)", name, n, idx, missing)
		}
		if rec.cluster.BcastTime == 0 && !rec.hasIntra {
			return nil, fmt.Errorf("topology: %s: cluster %d (%s) has bcast_time 0 but no intra record", name, idx, rec.cluster.Name)
		}
		g.Clusters[idx] = rec.cluster
	}
	for i := range g.Inter {
		g.Inter[i] = make([]plogp.Params, n)
	}
	for ep, p := range links {
		if ep[0] >= n || ep[1] >= n {
			return nil, fmt.Errorf("topology: %s: link %d->%d references a cluster beyond the %d defined", name, ep[0], ep[1], n)
		}
		g.Inter[ep[0]][ep[1]] = p
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && !g.Inter[i][j].G.Valid() {
				return nil, fmt.Errorf("topology: %s: missing link %d->%d", name, i, j)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("topology: %s: %w", name, err)
	}
	return g, nil
}

// parseParams decodes "<L>" plus "size:sec" gap points.
func parseParams(lfield string, ptFields []string) (plogp.Params, error) {
	l, err := strconv.ParseFloat(lfield, 64)
	if err != nil {
		return plogp.Params{}, fmt.Errorf("bad latency %q", lfield)
	}
	pts := make([]plogp.Point, 0, len(ptFields))
	for _, f := range ptFields {
		sizeStr, secStr, ok := strings.Cut(f, ":")
		if !ok {
			return plogp.Params{}, fmt.Errorf("bad gap point %q (want size:seconds)", f)
		}
		size, err := strconv.ParseInt(sizeStr, 10, 64)
		if err != nil {
			return plogp.Params{}, fmt.Errorf("bad gap point size %q", sizeStr)
		}
		sec, err := strconv.ParseFloat(secStr, 64)
		if err != nil {
			return plogp.Params{}, fmt.Errorf("bad gap point cost %q", secStr)
		}
		pts = append(pts, plogp.Point{Size: size, Sec: sec})
	}
	g, err := plogp.NewSizeFunc(pts)
	if err != nil {
		return plogp.Params{}, err
	}
	p := plogp.Params{L: l, G: g}
	if err := p.Validate(); err != nil {
		return plogp.Params{}, err
	}
	return p, nil
}

// LoadFits reads a fit file from disk (see ParseFits).
func LoadFits(path string) (*Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseFits(f, path)
}
