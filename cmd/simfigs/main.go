// Command simfigs regenerates the paper's evaluation — Figures 1–6 and
// Table 3 — plus the repository's segmented-broadcast extension: Figure 7
// (segment-size sweep on the GRID5000 platform), Figure 8 (the same sweep
// on Table 2 random platforms with size-dependent gaps), and Figures 9-10
// (the local-segmentation ablation: the end-to-end pipeline's gain over the
// coordinator-only one, on GRID5000 and on random clustered platforms).
//
// Usage:
//
//	simfigs -fig 1 [-iters 10000] [-seed 42] [-out dir] [-plot]
//	simfigs -fig all -iters 2000
//	simfigs -fig 7
//	simfigs -table 3 [-rho 0.3] [-jitter 0.01]
//	simfigs -chaos [-trials 16] [-seed 42]
//
// Each figure is written as a gnuplot-style .dat file plus a CSV in -out
// (default "results/"), and a textual summary (and with -plot an ASCII
// chart) goes to stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	gridbcast "gridbcast"
	"gridbcast/internal/experiment"
	"gridbcast/internal/vnet"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure to regenerate: 1..10 or 'all'")
		table    = flag.Int("table", 0, "table to regenerate: 3")
		iters    = flag.Int("iters", 10000, "Monte-Carlo iterations (figures 1-4 and 8)")
		segN     = flag.Int("segclusters", 10, "cluster count for the random segment sweeps (figures 8 and 10)")
		seed     = flag.Int64("seed", 42, "random seed")
		outDir   = flag.String("out", "results", "output directory for .dat/.csv files")
		plot     = flag.Bool("plot", false, "also print ASCII plots")
		jitter   = flag.Float64("jitter", 0, "network jitter for figure 6 and table 3 (e.g. 0.03)")
		rho      = flag.Float64("rho", 0.3, "clustering tolerance for table 3")
		gridPath = flag.String("grid", "", "platform JSON for the fixed-platform figures 5-7 (default: built-in GRID5000)")
		chaos    = flag.Bool("chaos", false, "run the chaos harness: fault-injection sweep (completion rate and degraded makespan vs crash time) plus the drift-replanning equivalence sweep")
		trials   = flag.Int("trials", 8, "chaos trials per crash fraction")
	)
	flag.Parse()

	var fixedGrid *gridbcast.Grid // nil → the figures' built-in default
	if *gridPath != "" {
		var err error
		fixedGrid, err = gridbcast.LoadGrid(*gridPath)
		if err != nil {
			fatal(err)
		}
	}

	if *fig == "" && *table == 0 && !*chaos {
		flag.Usage()
		os.Exit(2)
	}

	if *chaos {
		cfg := experiment.ChaosConfig{Seed: *seed, Trials: *trials}
		f, err := experiment.Chaos(cfg)
		if err != nil {
			fatal(err)
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		if err := writeFigure(f, *outDir); err != nil {
			fatal(err)
		}
		fmt.Print(f.Summary())
		if *plot {
			fmt.Print(f.AsciiPlot(18, 64))
		}
		rep, err := experiment.ChaosReplanSweep(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replan sweep: %d scenarios, %d diverged from rebuild, max |measured-predicted| %.3g s, mean drifted/original makespan %.4f\n",
			rep.Scenarios, rep.Diverged, rep.MaxExecError, rep.MeanMakespanRatio)
		if *fig == "" && *table == 0 {
			return
		}
		fmt.Println()
	}

	if *table == 3 {
		res, err := experiment.Table3(*rho, *jitter, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Render())
		if *fig == "" {
			return
		}
	} else if *table != 0 {
		fatal(fmt.Errorf("unknown table %d (only Table 3 is reproducible)", *table))
	}

	mc := experiment.MonteCarlo{Iterations: *iters, Seed: *seed}
	practical := experiment.PracticalConfig{
		Grid: fixedGrid,
		Net:  vnet.Config{Jitter: *jitter, Seed: *seed},
	}

	figs := map[string]func() (*experiment.Figure, error){
		"1": func() (*experiment.Figure, error) { return mc.Fig1(), nil },
		"2": func() (*experiment.Figure, error) { return mc.Fig2(), nil },
		"3": func() (*experiment.Figure, error) { return mc.Fig3(), nil },
		"4": func() (*experiment.Figure, error) { return mc.Fig4(), nil },
		"5": func() (*experiment.Figure, error) {
			return experiment.Fig5(experiment.PracticalConfig{Grid: fixedGrid})
		},
		"6": func() (*experiment.Figure, error) { return experiment.Fig6(practical) },
		"7": func() (*experiment.Figure, error) {
			return experiment.FigSegments(experiment.SegmentSweep{Grid: fixedGrid})
		},
		"8": func() (*experiment.Figure, error) { return mc.FigSegmentsRandom(*segN, nil, nil), nil },
		"9": func() (*experiment.Figure, error) {
			return experiment.FigLocalSegments(experiment.SegmentSweep{Grid: fixedGrid})
		},
		"10": func() (*experiment.Figure, error) { return mc.FigLocalSegmentsRandom(*segN, nil, nil), nil },
	}

	var ids []string
	if *fig == "all" {
		ids = []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10"}
	} else {
		if _, err := strconv.Atoi(*fig); err != nil || figs[*fig] == nil {
			fatal(fmt.Errorf("unknown figure %q (want 1..10 or all)", *fig))
		}
		ids = []string{*fig}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	for _, id := range ids {
		f, err := figs[id]()
		if err != nil {
			fatal(err)
		}
		if err := writeFigure(f, *outDir); err != nil {
			fatal(err)
		}
		fmt.Print(f.Summary())
		if *plot {
			fmt.Print(f.AsciiPlot(18, 64))
		}
		fmt.Println()
	}
}

func writeFigure(f *experiment.Figure, dir string) error {
	dat, err := os.Create(filepath.Join(dir, f.ID+".dat"))
	if err != nil {
		return err
	}
	defer dat.Close()
	if err := f.WriteDAT(dat); err != nil {
		return err
	}
	csv, err := os.Create(filepath.Join(dir, f.ID+".csv"))
	if err != nil {
		return err
	}
	defer csv.Close()
	return f.WriteCSV(csv)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simfigs:", err)
	os.Exit(1)
}
