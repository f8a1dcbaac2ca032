// Command figures regenerates every figure and table of the paper's
// evaluation as CSV/text files — the per-experiment harness DESIGN.md
// indexes. It is cmd/pbslab restricted to artifact generation, with the
// output directory required and validated before the simulation starts.
//
// Like cmd/pbslab it is crash-safe: -checkpoint-dir/-resume make the
// simulation survive kills, SIGINT checkpoints and flushes every completed
// artifact (the manifest keeps the partial directory verifiable), and
// -timeout bounds the whole run.
//
// Usage:
//
//	figures -out DIR [-days N] [-blocks-per-day N] [-seed N]
//	        [-workers N] [-sim-workers N] [-scale N]
//	        [-private-flow F] [-small-builders N] [-relay-outages SPEC]
//	        [-ofac-lag SPEC]
//	        [-checkpoint-dir DIR] [-resume] [-timeout D]
//
// -workers sets the width of the analysis worker pool and -sim-workers
// that of the simulation slot engine (0 = all CPUs); the artifacts are
// byte-identical at every width. The
// scenario knobs (-private-flow, -small-builders, -relay-outages,
// -ofac-lag) share syntax and validation with cmd/pbslab and the pbsfleet
// experiment grid; a malformed value is an error before the simulation
// starts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"github.com/ethpbs/pbslab/internal/cli"
	"github.com/ethpbs/pbslab/internal/report"
)

func main() {
	cfg := cli.Register(flag.CommandLine)
	out := flag.String("out", "", "output directory (required)")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "figures: -out is required")
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(cfg, *out))
}

func run(cfg *cli.Config, out string) int {
	if err := cli.EnsureOutDir(out); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		return 1
	}
	ctx, stop := cfg.Context()
	defer stop()

	res, err := cfg.Simulate(ctx, func(day int) {
		fmt.Fprintf(os.Stderr, "figures: day %d simulated\n", day)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		if (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) &&
			cfg.CheckpointDir != "" {
			fmt.Fprintf(os.Stderr, "figures: checkpoint saved; rerun with -resume to continue\n")
			return 130
		}
		return 1
	}
	a, err := cfg.AnalyzeContext(ctx, res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		return 1
	}
	if err := report.WriteAllContext(ctx, a, out); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s (blocks=%d, days=%d)\n", out, len(res.Dataset.Blocks), res.Dataset.Days())
	return 0
}
