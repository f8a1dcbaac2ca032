// Command pbslab runs the full PBS measurement study end to end: it
// simulates the merge→March window, runs the parallel analysis engine over
// the collected datasets, and prints the paper's tables plus a summary.
// With -figures it also writes one CSV per figure.
//
// Usage:
//
//	pbslab [-days N] [-blocks-per-day N] [-seed N] [-workers N]
//	       [-sim-workers N] [-figures DIR] [-dump-dataset] [-scale N]
//	       [-private-flow F] [-small-builders N] [-relay-outages SPEC]
//	       [-ofac-lag SPEC]
//	       [-quiet] [-checkpoint-dir DIR] [-resume] [-timeout D]
//	pbslab -verify DIR
//
// The default -days 0 runs the paper's full window (2022-09-15 through
// 2023-03-31, 198 days); smaller values truncate it for quick runs.
// -workers sets the width of the analysis worker pool and -sim-workers
// that of the simulation slot engine (0 = all CPUs); output is
// byte-identical at every setting.
//
// The scenario knobs the pbsfleet experiment grid sweeps are also plain
// flags here, with the same syntax and validation (internal/cli.Knobs):
// -private-flow (private user-flow share in [0,1]), -small-builders
// (long-tail builder population), -relay-outages
// ("RELAY=FROM..TO[,...]" appended to the default calendar, or "none" to
// clear it), and -ofac-lag ("WAVE=+Nd|never|on-time[,...]", "*" for every
// designation wave). A malformed knob is a validation error before the
// simulation starts, never a silently ignored default. -scale multiplies
// the corpus density (blocks/day, transaction volume, and the long-tail
// builder population) for out-of-core runs at 10×–100× the calibrated
// miniature (DESIGN.md §11).
//
// The run is crash-safe: with -checkpoint-dir the simulation checkpoints at
// every simulated day boundary and again on SIGINT/SIGTERM or -timeout
// expiry, and -resume continues a killed run to byte-identical output. Any
// figure directory carries a manifest of sizes and SHA-256 digests;
// -verify checks a directory against its manifest and reports corrupt,
// missing, and stale files.
//
// -dump-dataset additionally serializes the collected corpus into the
// figures directory, covered by the same manifest, which lets the pbslabd
// daemon re-validate the data and answer per-day index queries. The corpus
// lands in the versioned per-day segment layout (dataset/index.json +
// dataset/common.seg + dataset/day-NNNNNN.seg) that downstream consumers
// stream one day at a time.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/ethpbs/pbslab/internal/cli"
	"github.com/ethpbs/pbslab/internal/dsio"
	"github.com/ethpbs/pbslab/internal/report"
)

func main() {
	cfg := cli.Register(flag.CommandLine)
	figuresDir := flag.String("figures", "", "write per-figure CSVs into this directory")
	dumpDataset := flag.Bool("dump-dataset", false, "also write the serialized corpus into the -figures directory, enabling pbslabd index queries")
	quiet := flag.Bool("quiet", false, "suppress the text report")
	verifyDir := flag.String("verify", "", "verify an output directory against its manifest and exit")
	flag.Parse()

	if *verifyDir != "" {
		os.Exit(verify(*verifyDir))
	}
	if *dumpDataset && *figuresDir == "" {
		fmt.Fprintln(os.Stderr, "pbslab: -dump-dataset requires -figures DIR")
		os.Exit(2)
	}
	os.Exit(run(cfg, *figuresDir, *dumpDataset, *quiet))
}

// verify checks dir against its manifest: 0 = clean, 1 = problems found or
// the manifest itself is unreadable.
func verify(dir string) int {
	problems, err := report.VerifyDir(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbslab: verify: %v\n", err)
		return 1
	}
	if len(problems) == 0 {
		fmt.Printf("%s: verified, every artifact matches the manifest\n", dir)
		return 0
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	fmt.Fprintf(os.Stderr, "pbslab: %s: %d problem(s)\n", dir, len(problems))
	return 1
}

func run(cfg *cli.Config, figuresDir string, dumpDataset bool, quiet bool) int {
	if figuresDir != "" {
		if err := cli.EnsureOutDir(figuresDir); err != nil {
			fmt.Fprintf(os.Stderr, "pbslab: %v\n", err)
			return 1
		}
	}
	ctx, stop := cfg.Context()
	defer stop()

	sc, err := cfg.Scenario()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbslab: %v\n", err)
		return 2
	}
	start := time.Now()
	fmt.Fprintf(os.Stderr, "simulating %s → %s at %d blocks/day (seed %d)...\n",
		sc.Start.Format("2006-01-02"), sc.End.Format("2006-01-02"), sc.BlocksPerDay, sc.Seed)
	res, err := cfg.Simulate(ctx, nil)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "pbslab: %v\n", err)
			if cfg.CheckpointDir != "" {
				fmt.Fprintf(os.Stderr, "pbslab: checkpoint saved; rerun with -resume to continue\n")
			}
			return 130
		}
		fmt.Fprintf(os.Stderr, "pbslab: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "simulated %d blocks in %v; analyzing...\n",
		len(res.Dataset.Blocks), time.Since(start).Round(time.Millisecond))

	a, err := cfg.AnalyzeContext(ctx, res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbslab: %v\n", err)
		return 1
	}

	if !quiet {
		report.PrintAll(os.Stdout, a)
	}
	if figuresDir != "" {
		var extra []report.Artifact
		if dumpDataset {
			// Ship the corpus under the same manifest as the figures, so a
			// serving daemon can re-verify and re-validate everything it
			// loads (and answer per-day index queries), streaming one day
			// at a time.
			files, err := dsio.EncodeChunked(res.Dataset, res.World.BuilderLabels())
			if err != nil {
				fmt.Fprintf(os.Stderr, "pbslab: encode dataset: %v\n", err)
				return 1
			}
			for _, f := range files {
				extra = append(extra, report.Artifact{Name: f.Name, Data: f.Data})
			}
		}
		// Even on cancellation mid-render, every completed artifact is
		// flushed and covered by the manifest: the directory stays
		// verifiable, merely incomplete.
		if err := report.WriteAllExtraContext(ctx, a, figuresDir, extra...); err != nil {
			fmt.Fprintf(os.Stderr, "pbslab: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "figures written to %s\n", figuresDir)
	}
	return 0
}
