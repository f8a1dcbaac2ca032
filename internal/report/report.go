// Package report renders a finished analysis as the paper's artifacts: a
// terminal digest and one CSV per figure plus text tables, ready for
// side-by-side comparison with the published plots. Each figure CSV is one
// core.DayFigures entry's WriteCSV; the text tables are PrintAll.
//
// RenderAll(ctx, a, workers) is the one renderer: it produces every
// artifact concurrently on a bounded worker pool, isolating a panicking
// renderer and honouring ctx. Results are collected in a fixed slice order
// and each artifact's bytes are a deterministic function of the analysis,
// so the output is identical however the pool schedules the work.
// WriteAllExtraContext lands the rendered set, plus any caller-supplied
// artifacts, in a directory under one manifest that VerifyDir checks.
package report

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"

	"github.com/ethpbs/pbslab/internal/core"
)

// PrintAll writes the full text report: summary, tables and coverage.
func PrintAll(w io.Writer, a *core.Analysis) {
	a.Summary(w)
	fmt.Fprintln(w)
	core.RenderTables2And3(w, a.Tables2And3Relays())
	fmt.Fprintln(w)
	rows, total := a.Table4RelayTrust()
	core.RenderTable4(w, rows, total)
	fmt.Fprintln(w)
	core.RenderBuilderBoxes(w, a.Figures11And12BuilderBoxes(11))
	fmt.Fprintln(w)
	core.RenderTable5(w, a.Clusters(), 17)
	fmt.Fprintln(w)
	core.RenderCoverage(w, a.ClassifierCoverage())

	gaps := a.OFACUpdateLag(4)
	if len(gaps) > 0 {
		fmt.Fprintln(w, "\n# OFAC update lag (Section 6)")
		for _, g := range gaps {
			fmt.Fprintf(w, "update %s: %.2f sanctioned compliant-relay blocks/day in window vs %.2f baseline\n",
				g.UpdateDate.Format("2006-01-02"), g.WindowPerDay, g.BaselinePerDay)
		}
	}

	delay := a.InclusionDelay()
	fmt.Fprintf(w, "\n# Inclusion delay (related-work extension)\n")
	fmt.Fprintf(w, "regular txs:    mean %.0fs median %.0fs (n=%d)\n",
		delay.Regular.Mean, delay.Regular.Median, delay.Regular.N)
	fmt.Fprintf(w, "sanctioned txs: mean %.0fs median %.0fs (n=%d) — %.2fx the regular wait\n",
		delay.Sanctioned.Mean, delay.Sanctioned.Median, delay.Sanctioned.N, delay.MeanRatio)
}

// Artifact is one rendered output file. A non-nil Err marks a renderer
// that panicked or was cancelled; its Data is empty and WriteAllExtraContext
// skips it while still flushing every completed artifact.
type Artifact struct {
	Name string
	Data []byte
	Err  error
}

// step is one artifact job: a file name and a lazy render.
type step struct {
	file string
	fn   func(io.Writer)
}

// artifactSteps lists every output artifact: one CSV per core.DayFigures
// entry, in table order, then the text tables. All closures are lazy — no
// figure is computed until a worker runs the step — so the pool, not the
// listing, decides concurrency.
func artifactSteps(a *core.Analysis) []step {
	steps := make([]step, 0, len(core.DayFigures)+1)
	for _, f := range core.DayFigures {
		steps = append(steps, step{f.Key + ".csv", func(w io.Writer) { f.WriteCSV(w, a) }})
	}
	return append(steps, step{"tables.txt", func(w io.Writer) { PrintAll(w, a) }})
}

// RenderAll renders every artifact into memory using at most workers
// concurrent renderers. The returned slice is always in the fixed artifact
// order regardless of scheduling; Analysis methods are memoized and safe
// for concurrent use, so overlapping jobs share rather than repeat work.
// A renderer that panics poisons only its own artifact (Err carries the
// panic and stack), and once ctx is cancelled the remaining un-rendered
// artifacts are marked with ctx's error instead of being computed.
// Completed artifacts are always returned, so callers can flush partial
// output.
func RenderAll(ctx context.Context, a *core.Analysis, workers int) []Artifact {
	return renderSteps(ctx, artifactSteps(a), workers)
}

// renderSteps runs the artifact pool; split out so tests can exercise panic
// isolation and cancellation with synthetic steps.
func renderSteps(ctx context.Context, steps []step, workers int) []Artifact {
	if workers < 1 {
		workers = 1
	}
	if workers > len(steps) {
		workers = len(steps)
	}
	out := make([]Artifact, len(steps))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					out[i] = Artifact{Name: steps[i].file, Err: err}
					continue
				}
				data, err := renderOne(steps[i])
				out[i] = Artifact{Name: steps[i].file, Data: data, Err: err}
			}
		}()
	}
	for i := range steps {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// renderOne runs a single render step, converting a panic into an error
// that names the artifact and keeps the worker (and the process) alive.
func renderOne(s step) (data []byte, err error) {
	var buf bytes.Buffer
	defer func() {
		if r := recover(); r != nil {
			data = nil
			err = fmt.Errorf("report: render %s: panic: %v\n%s", s.file, r, debug.Stack())
		}
	}()
	s.fn(&buf)
	return buf.Bytes(), nil
}

// WriteAllExtraContext renders every artifact (concurrently, see
// RenderAll) and writes them into dir, one file per figure plus the text
// tables, together with caller-supplied extra artifacts (e.g. the chunked
// corpus a serving daemon reloads from), all covered by one manifest, so
// VerifyDir certifies the extras exactly like the rendered figures. Every
// file lands atomically (temp + rename), so a crash mid-write never leaves
// a half-written artifact under its final name. On cancellation (or a
// renderer failure) every artifact that did complete is still flushed and
// covered by the manifest, then the error is reported: a partial directory
// always verifies clean against its manifest — it is merely incomplete,
// never corrupt.
func WriteAllExtraContext(ctx context.Context, a *core.Analysis, dir string, extra ...Artifact) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	arts := RenderAll(ctx, a, a.Workers())
	arts = append(arts, extra...)
	var errs []error
	var done []Artifact
	for _, art := range arts {
		if art.Err != nil {
			errs = append(errs, fmt.Errorf("report: %s: %w", art.Name, art.Err))
			continue
		}
		done = append(done, art)
	}
	if err := writeArtifacts(dir, done); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// WriteArtifacts lands caller-assembled artifacts in dir under a covering
// manifest, exactly like the rendered figure set: every file atomic, the
// manifest last, the directory verifiable with VerifyDir. The fleet merge
// uses it to publish the cross-scenario comparison corpus.
func WriteArtifacts(dir string, arts []Artifact) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, art := range arts {
		if art.Err != nil {
			return fmt.Errorf("report: %s: %w", art.Name, art.Err)
		}
	}
	return writeArtifacts(dir, arts)
}
