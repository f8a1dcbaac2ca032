package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/ethpbs/pbslab/internal/core"
	"github.com/ethpbs/pbslab/internal/dsio"
	"github.com/ethpbs/pbslab/internal/report"
	"github.com/ethpbs/pbslab/internal/sim"
)

// pipelineInput sizes one window or dense pass.
type pipelineInput struct {
	// Start moves the window's first day ("" = the merge, 2022-09-15).
	Start string `json:"start,omitempty"`
	// Days truncates the window (0 = through 2023-03-31).
	Days         int `json:"days"`
	BlocksPerDay int `json:"blocks_per_day"`
	Scale        int `json:"scale"`
	// Scenarios is how many scenarios a pass runs, one after another. A
	// scenario seed decides, among other things, when the large staking
	// operators adopt PBS, which moves the relay-auction share of slots
	// (and with it the cost of a block) by tens of percent; a pass over
	// several seeds keeps one benchmark seed's figure close to another's.
	Scenarios int `json:"scenarios"`
}

// scenarios builds the pass scenarios for a benchmark seed: the calibrated
// default with a derived scenario seed, the window, density and scale set,
// and the collection pool at nproc. Everything else stays at its default.
func (in pipelineInput) scenarios(seed uint64, nproc int) ([]sim.Scenario, error) {
	var out []sim.Scenario
	for _, s := range deriveSeeds(seed, in.Scenarios) {
		sc := sim.DefaultScenario()
		sc.Seed = s
		sc.BlocksPerDay = in.BlocksPerDay
		sc.CollectWorkers = nproc
		if in.Start != "" {
			start, err := time.Parse(time.DateOnly, in.Start)
			if err != nil {
				return nil, err
			}
			sc.Start = start
		}
		if in.Days > 0 {
			sc.End = sc.Start.Add(time.Duration(in.Days) * 24 * time.Hour)
		}
		sc, err := sc.Scale(in.Scale)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// truth is the ground-truth tally a pass must repeat exactly.
type truth struct {
	Blocks          int `json:"blocks"`
	PBSBlocks       int `json:"pbs_blocks"`
	MissedSlots     int `json:"missed_slots"`
	Fallbacks       int `json:"fallbacks"`
	FallbackCommits int `json:"fallback_commits"`
}

// runOutput is what one pipeline run over one scenario produced.
type runOutput struct {
	Wall     time.Duration
	PeakMB   float64
	Manifest string // SHA-256 of manifest.json
	Truth    truth
	Problems int         // report.VerifyDir findings
	Layers   *passLayers // traced runs only
}

// passLayers is the per-layer breakdown of one traced run, or the sum
// over the runs of a pass.
type passLayers struct {
	SimRunS     float64
	PreludeMS   float64
	CollectMS   float64
	SimAllocMB  float64
	SlotPBS     []float64 // ms per relay-delivered slot
	SlotLocal   []float64 // ms per locally built slot
	SlotsMissed int
	IndexMS     float64
	CoreAllocMB float64
	EncodeMS    float64
	DsioAllocMB float64
	CorpusMB    float64
	WriteMS     float64
	VerifyMS    float64
	Files       int
	WrittenMB   float64
	Violations  int
	Runtime     runtimeDelta
}

// add folds another run's breakdown into l: times, bytes and counts add
// up, slot samples pool.
func (l *passLayers) add(o *passLayers) {
	l.SimRunS += o.SimRunS
	l.PreludeMS += o.PreludeMS
	l.CollectMS += o.CollectMS
	l.SimAllocMB += o.SimAllocMB
	l.SlotPBS = append(l.SlotPBS, o.SlotPBS...)
	l.SlotLocal = append(l.SlotLocal, o.SlotLocal...)
	l.SlotsMissed += o.SlotsMissed
	l.IndexMS += o.IndexMS
	l.CoreAllocMB += o.CoreAllocMB
	l.EncodeMS += o.EncodeMS
	l.DsioAllocMB += o.DsioAllocMB
	l.CorpusMB += o.CorpusMB
	l.WriteMS += o.WriteMS
	l.VerifyMS += o.VerifyMS
	l.Files += o.Files
	l.WrittenMB += o.WrittenMB
	l.Violations += o.Violations
	l.Runtime.add(o.Runtime)
}

// runPipeline does what `pbslab -figures DIR -dump-dataset` does, through
// the same public calls, and writes into dir: simulate, index, encode the
// chunked corpus, render and write every artifact under the manifest,
// verify the directory. With a tracer it records a span around each call
// and the slot timeline; the untraced run makes the same calls with no
// hook installed. The output check (digest, truth counts, validation)
// runs after the timed part.
func runPipeline(ctx context.Context, sc sim.Scenario, nproc int, dir, op string, tr *tracer) (runOutput, error) {
	var out runOutput
	var lay passLayers
	var slotAt []time.Time
	var slotNo []uint64
	opts := sim.RunOptions{Workers: nproc}
	if tr != nil {
		slotAt = make([]time.Time, 0, 4096)
		slotNo = make([]uint64, 0, 4096)
		opts.OnSlot = func(slot uint64) {
			slotAt = append(slotAt, time.Now())
			slotNo = append(slotNo, slot)
		}
	}

	heap := watchHeap(2 * time.Millisecond)
	c0 := readCounters()
	root := tr.begin("pipeline", op, nil)

	simSpan := tr.begin("sim.RunOpts", op, root)
	simStart := time.Now()
	res, err := sim.RunOpts(ctx, sc, opts)
	simEnd := time.Now()
	simSpan.end()
	c1 := readCounters()
	if err != nil {
		heap.stop()
		return out, fmt.Errorf("sim: %w", err)
	}

	labels := res.World.BuilderLabels()
	coreSpan := tr.begin("core.NewWithContext", op, root)
	a, err := core.NewWithContext(ctx, res.Dataset, core.WithBuilderLabels(labels), core.WithWorkers(nproc))
	coreSpan.end()
	c2 := readCounters()
	if err != nil {
		heap.stop()
		return out, fmt.Errorf("core: %w", err)
	}

	dsSpan := tr.begin("dsio.EncodeChunked", op, root)
	files, err := dsio.EncodeChunked(res.Dataset, labels)
	dsSpan.end()
	c3 := readCounters()
	if err != nil {
		heap.stop()
		return out, fmt.Errorf("dsio: %w", err)
	}
	extra := make([]report.Artifact, len(files))
	for i, f := range files {
		extra[i] = report.Artifact{Name: f.Name, Data: f.Data}
		lay.CorpusMB += float64(len(f.Data)) / mibBytes
	}

	writeSpan := tr.begin("report.WriteAllExtraContext", op, root)
	err = report.WriteAllExtraContext(ctx, a, dir, extra...)
	writeSpan.end()
	if err != nil {
		heap.stop()
		return out, fmt.Errorf("report: %w", err)
	}
	verifySpan := tr.begin("report.VerifyDir", op, root)
	problems, err := report.VerifyDir(dir)
	verifySpan.end()
	root.end()
	c4 := readCounters()
	out.Wall = c4.at.Sub(c0.at)
	out.PeakMB = heap.stop()
	if err != nil {
		return out, fmt.Errorf("verify: %w", err)
	}
	out.Problems = len(problems)

	// Output check, untimed.
	out.Truth = truth{
		Blocks:          len(res.Dataset.Blocks),
		MissedSlots:     res.Truth.MissedSlots,
		Fallbacks:       res.Truth.Fallbacks,
		FallbackCommits: res.Truth.FallbackCommit,
	}
	for _, pbs := range res.Truth.PBS {
		if pbs {
			out.Truth.PBSBlocks++
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, report.ManifestName))
	if err != nil {
		return out, err
	}
	sum := sha256.Sum256(raw)
	out.Manifest = hex.EncodeToString(sum[:])
	if tr == nil {
		return out, nil
	}

	// Slot timeline: each OnSlot call closes the interval since the one
	// before; the block a slot produced (joined on dataset.Block.Slot)
	// says whether the relay auction delivered it.
	pbsBySlot := make(map[uint64]bool, len(res.Dataset.Blocks))
	for _, b := range res.Dataset.Blocks {
		pbsBySlot[b.Slot] = res.Truth.PBS[b.Number]
	}
	for i := 1; i < len(slotAt); i++ {
		ms := slotAt[i].Sub(slotAt[i-1]).Seconds() * 1e3
		kind := "missed"
		if pbs, ok := pbsBySlot[slotNo[i]]; ok {
			kind = "local"
			if pbs {
				kind = "pbs"
				lay.SlotPBS = append(lay.SlotPBS, ms)
			} else {
				lay.SlotLocal = append(lay.SlotLocal, ms)
			}
		} else {
			lay.SlotsMissed++
		}
		tr.add("sim.slot", op, simSpan, slotAt[i-1], slotAt[i]).set("kind", kind)
	}
	if n := len(slotAt); n > 0 {
		tr.add("sim.prelude", op, simSpan, simStart, slotAt[0])
		tr.add("sim.collect", op, simSpan, slotAt[n-1], simEnd)
		lay.PreludeMS = slotAt[0].Sub(simStart).Seconds() * 1e3
		lay.CollectMS = simEnd.Sub(slotAt[n-1]).Seconds() * 1e3
	}
	lay.SimRunS = simSpan.dur().Seconds()
	lay.SimAllocMB = allocMB(c0, c1)
	lay.IndexMS = coreSpan.dur().Seconds() * 1e3
	lay.CoreAllocMB = allocMB(c1, c2)
	lay.EncodeMS = dsSpan.dur().Seconds() * 1e3
	lay.DsioAllocMB = allocMB(c2, c3)
	lay.WriteMS = writeSpan.dur().Seconds() * 1e3
	lay.VerifyMS = verifySpan.dur().Seconds() * 1e3
	lay.Runtime = delta(c0, c4)
	if m, err := report.ReadManifest(dir); err == nil {
		lay.Files = len(m.Artifacts) + 1
		lay.WrittenMB = float64(len(raw)) / mibBytes
		for _, e := range m.Artifacts {
			lay.WrittenMB += float64(e.Size) / mibBytes
		}
	}
	simSpan.set("blocks", out.Truth.Blocks)
	dsSpan.set("files", len(files))
	writeSpan.set("files", lay.Files)

	// The gate pbslabd applies when it loads a corpus, outside the pass.
	check := tr.begin("core.ValidateStream", op, nil)
	rd, err := dsio.Open(dir)
	if err != nil {
		return out, fmt.Errorf("dsio open: %w", err)
	}
	rep, err := core.ValidateStream(rd)
	check.end()
	if err != nil {
		return out, fmt.Errorf("validate: %w", err)
	}
	lay.Violations = len(rep.Violations)
	check.set("violations", lay.Violations)
	out.Layers = &lay
	return out, nil
}
