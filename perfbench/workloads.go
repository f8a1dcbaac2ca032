package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Metric names and units, as BENCHMARK.json declares them.
var endToEnd = []struct{ name, unit string }{
	{"blocks_per_s", "blocks/s"},
	{"cells_per_min", "cells/min"},
	{"peak_heap_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []struct{ name, unit string }{
	{"sim.run_s", "s"},
	{"sim.slot_pbs_p50_ms", "ms"},
	{"sim.slot_pbs_p90_ms", "ms"},
	{"sim.slots_pbs", "count"},
	{"sim.slot_local_p50_ms", "ms"},
	{"sim.slot_local_p90_ms", "ms"},
	{"sim.slots_local", "count"},
	{"sim.slots_missed", "count"},
	{"sim.prelude_ms", "ms"},
	{"sim.collect_ms", "ms"},
	{"sim.alloc_mb", "MiB"},
	{"sim.fallback_commits", "count"},
	{"core.index_ms", "ms"},
	{"core.alloc_mb", "MiB"},
	{"core.violations", "count"},
	{"dsio.encode_ms", "ms"},
	{"dsio.alloc_mb", "MiB"},
	{"dsio.corpus_mb", "MiB"},
	{"report.write_ms", "ms"},
	{"report.verify_ms", "ms"},
	{"report.files", "count"},
	{"report.mb", "MiB"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.cpu_util", "ratio"},
	{"fleet.attempt_p50_ms", "ms"},
	{"fleet.attempt_p90_ms", "ms"},
	{"fleet.busy_ratio", "ratio"},
	{"fleet.redispatch_gap_p50_ms", "ms"},
	{"fleet.head_ms", "ms"},
	{"fleet.tail_ms", "ms"},
	{"fleet.attempts", "count"},
	{"fleet.quarantined", "count"},
	{"fleet.useful_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
}

// metricsFrom fills every listed metric from values; a metric the
// workload does not exercise (the fleet layer on window and dense) reads
// 0, and the record's detail says so.
func metricsFrom(list []struct{ name, unit string }, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, m := range list {
		out[m.name] = metric{values[m.name], m.unit}
	}
	return out
}

// pin is the expected output of one scenario of a pass. A pinned digest
// covers every artifact byte through the manifest, so a change to the
// program's output fails the check instead of timing different work.
type pin struct {
	Manifest string
	Truth    truth
}

// pipelinePins holds, per workload and benchmark seed, the expected output
// of each scenario of a pass, in pass order.
var pipelinePins = map[string]map[uint64][]pin{
	"window": {1: {
		{"6099cc6fd4c01599140a6a5c98fbb9be350df16da570af6696d585f6664506d7", truth{Blocks: 196, PBSBlocks: 161, MissedSlots: 1, Fallbacks: 1, FallbackCommits: 1}},
		{"19769124f809f7e06ad405a58216e204b9d011af158e9a2f181f241468bc1f53", truth{Blocks: 196, PBSBlocks: 173, MissedSlots: 1, Fallbacks: 4, FallbackCommits: 4}},
		{"4ab60ae993bfd868b900f6106ff81deff76fbc8d4b03e19aed315e0d3b2fbd6b", truth{Blocks: 197, PBSBlocks: 155, Fallbacks: 2, FallbackCommits: 2}},
		{"43cd5b9e45c9f12131ac83ed79bd52c3dcf1a57cd11c63bfcd3f98e51d825bac", truth{Blocks: 195, PBSBlocks: 158, MissedSlots: 2, Fallbacks: 3, FallbackCommits: 3}},
	}},
	"dense": {1: {
		{"cee41133324f0360941453e5c976901c64f490a2aa3478e28502a5fb6a65b743", truth{Blocks: 128, PBSBlocks: 106}},
		{"0662ee2e0ceec9bfd60fc8691cacda10a1c30df83bac1e6a4f5b86388ea60d6a", truth{Blocks: 127, PBSBlocks: 98, MissedSlots: 1, Fallbacks: 6, FallbackCommits: 6}},
		{"91019e8476aadb0c058f4a3b267551b3aa644c05ee4a064d81a75528dc61080b", truth{Blocks: 127, PBSBlocks: 113, MissedSlots: 1, Fallbacks: 2, FallbackCommits: 2}},
	}},
}

// fleetPin is the expected merged corpus of the fleet grid at one seed.
type fleetPin struct {
	Merged string // SHA-256 of merged/manifest.json
	Blocks int    // blocks over every cell corpus
}

var fleetPins = map[uint64]fleetPin{
	1: {Merged: "d01d78ca1792b92870bc0319fe758b18bcd0acd1bdbf9c858970cd303b19a194", Blocks: 1531},
}

// checkRun returns why a scenario run fails its output check, or "".
// first is the same scenario's output in the run's first good pass.
func checkRun(out runOutput, err error, first *runOutput, want *pin) string {
	switch {
	case err != nil:
		return err.Error()
	case out.Problems > 0:
		return fmt.Sprintf("%d report.VerifyDir problem(s)", out.Problems)
	case want != nil && out.Manifest != want.Manifest:
		return fmt.Sprintf("manifest sha256 %s, pinned %s", out.Manifest, want.Manifest)
	case want != nil && out.Truth != want.Truth:
		return fmt.Sprintf("truth counts %+v, pinned %+v", out.Truth, want.Truth)
	case first != nil && out.Manifest != first.Manifest:
		return fmt.Sprintf("manifest sha256 %s differs from the first pass's %s", out.Manifest, first.Manifest)
	case first != nil && out.Truth != first.Truth:
		return fmt.Sprintf("truth counts %+v differ from the first pass's %+v", out.Truth, first.Truth)
	}
	return ""
}

// opRecord is one pass or grid in the record.
type opRecord struct {
	Op      string      `json:"op"`
	Traced  bool        `json:"traced"`
	WallS   float64     `json:"wall_s"`
	PeakMB  float64     `json:"peak_heap_mb"`
	Runs    []runRecord `json:"scenarios,omitempty"`
	Digest  string      `json:"manifest_sha256,omitempty"`
	Cells   int         `json:"cells,omitempty"`
	Blocks  int         `json:"blocks,omitempty"`
	Failure string      `json:"failure,omitempty"`
}

// runRecord is one scenario of a pass in the record.
type runRecord struct {
	WallS  float64 `json:"wall_s"`
	PeakMB float64 `json:"peak_heap_mb"`
	Digest string  `json:"manifest_sha256"`
	Truth  truth   `json:"truth"`
}

// pass is one window or dense op: every scenario of the input run through
// the pipeline in turn, each from a collected heap.
type pass struct {
	wall   time.Duration // sum of the scenario runs
	peakMB float64       // highest of the scenario runs
	blocks int
	traced bool
	layers *passLayers // traced passes: summed over the scenarios
}

func runPasses(ctx context.Context, p *prepared, workload string, seed uint64, budget time.Duration, tr *tracer, rec *record, after func()) result {
	n := nproc()
	in := pipelines[workload]
	pins := pipelinePins[workload][seed]
	res := result{Correct: true}
	var first []runOutput // the first good pass, per scenario
	var ok []pass
	minOps := 1
	if tr != nil {
		minOps = 2 // one untraced and one traced pass at least
	}
	start := time.Now()
	loop(budget, minOps, func(i int) time.Duration {
		var ptr *tracer
		if traceOp(tr, i) {
			ptr = tr
		}
		op := fmt.Sprintf("pass-%d", i)
		ps := pass{traced: ptr != nil}
		if ptr != nil {
			ps.layers = &passLayers{}
		}
		var outs []runOutput
		var failures []string
		r := opRecord{Op: op, Traced: ps.traced}
		for k, sc := range p.scs {
			dir := filepath.Join(p.scratch, fmt.Sprintf("%s-%d", op, k))
			runtime.GC()
			out, err := runPipeline(ctx, sc, n, dir, fmt.Sprintf("%s/seed-%d", op, sc.Seed), ptr)
			if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
				err = rmErr
			}
			var firstK *runOutput
			var want *pin
			if first != nil {
				firstK = &first[k]
			}
			if k < len(pins) {
				want = &pins[k]
			}
			if why := checkRun(out, err, firstK, want); why != "" {
				failures = append(failures, fmt.Sprintf("scenario seed %d: %s", sc.Seed, why))
			}
			outs = append(outs, out)
			ps.wall += out.Wall
			ps.peakMB = max(ps.peakMB, out.PeakMB)
			ps.blocks += out.Truth.Blocks
			if out.Layers != nil && ps.layers != nil {
				ps.layers.add(out.Layers)
			}
			r.Runs = append(r.Runs, runRecord{out.Wall.Seconds(), out.PeakMB, out.Manifest, out.Truth})
		}
		res.Attempted++
		r.WallS, r.PeakMB, r.Blocks = ps.wall.Seconds(), ps.peakMB, ps.blocks
		if len(failures) > 0 {
			res.Failed++
			r.Failure = strings.Join(failures, "; ")
			rec.Failures = append(rec.Failures, op+": "+r.Failure)
		} else {
			if first == nil {
				first = outs
			}
			ok = append(ok, ps)
		}
		rec.Ops = append(rec.Ops, r)
		return ps.wall
	}, after)
	rec.Seconds = time.Since(start).Seconds()
	res.Correct = res.Failed == 0 && len(ok) > 0
	blocks := 0
	for _, o := range first {
		blocks += o.Truth.Blocks
	}
	var seeds []uint64
	for _, sc := range p.scs {
		seeds = append(seeds, sc.Seed)
	}
	rec.Input = struct {
		pipelineInput
		ScenarioSeeds []uint64 `json:"scenario_seeds"`
		Pinned        bool     `json:"pinned"`
		BlocksPerPass int      `json:"blocks_per_pass"`
		SmallBuilders int      `json:"small_builders"`
		Users         int      `json:"users"`
	}{in, seeds, len(pins) > 0, blocks, p.scs[0].SmallBuilderCount, p.scs[0].Demand.Users}

	if tr == nil {
		var walls, peaks []float64
		for _, o := range ok {
			walls = append(walls, o.wall.Seconds())
			peaks = append(peaks, o.peakMB)
		}
		w := median(walls)
		v := map[string]float64{"peak_heap_mb": median(peaks)}
		if w > 0 {
			v["blocks_per_s"] = float64(blocks) / w
			v["cells_per_min"] = float64(len(p.scs)) * 60 / w
		}
		res.Metrics = metricsFrom(endToEnd, v)
		rec.Detail = map[string]any{"pass_wall_s": walls, "pass_peak_heap_mb": peaks}
		return res
	}
	var layers []*passLayers
	var plain, traced []float64
	for _, o := range ok {
		if o.traced {
			layers = append(layers, o.layers)
			traced = append(traced, o.wall.Seconds())
		} else {
			plain = append(plain, o.wall.Seconds())
		}
	}
	v, detail := layerValues(layers)
	fallbacks := 0
	for _, o := range first {
		fallbacks += o.Truth.FallbackCommits
	}
	v["sim.fallback_commits"] = float64(fallbacks)
	v["trace.overhead_pct"] = overheadPct(plain, traced)
	detail["fleet"] = "not exercised by this workload: fleet.* read 0"
	detail["pass_wall_s"] = map[string][]float64{"untraced": plain, "traced": traced}
	res.Metrics = metricsFrom(perLayer, v)
	rec.Detail = detail
	return res
}

// traceOp says whether op i of a traced run is traced: all but the first,
// which runs untraced as the baseline of trace.overhead_pct. One untraced
// op leaves the most traced ones to the percentiles.
func traceOp(tr *tracer, i int) bool { return tr != nil && i > 0 }

// overheadPct compares the median traced op with the median untraced one.
func overheadPct(plain, traced []float64) float64 {
	if len(plain) == 0 || len(traced) == 0 {
		return 0
	}
	return (median(traced)/median(plain) - 1) * 100
}

// layerValues reduces traced passes to the sim, core, dsio, report and
// runtime metrics: per-pass quantities as the median over passes, slot
// percentiles over every slot of every traced pass.
func layerValues(layers []*passLayers) (map[string]float64, map[string]any) {
	v := map[string]float64{}
	detail := map[string]any{}
	if len(layers) == 0 {
		return v, detail
	}
	per := func(f func(*passLayers) float64) float64 {
		xs := make([]float64, len(layers))
		for i, l := range layers {
			xs[i] = f(l)
		}
		return median(xs)
	}
	var pbs, local []float64
	for _, l := range layers {
		pbs = append(pbs, l.SlotPBS...)
		local = append(local, l.SlotLocal...)
	}
	slots := map[string]dist{"pbs": summarize(pbs), "local": summarize(local)}
	detail["slot_ms"] = slots
	v["sim.slot_pbs_p50_ms"] = slots["pbs"].P50
	v["sim.slot_pbs_p90_ms"] = percentile(pbs, 0.9)
	v["sim.slot_local_p50_ms"] = slots["local"].P50
	v["sim.slot_local_p90_ms"] = percentile(local, 0.9)
	v["sim.slots_pbs"] = per(func(l *passLayers) float64 { return float64(len(l.SlotPBS)) })
	v["sim.slots_local"] = per(func(l *passLayers) float64 { return float64(len(l.SlotLocal)) })
	v["sim.slots_missed"] = per(func(l *passLayers) float64 { return float64(l.SlotsMissed) })
	v["sim.run_s"] = per(func(l *passLayers) float64 { return l.SimRunS })
	v["sim.prelude_ms"] = per(func(l *passLayers) float64 { return l.PreludeMS })
	v["sim.collect_ms"] = per(func(l *passLayers) float64 { return l.CollectMS })
	v["sim.alloc_mb"] = per(func(l *passLayers) float64 { return l.SimAllocMB })
	v["core.index_ms"] = per(func(l *passLayers) float64 { return l.IndexMS })
	v["core.alloc_mb"] = per(func(l *passLayers) float64 { return l.CoreAllocMB })
	v["core.violations"] = per(func(l *passLayers) float64 { return float64(l.Violations) })
	v["dsio.encode_ms"] = per(func(l *passLayers) float64 { return l.EncodeMS })
	v["dsio.alloc_mb"] = per(func(l *passLayers) float64 { return l.DsioAllocMB })
	v["dsio.corpus_mb"] = per(func(l *passLayers) float64 { return l.CorpusMB })
	v["report.write_ms"] = per(func(l *passLayers) float64 { return l.WriteMS })
	v["report.verify_ms"] = per(func(l *passLayers) float64 { return l.VerifyMS })
	v["report.files"] = per(func(l *passLayers) float64 { return float64(l.Files) })
	v["report.mb"] = per(func(l *passLayers) float64 { return l.WrittenMB })
	v["runtime.gc_cpu_s"] = per(func(l *passLayers) float64 { return l.Runtime.GCCPUS })
	v["runtime.gc_cycles"] = per(func(l *passLayers) float64 { return l.Runtime.GCCycles })
	v["runtime.cpu_util"] = per(func(l *passLayers) float64 { return l.Runtime.util() })
	detail["traced_passes"] = len(layers)
	return v, detail
}

func runFleet(ctx context.Context, p *prepared, seed uint64, budget time.Duration, tr *tracer, rec *record, after func()) result {
	n := nproc()
	want, pinned := fleetPins[seed]
	cells := p.cells
	res := result{Correct: true}
	var first *gridOutput
	var ok []gridOutput
	var probes []*passLayers
	var probeFallbacks []float64
	quarantined := 0
	minOps := 1
	if tr != nil {
		minOps = 2
	}
	start := time.Now()
	loop(budget, minOps, func(i int) time.Duration {
		var ptr *tracer
		if traceOp(tr, i) {
			ptr = tr
		}
		op := fmt.Sprintf("grid-%d", i)
		runDir := filepath.Join(p.scratch, op)
		runtime.GC()
		c0 := readCounters()
		out, err := runGrid(ctx, p.grid, fleetWorkers(), p.exe, runDir, op, ptr)
		coord := delta(c0, readCounters())
		if rmErr := os.RemoveAll(runDir); rmErr != nil && err == nil {
			err = rmErr
		}
		res.Attempted += len(cells)
		quarantined += out.Quarantined
		r := opRecord{Op: op, Traced: ptr != nil, WallS: out.Wall.Seconds(), PeakMB: out.PeakMB, Digest: out.Merged, Cells: out.Completed, Blocks: out.Blocks}
		// A grid-level failure fails every cell; otherwise the cells that
		// did not complete are the failed ops.
		var why string
		failed := len(cells)
		switch {
		case err != nil:
			why = err.Error()
		case out.Problems > 0:
			why = fmt.Sprintf("%d report.VerifyDir problem(s) in merged/", out.Problems)
		case pinned && out.Merged != want.Merged:
			why = fmt.Sprintf("merged manifest sha256 %s, pinned %s", out.Merged, want.Merged)
		case pinned && out.Blocks != want.Blocks:
			why = fmt.Sprintf("%d merged blocks, pinned %d", out.Blocks, want.Blocks)
		case first != nil && out.Merged != first.Merged:
			why = fmt.Sprintf("merged manifest sha256 %s differs from the first grid's %s", out.Merged, first.Merged)
		case first != nil && out.Blocks != first.Blocks:
			why = fmt.Sprintf("%d merged blocks, first grid had %d", out.Blocks, first.Blocks)
		case out.Completed != len(cells):
			failed = len(cells) - out.Completed
			why = fmt.Sprintf("%d of %d cells completed, %d quarantined (%s)", out.Completed, len(cells), out.Quarantined, out.Quarantine)
		}
		if why != "" {
			res.Failed += failed
			r.Failure = why
			rec.Failures = append(rec.Failures, op+": "+why)
		} else {
			if first == nil {
				first = &out
			}
			if out.Layers != nil {
				out.Layers.coord = coord
			}
			ok = append(ok, out)
		}
		rec.Ops = append(rec.Ops, r)

		// A traced grid is followed by one of its cells run in-process
		// through the pipeline calls, untimed: what a cell's own work costs
		// without a subprocess, journal or merge around it.
		if ptr != nil {
			cell := cells[len(probes)%len(cells)]
			sc, err := cell.Scenario()
			var lay *passLayers
			var po runOutput
			if err == nil {
				dir := filepath.Join(p.scratch, "cell-"+cell.ID)
				po, err = runPipeline(ctx, sc, n, dir, "cell:"+cell.ID, tr)
				if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
					err = rmErr
				}
				lay = po.Layers
			}
			res.Attempted++
			if why := checkRun(po, err, nil, nil); why != "" {
				res.Failed++
				rec.Failures = append(rec.Failures, "cell "+cell.ID+" in-process: "+why)
			} else {
				probes = append(probes, lay)
				probeFallbacks = append(probeFallbacks, float64(po.Truth.FallbackCommits))
			}
		}
		return out.Wall
	}, after)
	rec.Seconds = time.Since(start).Seconds()
	res.Correct = res.Failed == 0 && len(ok) > 0
	blocks := 0
	if first != nil {
		blocks = first.Blocks
	}
	rec.Input = struct {
		Grid          any  `json:"grid"`
		Cells         int  `json:"cells"`
		Workers       int  `json:"workers"`
		BlocksPerGrid int  `json:"blocks_per_grid"`
		Pinned        bool `json:"pinned"`
	}{p.grid, len(cells), fleetWorkers(), blocks, pinned}

	if tr == nil {
		var cpm, bps, peaks, walls []float64
		for _, o := range ok {
			walls = append(walls, o.Wall.Seconds())
			cpm = append(cpm, float64(o.Completed)/o.Wall.Minutes())
			bps = append(bps, float64(o.Blocks)/o.Wall.Seconds())
			peaks = append(peaks, o.PeakMB)
		}
		res.Metrics = metricsFrom(endToEnd, map[string]float64{
			"cells_per_min": median(cpm),
			"blocks_per_s":  median(bps),
			"peak_heap_mb":  median(peaks),
		})
		rec.Detail = map[string]any{"grid_wall_s": walls, "grid_peak_heap_mb": peaks}
		return res
	}

	v, detail := layerValues(probes)
	v["sim.fallback_commits"] = median(probeFallbacks)
	detail["sim_core_dsio_report"] = "one cell per traced grid, run in-process through the pipeline calls"
	var plain, traced, attempts, gaps, busy, head, tail, natt []float64
	var coordGC, coordCycles, coordUtil []float64
	completed, tries := 0, 0
	for _, o := range ok {
		if o.Layers == nil {
			plain = append(plain, o.Wall.Seconds())
			continue
		}
		l := o.Layers
		traced = append(traced, o.Wall.Seconds())
		attempts = append(attempts, l.AttemptMS...)
		gaps = append(gaps, l.GapMS...)
		busy = append(busy, l.BusyRatio)
		head = append(head, l.HeadMS)
		tail = append(tail, l.TailMS)
		natt = append(natt, float64(l.Attempts))
		coordGC = append(coordGC, l.coord.GCCPUS)
		coordCycles = append(coordCycles, l.coord.GCCycles)
		coordUtil = append(coordUtil, l.coord.util())
		completed += o.Completed
		tries += l.Attempts
	}
	// The runtime layer of the fleet workload is the coordinator process
	// over a whole grid; its workers are separate processes.
	v["runtime.gc_cpu_s"] = median(coordGC)
	v["runtime.gc_cycles"] = median(coordCycles)
	v["runtime.cpu_util"] = median(coordUtil)
	v["fleet.attempt_p50_ms"] = percentile(attempts, 0.5)
	v["fleet.attempt_p90_ms"] = percentile(attempts, 0.9)
	v["fleet.redispatch_gap_p50_ms"] = percentile(gaps, 0.5)
	v["fleet.busy_ratio"] = median(busy)
	v["fleet.head_ms"] = median(head)
	v["fleet.tail_ms"] = median(tail)
	v["fleet.attempts"] = median(natt)
	v["fleet.quarantined"] = float64(quarantined)
	if tries > 0 {
		v["fleet.useful_ratio"] = float64(completed) / float64(tries)
	}
	v["trace.overhead_pct"] = overheadPct(plain, traced)
	detail["attempt_ms"] = summarize(attempts)
	detail["redispatch_gap_ms"] = summarize(gaps)
	detail["grid_wall_s"] = map[string][]float64{"untraced": plain, "traced": traced}
	res.Metrics = metricsFrom(perLayer, v)
	rec.Detail = detail
	return res
}
