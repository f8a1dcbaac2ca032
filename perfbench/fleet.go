package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/ethpbs/pbslab/internal/dsio"
	"github.com/ethpbs/pbslab/internal/fleet"
	"github.com/ethpbs/pbslab/internal/report"
)

// fleetGrid is the fleet workload's grid for a benchmark seed: 32 small
// cells (16 scenario seeds derived from the benchmark seed × two long-tail
// builder populations), each a two-day window of a small world at the
// default 24 blocks/day that ships its chunked corpus into the merged
// tree. Every cell pays a subprocess, a lease, journal records, a
// manifest verification and its share of the merge around its own work.
//
// Sixteen seeds, because at the merge a scenario seed decides whether the
// large staking operators have adopted PBS yet, which moves a cell's
// relay-auction slots (the costly ones) by a factor of several; a grid
// over few seeds took that draw with it from one benchmark seed to the
// next. A private-flow axis would add cells without adding draws: it
// leaves a seed's proposers and adoption as they are.
func fleetGrid(seed uint64) *fleet.Grid {
	return &fleet.Grid{
		Name:          "perfbench",
		Seeds:         deriveSeeds(seed, 16),
		Days:          2,
		BlocksPerDay:  24,
		Users:         120,
		Validators:    150,
		SmallBuilders: []int{10, 40},
		DumpDataset:   true,
	}
}

// deriveSeeds maps a benchmark seed to n scenario seeds in [1, 10^6] with
// SplitMix64: fixed, dependency-free, and distinct seeds for neighbouring
// benchmark seeds.
func deriveSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	x := seed
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		out[i] = (z^(z>>31))%1_000_000 + 1
	}
	return out
}

// attempt is one Transport.Run call as the timed transport saw it.
type attempt struct {
	Cell  string
	Start time.Time
	End   time.Time
	Err   bool
}

// timedTransport wraps the local subprocess transport the coordinator
// would build anyway (Options.fill makes the same LocalTransport from
// Options.Workers) and records every attempt's bounds, the slot it ran
// on, and how long that slot sat idle before it.
type timedTransport struct {
	inner    *fleet.LocalTransport
	tr       *tracer
	parent   *span // the fleet.Run span, set before Run starts
	mu       sync.Mutex
	slots    int   // slot ids handed out so far
	free     []int // idle slots, longest idle first
	freedAt  map[int]time.Time
	attempts []attempt
	gaps     []float64 // ms from a slot's last attempt end to its next start
}

func newTimedTransport(exe string, slots int, tr *tracer) *timedTransport {
	return &timedTransport{
		inner:   &fleet.LocalTransport{Executable: exe, Slots: slots},
		tr:      tr,
		freedAt: map[int]time.Time{},
	}
}

func (t *timedTransport) Name() string  { return t.inner.Name() }
func (t *timedTransport) Capacity() int { return t.inner.Capacity() }

func (t *timedTransport) Run(ctx context.Context, a fleet.Attempt, workDir string, beat func()) error {
	t.mu.Lock()
	var slot int
	if len(t.free) > 0 {
		slot, t.free = t.free[0], t.free[1:]
	} else {
		slot = t.slots
		t.slots++
	}
	start := time.Now()
	if at, ok := t.freedAt[slot]; ok {
		t.gaps = append(t.gaps, start.Sub(at).Seconds()*1e3)
	}
	t.mu.Unlock()

	err := t.inner.Run(ctx, a, workDir, beat)

	end := time.Now()
	t.mu.Lock()
	t.attempts = append(t.attempts, attempt{Cell: a.Cell.ID, Start: start, End: end, Err: err != nil})
	t.freedAt[slot] = end
	t.free = append(t.free, slot)
	t.mu.Unlock()
	s := t.tr.add("fleet.attempt", a.Cell.ID, t.parent, start, end)
	s.set("slot", slot)
	s.set("epoch", a.Epoch)
	return err
}

// gridOutput is one grid run and its check.
type gridOutput struct {
	Wall        time.Duration
	PeakMB      float64
	Cells       int
	Completed   int
	Quarantined int
	Quarantine  string // the first quarantined cell and why
	Blocks      int
	Merged      string // SHA-256 of merged/manifest.json
	Problems    int
	Traced      bool
	Layers      *gridLayers
}

// gridLayers is the fleet breakdown of one traced grid.
type gridLayers struct {
	AttemptMS []float64
	GapMS     []float64
	BusyRatio float64
	HeadMS    float64
	TailMS    float64
	Attempts  int
	coord     runtimeDelta // the coordinator process over the grid
}

// fleetWorkers is the number of local worker subprocesses a grid runs on:
// one per CPU but one, which the coordinator keeps. The coordinator
// verifies, journals and merges at about a third of a core, so nproc
// workers beside it would ask for more cores than the machine has, and a
// grid would time the host's scheduler as much as the fleet.
func fleetWorkers() int { return max(1, nproc()-1) }

// runGrid runs the grid to a verified merged corpus in runDir on workers
// local worker subprocesses. Untraced, the coordinator builds its own
// LocalTransport from Options.Workers; traced, the same transport is
// passed in wrapped by timedTransport. Other options keep their defaults.
func runGrid(ctx context.Context, g *fleet.Grid, workers int, exe, runDir, op string, tr *tracer) (gridOutput, error) {
	out := gridOutput{Traced: tr != nil}
	opts := fleet.Options{Workers: workers, Executable: exe}
	root := tr.begin("grid", op, nil)
	var tt *timedTransport
	if tr != nil {
		tt = newTimedTransport(exe, workers, tr)
		opts.Transports = []fleet.Transport{tt}
	}

	heap := watchHeap(2 * time.Millisecond)
	start := time.Now()
	ncSpan := tr.begin("fleet.NewCoordinator", op, root)
	c, err := fleet.NewCoordinator(runDir, g, opts, false)
	ncSpan.end()
	if err != nil {
		heap.stop()
		return out, err
	}
	runSpan := tr.begin("fleet.Run", op, root)
	if tt != nil {
		tt.parent = runSpan
	}
	sum, err := c.Run(ctx)
	runSpan.end()
	end := time.Now()
	root.end()
	out.Wall = end.Sub(start)
	out.PeakMB = heap.stop()
	if err != nil {
		return out, err
	}
	out.Cells, out.Completed, out.Quarantined = sum.Cells, sum.Completed, len(sum.Quarantined)
	if q := sum.Quarantined; len(q) > 0 {
		out.Quarantine = fmt.Sprintf("%s: %s: %s", q[0].ID, q[0].Cause, strings.TrimSpace(q[0].StderrTail))
	}

	// Output check, untimed: the merged tree verifies, and its manifest
	// digest identifies the merged corpus.
	problems, err := report.VerifyDir(sum.MergedDir)
	if err != nil {
		return out, fmt.Errorf("verify merged: %w", err)
	}
	out.Problems = len(problems)
	raw, err := os.ReadFile(filepath.Join(sum.MergedDir, report.ManifestName))
	if err != nil {
		return out, err
	}
	digest := sha256.Sum256(raw)
	out.Merged = hex.EncodeToString(digest[:])
	out.Blocks, err = mergedBlocks(sum.MergedDir)
	if err != nil {
		return out, err
	}
	if tt == nil {
		return out, nil
	}

	lay := &gridLayers{GapMS: tt.gaps, Attempts: len(tt.attempts)}
	var busy time.Duration
	first, last := end, start
	for _, a := range tt.attempts {
		lay.AttemptMS = append(lay.AttemptMS, a.End.Sub(a.Start).Seconds()*1e3)
		busy += a.End.Sub(a.Start)
		if a.Start.Before(first) {
			first = a.Start
		}
		if a.End.After(last) {
			last = a.End
		}
	}
	if len(tt.attempts) > 0 {
		lay.HeadMS = first.Sub(start).Seconds() * 1e3
		lay.TailMS = end.Sub(last).Seconds() * 1e3
		lay.BusyRatio = busy.Seconds() / (out.Wall.Seconds() * float64(workers))
		tr.add("fleet.head", op, root, start, first)
		tr.add("fleet.tail", op, root, last, end)
	}
	out.Layers = lay
	return out, nil
}

// mergedBlocks counts the blocks of every cell corpus the merge
// republished, from the segment indexes under merged/datasets/.
func mergedBlocks(merged string) (int, error) {
	cells, err := os.ReadDir(filepath.Join(merged, "datasets"))
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range cells {
		rd, err := dsio.Open(filepath.Join(merged, "datasets", c.Name()))
		if err != nil {
			return 0, err
		}
		for _, s := range rd.Index().Segments {
			total += s.Blocks
		}
	}
	return total, nil
}
