package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// runWorkers runs the scenario with a fixed slot-engine worker count.
func runWorkers(t *testing.T, sc Scenario, workers int) *Result {
	t.Helper()
	res, err := RunOpts(context.Background(), sc, RunOptions{Workers: workers})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return res
}

// TestRunWorkersGolden pins the slot engine's output at every pool width:
// the dataset and ground truth at workers 1, 2 and 8 equal the committed
// digests, across seeds.
func TestRunWorkersGolden(t *testing.T) {
	pinned := loadDigests(t)
	for _, seed := range []uint64{1, 2, 3} {
		c := shortCase(3, seed)
		for _, workers := range []int{1, 2, 8} {
			checkDigest(t, pinned, c.name, fmt.Sprintf("workers %d", workers), runWorkers(t, c.sc, workers), false)
		}
	}
}

// TestRunWorkersGoldenArtifacts extends the pin to the rendered artifact
// bytes: every report emitted at workers 1, 2 and 8 hashes to the
// committed digest.
func TestRunWorkersGoldenArtifacts(t *testing.T) {
	pinned := loadDigests(t)
	for _, seed := range []uint64{1, 2, 3} {
		c := shortCase(3, seed)
		for _, workers := range []int{1, 2, 8} {
			checkDigest(t, pinned, c.name, fmt.Sprintf("workers %d", workers), runWorkers(t, c.sc, workers), true)
		}
	}
}

// TestRunWorkersGoldenWindows pins two windows the merge-day cases never
// reach: October's exploit tasks, and November's OFAC wave, commit
// fallbacks and relay outage. It also checks that each window still
// exercises what it was chosen for.
func TestRunWorkersGoldenWindows(t *testing.T) {
	pinned := loadDigests(t)
	oct := windowCase(d(2022, 10, 7), d(2022, 10, 17), 1)
	nov := windowCase(d(2022, 11, 7), d(2022, 11, 20), 1)
	for _, workers := range []int{1, 8} {
		run := fmt.Sprintf("workers %d", workers)
		res := runWorkers(t, oct.sc, workers)
		if n := exploitWins(res); n == 0 {
			t.Errorf("%s (%s): no exploiter block landed", oct.name, run)
		}
		checkDigest(t, pinned, oct.name, run, res, true)

		res = runWorkers(t, nov.sc, workers)
		if res.Truth.FallbackCommit == 0 || res.Truth.Boost.OutageSkips == 0 {
			t.Errorf("%s (%s): commit fallbacks %d, outage skips %d; want both > 0",
				nov.name, run, res.Truth.FallbackCommit, res.Truth.Boost.OutageSkips)
		}
		checkDigest(t, pinned, nov.name, run, res, true)
	}
}

// TestParallelKillAndResumeGolden is the kill-and-resume golden: a run
// interrupted at a day boundary and resumed equals the committed digest,
// on one engine worker (the fleet's width) and on four.
func TestParallelKillAndResumeGolden(t *testing.T) {
	pinned := loadDigests(t)
	c := shortCase(4, 2)
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		_, err := RunOpts(ctx, c.sc, RunOptions{
			Workers:       workers,
			CheckpointDir: dir,
			OnDay: func(day int) {
				if day == 2 {
					cancel()
				}
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: interrupted run: want context.Canceled, got %v", workers, err)
		}
		resumed, err := RunOpts(context.Background(), c.sc, RunOptions{
			Workers:       workers,
			CheckpointDir: dir,
			Resume:        true,
		})
		if err != nil {
			t.Fatalf("workers %d: resumed run: %v", workers, err)
		}
		checkDigest(t, pinned, c.name, fmt.Sprintf("workers %d, resumed", workers), resumed, true)
	}
}
