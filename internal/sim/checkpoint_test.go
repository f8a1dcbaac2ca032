package sim

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/chain"
	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

// sameResult compares the observable outcome of two runs: the canonical
// chain, the ground truth, and the collected dataset's aggregates. It is
// the sim-level half of the kill-and-resume guarantee; the report-level
// test extends it to byte-identical rendered artifacts.
func sameResult(t *testing.T, a, b *Result) {
	t.Helper()
	ca, cb := a.World.Chain.Blocks(), b.World.Chain.Blocks()
	if len(ca) != len(cb) {
		t.Fatalf("chain length: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i].Block.Hash() != cb[i].Block.Hash() {
			t.Fatalf("block %d hash differs", i)
		}
		if !ca[i].Tips.Eq(cb[i].Tips) || !ca[i].Burned.Eq(cb[i].Burned) {
			t.Fatalf("block %d fee accounting differs", i)
		}
	}
	if !reflect.DeepEqual(a.Truth, b.Truth) {
		t.Fatalf("ground truth differs:\n%+v\nvs\n%+v", a.Truth, b.Truth)
	}
	da, db := a.Dataset, b.Dataset
	if len(da.Blocks) != len(db.Blocks) {
		t.Fatalf("dataset blocks: %d vs %d", len(da.Blocks), len(db.Blocks))
	}
	if !reflect.DeepEqual(da.MEVLabels, db.MEVLabels) {
		t.Fatal("MEV labels differ")
	}
	if !reflect.DeepEqual(da.MEVBySource, db.MEVBySource) {
		t.Fatal("MEV by source differs")
	}
	if len(da.Arrivals) != len(db.Arrivals) {
		t.Fatalf("arrivals: %d vs %d", len(da.Arrivals), len(db.Arrivals))
	}
	for h, oa := range da.Arrivals {
		ob, ok := db.Arrivals[h]
		if !ok || !reflect.DeepEqual(oa, ob) {
			t.Fatalf("arrival for %s differs", h)
		}
	}
	if !reflect.DeepEqual(da.Relays, db.Relays) {
		t.Fatal("relay API data differs")
	}
}

// runInterrupted runs sc with checkpointing, cancelling at the given day
// boundary, then resumes to completion and returns the resumed result.
func runInterrupted(t *testing.T, sc Scenario, dir string, cancelDay int) *Result {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunOpts(ctx, sc, RunOptions{
		CheckpointDir: dir,
		OnDay: func(day int) {
			if day == cancelDay {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: want context.Canceled, got %v", err)
	}
	res, err := RunOpts(context.Background(), sc, RunOptions{CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return res
}

// TestKillAndResumeGolden is the crash-safety golden: a run killed at a day
// boundary and resumed from its checkpoint must be indistinguishable from
// an uninterrupted run, across seeds.
func TestKillAndResumeGolden(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		sc := shortScenario(4)
		sc.Seed = seed
		baseline, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatalf("seed %d baseline: %v", seed, err)
		}
		resumed := runInterrupted(t, sc, t.TempDir(), 2)
		sameResult(t, baseline, resumed)
	}
}

// TestResumeMidDayCheckpoint interrupts between day boundaries (the SIGINT
// path writes a checkpoint at the current slot), resumes, and compares.
func TestResumeMidDayCheckpoint(t *testing.T) {
	sc := shortScenario(3)
	baseline, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	_, err = RunOpts(ctx, sc, RunOptions{
		CheckpointDir: dir,
		OnDay: func(day int) {
			// Cancel a little into day 1: the next loop iteration's ctx
			// check writes a mid-day checkpoint.
			if day == 1 {
				n++
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	res, err := RunOpts(context.Background(), sc, RunOptions{CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, baseline, res)
}

// TestResumeAfterCorruptCheckpoint truncates the newest checkpoint file;
// resume must fall back to the previous one and still reproduce the run.
func TestResumeAfterCorruptCheckpoint(t *testing.T) {
	sc := shortScenario(4)
	baseline, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = RunOpts(ctx, sc, RunOptions{
		CheckpointDir: dir,
		OnDay: func(day int) {
			if day == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	names, err := checkpointFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Fatalf("want >= 2 checkpoints, got %d", len(names))
	}
	// Simulate a crash mid-write of the newest checkpoint.
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := RunOpts(context.Background(), sc, RunOptions{CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, baseline, res)
}

// TestResumeRejectsForeignScenario ensures a checkpoint from one scenario
// is never silently continued under another: resume ignores it and starts
// over cleanly.
func TestResumeRejectsForeignScenario(t *testing.T) {
	sc := shortScenario(2)
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunOpts(ctx, sc, RunOptions{
		CheckpointDir: dir,
		OnDay:         func(day int) { cancel() },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	other := shortScenario(2)
	other.Seed = sc.Seed + 77
	cp, err := loadLatestCheckpoint(dir, other)
	if err != nil {
		t.Fatal(err)
	}
	if cp != nil {
		t.Fatal("checkpoint with mismatched fingerprint should not load")
	}
	res, err := RunOpts(context.Background(), other, RunOptions{CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := Run(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, baseline, res)
}

// v2Slot, v2Snapshot and v2Head mirror the head of a version-2 checkpoint,
// whose storage keys were a contract and a string.
type v2Slot struct {
	Contract types.Address
	Key      string
}

type v2Snapshot struct {
	Balances map[types.Address]types.Wei
	Storage  map[v2Slot]u256.Int
}

type v2Head struct {
	Version     int
	Fingerprint string
	Slot        uint64
	State       v2Snapshot
}

// TestResumeRefusesVersion2Checkpoint writes a head in the version-2
// layout. Gob decodes it into today's checkpoint with every storage key's
// string dropped, so only the version can refuse it: resume must skip the
// file and start over. The head carries the current scenario fingerprint,
// so the version check alone is under test.
func TestResumeRefusesVersion2Checkpoint(t *testing.T) {
	sc := shortScenario(2)
	dir := t.TempDir()
	token := crypto.AddressFromSeed("token/WETH")
	head := v2Head{
		Version:     2,
		Fingerprint: scenarioFingerprint(sc),
		Slot:        chain.MergeSlot + 5,
		State: v2Snapshot{
			Balances: map[types.Address]types.Wei{token: types.Ether(1)},
			Storage:  map[v2Slot]u256.Int{{Contract: token, Key: "bal:" + token.Hex()}: types.Ether(2)},
		},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(head); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointName(head.Slot)), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	decoded := &checkpoint{}
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(decoded); err != nil {
		t.Fatalf("a version-2 head no longer decodes, so this test checks nothing: %v", err)
	}
	if err := restore(nil, nil, decoded, dir); err == nil {
		t.Fatal("restore accepted a version-2 checkpoint")
	}
	cp, err := loadLatestCheckpoint(dir, sc)
	if err != nil {
		t.Fatal(err)
	}
	if cp != nil {
		t.Fatalf("loaded a version-%d checkpoint, want it skipped", cp.Version)
	}
	res, err := RunOpts(context.Background(), sc, RunOptions{CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, baseline, res)
}

// TestCheckpointRetention keeps the checkpoint directory bounded.
func TestCheckpointRetention(t *testing.T) {
	sc := shortScenario(6)
	dir := t.TempDir()
	if _, err := RunOpts(context.Background(), sc, RunOptions{CheckpointDir: dir, Keep: 2}); err != nil {
		t.Fatal(err)
	}
	names, err := checkpointFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("want 2 retained checkpoints, got %d (%v)", len(names), names)
	}
}

// TestRunCancelledLeaksNoGoroutines cancels a run and checks the goroutine
// count settles back to the baseline.
func TestRunCancelledLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc := shortScenario(2)
	_, err := RunOpts(ctx, sc, RunOptions{
		OnDay: func(day int) { cancel() },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancel", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRunWithoutCheckpointDirWritesNothing guards the default path: no
// checkpoint dir, no files.
func TestRunWithoutCheckpointDirWritesNothing(t *testing.T) {
	dir := t.TempDir()
	sc := shortScenario(2)
	if _, err := RunOpts(context.Background(), sc, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("unexpected files: %v", entries)
	}
}
