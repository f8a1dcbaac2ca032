package report

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/core"
	"github.com/ethpbs/pbslab/internal/sim"
)

func TestRenderStepsPanicIsolation(t *testing.T) {
	steps := []step{
		{"ok_one.csv", func(w io.Writer) { fmt.Fprintln(w, "a") }},
		{"bad.csv", func(w io.Writer) { panic("renderer bug") }},
		{"ok_two.csv", func(w io.Writer) { fmt.Fprintln(w, "b") }},
	}
	arts := renderSteps(context.Background(), steps, 2)
	if arts[0].Err != nil || arts[2].Err != nil {
		t.Fatalf("healthy renderers poisoned: %v / %v", arts[0].Err, arts[2].Err)
	}
	if arts[1].Err == nil {
		t.Fatal("panicking renderer reported no error")
	}
	msg := arts[1].Err.Error()
	if !strings.Contains(msg, "bad.csv") || !strings.Contains(msg, "renderer bug") {
		t.Errorf("panic error %q does not name the artifact and cause", msg)
	}
	if !strings.Contains(msg, "goroutine") {
		t.Errorf("panic error carries no stack trace: %q", msg)
	}
}

func TestRenderStepsCancellationSkipsRemaining(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	steps := []step{
		{"first.csv", func(w io.Writer) { fmt.Fprintln(w, "data"); cancel() }},
		{"second.csv", func(w io.Writer) { fmt.Fprintln(w, "data") }},
		{"third.csv", func(w io.Writer) { fmt.Fprintln(w, "data") }},
	}
	// One worker makes the schedule deterministic: the first step completes
	// and cancels, the rest are skipped with ctx's error.
	arts := renderSteps(ctx, steps, 1)
	if arts[0].Err != nil || len(arts[0].Data) == 0 {
		t.Fatalf("completed artifact lost: %v", arts[0].Err)
	}
	for _, a := range arts[1:] {
		if !errors.Is(a.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", a.Name, a.Err)
		}
		if len(a.Data) != 0 {
			t.Errorf("%s rendered after cancellation", a.Name)
		}
	}
}

// TestPartialFlushVerifiesClean pins the durability invariant: artifacts
// completed before a cancellation are flushed under a manifest that covers
// exactly them, so the partial directory is incomplete but never corrupt.
func TestPartialFlushVerifiesClean(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	steps := []step{
		{"done_a.csv", func(w io.Writer) { fmt.Fprintln(w, "a") }},
		{"done_b.csv", func(w io.Writer) { fmt.Fprintln(w, "b"); cancel() }},
		{"never.csv", func(w io.Writer) { fmt.Fprintln(w, "c") }},
	}
	arts := renderSteps(ctx, steps, 1)
	var done []Artifact
	for _, a := range arts {
		if a.Err == nil {
			done = append(done, a)
		}
	}
	if len(done) != 2 {
		t.Fatalf("%d artifacts completed, want 2", len(done))
	}
	dir := t.TempDir()
	if err := writeArtifacts(dir, done); err != nil {
		t.Fatal(err)
	}
	problems, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("partial directory fails verification: %v", problems)
	}
	if _, err := os.Stat(filepath.Join(dir, "never.csv")); !os.IsNotExist(err) {
		t.Error("cancelled artifact reached disk")
	}
}

// TestRenderCancelledLeaksNoGoroutines: a cancelled render returns
// promptly and leaves no pool workers behind.
func TestRenderCancelledLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	steps := make([]step, 64)
	for i := range steps {
		name := fmt.Sprintf("s%02d.csv", i)
		steps[i] = step{name, func(w io.Writer) { fmt.Fprintln(w, "x") }}
	}
	arts := renderSteps(ctx, steps, 8)
	for _, a := range arts {
		if !errors.Is(a.Err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", a.Name, a.Err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines: %d before, %d after cancelled render", before, now)
	}
}

// TestKillAndResumeByteIdenticalArtifacts is the acceptance golden: for
// three seeds, a run killed mid-simulation and resumed from its checkpoint
// must write byte-identical figures AND manifest to an uninterrupted run.
func TestKillAndResumeByteIdenticalArtifacts(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := sim.DefaultScenario()
			sc.Seed = seed
			sc.End = sc.Start.Add(4 * 24 * time.Hour)
			sc.BlocksPerDay = 12
			sc.Validators = 200
			sc.Demand.Users = 120
			sc.Demand.TxPerBlock = sim.Flat(30)
			sc.SmallBuilderCount = 20

			writeRun := func(res *sim.Result) string {
				t.Helper()
				a := core.New(res.Dataset, core.WithBuilderLabels(res.World.BuilderLabels()))
				dir := t.TempDir()
				if err := WriteAllExtraContext(context.Background(), a, dir); err != nil {
					t.Fatal(err)
				}
				return dir
			}

			base, err := sim.Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			baseDir := writeRun(base)

			// Kill at the day-2 boundary, then resume from the checkpoint.
			ckpt := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err = sim.RunOpts(ctx, sc, sim.RunOptions{
				CheckpointDir: ckpt,
				OnDay: func(day int) {
					if day >= 2 {
						cancel()
					}
				},
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
			}
			resumed, err := sim.RunOpts(context.Background(), sc, sim.RunOptions{
				CheckpointDir: ckpt, Resume: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			resumedDir := writeRun(resumed)

			compareDirsByteIdentical(t, baseDir, resumedDir)
		})
	}
}

// compareDirsByteIdentical asserts both directories hold the same file set
// with the same bytes — including manifest.json.
func compareDirsByteIdentical(t *testing.T, a, b string) {
	t.Helper()
	entsA, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	entsB, err := os.ReadDir(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(entsA) != len(entsB) {
		t.Fatalf("file counts differ: %d vs %d", len(entsA), len(entsB))
	}
	for _, ent := range entsA {
		da, err := os.ReadFile(filepath.Join(a, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		db, err := os.ReadFile(filepath.Join(b, ent.Name()))
		if err != nil {
			t.Fatalf("%s present in baseline only: %v", ent.Name(), err)
		}
		if !bytes.Equal(da, db) {
			t.Errorf("%s differs between uninterrupted and resumed run", ent.Name())
		}
	}
}
