package serve

import (
	"context"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/core"
	"github.com/ethpbs/pbslab/internal/dsio"
	"github.com/ethpbs/pbslab/internal/report"
	"github.com/ethpbs/pbslab/internal/sim"
)

// TestLoadServesCommitFallbackCorpus runs what `pbslab -figures DIR
// -dump-dataset` writes — every artifact plus the chunked corpus under one
// manifest — over a window with commit fallbacks, and loads it. A commit
// fallback leaves a relay delivery for a block that never landed; that is
// a validation finding, and the daemon must still serve the corpus.
func TestLoadServesCommitFallbackCorpus(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		sc := sim.DefaultScenario()
		sc.Seed = seed
		sc.Start = time.Date(2022, 11, 7, 0, 0, 0, 0, time.UTC)
		sc.End = time.Date(2022, 11, 20, 0, 0, 0, 0, time.UTC)
		sc.BlocksPerDay = 12
		sc.Validators = 200
		sc.Demand.Users = 120
		sc.Demand.TxPerBlock = sim.Flat(30)
		sc.SmallBuilderCount = 20
		res, err := sim.Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Truth.FallbackCommit == 0 {
			t.Fatalf("seed %d: window has no commit fallback", seed)
		}
		if rep := core.Validate(res.Dataset); !rep.OK() || len(rep.Findings) < res.Truth.FallbackCommit {
			t.Errorf("seed %d: %d violation(s), %d finding(s) for %d commit fallbacks",
				seed, len(rep.Violations), len(rep.Findings), res.Truth.FallbackCommit)
		}

		labels := res.World.BuilderLabels()
		a, err := core.NewWithContext(context.Background(), res.Dataset, core.WithBuilderLabels(labels))
		if err != nil {
			t.Fatal(err)
		}
		files, err := dsio.EncodeChunked(res.Dataset, labels)
		if err != nil {
			t.Fatal(err)
		}
		extra := make([]report.Artifact, len(files))
		for i, f := range files {
			extra[i] = report.Artifact{Name: f.Name, Data: f.Data}
		}
		dir := t.TempDir()
		if err := report.WriteAllExtraContext(context.Background(), a, dir, extra...); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(context.Background(), dir, LoadOptions{}); err != nil {
			t.Errorf("seed %d (%d commit fallbacks): %v", seed, res.Truth.FallbackCommit, err)
		}
	}
}
