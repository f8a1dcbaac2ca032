package core_test

// Golden byte-identity test for the out-of-core path: an analysis built by
// streaming a chunked on-disk corpus one day at a time must render to the
// committed digest (DESIGN.md §11). Any drift in the disk codec, the
// streamed inclusion-delay accumulation, or the stripped-block bookkeeping
// shows up here as a digest mismatch.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/ethpbs/pbslab/internal/core"
	"github.com/ethpbs/pbslab/internal/dsio"
)

func TestStreamingMatchesInMemoryGolden(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res := goldenDataset(t, seed, 4)
			labels := res.World.BuilderLabels()

			dir := t.TempDir()
			if err := dsio.WriteDays(dir, res.Dataset, labels); err != nil {
				t.Fatal(err)
			}
			r, err := dsio.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rep, err := core.ValidateStream(r); err != nil {
				t.Fatal(err)
			} else if !rep.OK() {
				t.Fatalf("streamed validation: %d violation(s), first: %s",
					len(rep.Violations), rep.Violations[0])
			}

			streamed, err := core.NewStreaming(context.Background(), r, core.WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := streamed.Counts(), res.Dataset.Count(); !reflect.DeepEqual(got, want) {
				t.Errorf("streamed counts differ:\n%+v\nvs\n%+v", got, want)
			}
			checkRenderDigest(t, seed, "streamed from disk", streamed, 4)
		})
	}
}
