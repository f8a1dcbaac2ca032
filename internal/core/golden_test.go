package core_test

// Golden byte-identity tests for the analysis engine: every render must
// hash to the SHA-256 committed in testdata/digests.json, whatever the
// worker count and whether the corpus comes from memory or is streamed
// from disk. This is the engine's central contract (DESIGN.md §6) — any
// float reassociation, shard-boundary mistake, or map-order leak shows up
// here as a digest mismatch, with the per-artifact listing that explains
// it. A deliberate output change edits the JSON by hand.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/core"
	"github.com/ethpbs/pbslab/internal/mev"
	"github.com/ethpbs/pbslab/internal/report"
	"github.com/ethpbs/pbslab/internal/sim"
)

// digestFile pins, per goldenDataset seed (4 days), the SHA-256 of a
// sha256sum-style listing ("<sha256>  <name>" per artifact, in render
// order) of report.RenderAll's output.
const digestFile = "testdata/digests.json"

// goldenDataset simulates a short window for one seed.
func goldenDataset(t testing.TB, seed uint64, days int) *sim.Result {
	t.Helper()
	sc := sim.DefaultScenario()
	sc.Seed = seed
	sc.End = sc.Start.Add(time.Duration(days) * 24 * time.Hour)
	sc.BlocksPerDay = 12
	sc.Validators = 200
	sc.Demand.Users = 120
	sc.Demand.TxPerBlock = sim.Flat(30)
	sc.SmallBuilderCount = 20
	res, err := sim.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkRenderDigest renders a at the given worker count and compares the
// listing digest with the one pinned for seed.
func checkRenderDigest(t *testing.T, seed uint64, input string, a *core.Analysis, workers int) {
	t.Helper()
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string]string
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatalf("%s: %v", digestFile, err)
	}
	var listing strings.Builder
	for _, art := range report.RenderAll(context.Background(), a, workers) {
		if art.Err != nil {
			t.Fatalf("%s: render %s: %v", input, art.Name, art.Err)
		}
		sum := sha256.Sum256(art.Data)
		fmt.Fprintf(&listing, "%s  %s\n", hex.EncodeToString(sum[:]), art.Name)
	}
	sum := sha256.Sum256([]byte(listing.String()))
	key := fmt.Sprintf("seed%d", seed)
	if got := hex.EncodeToString(sum[:]); got != pinned[key] {
		t.Errorf("%s: render digest %s, %s pins %q for %s\n%s",
			input, got, digestFile, pinned[key], key, listing.String())
	}
}

// TestParallelMatchesSequentialGolden renders each seed at one, two and
// eight workers; every render must match the committed digest.
func TestParallelMatchesSequentialGolden(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res := goldenDataset(t, seed, 4)
			labels := res.World.BuilderLabels()
			for _, w := range []int{1, 2, 8} {
				a := core.New(res.Dataset, core.WithBuilderLabels(labels), core.WithWorkers(w))
				checkRenderDigest(t, seed, fmt.Sprintf("workers=%d", w), a, w)
			}
		})
	}
}

// TestEngineRace hammers the memoized engine from many goroutines while the
// render worker pool runs, so `go test -race` exercises every concurrency
// seam: parallel classification, the sharded index build, sync.Once memos,
// keyed memos, and per-day reductions.
func TestEngineRace(t *testing.T) {
	res := goldenDataset(t, 1, 3)
	a := core.New(res.Dataset,
		core.WithBuilderLabels(res.World.BuilderLabels()),
		core.WithWorkers(8))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Figure3PaymentShares()
			a.Figure4PBSShare()
			a.Figure5RelayShares()
			a.Figure6HHI()
			a.Figure7BuildersPerRelay()
			a.Figure8BuilderShares()
			a.Figure9BlockValue()
			a.Figure10ProposerProfit()
			a.Figures11And12BuilderBoxes(11)
			a.Figure13BlockSize()
			a.Figure14PrivateTxShare()
			a.Figure15MEVPerBlock()
			a.Figure16MEVValueShare()
			a.Figure17CensoringShare()
			a.Figure18SanctionedShare()
			a.Figure19ProfitSplit()
			a.Figure20To22MEVKind(mev.KindSandwich)
			a.ClassifierCoverage()
			a.Table4RelayTrust()
			a.OFACUpdateLag(4)
			a.InclusionDelay()
			a.Clusters()
		}()
	}
	// Render concurrently with the direct calls above.
	arts := report.RenderAll(context.Background(), a, 8)
	wg.Wait()

	if len(arts) == 0 {
		t.Fatal("no artifacts rendered")
	}
	// A second render must reproduce the first bytes exactly (memo or not).
	again := report.RenderAll(context.Background(), a, 3)
	for i := range arts {
		if !bytes.Equal(arts[i].Data, again[i].Data) {
			t.Errorf("%s: repeated render differs", arts[i].Name)
		}
	}
}

// TestWithoutMemoMatchesMemoized checks the memo layer is transparent.
func TestWithoutMemoMatchesMemoized(t *testing.T) {
	res := goldenDataset(t, 2, 3)
	labels := res.World.BuilderLabels()
	memoized := core.New(res.Dataset, core.WithBuilderLabels(labels))
	fresh := core.New(res.Dataset, core.WithBuilderLabels(labels), core.WithoutMemo())

	w := report.RenderAll(context.Background(), memoized, 4)
	g := report.RenderAll(context.Background(), fresh, 4)
	for i := range w {
		if !bytes.Equal(w[i].Data, g[i].Data) {
			t.Errorf("%s: WithoutMemo render differs", w[i].Name)
		}
	}
}
