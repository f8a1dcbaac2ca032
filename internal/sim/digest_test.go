package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/core"
	"github.com/ethpbs/pbslab/internal/dsio"
	"github.com/ethpbs/pbslab/internal/report"
)

// digestFile pins the SHA-256 of every golden case's output. A deliberate
// calibration change edits it by hand; a mismatch prints the digests the
// run produced, with the per-file listings behind them.
const digestFile = "testdata/digests.json"

// outputDigest is one case's pinned output: the chunked corpus bytes
// (dsio.EncodeChunked), the encoding/json bytes of the ground truth, and
// every artifact report.RenderAll emits. Dataset and Artifacts hash a
// sha256sum-style listing ("<sha256>  <name>" per file, in order).
type outputDigest struct {
	Dataset   string `json:"dataset"`
	Truth     string `json:"truth"`
	Artifacts string `json:"artifacts"`
}

// goldenCase is a scenario whose output is pinned under name.
type goldenCase struct {
	name string
	sc   Scenario
}

func shortCase(days int, seed uint64) goldenCase {
	sc := shortScenario(days)
	sc.Seed = seed
	return goldenCase{name: fmt.Sprintf("short%d/seed%d", days, seed), sc: sc}
}

// windowCase runs shortScenario's density over [from, to): windows that
// reach the exploit tasks, the OFAC waves, commit fallbacks and relay
// outages, none of which fall in the first days after the merge.
func windowCase(from, to time.Time, seed uint64) goldenCase {
	sc := shortScenario(0)
	sc.Start, sc.End, sc.Seed = from, to, seed
	return goldenCase{name: fmt.Sprintf("%s-%s/seed%d", from.Format("0102"), to.Format("0102"), seed), sc: sc}
}

func loadDigests(t *testing.T) map[string]outputDigest {
	t.Helper()
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]outputDigest
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s: %v", digestFile, err)
	}
	return out
}

// sumListing renders name/data pairs as a sha256sum-style listing and
// returns the listing's own SHA-256 with it.
func sumListing(names []string, data [][]byte) (string, string) {
	var b strings.Builder
	for i, name := range names {
		sum := sha256.Sum256(data[i])
		fmt.Fprintf(&b, "%s  %s\n", hex.EncodeToString(sum[:]), name)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), b.String()
}

// digestOf computes the three digests of a run; withArtifacts adds the
// analysis and render pass. The listings explain a mismatch.
func digestOf(t *testing.T, res *Result, withArtifacts bool) (outputDigest, string) {
	t.Helper()
	var d outputDigest
	var listing strings.Builder

	labels := res.World.BuilderLabels()
	files, err := dsio.EncodeChunked(res.Dataset, labels)
	if err != nil {
		t.Fatalf("encode dataset: %v", err)
	}
	names, data := make([]string, len(files)), make([][]byte, len(files))
	for i, f := range files {
		names[i], data[i] = f.Name, f.Data
	}
	var l string
	d.Dataset, l = sumListing(names, data)
	listing.WriteString(l)

	truth, err := json.Marshal(res.Truth)
	if err != nil {
		t.Fatalf("encode ground truth: %v", err)
	}
	sum := sha256.Sum256(truth)
	d.Truth = hex.EncodeToString(sum[:])

	if withArtifacts {
		a, err := core.NewWithContext(context.Background(), res.Dataset, core.WithBuilderLabels(labels))
		if err != nil {
			t.Fatalf("analysis: %v", err)
		}
		arts := report.RenderAll(context.Background(), a, 1)
		names, data = make([]string, len(arts)), make([][]byte, len(arts))
		for i, art := range arts {
			if art.Err != nil {
				t.Fatalf("render %s: %v", art.Name, art.Err)
			}
			names[i], data[i] = art.Name, art.Data
		}
		d.Artifacts, l = sumListing(names, data)
		listing.WriteString(l)
	}
	return d, listing.String()
}

// checkDigest compares a run's output with the pinned digests of case
// name. Without artifacts only the dataset and truth digests are checked.
func checkDigest(t *testing.T, pinned map[string]outputDigest, name, run string, res *Result, withArtifacts bool) {
	t.Helper()
	got, listing := digestOf(t, res, withArtifacts)
	want, ok := pinned[name]
	if !withArtifacts {
		want.Artifacts = ""
	}
	if ok && got == want {
		return
	}
	gotJSON, _ := json.Marshal(got)
	t.Errorf("%s (%s): output differs from %s\n got: %q: %s\nwant: %+v\n%s",
		name, run, digestFile, name, gotJSON, want, listing)
}

// exploitWins counts canonical blocks the value-misreporting exploiter
// built.
func exploitWins(res *Result) int {
	n := 0
	for _, b := range res.World.Chain.Blocks() {
		if b.Block.Header.FeeRecipient == res.World.Exploiter.Addr {
			n++
		}
	}
	return n
}
