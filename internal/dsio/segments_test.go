package dsio

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/ethpbs/pbslab/internal/dataset"
	"github.com/ethpbs/pbslab/internal/report"
	"github.com/ethpbs/pbslab/internal/types"
)

// writeCorpus lands ds's chunked corpus in dir the way pbslab ships it:
// EncodeChunked's files written as report artifacts under a manifest.
func writeCorpus(t *testing.T, dir string, ds *dataset.Dataset, labels map[types.Address]string) {
	t.Helper()
	files, err := EncodeChunked(ds, labels)
	if err != nil {
		t.Fatal(err)
	}
	arts := make([]report.Artifact, len(files))
	for i, f := range files {
		arts[i] = report.Artifact{Name: f.Name, Data: f.Data}
	}
	if err := report.WriteArtifacts(dir, arts); err != nil {
		t.Fatal(err)
	}
}

func TestChunkedRoundTrip(t *testing.T) {
	res := smallRun(t)
	labels := res.World.BuilderLabels()
	dir := t.TempDir()
	writeCorpus(t, dir, res.Dataset, labels)

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Days(), res.Dataset.Days(); got != want {
		t.Fatalf("days: %d, want %d", got, want)
	}
	ds, gotLabels, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(labels, gotLabels) {
		t.Error("builder labels did not round-trip")
	}
	if got, want := ds.Count(), res.Dataset.Count(); !reflect.DeepEqual(got, want) {
		t.Errorf("Table 1 counts drifted: got %+v want %+v", got, want)
	}
	for i, b := range ds.Blocks {
		orig := res.Dataset.Blocks[i]
		if b.Hash != orig.Hash {
			t.Fatalf("block %d: stored hash drifted", b.Number)
		}
		for j, tx := range b.Txs {
			if tx.Hash() != orig.Txs[j].Hash() {
				t.Fatalf("block %d tx %d: recomputed hash drifted", b.Number, j)
			}
		}
	}
}

// TestChunkedEmptyDay feeds the writer a corpus with a block-free day in
// the middle of the window: the day still gets a segment, and the round
// trip preserves the gap.
func TestChunkedEmptyDay(t *testing.T) {
	res := smallRun(t)
	full := res.Dataset
	pruned := pruneDay(t, full, 1)

	dir := t.TempDir()
	writeCorpus(t, dir, pruned, nil)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Days(), full.Days(); got != want {
		t.Fatalf("days: %d, want %d (empty day must still get a segment)", got, want)
	}
	empty, err := r.OpenDay(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("day 1: %d blocks, want 0", len(empty))
	}
	ds, _, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Blocks) != len(pruned.Blocks) {
		t.Fatalf("round trip: %d blocks, want %d", len(ds.Blocks), len(pruned.Blocks))
	}
}

// pruneDay returns a copy of ds without the blocks of one day, leaving a
// block-free day inside the window.
func pruneDay(t *testing.T, ds *dataset.Dataset, day int) *dataset.Dataset {
	t.Helper()
	pruned := &dataset.Dataset{
		Start:       ds.Start,
		End:         ds.End,
		MEVLabels:   ds.MEVLabels,
		MEVBySource: ds.MEVBySource,
		Arrivals:    ds.Arrivals,
		Relays:      ds.Relays,
		Sanctions:   ds.Sanctions,
	}
	for _, b := range ds.Blocks {
		if ds.BlockDay(b) != day {
			pruned.Blocks = append(pruned.Blocks, b)
		}
	}
	if len(pruned.Blocks) == len(ds.Blocks) {
		t.Fatalf("fixture: day %d had no blocks to drop", day)
	}
	return pruned
}

// TestChunkedTornSegment truncates one day segment after the index was
// published: opening the corpus still works (segments are verified
// lazily), but reading the torn day must fail loudly.
func TestChunkedTornSegment(t *testing.T) {
	res := smallRun(t)
	dir := t.TempDir()
	writeCorpus(t, dir, res.Dataset, nil)
	path := filepath.Join(dir, filepath.FromSlash(SegmentName(1)))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.OpenDay(0); err != nil {
		t.Fatalf("intact day: %v", err)
	}
	if _, err := r.OpenDay(1); err == nil {
		t.Fatal("torn segment decoded without error")
	} else if !strings.Contains(err.Error(), "torn") {
		t.Fatalf("torn segment error should name the size mismatch, got: %v", err)
	}

	// A torn common section must fail at Open.
	common := filepath.Join(dir, filepath.FromSlash(CommonName))
	cdata, err := os.ReadFile(common)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(common, cdata[:len(cdata)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("torn common section opened without error")
	}
}

// TestChunkedCorruptSegment flips a byte in a size-preserving way: only the
// digest check can catch it.
func TestChunkedCorruptSegment(t *testing.T) {
	res := smallRun(t)
	dir := t.TempDir()
	writeCorpus(t, dir, res.Dataset, nil)
	path := filepath.Join(dir, filepath.FromSlash(SegmentName(0)))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.OpenDay(0); err == nil {
		t.Fatal("corrupt segment decoded without error")
	} else if !strings.Contains(err.Error(), "digest") {
		t.Fatalf("corrupt segment error should name the digest mismatch, got: %v", err)
	}
}

// TestChunkedIndexMissingSegment tampers with the index so it no longer
// lists every day of the window: Open must refuse rather than silently
// serve a corpus with a hole in it.
func TestChunkedIndexMissingSegment(t *testing.T) {
	res := smallRun(t)
	dir := t.TempDir()
	writeCorpus(t, dir, res.Dataset, nil)
	idxPath := filepath.Join(dir, filepath.FromSlash(IndexName))
	raw, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	var idx SegmentIndex
	if err := json.Unmarshal(raw, &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Segments) < 3 {
		t.Fatal("fixture too small")
	}
	idx.Segments = idx.Segments[:len(idx.Segments)-1]
	trimmed, err := json.Marshal(&idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(idxPath, trimmed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("index missing a day segment opened without error")
	}

	// Dropping a middle entry instead breaks contiguity.
	var idx2 SegmentIndex
	if err := json.Unmarshal(raw, &idx2); err != nil {
		t.Fatal(err)
	}
	idx2.Segments = append(idx2.Segments[:1], idx2.Segments[2:]...)
	gapped, err := json.Marshal(&idx2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(idxPath, gapped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("non-contiguous index opened without error")
	}
}

// TestChunkedFilesVerifyUnderManifest ships the chunked corpus as report
// artifacts and checks report.VerifyDir holds the dataset/ subdirectory to
// the same rules as top-level files.
func TestChunkedFilesVerifyUnderManifest(t *testing.T) {
	res := smallRun(t)
	dir := t.TempDir()
	writeCorpus(t, dir, res.Dataset, nil)
	problems, err := report.VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("clean chunked corpus reported problems: %v", problems)
	}
}
