package dsio

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/ethpbs/pbslab/internal/dataset"
	"github.com/ethpbs/pbslab/internal/report"
)

func TestChunkedRoundTrip(t *testing.T) {
	res := smallRun(t)
	labels := res.World.BuilderLabels()
	dir := t.TempDir()
	if err := WriteDays(dir, res.Dataset, labels); err != nil {
		t.Fatal(err)
	}

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

// TestEncodeChunkedMatchesWriteDays pins the artifact-pipeline path to the
// disk path byte for byte: the corpus shipped under a report manifest is
// exactly what a Writer would have put on disk.
func TestEncodeChunkedMatchesWriteDays(t *testing.T) {
	res := smallRun(t)
	labels := res.World.BuilderLabels()
	dir := t.TempDir()
	if err := WriteDays(dir, res.Dataset, labels); err != nil {
		t.Fatal(err)
	}
	files, err := EncodeChunked(res.Dataset, labels)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		disk, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(f.Name)))
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if !bytes.Equal(disk, f.Data) {
			t.Errorf("%s: EncodeChunked bytes differ from WriteDays", f.Name)
		}
	}
}

// TestChunkedEmptyDay feeds the writer a corpus with a block-free day in
// the middle of the window: the day still gets a segment, and the round
// trip preserves the gap.
func TestChunkedEmptyDay(t *testing.T) {
	res := smallRun(t)
	full := res.Dataset
	pruned := &dataset.Dataset{
		Start:       full.Start,
		End:         full.End,
		MEVLabels:   full.MEVLabels,
		MEVBySource: full.MEVBySource,
		Arrivals:    full.Arrivals,
		Relays:      full.Relays,
		Sanctions:   full.Sanctions,
	}
	for _, b := range full.Blocks {
		if full.BlockDay(b) == 1 {
			continue
		}
		pruned.Blocks = append(pruned.Blocks, b)
	}
	if len(pruned.Blocks) == len(full.Blocks) {
		t.Fatal("fixture: day 1 had no blocks to drop")
	}

	dir := t.TempDir()
	if err := WriteDays(dir, pruned, nil); err != nil {
		t.Fatal(err)
	}
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

// TestChunkedTornSegment truncates one day segment after the index was
// published: opening the corpus still works (segments are verified
// lazily), but reading the torn day must fail loudly.
func TestChunkedTornSegment(t *testing.T) {
	res := smallRun(t)
	dir := t.TempDir()
	if err := WriteDays(dir, res.Dataset, nil); err != nil {
		t.Fatal(err)
	}
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
	if err := WriteDays(dir, res.Dataset, nil); err != nil {
		t.Fatal(err)
	}
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
	if err := WriteDays(dir, res.Dataset, nil); err != nil {
		t.Fatal(err)
	}
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
	files, err := EncodeChunked(res.Dataset, nil)
	if err != nil {
		t.Fatal(err)
	}
	arts := make([]report.Artifact, len(files))
	for i, f := range files {
		arts[i] = report.Artifact{Name: f.Name, Data: f.Data}
	}
	dir := t.TempDir()
	if err := report.WriteArtifacts(dir, arts); err != nil {
		t.Fatal(err)
	}
	problems, err := report.VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("clean chunked corpus reported problems: %v", problems)
	}
}
