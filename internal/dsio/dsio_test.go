package dsio

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/core"
	"github.com/ethpbs/pbslab/internal/report"
	"github.com/ethpbs/pbslab/internal/sim"
)

// smallRun simulates a few days at low cadence — the same fixture shape the
// report tests use — and returns the collected corpus plus builder labels.
func smallRun(t *testing.T) *sim.Result {
	t.Helper()
	sc := sim.DefaultScenario()
	sc.End = sc.Start.Add(3 * 24 * time.Hour)
	sc.BlocksPerDay = 12
	sc.Demand.Users = 80
	sc.Demand.TxPerBlock = sim.Flat(20)
	sc.SmallBuilderCount = 8
	res, err := sim.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEncodeDecodeRoundTrip decodes a written corpus back into memory:
// the rehydrated corpus satisfies every invariant, and re-encoding it
// reproduces the files on disk byte for byte.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	res := smallRun(t)
	dir := t.TempDir()
	writeCorpus(t, dir, res.Dataset, res.World.BuilderLabels())
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds, labels, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if rep := core.Validate(ds); !rep.OK() {
		t.Fatalf("decoded dataset fails validation: %v", rep.Violations)
	}
	files, err := EncodeChunked(ds, labels)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		disk, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(f.Name)))
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if !bytes.Equal(disk, f.Data) {
			t.Errorf("%s: re-encoding a decoded corpus differs", f.Name)
		}
	}
}

// TestDecodedAnalysisMatchesOriginal proves the serving plane's guarantee:
// an analysis streamed from the decoded corpus renders byte-identical
// artifacts to one built from the live simulation result.
func TestDecodedAnalysisMatchesOriginal(t *testing.T) {
	res := smallRun(t)
	labels := res.World.BuilderLabels()
	dir := t.TempDir()
	writeCorpus(t, dir, res.Dataset, labels)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := core.NewStreaming(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	orig := core.New(res.Dataset, core.WithBuilderLabels(labels))
	origArts := report.RenderAll(context.Background(), orig, 2)
	decArts := report.RenderAll(context.Background(), decoded, 2)
	if len(origArts) != len(decArts) {
		t.Fatalf("artifact count drifted: %d vs %d", len(origArts), len(decArts))
	}
	for i := range origArts {
		if origArts[i].Err != nil || decArts[i].Err != nil {
			t.Fatalf("%s: render error: %v / %v", origArts[i].Name, origArts[i].Err, decArts[i].Err)
		}
		if !bytes.Equal(origArts[i].Data, decArts[i].Data) {
			t.Errorf("%s: artifact bytes differ between live and decoded corpus", origArts[i].Name)
		}
	}
}

// TestDecodeRejectsGarbageAndWrongVersion plants segments whose index
// entries match their bytes, so only decoding can refuse them: garbage,
// a truncated gob stream, and a segment or index of an unknown version.
func TestDecodeRejectsGarbageAndWrongVersion(t *testing.T) {
	res := smallRun(t)
	dir := t.TempDir()
	writeCorpus(t, dir, res.Dataset, nil)
	idxPath := filepath.Join(dir, filepath.FromSlash(IndexName))
	pristine, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	// plant overwrites one segment and re-points its index entry at the
	// new bytes.
	plant := func(name string, data []byte) {
		t.Helper()
		var idx SegmentIndex
		if err := json.Unmarshal(pristine, &idx); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		size, digest := int64(len(data)), hex.EncodeToString(sum[:])
		if name == CommonName {
			idx.Common.Size, idx.Common.SHA256 = size, digest
		}
		for i := range idx.Segments {
			if idx.Segments[i].Name == name {
				idx.Segments[i].Size, idx.Segments[i].SHA256 = size, digest
			}
		}
		raw, err := json.Marshal(&idx)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(idxPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.FromSlash(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gobOf := func(v any) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	day1, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(SegmentName(1))))
	if err != nil {
		t.Fatal(err)
	}
	common, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(CommonName)))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, file string
		data       []byte
		want       string
	}{
		{"garbage day", SegmentName(1), []byte("not a gob stream"), "decode"},
		// Truncation must fail loudly, never yield a short corpus.
		{"truncated day", SegmentName(1), day1[:len(day1)/2], "decode"},
		{"unknown day version", SegmentName(1), gobOf(&segDay{Version: segmentVersion + 1, Day: 1}), "version"},
		{"garbage common", CommonName, []byte("not a gob stream"), "decode"},
		{"unknown common version", CommonName, gobOf(&segCommon{Version: segmentVersion + 1}), "version"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plant(tc.file, tc.data)
			defer plant(SegmentName(1), day1)
			defer plant(CommonName, common)
			r, err := Open(dir)
			if err == nil && tc.file != CommonName {
				_, err = r.OpenDay(1)
			}
			if err == nil {
				t.Fatalf("%s decoded without error", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: error should mention %q, got: %v", tc.name, tc.want, err)
			}
		})
	}

	var idx SegmentIndex
	if err := json.Unmarshal(pristine, &idx); err != nil {
		t.Fatal(err)
	}
	idx.Version = segmentVersion + 1
	raw, err := json.Marshal(&idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(idxPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("index of an unknown version: err = %v, want a version error", err)
	}
}
