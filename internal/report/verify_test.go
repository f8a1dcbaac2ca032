package report

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/ethpbs/pbslab/internal/atomicio"
	"github.com/ethpbs/pbslab/internal/faults"
)

// writeSyntheticDir lands a small artifact set plus manifest in a fresh dir.
func writeSyntheticDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	arts := []Artifact{
		{Name: "fig01_alpha.csv", Data: bytes.Repeat([]byte("day,value\n1,2\n"), 8)},
		{Name: "fig02_beta.csv", Data: bytes.Repeat([]byte("day,value\n3,4\n"), 16)},
		{Name: "fig03_gamma.csv", Data: bytes.Repeat([]byte("day,value\n5,6\n"), 32)},
		{Name: "tables.txt", Data: []byte("# tables\nrows\n")},
	}
	if err := writeArtifacts(dir, arts); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestVerifyDirCleanPasses(t *testing.T) {
	dir := writeSyntheticDir(t)
	problems, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("clean dir reported problems: %v", problems)
	}
}

func TestVerifyDirDetectsEveryInjectedCorruption(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := writeSyntheticDir(t)
			injected, err := faults.CorruptDir(seed, dir)
			if err != nil {
				t.Fatal(err)
			}
			problems, err := VerifyDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			byName := map[string][]Problem{}
			for _, p := range problems {
				byName[p.Name] = append(byName[p.Name], p)
			}
			for _, c := range injected {
				match := false
				for _, p := range byName[c.Target] {
					if p.Kind == c.Kind {
						match = true
					}
				}
				if !match {
					t.Errorf("injected %s; problems for %s: %v", c, c.Target, byName[c.Target])
				}
			}
		})
	}
}

func TestVerifyDirMissingManifest(t *testing.T) {
	if _, err := VerifyDir(t.TempDir()); err == nil {
		t.Fatal("expected error for directory without a manifest")
	}
}

func TestVerifyDirFlagsTempDebrisDistinctly(t *testing.T) {
	dir := writeSyntheticDir(t)
	if err := os.WriteFile(filepath.Join(dir, ".tmp-fig01_alpha.csv123"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || problems[0].Kind != ProblemStale {
		t.Fatalf("problems = %v, want one stale finding", problems)
	}
	if problems[0].Detail != "temp debris from an interrupted write" {
		t.Errorf("detail = %q", problems[0].Detail)
	}
}

// The three directory shapes a serving daemon must classify cleanly rather
// than treat as a generic read failure: empty, manifest-only, and
// temp-debris-only (the wreckage of a writer killed before its first
// rename landed).

func TestVerifyDirEmptyClassifiesAsNoManifest(t *testing.T) {
	_, err := VerifyDir(t.TempDir())
	if !errors.Is(err, ErrNoManifest) {
		t.Fatalf("err = %v, want ErrNoManifest", err)
	}
}

func TestVerifyDirManifestOnlyIsClean(t *testing.T) {
	// A manifest certifying zero artifacts is a legal (if useless)
	// directory: nothing promised, nothing missing, nothing stale.
	dir := t.TempDir()
	if err := writeArtifacts(dir, nil); err != nil {
		t.Fatal(err)
	}
	problems, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("manifest-only dir reported problems: %v", problems)
	}
}

func TestVerifyDirTempDebrisOnlyClassifiesAsNoManifest(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{".tmp-fig01.csv-123", ".tmp-manifest.json-9"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := VerifyDir(dir)
	if !errors.Is(err, ErrNoManifest) {
		t.Fatalf("err = %v, want ErrNoManifest (unverifiable, not corrupt)", err)
	}
}

// TestVerifyDirClassifiesSubdirectoryFiles is the regression test for the
// chunked-dataset layout: files under dataset/ (or any subdirectory) are
// held to exactly the same manifest rules as top-level artifacts —
// slash-joined names verify clean, a corrupted segment is corrupt, a
// deleted one missing, and an unlisted one (or temp debris) stale.
func TestVerifyDirClassifiesSubdirectoryFiles(t *testing.T) {
	newDir := func(t *testing.T) string {
		dir := t.TempDir()
		arts := []Artifact{
			{Name: "fig01_alpha.csv", Data: []byte("day,value\n1,2\n")},
			{Name: "dataset/index.json", Data: []byte(`{"version":1}` + "\n")},
			{Name: "dataset/day-000000.seg", Data: bytes.Repeat([]byte{0xAB}, 64)},
			{Name: "dataset/day-000001.seg", Data: bytes.Repeat([]byte{0xCD}, 64)},
		}
		if err := writeArtifacts(dir, arts); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("clean", func(t *testing.T) {
		problems, err := VerifyDir(newDir(t))
		if err != nil {
			t.Fatal(err)
		}
		if len(problems) != 0 {
			t.Fatalf("clean chunked dir reported problems: %v", problems)
		}
	})

	t.Run("corrupt segment", func(t *testing.T) {
		dir := newDir(t)
		path := filepath.Join(dir, "dataset", "day-000000.seg")
		if err := os.WriteFile(path, bytes.Repeat([]byte{0xEE}, 64), 0o644); err != nil {
			t.Fatal(err)
		}
		problems, err := VerifyDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(problems) != 1 || problems[0].Kind != ProblemCorrupt || problems[0].Name != "dataset/day-000000.seg" {
			t.Fatalf("problems = %v, want one corrupt finding for dataset/day-000000.seg", problems)
		}
	})

	t.Run("missing segment", func(t *testing.T) {
		dir := newDir(t)
		if err := os.Remove(filepath.Join(dir, "dataset", "day-000001.seg")); err != nil {
			t.Fatal(err)
		}
		problems, err := VerifyDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(problems) != 1 || problems[0].Kind != ProblemMissing || problems[0].Name != "dataset/day-000001.seg" {
			t.Fatalf("problems = %v, want one missing finding for dataset/day-000001.seg", problems)
		}
	})

	t.Run("stale subdirectory file", func(t *testing.T) {
		dir := newDir(t)
		if err := os.WriteFile(filepath.Join(dir, "dataset", "day-000002.seg"), []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "dataset", ".tmp-day-000000.seg99"), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		problems, err := VerifyDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(problems) != 2 {
			t.Fatalf("problems = %v, want two stale findings", problems)
		}
		for _, p := range problems {
			if p.Kind != ProblemStale {
				t.Errorf("%s: kind %s, want stale", p.Name, p.Kind)
			}
		}
		byName := map[string]Problem{}
		for _, p := range problems {
			byName[p.Name] = p
		}
		if p, ok := byName["dataset/.tmp-day-000000.seg99"]; !ok || p.Detail != "temp debris from an interrupted write" {
			t.Errorf("temp debris in subdirectory not flagged distinctly: %v", problems)
		}
		if _, ok := byName["dataset/day-000002.seg"]; !ok {
			t.Errorf("orphan segment not flagged stale: %v", problems)
		}
	})
}

func TestWriteAllExtraCoversExtraArtifacts(t *testing.T) {
	dir := t.TempDir()
	arts := []Artifact{
		{Name: "fig01_alpha.csv", Data: []byte("day,value\n1,2\n")},
		{Name: "extra.bin", Data: []byte{0x01, 0x02, 0x03}},
	}
	if err := writeArtifacts(dir, arts); err != nil {
		t.Fatal(err)
	}
	problems, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("extra artifact not covered by manifest: %v", problems)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Artifacts) != 2 {
		t.Fatalf("manifest lists %d artifacts, want 2", len(m.Artifacts))
	}
}

// TestWriteArtifactsSyncsDirsBeforeManifest holds the publication order:
// the artifacts land as one batch whose directories are all synced while
// manifest.json does not exist yet, and the manifest's own write (the last
// sync, of the top directory) comes after every one of them.
func TestWriteArtifactsSyncsDirsBeforeManifest(t *testing.T) {
	dir := t.TempDir()
	arts := []Artifact{
		{Name: "fig01_alpha.csv", Data: []byte("day,value\n1,2\n")},
		{Name: "dataset/common.seg", Data: bytes.Repeat([]byte{0xAB}, 64)},
		{Name: "dataset/day-000000.seg", Data: bytes.Repeat([]byte{0xCD}, 64)},
		{Name: "tables.txt", Data: []byte("# tables\nrows\n")},
	}
	type syncRec struct {
		dir      string
		manifest bool
	}
	orig := atomicio.SyncDir
	defer func() { atomicio.SyncDir = orig }()
	var mu sync.Mutex
	var syncs []syncRec
	atomicio.SyncDir = func(d string) error {
		_, err := os.Stat(filepath.Join(dir, ManifestName))
		mu.Lock()
		syncs = append(syncs, syncRec{dir: d, manifest: err == nil})
		mu.Unlock()
		return orig(d)
	}

	if err := writeArtifacts(dir, arts); err != nil {
		t.Fatal(err)
	}
	artifactDirs := map[string]bool{dir: false, filepath.Join(dir, "dataset"): false}
	if len(syncs) != len(artifactDirs)+1 {
		t.Fatalf("syncs = %v, want one per artifact directory plus the manifest's", syncs)
	}
	for _, s := range syncs[:len(syncs)-1] {
		if s.manifest {
			t.Errorf("artifact directory %s synced after manifest.json appeared", s.dir)
		}
		if synced, ok := artifactDirs[s.dir]; !ok || synced {
			t.Errorf("unexpected or repeated artifact-directory sync of %s", s.dir)
		}
		artifactDirs[s.dir] = true
	}
	if last := syncs[len(syncs)-1]; last.dir != dir || !last.manifest {
		t.Errorf("last sync = %+v, want the manifest's sync of %s", last, dir)
	}
}

// TestVerifyDirStreamsFilesLargerThanCopyBuffer damages files several copy
// buffers long, so the streamed hash reads each in more than one chunk: a
// truncation and a single flipped bit past the first chunk must both be
// reported as corrupt, the truncation by size and the flip by digest.
func TestVerifyDirStreamsFilesLargerThanCopyBuffer(t *testing.T) {
	dir := t.TempDir()
	big := func(seed byte) []byte {
		data := make([]byte, 100<<10)
		for i := range data {
			data[i] = seed + byte(i*31)
		}
		return data
	}
	arts := []Artifact{
		{Name: "dataset/day-000000.seg", Data: big(1)},
		{Name: "dataset/day-000001.seg", Data: big(2)},
		{Name: "dataset/day-000002.seg", Data: big(3)},
	}
	if err := writeArtifacts(dir, arts); err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "dataset", "day-000000.seg")
	if err := os.Truncate(truncated, 70<<10); err != nil {
		t.Fatal(err)
	}
	flipped := filepath.Join(dir, "dataset", "day-000001.seg")
	data, err := os.ReadFile(flipped)
	if err != nil {
		t.Fatal(err)
	}
	data[80<<10] ^= 0x10
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}

	problems, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ name, detail string }{
		{"dataset/day-000000.seg", fmt.Sprintf("size %d, manifest says %d", 70<<10, 100<<10)},
		{"dataset/day-000001.seg", "sha256 "},
	}
	if len(problems) != len(want) {
		t.Fatalf("problems = %v, want %d corrupt findings", problems, len(want))
	}
	for i, w := range want {
		p := problems[i]
		if p.Name != w.name || p.Kind != ProblemCorrupt || !strings.HasPrefix(p.Detail, w.detail) {
			t.Errorf("problem %d = %v, want %s corrupt (%s...)", i, p, w.name, w.detail)
		}
	}
}

// TestVerifyDirReusesCopyBuffers verifies a directory shaped like a window
// scenario's corpus: 200 files of 1–36 KiB, most smaller than one copy
// buffer. Once a first call has warmed the buffer pool, verifying must
// allocate well under one 32 KiB buffer per file.
func TestVerifyDirReusesCopyBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race: sync.Pool drops Puts there")
	}
	dir := t.TempDir()
	arts := make([]Artifact, 200)
	for i := range arts {
		data := make([]byte, 1<<10+i*(35<<10)/(len(arts)-1))
		for j := range data {
			data[j] = byte(i + j)
		}
		arts[i] = Artifact{Name: fmt.Sprintf("dataset/day-%06d.seg", i), Data: data}
	}
	if err := writeArtifacts(dir, arts); err != nil {
		t.Fatal(err)
	}
	if problems, err := VerifyDir(dir); err != nil || len(problems) != 0 {
		t.Fatalf("warm-up verify: problems %v, err %v", problems, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	problems, err := VerifyDir(dir)
	runtime.ReadMemStats(&after)
	if err != nil || len(problems) != 0 {
		t.Fatalf("verify: problems %v, err %v", problems, err)
	}
	perFile := (after.TotalAlloc - before.TotalAlloc) / uint64(len(arts))
	if perFile >= 8<<10 {
		t.Errorf("VerifyDir allocated %d bytes per file, want under 8 KiB", perFile)
	}
	t.Logf("VerifyDir allocated %d bytes per file", perFile)
}
