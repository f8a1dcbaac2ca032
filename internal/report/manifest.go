// Artifact durability: every report file is written atomically and
// recorded in a manifest of sizes and SHA-256 digests, so a consumer (or
// `pbslab -verify`) can prove a directory is exactly what some run wrote —
// no torn files, no stale leftovers from an earlier scenario.
package report

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"github.com/ethpbs/pbslab/internal/atomicio"
	"github.com/ethpbs/pbslab/internal/stats"
)

// ErrNoManifest marks a directory with no manifest at all — an empty dir, a
// dir holding only temp debris, or one that predates manifests. Callers can
// classify it (errors.Is) instead of treating it like a read failure: such a
// directory is unverifiable, not provably corrupt.
var ErrNoManifest = errors.New("report: no manifest")

// ManifestName is the manifest file written beside the artifacts.
const ManifestName = "manifest.json"

// ManifestEntry describes one artifact file.
type ManifestEntry struct {
	Name   string `json:"name"`
	Size   int64  `json:"size"`
	SHA256 string `json:"sha256"`
}

// Manifest is the artifact inventory of an output directory. It carries no
// timestamps: the same analysis always produces byte-identical artifacts
// and therefore a byte-identical manifest, which is what lets the
// kill-and-resume golden test compare whole directories.
type Manifest struct {
	Artifacts []ManifestEntry `json:"artifacts"`
}

// buildManifest computes the inventory for a set of artifacts, sorted by
// name for deterministic encoding.
func buildManifest(arts []Artifact) Manifest {
	m := Manifest{Artifacts: make([]ManifestEntry, 0, len(arts))}
	for _, a := range arts {
		sum := sha256.Sum256(a.Data)
		m.Artifacts = append(m.Artifacts, ManifestEntry{
			Name:   a.Name,
			Size:   int64(len(a.Data)),
			SHA256: hex.EncodeToString(sum[:]),
		})
	}
	sort.Slice(m.Artifacts, func(i, j int) bool { return m.Artifacts[i].Name < m.Artifacts[j].Name })
	return m
}

// writeArtifacts lands every artifact and the covering manifest in dir.
// The artifacts go out as one atomicio batch; the manifest goes last, on
// its own, once every artifact directory has been synced: its presence
// certifies durable files. Artifact names may contain slashes (the chunked
// dataset lives under dataset/); parent directories are created as needed.
func writeArtifacts(dir string, arts []Artifact) error {
	files := make([]atomicio.File, len(arts))
	made := map[string]bool{dir: true}
	for i, art := range arts {
		path := filepath.Join(dir, filepath.FromSlash(art.Name))
		if parent := filepath.Dir(path); !made[parent] {
			if err := os.MkdirAll(parent, 0o755); err != nil {
				return fmt.Errorf("report: %s: %w", art.Name, err)
			}
			made[parent] = true
		}
		files[i] = atomicio.File{Path: path, Data: art.Data}
	}
	if err := atomicio.WriteFiles(files, 0o644); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	data, err := json.MarshalIndent(buildManifest(arts), "", "  ")
	if err != nil {
		return fmt.Errorf("report: manifest: %w", err)
	}
	data = append(data, '\n')
	if err := atomicio.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
		return fmt.Errorf("report: manifest: %w", err)
	}
	return nil
}

// ReadManifest loads and decodes dir's manifest.
func ReadManifest(dir string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return m, fmt.Errorf("%w in %s", ErrNoManifest, dir)
		}
		return m, fmt.Errorf("report: read manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("report: parse manifest: %w", err)
	}
	return m, nil
}

// Problem kinds reported by VerifyDir.
const (
	// ProblemMissing: the manifest lists the file but it is absent.
	ProblemMissing = "missing"
	// ProblemCorrupt: the file's size or SHA-256 disagrees with the
	// manifest — a torn write, truncation, or bit rot.
	ProblemCorrupt = "corrupt"
	// ProblemStale: the file sits in the directory but the manifest does
	// not cover it — debris from an interrupted write or an older run.
	ProblemStale = "stale"
)

// Problem is one verification finding.
type Problem struct {
	Name   string
	Kind   string
	Detail string
}

func (p Problem) String() string {
	return fmt.Sprintf("%s: %s (%s)", p.Name, p.Kind, p.Detail)
}

// VerifyDir checks an output directory against its manifest and returns
// every discrepancy: listed-but-missing files, size or checksum mismatches,
// and unlisted (stale) files including temp debris. An empty slice means
// the directory is exactly what the manifest certifies. Listed files are
// checked up to GOMAXPROCS at a time, each hashed as a stream.
func VerifyDir(dir string) ([]Problem, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	found := make([]Problem, len(m.Artifacts))
	stats.ParallelDays(len(m.Artifacts), runtime.GOMAXPROCS(0), func(i int) {
		found[i] = checkEntry(dir, m.Artifacts[i])
	})
	var problems []Problem
	listed := make(map[string]bool, len(m.Artifacts))
	for i, e := range m.Artifacts {
		listed[e.Name] = true
		if found[i].Kind != "" {
			problems = append(problems, found[i])
		}
	}
	// The stale sweep walks subdirectories too: a chunked dataset's
	// segments live under dataset/ with slash-joined manifest names, and a
	// file in a subdirectory is held to exactly the same rules as one at
	// the top level.
	err = filepath.WalkDir(dir, func(path string, ent fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if ent.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		name := filepath.ToSlash(rel)
		if name == ManifestName || listed[name] {
			return nil
		}
		detail := "not covered by manifest"
		if atomicio.IsTemp(ent.Name()) {
			detail = "temp debris from an interrupted write"
		}
		problems = append(problems, Problem{Name: name, Kind: ProblemStale, Detail: detail})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("report: verify: %w", err)
	}
	sort.Slice(problems, func(i, j int) bool {
		if problems[i].Name != problems[j].Name {
			return problems[i].Name < problems[j].Name
		}
		return problems[i].Kind < problems[j].Kind
	})
	return problems, nil
}

// copyBufs holds the read buffers the verify workers hash through.
var copyBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// checkEntry checks one listed file against its manifest entry, hashing it
// as a stream so concurrent checks never hold whole files. It returns the
// zero Problem when the file matches.
func checkEntry(dir string, e ManifestEntry) Problem {
	f, err := os.Open(filepath.Join(dir, filepath.FromSlash(e.Name)))
	if err != nil {
		if os.IsNotExist(err) {
			return Problem{Name: e.Name, Kind: ProblemMissing, Detail: "listed in manifest, not on disk"}
		}
		return Problem{Name: e.Name, Kind: ProblemCorrupt, Detail: err.Error()}
	}
	defer f.Close()
	h := sha256.New()
	n, err := hashFile(h, f)
	if err != nil {
		return Problem{Name: e.Name, Kind: ProblemCorrupt, Detail: err.Error()}
	}
	if n != e.Size {
		return Problem{Name: e.Name, Kind: ProblemCorrupt,
			Detail: fmt.Sprintf("size %d, manifest says %d", n, e.Size)}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != e.SHA256 {
		return Problem{Name: e.Name, Kind: ProblemCorrupt,
			Detail: fmt.Sprintf("sha256 %.12s.., manifest says %.12s..", got, e.SHA256)}
	}
	return Problem{}
}

// hashFile streams f into h through a pooled buffer and returns the bytes
// read. It loops on Read itself: io.Copy would allocate a 32 KiB buffer
// per file (*os.File.WriteTo falls back to it when the destination is a
// hash), most files a corpus holds are smaller than that, and
// io.CopyBuffer would skip the pooled buffer for the same WriteTo.
func hashFile(h hash.Hash, f *os.File) (int64, error) {
	buf := copyBufs.Get().(*[32 << 10]byte)
	defer copyBufs.Put(buf)
	var n int64
	for {
		m, err := f.Read(buf[:])
		h.Write(buf[:m])
		n += int64(m)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}
