package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/ethpbs/pbslab/internal/core"
	"github.com/ethpbs/pbslab/internal/dataset"
	"github.com/ethpbs/pbslab/internal/dsio"
	"github.com/ethpbs/pbslab/internal/report"
)

// Snapshot is one immutable, fully verified serving state: the artifact
// bytes of a manifest-covered output directory, plus (when the directory
// carries a chunked corpus) the analysis streamed from it. All fields are
// read-only after Load; the server swaps whole snapshots atomically and
// never mutates one in place.
type Snapshot struct {
	// Dir is the directory this snapshot was loaded from.
	Dir string
	// Manifest is the directory's artifact inventory.
	Manifest report.Manifest
	// ManifestSum is the SHA-256 of the manifest file's bytes; the reload
	// poller uses it as the directory's change fingerprint.
	ManifestSum string
	// Generation is assigned by the Store at swap time; 1 is the first
	// snapshot ever served.
	Generation uint64

	files map[string][]byte
	// lazy lists manifest-covered files served from disk on demand rather
	// than held in memory: the chunked corpus segments, which at 10×–100×
	// scale would dwarf the artifacts proper. Each lazy read re-verifies
	// the manifest digest, so a torn file turns into a miss, never wrong
	// bytes on the wire. (The response cache amortizes that re-check to
	// once per snapshot entry: a cached segment is verified at fill time
	// and served from memory until evicted or the snapshot swaps.)
	lazy map[string]report.ManifestEntry

	// entries indexes every manifest entry (in-memory and lazy alike) by
	// name, so per-request artifact lookups never scan the manifest.
	entries map[string]report.ManifestEntry
	// names is the sorted artifact inventory, built once at load time;
	// listing endpoints serve it without re-sorting per request.
	names []string
	// figureItems is the precomputed figure listing (empty without a
	// dataset), again built once instead of per request.
	figureItems []figureItem

	// Analysis is non-nil when the directory contained a chunked dataset/
	// corpus: the per-day index queries answer from it. Artifact-only
	// directories still serve downloads but report HasDataset=false in
	// /api/v1/meta.
	Analysis *core.Analysis
	// Counts is the corpus Table 1 inventory (zero when no dataset).
	Counts dataset.Counts
}

// HasDataset reports whether per-day index queries are available.
func (s *Snapshot) HasDataset() bool { return s.Analysis != nil }

// Artifact returns one artifact's bytes and manifest entry. Corpus
// segments are read from disk lazily, verified against the manifest on
// every request; a file that no longer matches is reported absent rather
// than served wrong.
func (s *Snapshot) Artifact(name string) ([]byte, report.ManifestEntry, bool) {
	if data, ok := s.files[name]; ok {
		if e, ok := s.entries[name]; ok {
			return data, e, true
		}
		return nil, report.ManifestEntry{}, false
	}
	e, ok := s.lazy[name]
	if !ok {
		return nil, report.ManifestEntry{}, false
	}
	data, err := os.ReadFile(filepath.Join(s.Dir, filepath.FromSlash(name)))
	if err != nil || int64(len(data)) != e.Size {
		return nil, report.ManifestEntry{}, false
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != e.SHA256 {
		return nil, report.ManifestEntry{}, false
	}
	return data, e, true
}

// Names lists the snapshot's artifact names, sorted (lazily served corpus
// segments included). The list is precomputed at load; the returned slice
// is a copy the caller may keep or mutate.
func (s *Snapshot) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Entry returns one artifact's manifest entry without touching its bytes —
// the existence check the cache layer runs before committing to a fill.
func (s *Snapshot) Entry(name string) (report.ManifestEntry, bool) {
	e, ok := s.entries[name]
	return e, ok
}

// blobName is the single-file corpus format earlier pbslab releases wrote
// beside the figures; Load refuses a directory that still ships it.
const blobName = "dataset.gob"

// LoadOptions tunes snapshot loading.
type LoadOptions struct {
	// Workers bounds the analysis worker pool (0 = all CPUs).
	Workers int
}

// Load builds a Snapshot from an output directory, rejecting anything that
// is not provably intact. The gate has three rungs:
//
//  1. report.VerifyDir — the manifest must exist and every listed file
//     must match its recorded size and SHA-256, with no stale debris
//     (chunked corpus segments under dataset/ included).
//  2. Re-hash on read — each artifact is hashed again as it is read into
//     memory, so a writer racing the load cannot slip a torn file past
//     the verification that just passed. Corpus segments are not slurped:
//     they stay on disk, re-verified lazily per request.
//  3. core.ValidateStream — when the directory ships its chunked dataset/
//     corpus, every dataset invariant must hold before an analysis is
//     built. Validation and the analysis build both stream, holding one
//     day of blocks at a time.
//
// A directory that still ships the retired single-blob dataset.gob is
// refused outright, rather than served without index queries. ctx is
// checked before rung 1 and again before rung 3: a load whose caller has
// already gone hashes nothing, and one whose caller leaves during
// verification decodes no day segment. Any failure returns an error and no snapshot; the caller keeps serving
// whatever it served before.
func Load(ctx context.Context, dir string, opts LoadOptions) (*Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("serve: load %s: %w", dir, err)
	}
	problems, err := report.VerifyDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: verify %s: %w", dir, err)
	}
	if len(problems) > 0 {
		max := 5
		if len(problems) < max {
			max = len(problems)
		}
		var b strings.Builder
		for i := 0; i < max; i++ {
			if i > 0 {
				b.WriteString("; ")
			}
			b.WriteString(problems[i].String())
		}
		return nil, fmt.Errorf("serve: %s failed verification with %d problem(s): %s", dir, len(problems), b.String())
	}

	manifestBytes, err := os.ReadFile(filepath.Join(dir, report.ManifestName))
	if err != nil {
		return nil, fmt.Errorf("serve: read manifest: %w", err)
	}
	sum := sha256.Sum256(manifestBytes)
	m, err := report.ReadManifest(dir)
	if err != nil {
		return nil, err
	}

	snap := &Snapshot{
		Dir:         dir,
		Manifest:    m,
		ManifestSum: hex.EncodeToString(sum[:]),
		files:       make(map[string][]byte, len(m.Artifacts)),
		lazy:        map[string]report.ManifestEntry{},
		entries:     make(map[string]report.ManifestEntry, len(m.Artifacts)),
	}
	for _, e := range m.Artifacts {
		snap.entries[e.Name] = e
	}
	if _, ok := snap.entries[blobName]; ok {
		return nil, fmt.Errorf("serve: %s ships the retired %s corpus; re-run pbslab -dump-dataset to write the chunked %s/ layout",
			dir, blobName, dsio.DirName)
	}
	for _, e := range m.Artifacts {
		if strings.HasPrefix(e.Name, dsio.DirName+"/") {
			// Chunked corpus segments: verified already (rung 1), kept on
			// disk and re-verified per request instead of held in memory.
			snap.lazy[e.Name] = e
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name))
		if err != nil {
			return nil, fmt.Errorf("serve: read artifact %s: %w", e.Name, err)
		}
		got := sha256.Sum256(data)
		if hex.EncodeToString(got[:]) != e.SHA256 {
			return nil, fmt.Errorf("serve: artifact %s changed between verification and read (torn writer?)", e.Name)
		}
		snap.files[e.Name] = data
	}

	copts := []core.Option{}
	if opts.Workers > 0 {
		copts = append(copts, core.WithWorkers(opts.Workers))
	}
	if _, ok := snap.lazy[dsio.IndexName]; ok {
		// Stream the validation and the analysis build so the daemon's
		// resident set stays bounded by one day of blocks.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("serve: load %s: %w", dir, err)
		}
		r, err := dsio.Open(dir)
		if err != nil {
			return nil, fmt.Errorf("serve: open chunked corpus: %w", err)
		}
		rep, err := core.ValidateStream(r)
		if err != nil {
			return nil, fmt.Errorf("serve: validate chunked corpus: %w", err)
		}
		if !rep.OK() {
			return nil, fmt.Errorf("serve: %s: dataset fails validation: %d violation(s), first: %s",
				dir, len(rep.Violations), rep.Violations[0])
		}
		a, err := core.NewStreaming(ctx, r, copts...)
		if err != nil {
			return nil, fmt.Errorf("serve: build analysis: %w", err)
		}
		snap.Analysis = a
		snap.Counts = a.Counts()
	}

	// Precompute the listings the list endpoints serve: building them once
	// here means a request for them is a cache fill at worst, never a
	// re-sort.
	snap.names = make([]string, 0, len(snap.entries))
	for name := range snap.entries {
		snap.names = append(snap.names, name)
	}
	sort.Strings(snap.names)
	if snap.HasDataset() {
		snap.figureItems = make([]figureItem, len(core.DayFigures))
		for i, f := range core.DayFigures {
			snap.figureItems[i] = figureItem{Key: f.Key, Title: f.Title}
		}
	} else {
		snap.figureItems = []figureItem{}
	}
	return snap, nil
}
