// The chunked dataset layout: the corpus is split into a common section
// (everything but the blocks), one segment per simulated day, and a JSON
// segment index that covers every segment with its size and SHA-256
// digest. Writers emit days in order and publish the index last (the same
// manifest-last rule the report writer follows), so a torn write can never
// leave an index pointing at bytes that were not fully published. Readers
// open one day at a time, which is what keeps the analysis build
// bounded-memory at 10×–100× corpus scale.
package dsio

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/ethpbs/pbslab/internal/atomicio"
	"github.com/ethpbs/pbslab/internal/dataset"
	"github.com/ethpbs/pbslab/internal/types"
)

// Chunked-layout names, slash-relative to the output directory so they
// double as manifest artifact names.
const (
	// DirName is the subdirectory holding every chunk of the corpus.
	DirName = "dataset"
	// IndexName is the segment index, written last.
	IndexName = DirName + "/index.json"
	// CommonName is the blocks-free common section every reader loads.
	CommonName = DirName + "/common.seg"
)

// segmentVersion gates the chunked on-disk format; bump on any change to
// the DTOs so stale files are rejected rather than misdecoded.
const segmentVersion = 1

// SegmentName returns the file name of day i's block segment.
func SegmentName(day int) string {
	return fmt.Sprintf("%s/day-%06d.seg", DirName, day)
}

// Segment describes one day's block file in the index.
type Segment struct {
	Name   string `json:"name"`
	Day    int    `json:"day"`
	Blocks int    `json:"blocks"`
	Size   int64  `json:"size"`
	SHA256 string `json:"sha256"`
}

// IndexFile describes the common section in the index.
type IndexFile struct {
	Name   string `json:"name"`
	Size   int64  `json:"size"`
	SHA256 string `json:"sha256"`
}

// SegmentIndex is the versioned envelope of the chunked layout. Segments
// are sorted by day and contiguous from day 0 — exactly one per day of the
// [Start, End] window, empty days included — so OpenDay(i) is an index
// lookup, not a search.
type SegmentIndex struct {
	Version    int       `json:"version"`
	Start      time.Time `json:"start"`
	End        time.Time `json:"end"`
	Common     IndexFile `json:"common"`
	Segments   []Segment `json:"segments"`
	TotalTxs   int       `json:"total_txs"`
	TotalBlcks int       `json:"total_blocks"`
}

// File is one chunk rendered to bytes, named like its on-disk path.
type File struct {
	Name string
	Data []byte
}

// segCommon and segDay are the gob envelopes of the two segment kinds.
type segCommon struct {
	Version int
	Common  commonDTO
}

type segDay struct {
	Version int
	Day     int
	Blocks  []blockDTO
}

// Writer streams a chunked corpus out day by day, holding only the open
// day in memory. Call WriteCommon once, WriteDay for each day in order
// (day 0 first, empty days included), then Close to publish the index;
// Close fails if the day segments do not cover the window exactly.
type Writer struct {
	put    func(name string, data []byte) error
	idx    SegmentIndex
	common bool
	closed bool
}

// NewWriter returns a disk-backed Writer rooted at dir: chunks land under
// dir/dataset/, each written atomically.
func NewWriter(dir string) (*Writer, error) {
	if err := os.MkdirAll(filepath.Join(dir, DirName), 0o755); err != nil {
		return nil, fmt.Errorf("dsio: create segment dir: %w", err)
	}
	return &Writer{put: func(name string, data []byte) error {
		return atomicio.WriteFile(filepath.Join(dir, filepath.FromSlash(name)), data, 0o644)
	}}, nil
}

// newMemWriter collects chunks into files instead of writing them, so
// EncodeChunked and NewWriter produce byte-identical segments.
func newMemWriter(files *[]File) *Writer {
	return &Writer{put: func(name string, data []byte) error {
		*files = append(*files, File{Name: name, Data: data})
		return nil
	}}
}

// WriteCommon publishes the blocks-free common section (ds.Blocks is
// ignored) and anchors the index window at ds.Start/ds.End.
func (w *Writer) WriteCommon(ds *dataset.Dataset, labels map[types.Address]string) error {
	if w.common {
		return fmt.Errorf("dsio: common section written twice")
	}
	var buf bytes.Buffer
	env := segCommon{Version: segmentVersion, Common: toCommonDTO(ds, labels)}
	if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
		return fmt.Errorf("dsio: encode common: %w", err)
	}
	data := buf.Bytes()
	if err := w.put(CommonName, data); err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	w.idx.Start, w.idx.End = ds.Start, ds.End
	w.idx.Common = IndexFile{Name: CommonName, Size: int64(len(data)), SHA256: hex.EncodeToString(sum[:])}
	w.common = true
	return nil
}

// WriteDay publishes the next day's blocks (the first call writes day 0).
// An empty day still gets a segment, so every day of the window resolves
// to exactly one file.
func (w *Writer) WriteDay(blocks []*dataset.Block) error {
	day := len(w.idx.Segments)
	env := segDay{Version: segmentVersion, Day: day, Blocks: make([]blockDTO, len(blocks))}
	txs := 0
	for i, b := range blocks {
		env.Blocks[i] = blockToDTO(b)
		txs += len(b.Txs)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
		return fmt.Errorf("dsio: encode day %d: %w", day, err)
	}
	data := buf.Bytes()
	name := SegmentName(day)
	if err := w.put(name, data); err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	w.idx.Segments = append(w.idx.Segments, Segment{
		Name: name, Day: day, Blocks: len(blocks),
		Size: int64(len(data)), SHA256: hex.EncodeToString(sum[:]),
	})
	w.idx.TotalBlcks += len(blocks)
	w.idx.TotalTxs += txs
	return nil
}

// Close publishes the segment index. It is the commit point: before Close
// the directory holds segments no index references (readers ignore them;
// verification calls them stale).
func (w *Writer) Close() error {
	if w.closed {
		return fmt.Errorf("dsio: writer closed twice")
	}
	if !w.common {
		return fmt.Errorf("dsio: common section never written")
	}
	want := (&dataset.Dataset{Start: w.idx.Start, End: w.idx.End}).Days()
	if len(w.idx.Segments) != want {
		return fmt.Errorf("dsio: %d day segments written, window covers %d days", len(w.idx.Segments), want)
	}
	w.idx.Version = segmentVersion
	data, err := json.MarshalIndent(&w.idx, "", "  ")
	if err != nil {
		return fmt.Errorf("dsio: encode index: %w", err)
	}
	data = append(data, '\n')
	if err := w.put(IndexName, data); err != nil {
		return err
	}
	w.closed = true
	return nil
}

// WriteDays streams ds into a chunked corpus rooted at dir: common section
// first, then one segment per day in order, then the index. Blocks must be
// in chain order (they are, as the collector hands them over).
func WriteDays(dir string, ds *dataset.Dataset, labels map[types.Address]string) error {
	w, err := NewWriter(dir)
	if err != nil {
		return err
	}
	return writeAllDays(w, ds, labels)
}

// EncodeChunked renders the chunked corpus to in-memory files (for the
// artifact pipeline, where chunks ship under the directory manifest). The
// bytes are identical to what WriteDays puts on disk.
func EncodeChunked(ds *dataset.Dataset, labels map[types.Address]string) ([]File, error) {
	var files []File
	if err := writeAllDays(newMemWriter(&files), ds, labels); err != nil {
		return nil, err
	}
	return files, nil
}

func writeAllDays(w *Writer, ds *dataset.Dataset, labels map[types.Address]string) error {
	if err := w.WriteCommon(ds, labels); err != nil {
		return err
	}
	days := ds.Days()
	byDay := make([][]*dataset.Block, days)
	for _, b := range ds.Blocks {
		d := ds.BlockDay(b)
		if d < 0 || d >= days {
			return fmt.Errorf("dsio: block %d at %s outside the %d-day window", b.Number, b.Time, days)
		}
		byDay[d] = append(byDay[d], b)
	}
	for day := 0; day < days; day++ {
		if err := w.WriteDay(byDay[day]); err != nil {
			return err
		}
	}
	return w.Close()
}

// Reader opens a chunked corpus for streamed access: the index and common
// section are loaded (and digest-verified) up front, day segments on
// demand. It implements core.DaySource.
type Reader struct {
	dir    string
	idx    SegmentIndex
	common *dataset.Dataset
	labels map[types.Address]string
}

// Open reads and verifies dir's segment index and common section. Day
// segments are not touched — each is read and verified by OpenDay.
func Open(dir string) (*Reader, error) {
	raw, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(IndexName)))
	if err != nil {
		return nil, fmt.Errorf("dsio: read segment index: %w", err)
	}
	var idx SegmentIndex
	if err := json.Unmarshal(raw, &idx); err != nil {
		return nil, fmt.Errorf("dsio: parse segment index: %w", err)
	}
	if idx.Version != segmentVersion {
		return nil, fmt.Errorf("dsio: segment index version %d, want %d", idx.Version, segmentVersion)
	}
	for i, seg := range idx.Segments {
		if seg.Day != i {
			return nil, fmt.Errorf("dsio: segment index not contiguous: entry %d is day %d", i, seg.Day)
		}
	}
	if want := (&dataset.Dataset{Start: idx.Start, End: idx.End}).Days(); len(idx.Segments) != want {
		return nil, fmt.Errorf("dsio: segment index lists %d days, window covers %d", len(idx.Segments), want)
	}
	r := &Reader{dir: dir, idx: idx}
	data, err := r.readVerified(idx.Common.Name, idx.Common.Size, idx.Common.SHA256)
	if err != nil {
		return nil, err
	}
	var env segCommon
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		return nil, fmt.Errorf("dsio: decode common: %w", err)
	}
	if env.Version != segmentVersion {
		return nil, fmt.Errorf("dsio: common segment version %d, want %d", env.Version, segmentVersion)
	}
	r.common, r.labels = env.Common.dataset()
	return r, nil
}

// readVerified reads one chunk and checks it against its index entry, so a
// torn or tampered segment is an error at open time, not a wrong answer.
func (r *Reader) readVerified(name string, size int64, wantSum string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(r.dir, filepath.FromSlash(name)))
	if err != nil {
		return nil, fmt.Errorf("dsio: read %s: %w", name, err)
	}
	if int64(len(data)) != size {
		return nil, fmt.Errorf("dsio: %s: %d bytes, index says %d (torn write?)", name, len(data), size)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != wantSum {
		return nil, fmt.Errorf("dsio: %s: content digest %s does not match index %s", name, got, wantSum)
	}
	return data, nil
}

// Index returns a copy of the segment index.
func (r *Reader) Index() SegmentIndex {
	idx := r.idx
	idx.Segments = append([]Segment(nil), r.idx.Segments...)
	return idx
}

// Days returns the number of day segments.
func (r *Reader) Days() int { return len(r.idx.Segments) }

// Common returns the blocks-free corpus shell (ds.Blocks is nil) and the
// builder labels. Callers share the returned dataset; they must not
// mutate it.
func (r *Reader) Common() (*dataset.Dataset, map[types.Address]string, error) {
	return r.common, r.labels, nil
}

// OpenDay reads, verifies and decodes day i's blocks. Transaction hashes
// are recomputed, never read from disk.
func (r *Reader) OpenDay(day int) ([]*dataset.Block, error) {
	if day < 0 || day >= len(r.idx.Segments) {
		return nil, fmt.Errorf("dsio: day %d out of range [0, %d)", day, len(r.idx.Segments))
	}
	seg := r.idx.Segments[day]
	data, err := r.readVerified(seg.Name, seg.Size, seg.SHA256)
	if err != nil {
		return nil, err
	}
	var env segDay
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		return nil, fmt.Errorf("dsio: decode %s: %w", seg.Name, err)
	}
	if env.Version != segmentVersion {
		return nil, fmt.Errorf("dsio: %s: segment version %d, want %d", seg.Name, env.Version, segmentVersion)
	}
	if env.Day != day {
		return nil, fmt.Errorf("dsio: %s: holds day %d, index says %d", seg.Name, env.Day, day)
	}
	blocks := make([]*dataset.Block, len(env.Blocks))
	for i, d := range env.Blocks {
		blocks[i] = d.block()
	}
	return blocks, nil
}

// ReadAll rehydrates the whole corpus into memory, for callers that need a
// complete dataset.Dataset. Out-of-core consumers should stream with
// Common/OpenDay instead.
func (r *Reader) ReadAll() (*dataset.Dataset, map[types.Address]string, error) {
	// Assemble a fresh Dataset (sharing the common section's maps and
	// slices) so the Reader's shell stays blocks-free. Dataset embeds a
	// sync.Once, so a struct copy is off the table.
	full := &dataset.Dataset{
		Start:       r.common.Start,
		End:         r.common.End,
		MEVLabels:   r.common.MEVLabels,
		MEVBySource: r.common.MEVBySource,
		Arrivals:    r.common.Arrivals,
		Relays:      r.common.Relays,
		Sanctions:   r.common.Sanctions,
	}
	for day := 0; day < r.Days(); day++ {
		blocks, err := r.OpenDay(day)
		if err != nil {
			return nil, nil, err
		}
		full.Blocks = append(full.Blocks, blocks...)
	}
	return full, r.labels, nil
}

// CheckDir eagerly verifies any chunked corpus under dir: the index
// decodes, and the common section plus every day segment match their
// recorded sizes and digests. A directory without a segment index passes
// trivially. The fleet coordinator runs this before accepting a
// dataset-dumping cell, so a segment torn in transit is rejected at
// acceptance instead of failing an analysis weeks later.
func CheckDir(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(IndexName))); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("dsio: check %s: %w", dir, err)
	}
	r, err := Open(dir)
	if err != nil {
		return err
	}
	for day := 0; day < r.Days(); day++ {
		if _, err := r.OpenDay(day); err != nil {
			return err
		}
	}
	return nil
}
