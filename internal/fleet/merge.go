// The merge: collate every completed cell's summary into one
// cross-scenario comparison corpus. The merge is a deterministic function
// of the set of completed cells — inputs are read in sorted cell-ID order,
// summaries carry no timestamps or attempt counts — so a resumed run's
// merged output is byte-identical to an uninterrupted run's, which the
// chaos suite checks byte-for-byte. The corpus lands through
// report.WriteArtifacts: atomic files under a manifest, so pbslabd can
// serve the merged directory like any other verified artifact set.

package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"github.com/ethpbs/pbslab/internal/dsio"
	"github.com/ethpbs/pbslab/internal/report"
)

// Merged corpus artifact names.
const (
	// FleetFileName is the machine-readable corpus: grid identity, one
	// summary per completed cell, and the quarantine ledger.
	FleetFileName = "fleet.json"
	// FleetCSVName is the flat per-cell comparison table.
	FleetCSVName = "fleet_summary.csv"
)

// FleetCorpus is the merged cross-scenario comparison corpus.
type FleetCorpus struct {
	GridName    string            `json:"grid_name"`
	Fingerprint string            `json:"fingerprint"`
	Cells       []CellSummary     `json:"cells"`
	Quarantined []QuarantinedCell `json:"quarantined,omitempty"`
}

// merge rebuilds the merged corpus from the published cell directories.
func (c *Coordinator) merge() (string, error) {
	corpus := FleetCorpus{GridName: c.grid.Name, Fingerprint: c.grid.Fingerprint()}
	var segments []report.Artifact
	for _, cr := range c.cells {
		switch cr.status {
		case StatusCompleted:
			cellDir := filepath.Join(c.runDir, CellsDirName, cr.cell.ID)
			sum, err := readCellSummary(cellDir)
			if err != nil {
				return "", fmt.Errorf("fleet: merge cell %s: %w", cr.cell.ID, err)
			}
			corpus.Cells = append(corpus.Cells, *sum)
			if cr.cell.DumpDataset {
				segs, err := readCellSegments(cellDir, cr.cell.ID)
				if err != nil {
					return "", fmt.Errorf("fleet: merge cell %s: %w", cr.cell.ID, err)
				}
				segments = append(segments, segs...)
			}
		case StatusQuarantined:
			corpus.Quarantined = append(corpus.Quarantined, QuarantinedCell{
				ID: cr.cell.ID, Cause: cr.cause, StderrTail: cr.tail,
			})
		}
	}
	mergedDir := filepath.Join(c.runDir, MergedDirName)
	if err := WriteCorpus(mergedDir, &corpus, segments...); err != nil {
		return "", err
	}
	fmt.Fprintf(c.opts.Log, "fleet: merged %d cell(s) (%d quarantined) into %s\n",
		len(corpus.Cells), len(corpus.Quarantined), mergedDir)
	return mergedDir, nil
}

func readCellSummary(cellDir string) (*CellSummary, error) {
	data, err := os.ReadFile(filepath.Join(cellDir, SummaryName))
	if err != nil {
		return nil, err
	}
	sum := &CellSummary{}
	if err := json.Unmarshal(data, sum); err != nil {
		return nil, err
	}
	return sum, nil
}

// readCellSegments re-reads a completed cell's chunked corpus files —
// verified against the cell manifest's digests, so a cell directory that
// rotted between acceptance and merge is caught here — and renames them
// under datasets/CELL-ID/ for the merged tree. The cell manifest lists
// names sorted, so the emitted order is deterministic.
func readCellSegments(cellDir, cellID string) ([]report.Artifact, error) {
	m, err := report.ReadManifest(cellDir)
	if err != nil {
		return nil, err
	}
	var out []report.Artifact
	for _, e := range m.Artifacts {
		if !strings.HasPrefix(e.Name, dsio.DirName+"/") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(cellDir, filepath.FromSlash(e.Name)))
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != e.SHA256 {
			return nil, fmt.Errorf("segment %s changed since the cell was accepted", e.Name)
		}
		out = append(out, report.Artifact{Name: "datasets/" + cellID + "/" + e.Name, Data: data})
	}
	return out, nil
}

// WriteCorpus lands the merged corpus in dir under a manifest, replacing
// any previous merge: the summary artifacts plus any extra files (cell
// corpus segments re-emitted by the merge). Cells and quarantine entries
// are sorted by ID first, so the bytes depend only on the set, not on
// completion order.
func WriteCorpus(dir string, corpus *FleetCorpus, extra ...report.Artifact) error {
	sort.Slice(corpus.Cells, func(i, j int) bool {
		return corpus.Cells[i].Cell.ID < corpus.Cells[j].Cell.ID
	})
	sort.Slice(corpus.Quarantined, func(i, j int) bool {
		return corpus.Quarantined[i].ID < corpus.Quarantined[j].ID
	})
	jsonData, err := jsonMarshalIndent(corpus)
	if err != nil {
		return err
	}
	// Replace rather than layer: a stale artifact from a previous merge of
	// a different cell set must not survive under the new manifest.
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	arts := []report.Artifact{
		{Name: FleetFileName, Data: jsonData},
		{Name: FleetCSVName, Data: corpusCSV(corpus)},
	}
	return report.WriteArtifacts(dir, append(arts, extra...))
}

// corpusCSV renders the flat comparison table: one row per completed cell.
// An undefined metric leaves its cell empty.
func corpusCSV(corpus *FleetCorpus) []byte {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "cell,seed,days,private_flow,small_builders,ofac_lag,relay_outages,epbs,blocks,pbs_share,relay_hhi,builder_hhi,censoring_share,private_share_pbs,delivered_share,epbs_delivered_share")
	for _, s := range corpus.Cells {
		c, m := s.Cell, &s.Metrics
		metric := func(name string, v float64) string {
			if slices.Contains(m.Undefined, name) {
				return ""
			}
			return fmt.Sprintf("%.6f", v)
		}
		fmt.Fprintf(&buf, "%s,%d,%d,%v,%d,%s,%s,%t,%d,%s,%s,%s,%s,%s,%s,%s\n",
			c.ID, c.Seed, s.Days, c.PrivateFlow, c.SmallBuilders,
			csvQuote(c.OFACLag), csvQuote(c.RelayOutages), c.EPBS, s.Blocks,
			metric("pbs_share", m.PBSShare), metric("relay_hhi", m.RelayHHI),
			metric("builder_hhi", m.BuilderHHI), metric("censoring_share", m.CensoringShare),
			metric("private_share_pbs", m.PrivateSharePBS),
			metric("delivered_share", m.DeliveredShare),
			metric("epbs_delivered_share", m.EPBSDeliveredShare))
	}
	return buf.Bytes()
}

func csvQuote(s string) string {
	if s == "" {
		return ""
	}
	return `"` + s + `"`
}
