// The worker side of the fleet: one subprocess per cell attempt. The
// coordinator execs the same binary with the cell spec in the environment;
// MaybeWorker intercepts that mode before any CLI parsing. The worker
// simulates the cell's scenario (checkpointed, so a retried attempt resumes
// mid-simulation instead of starting over), analyses it, and lands the full
// artifact set plus a machine-readable summary under one manifest. It
// heartbeats over stdout; a worker that stops heartbeating — wedged, killed,
// or unplugged — is reclaimed by the coordinator's lease deadline.

package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/ethpbs/pbslab/internal/core"
	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/dsio"
	"github.com/ethpbs/pbslab/internal/epbs"
	"github.com/ethpbs/pbslab/internal/faults"
	"github.com/ethpbs/pbslab/internal/report"
	"github.com/ethpbs/pbslab/internal/sim"
	"github.com/ethpbs/pbslab/internal/types"
)

// Worker environment protocol: the coordinator execs its own binary with
// these set; MaybeWorker detects them and takes over the process.
const (
	// EnvCellFile points at the cell-spec JSON; its presence selects
	// worker mode.
	EnvCellFile = "PBSFLEET_WORKER_CELL"
	// EnvOutDir is the scratch artifact directory for this attempt.
	EnvOutDir = "PBSFLEET_WORKER_OUT"
	// EnvCheckpointDir is the cell's persistent checkpoint directory.
	EnvCheckpointDir = "PBSFLEET_WORKER_CHECKPOINTS"
	// EnvAttempt is the 1-based attempt number.
	EnvAttempt = "PBSFLEET_WORKER_ATTEMPT"
	// EnvHeartbeat is the heartbeat period (a Go duration).
	EnvHeartbeat = "PBSFLEET_WORKER_HEARTBEAT"
)

// heartbeatLine is what workers print on stdout per heartbeat.
const heartbeatLine = "hb"

// SummaryName is the per-cell machine-readable summary artifact, covered
// by the cell's manifest like every figure.
const SummaryName = "summary.json"

// CellSummary is the per-cell record the merge collates into the
// cross-scenario corpus. Every field is a deterministic function of the
// cell spec — no timestamps, no attempt counts — so the merged corpus is
// byte-identical however many times cells were retried or the run resumed.
type CellSummary struct {
	Cell    Cell `json:"cell"`
	Blocks  int  `json:"blocks"`
	Days    int  `json:"days"`
	Metrics struct {
		PBSShare           float64 `json:"pbs_share"`
		RelayHHI           float64 `json:"relay_hhi"`
		BuilderHHI         float64 `json:"builder_hhi"`
		CensoringShare     float64 `json:"censoring_share"`
		PrivateSharePBS    float64 `json:"private_share_pbs"`
		DeliveredShare     float64 `json:"delivered_share"`
		EPBSDeliveredShare float64 `json:"epbs_delivered_share,omitempty"`
		// Undefined names, by JSON key, the metrics the cell's window
		// cannot define (no relay-delivered block leaves relay HHI
		// without a sample). They read 0 here and stay empty in the CSV.
		Undefined []string `json:"undefined,omitempty"`
	} `json:"metrics"`
}

// MaybeWorker checks whether this process was launched as a fleet worker
// and, if so, runs the cell and exits: it never returns in worker mode.
// Both cmd/pbsfleet and the fleet test binary call it first thing.
func MaybeWorker() {
	cellFile := os.Getenv(EnvCellFile)
	if cellFile == "" {
		return
	}
	err := RunWorker(context.Background(), WorkerSpec{
		CellFile:      cellFile,
		OutDir:        os.Getenv(EnvOutDir),
		CheckpointDir: os.Getenv(EnvCheckpointDir),
		Attempt:       atoiDefault(os.Getenv(EnvAttempt), 1),
		Heartbeat:     durationDefault(os.Getenv(EnvHeartbeat), time.Second),
	}, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbsfleet worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func atoiDefault(s string, def int) int {
	if n, err := strconv.Atoi(s); err == nil && n > 0 {
		return n
	}
	return def
}

func durationDefault(s string, def time.Duration) time.Duration {
	if d, err := time.ParseDuration(s); err == nil && d > 0 {
		return d
	}
	return def
}

// WorkerSpec is everything one attempt needs.
type WorkerSpec struct {
	CellFile      string
	OutDir        string
	CheckpointDir string
	Attempt       int
	Heartbeat     time.Duration
}

// RunWorker executes one cell attempt: simulate (resuming from the cell's
// checkpoint when one exists), analyze, write artifacts + summary under a
// manifest into OutDir. Heartbeats go to hb. Process-level fault injection
// (faults.ProcEnv) is honoured here: kill exits abruptly mid-simulation,
// wedge silences the heartbeat and blocks forever, corrupt-output damages
// one finished artifact so only the coordinator's manifest check can tell.
func RunWorker(ctx context.Context, spec WorkerSpec, hb io.Writer) error {
	if spec.OutDir == "" {
		return fmt.Errorf("fleet: worker: no output directory")
	}
	data, err := os.ReadFile(spec.CellFile)
	if err != nil {
		return fmt.Errorf("fleet: worker: read cell: %w", err)
	}
	var cell Cell
	if err := json.Unmarshal(data, &cell); err != nil {
		return fmt.Errorf("fleet: worker: parse cell: %w", err)
	}
	sc, err := cell.Scenario()
	if err != nil {
		return err
	}
	fault, err := faults.ProcFromEnv()
	if err != nil {
		return err
	}
	injecting := fault.Active(spec.Attempt)

	// Heartbeat pump: time-based so long days still beat, stopped by the
	// wedge fault so a wedged worker goes silent exactly like a real hang.
	stopHB := make(chan struct{})
	var stopOnce sync.Once
	silence := func() { stopOnce.Do(func() { close(stopHB) }) }
	defer silence()
	go func() {
		tick := time.NewTicker(spec.Heartbeat)
		defer tick.Stop()
		for {
			select {
			case <-stopHB:
				return
			case <-tick.C:
				fmt.Fprintln(hb, heartbeatLine)
			}
		}
	}()

	slots := 0
	onSlot := func(slot uint64) {
		slots++
		if !injecting {
			return
		}
		if fault.KillAfterSlots > 0 && slots >= fault.KillAfterSlots {
			// A SIGKILL-style death: no cleanup, no checkpoint flush.
			os.Exit(137)
		}
		if fault.WedgeAfterSlots > 0 && slots >= fault.WedgeAfterSlots {
			// Hang without exiting: heartbeats stop, the process stays.
			silence()
			select {}
		}
		if fault.SlowMSPerSlot > 0 {
			// A straggler: alive, correct, heartbeating — just slow.
			time.Sleep(time.Duration(fault.SlowMSPerSlot) * time.Millisecond)
		}
	}

	// One slot-engine worker per cell: the fleet already runs cells in
	// parallel, one per worker process.
	res, err := sim.RunOpts(ctx, sc, sim.RunOptions{
		CheckpointDir: spec.CheckpointDir,
		Resume:        spec.CheckpointDir != "",
		Workers:       1,
		OnSlot:        onSlot,
	})
	if err != nil {
		return fmt.Errorf("fleet: worker: cell %s: %w", cell.ID, err)
	}
	a, err := core.NewWithContext(ctx, res.Dataset,
		core.WithBuilderLabels(res.World.BuilderLabels()))
	if err != nil {
		return fmt.Errorf("fleet: worker: cell %s: analyze: %w", cell.ID, err)
	}
	summary := summarize(cell, a)
	sumData, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: worker: cell %s: summary: %w", cell.ID, err)
	}
	sumData = append(sumData, '\n')
	extra := []report.Artifact{{Name: SummaryName, Data: sumData}}
	if cell.DumpDataset {
		// Chunked per-day segments under the same manifest as the figures:
		// the merge re-emits them into the merged tree, and any consumer
		// can stream the cell's corpus one day at a time.
		files, err := dsio.EncodeChunked(res.Dataset, res.World.BuilderLabels())
		if err != nil {
			return fmt.Errorf("fleet: worker: cell %s: encode dataset: %w", cell.ID, err)
		}
		for _, f := range files {
			extra = append(extra, report.Artifact{Name: f.Name, Data: f.Data})
		}
	}
	if err := report.WriteAllExtraContext(ctx, a, spec.OutDir, extra...); err != nil {
		return fmt.Errorf("fleet: worker: cell %s: write: %w", cell.ID, err)
	}
	if injecting && fault.CorruptOutput {
		if err := corruptOneArtifact(spec.OutDir); err != nil {
			return err
		}
	}
	return nil
}

// summarize computes the cell's comparison metrics from the analysis. A
// metric that is not a number (a mean over no samples) is recorded as 0
// and listed in Metrics.Undefined, since JSON cannot carry NaN.
func summarize(cell Cell, a *core.Analysis) *CellSummary {
	s := &CellSummary{Cell: cell}
	s.Blocks = len(a.Blocks())
	_, s.Days = a.Window()
	m := &s.Metrics
	defined := func(name string, v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m.Undefined = append(m.Undefined, name)
			return 0
		}
		return v
	}
	m.PBSShare = defined("pbs_share", a.Figure4PBSShare().MeanValue())
	hhi := a.Figure6HHI()
	m.RelayHHI = defined("relay_hhi", hhi.Relays.MeanValue())
	m.BuilderHHI = defined("builder_hhi", hhi.Builders.MeanValue())
	m.CensoringShare = defined("censoring_share", a.Figure17CensoringShare().MeanValue())
	m.PrivateSharePBS = defined("private_share_pbs", a.Figure14PrivateTxShare().PBS.MeanValue())
	_, total := a.Table4RelayTrust()
	m.DeliveredShare = defined("delivered_share", total.ShareDelivered)
	if cell.EPBS {
		m.EPBSDeliveredShare = defined("epbs_delivered_share", epbsReplay(a))
	}
	return s
}

// epbsReplay settles every relay-delivered promise of the corpus through
// the enshrined-PBS market (internal/epbs): the protocol-enforced
// delivered-value share the paper's concluding discussion contrasts with
// Table 4's relay under-delivery.
func epbsReplay(a *core.Analysis) float64 {
	market := epbs.NewMarket()
	key := crypto.NewKey([]byte("epbs-fleet-builder"))
	market.Deposit(key.Pub(), key.VerificationKey(), types.Ether(1e6))
	var settlements []*epbs.Settlement
	slot := uint64(0)
	for _, st := range a.Blocks() {
		if !st.PBS || len(st.RelayClaims) == 0 {
			continue
		}
		slot++
		c := &epbs.Commitment{
			Slot: slot, BlockHash: st.Block.Hash,
			BuilderPubkey: key.Pub(), Bid: st.Promised,
		}
		c.Sign(key)
		if err := market.Commit(c); err != nil {
			continue
		}
		s, err := market.Settle(c, nil)
		if err != nil {
			continue
		}
		settlements = append(settlements, s)
	}
	_, _, share := epbs.Audit(settlements)
	return share
}

// corruptOneArtifact flips a byte in the alphabetically-first non-manifest
// artifact: clean framing, valid file, wrong bytes — damage only the
// manifest check catches.
func corruptOneArtifact(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || e.Name() == report.ManifestName {
			continue
		}
		names = append(names, e.Name())
	}
	if len(names) == 0 {
		return fmt.Errorf("fleet: corrupt-output: nothing to corrupt in %s", dir)
	}
	sort.Strings(names)
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		data = []byte{0}
	} else {
		data[len(data)/2] ^= 0x40
	}
	return os.WriteFile(path, data, 0o644)
}
