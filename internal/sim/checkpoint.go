package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/ethpbs/pbslab/internal/atomicio"
	"github.com/ethpbs/pbslab/internal/beacon"
	"github.com/ethpbs/pbslab/internal/chain"
	"github.com/ethpbs/pbslab/internal/mempool"
	"github.com/ethpbs/pbslab/internal/mevboost"
	"github.com/ethpbs/pbslab/internal/p2p"
	"github.com/ethpbs/pbslab/internal/relay"
	"github.com/ethpbs/pbslab/internal/state"
	"github.com/ethpbs/pbslab/internal/types"
)

// checkpointVersion gates the on-disk format; bump it on any change to the
// checkpoint struct so stale files are skipped rather than misdecoded.
// Version 2 day-shards the chain: sealed days live in immutable shard
// files and the head checkpoint carries only the open day's blocks.
// Version 3 stores state.Slot as a fixed-width key (contract, kind,
// holder) instead of a contract and a string; gob would decode a version-2
// key with its string dropped, so the version must refuse it.
const checkpointVersion = 3

// defaultCheckpointKeep bounds retained checkpoint files per directory.
const defaultCheckpointKeep = 3

// txDTO is a Transaction stripped of its unexported hash cache; rebuild
// goes through types.NewTransaction so the cache is recomputed.
type txDTO struct {
	Nonce          uint64
	From, To       types.Address
	Value          types.Wei
	Gas            uint64
	MaxFee, MaxTip types.Wei
	Data           []byte
}

func toTxDTO(tx *types.Transaction) txDTO {
	return txDTO{
		Nonce: tx.Nonce, From: tx.From, To: tx.To, Value: tx.Value,
		Gas: tx.Gas, MaxFee: tx.MaxFee, MaxTip: tx.MaxTip, Data: tx.Data,
	}
}

func (d txDTO) tx() *types.Transaction {
	return types.NewTransaction(d.Nonce, d.From, d.To, d.Value, d.Gas, d.MaxFee, d.MaxTip, d.Data)
}

func toTxDTOs(txs []*types.Transaction) []txDTO {
	out := make([]txDTO, len(txs))
	for i, tx := range txs {
		out[i] = toTxDTO(tx)
	}
	return out
}

func fromTxDTOs(ds []txDTO) []*types.Transaction {
	out := make([]*types.Transaction, len(ds))
	for i, d := range ds {
		out[i] = d.tx()
	}
	return out
}

// blockDTO carries one stored block; the block itself is rebuilt through
// types.NewBlock so transaction hashes, the tx root and the seal hash are
// recomputed rather than trusted from disk.
type blockDTO struct {
	Header   types.Header
	Txs      []txDTO
	Receipts []*types.Receipt
	Traces   []types.Trace
	Burned   types.Wei
	Tips     types.Wei
}

func toBlockDTO(b *chain.StoredBlock) blockDTO {
	return blockDTO{
		Header:   *b.Block.Header,
		Txs:      toTxDTOs(b.Block.Txs),
		Receipts: b.Receipts,
		Traces:   b.Traces,
		Burned:   b.Burned,
		Tips:     b.Tips,
	}
}

func (d blockDTO) stored() *chain.StoredBlock {
	header := d.Header
	return &chain.StoredBlock{
		Block:    types.NewBlock(&header, fromTxDTOs(d.Txs)),
		Receipts: d.Receipts,
		Traces:   d.Traces,
		Burned:   d.Burned,
		Tips:     d.Tips,
	}
}

// shardRef points the head checkpoint at one immutable day shard: the
// sealed day's blocks, written once at the day boundary and never
// re-encoded by later checkpoints.
type shardRef struct {
	// Day is the UTC day number (unix time / 86400) the shard covers.
	Day int
	// Name is the shard's file name inside the checkpoint directory.
	Name string
	// SHA256 covers the shard file's bytes; resume verifies it before
	// trusting the head checkpoint that references it.
	SHA256 string
	// Blocks is the shard's block count, informational.
	Blocks int
}

// ckptShard is the on-disk envelope of one sealed day's blocks.
type ckptShard struct {
	Version     int
	Fingerprint string
	Day         int
	Blocks      []blockDTO
}

// checkpoint is the serialized run position: everything the slot loop
// mutates between day boundaries. Structure that NewWorld rebuilds
// deterministically (keys, contracts, topology, relay wiring) is absent on
// purpose; so is per-slot relay escrow, which never outlives the slot that
// created it. The chain itself is day-sharded: days before SealedThrough
// live in the immutable shard files SealedDays references, and Blocks
// holds only the open day — so the per-boundary checkpoint write (and the
// resume decode) stays bounded by one day of blocks however long the run,
// instead of re-encoding the whole chain every day.
type checkpoint struct {
	Version     int
	Fingerprint string

	// Slot is the last fully processed slot; resume continues at Slot+1.
	Slot uint64
	// Day is the UTC day number of the next slot, informational.
	Day             int
	SlotsSinceChurn int

	// SealedDays references the immutable day shards, in day order.
	SealedDays []shardRef
	// SealedThrough is the UTC day number below which every block lives in
	// a shard; Blocks holds only blocks of later days.
	SealedThrough int

	Blocks []blockDTO
	State  state.Snapshot

	MempoolTxs  []txDTO
	PrivatePool []txDTO

	DemandNonces     map[types.Address]uint64
	EthPrice         float64
	UserCursor       int
	BorrowersCreated int
	DemandRNG        uint64

	SlotRNG    uint64
	LocalRNG   uint64
	FlowRNG    uint64
	NetworkRNG uint64

	BuilderRNGs         []uint64
	BuilderSubsidy      []float64
	SmallBuilderRNGs    []uint64
	SmallBuilderSubsidy []float64
	ExploiterRNG        uint64

	Relays  map[string]relay.Records
	Breaker map[string]mevboost.BreakerState
	Boost   mevboost.StatsSnapshot

	Ledger    beacon.LedgerSnapshot
	Watchlist []types.Address

	Arrivals map[types.Hash]p2p.Observation
	Truth    *GroundTruth
}

// scenarioFingerprint binds checkpoints to the exact scenario (and format
// version) that produced them; resuming under a different scenario must
// start over, not silently continue into divergence. fmt prints maps in
// sorted key order, so the rendering is deterministic.
func scenarioFingerprint(sc Scenario) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("pbslab/checkpoint/v%d|%+v", checkpointVersion, sc)))
	return hex.EncodeToString(h[:])
}

// capture snapshots the world and loop state at a slot boundary.
func capture(w *World, rs *runState) *checkpoint {
	cp := &checkpoint{
		Version:     checkpointVersion,
		Fingerprint: scenarioFingerprint(w.Scenario),
		Slot:        rs.slot,
		Day:         int(w.Chain.SlotTime(rs.slot+1) / 86_400),

		SlotsSinceChurn: rs.slotsSinceChurn,
		State:           w.Chain.State().Export(),
		MempoolTxs:      toTxDTOs(w.Mempool.All()),
		PrivatePool:     toTxDTOs(rs.privatePool),

		DemandNonces:     make(map[types.Address]uint64, len(rs.ds.nonces)),
		EthPrice:         rs.ds.ethPrice,
		UserCursor:       rs.ds.userCursor,
		BorrowersCreated: rs.ds.borrowersCreated,
		DemandRNG:        rs.ds.r.State(),

		SlotRNG:      rs.slotRng.State(),
		LocalRNG:     rs.localRng.State(),
		FlowRNG:      rs.flowRng.State(),
		NetworkRNG:   w.Network.RNGState(),
		ExploiterRNG: w.Exploiter.RNGState(),

		Relays:  make(map[string]relay.Records, len(w.Relays)),
		Breaker: rs.breaker.Export(),
		Boost:   rs.boostStats.Snapshot(),

		Ledger:    w.Ledger.Export(),
		Watchlist: w.Liquidator.Watchlist(),

		Arrivals: rs.arrivals,
		Truth:    rs.truth,

		SealedDays:    append([]shardRef(nil), rs.sealed...),
		SealedThrough: rs.sealedThrough,
	}
	// Already-sealed days are referenced, not re-captured: only blocks the
	// shard files don't cover are converted and re-encoded.
	for _, b := range w.Chain.Blocks()[1:] {
		if int(b.Block.Header.Timestamp/86_400) < rs.sealedThrough {
			continue
		}
		cp.Blocks = append(cp.Blocks, toBlockDTO(b))
	}
	for addr, n := range rs.ds.nonces {
		cp.DemandNonces[addr] = n
	}
	for _, e := range w.Builders {
		cp.BuilderRNGs = append(cp.BuilderRNGs, e.B.RNGState())
		cp.BuilderSubsidy = append(cp.BuilderSubsidy, e.B.SubsidyProb)
	}
	for _, e := range w.SmallBuilders {
		cp.SmallBuilderRNGs = append(cp.SmallBuilderRNGs, e.B.RNGState())
		cp.SmallBuilderSubsidy = append(cp.SmallBuilderSubsidy, e.B.SubsidyProb)
	}
	for name, r := range w.Relays {
		cp.Relays[name] = r.ExportRecords()
	}
	return cp
}

// restore rewinds a freshly built world and loop state to the checkpointed
// position, rehydrating sealed days shard by shard from dir — at no point
// is more than one sealed day's DTO buffer decoded at once, the head
// checkpoint carrying only the open day. The world must already have gone
// through the Run-start relay rebuild and builder registration.
func restore(w *World, rs *runState, cp *checkpoint, dir string) error {
	if cp.Version != checkpointVersion {
		return fmt.Errorf("sim: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	if fp := scenarioFingerprint(w.Scenario); cp.Fingerprint != fp {
		return fmt.Errorf("sim: checkpoint is from a different scenario (fingerprint %.12s, want %.12s)", cp.Fingerprint, fp)
	}
	if len(cp.BuilderRNGs) != len(w.Builders) || len(cp.SmallBuilderRNGs) != len(w.SmallBuilders) {
		return fmt.Errorf("sim: checkpoint builder count mismatch")
	}

	var blocks []*chain.StoredBlock
	for _, ref := range cp.SealedDays {
		shard, err := readShard(dir, ref, cp.Fingerprint)
		if err != nil {
			return err
		}
		for _, d := range shard.Blocks {
			blocks = append(blocks, d.stored())
		}
	}
	for _, d := range cp.Blocks {
		blocks = append(blocks, d.stored())
	}
	w.Chain.Restore(blocks, state.FromSnapshot(cp.State))

	w.Mempool = mempool.New()
	for _, d := range cp.MempoolTxs {
		if err := w.Mempool.Add(d.tx()); err != nil {
			return fmt.Errorf("sim: checkpoint mempool rebuild: %w", err)
		}
	}
	rs.privatePool = fromTxDTOs(cp.PrivatePool)

	rs.ds.nonces = make(map[types.Address]uint64, len(cp.DemandNonces))
	for addr, n := range cp.DemandNonces {
		rs.ds.nonces[addr] = n
	}
	rs.ds.ethPrice = cp.EthPrice
	rs.ds.userCursor = cp.UserCursor
	rs.ds.borrowersCreated = cp.BorrowersCreated
	rs.ds.r.SetState(cp.DemandRNG)

	rs.slotRng.SetState(cp.SlotRNG)
	rs.localRng.SetState(cp.LocalRNG)
	rs.flowRng.SetState(cp.FlowRNG)
	w.Network.SetRNGState(cp.NetworkRNG)
	w.Exploiter.SetRNGState(cp.ExploiterRNG)
	for i, e := range w.Builders {
		e.B.SetRNGState(cp.BuilderRNGs[i])
		e.B.SubsidyProb = cp.BuilderSubsidy[i]
	}
	for i, e := range w.SmallBuilders {
		e.B.SetRNGState(cp.SmallBuilderRNGs[i])
		e.B.SubsidyProb = cp.SmallBuilderSubsidy[i]
	}

	for name, rec := range cp.Relays {
		r, ok := w.Relays[name]
		if !ok {
			return fmt.Errorf("sim: checkpoint references unknown relay %q", name)
		}
		r.RestoreRecords(rec)
	}
	rs.breaker.Restore(cp.Breaker)
	rs.boostStats.Restore(cp.Boost)
	w.Ledger.Restore(cp.Ledger)
	w.Liquidator.RestoreWatchlist(cp.Watchlist)

	rs.arrivals = cp.Arrivals
	if rs.arrivals == nil {
		rs.arrivals = map[types.Hash]p2p.Observation{}
	}
	rs.truth = cp.Truth
	rs.slot = cp.Slot
	rs.slotsSinceChurn = cp.SlotsSinceChurn
	rs.sealed = append([]shardRef(nil), cp.SealedDays...)
	rs.sealedThrough = cp.SealedThrough
	return nil
}

// checkpointName renders the file name for a checkpoint taken after slot.
func checkpointName(slot uint64) string {
	return fmt.Sprintf("ckpt-%012d.gob", slot)
}

// shardName renders the file name for a sealed day's shard. Its length
// differs from checkpointName's on purpose: checkpointFiles' filter keeps
// treating only head checkpoints as resume candidates.
func shardName(day int) string {
	return fmt.Sprintf("day-%06d.ckpt.gob", day)
}

// writeShard seals one finished day into an immutable shard file. A
// resumed run re-seals the same day to byte-identical content (the run is
// deterministic), so overwriting an existing shard is harmless.
func writeShard(dir, fingerprint string, day int, blocks []blockDTO) (shardRef, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(ckptShard{
		Version: checkpointVersion, Fingerprint: fingerprint, Day: day, Blocks: blocks,
	})
	if err != nil {
		return shardRef{}, fmt.Errorf("sim: encode day shard %d: %w", day, err)
	}
	name := shardName(day)
	if err := atomicio.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
		return shardRef{}, fmt.Errorf("sim: write day shard %d: %w", day, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return shardRef{Day: day, Name: name, SHA256: hex.EncodeToString(sum[:]), Blocks: len(blocks)}, nil
}

// readShard loads and decodes one referenced day shard, holding the caller
// to the reference's digest and the scenario fingerprint.
func readShard(dir string, ref shardRef, fingerprint string) (*ckptShard, error) {
	data, err := os.ReadFile(filepath.Join(dir, ref.Name))
	if err != nil {
		return nil, fmt.Errorf("sim: day shard %d: %w", ref.Day, err)
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != ref.SHA256 {
		return nil, fmt.Errorf("sim: day shard %d: digest mismatch (torn write?)", ref.Day)
	}
	shard := &ckptShard{}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(shard); err != nil {
		return nil, fmt.Errorf("sim: decode day shard %d: %w", ref.Day, err)
	}
	if shard.Version != checkpointVersion || shard.Fingerprint != fingerprint || shard.Day != ref.Day {
		return nil, fmt.Errorf("sim: day shard %d: envelope mismatch", ref.Day)
	}
	return shard, nil
}

// saveCheckpoint seals every finished day among cp.Blocks into its own
// shard file, then encodes and atomically writes the head checkpoint (open
// day only) into dir and prunes old heads beyond keep. On success
// cp.SealedDays/SealedThrough reflect the sealing, so the caller can carry
// them into the next capture. A crash mid-write leaves the previous
// checkpoint intact and at worst a .tmp- fragment beside it; shard files
// are only referenced by heads written after them.
func saveCheckpoint(dir string, cp *checkpoint, keep int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sim: checkpoint dir: %w", err)
	}
	var open []blockDTO
	byDay := map[int][]blockDTO{}
	var sealDays []int
	for _, d := range cp.Blocks {
		day := int(d.Header.Timestamp / 86_400)
		if day >= cp.Day {
			open = append(open, d)
			continue
		}
		if _, ok := byDay[day]; !ok {
			sealDays = append(sealDays, day)
		}
		byDay[day] = append(byDay[day], d)
	}
	sort.Ints(sealDays)
	for _, day := range sealDays {
		ref, err := writeShard(dir, cp.Fingerprint, day, byDay[day])
		if err != nil {
			return err
		}
		cp.SealedDays = append(cp.SealedDays, ref)
	}
	cp.Blocks = open
	cp.SealedThrough = cp.Day

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		return fmt.Errorf("sim: encode checkpoint: %w", err)
	}
	path := filepath.Join(dir, checkpointName(cp.Slot))
	if err := atomicio.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("sim: write checkpoint: %w", err)
	}
	if keep <= 0 {
		keep = defaultCheckpointKeep
	}
	return pruneCheckpoints(dir, keep)
}

// checkpointFiles lists checkpoint files in dir, newest (highest slot)
// first. The zero-padded naming makes lexical and slot order agree.
func checkpointFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && filepath.Ext(name) == ".gob" && len(name) == len(checkpointName(0)) {
			names = append(names, name)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names, nil
}

// pruneCheckpoints removes all but the newest keep checkpoint files, plus
// any temp debris from interrupted writes.
func pruneCheckpoints(dir string, keep int) error {
	names, err := checkpointFiles(dir)
	if err != nil {
		return err
	}
	for i, name := range names {
		if i < keep {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("sim: prune checkpoint: %w", err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if atomicio.IsTemp(e.Name()) {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return nil
}

// loadLatestCheckpoint scans dir newest-first for a head checkpoint that
// decodes cleanly, matches the scenario fingerprint, and whose referenced
// day shards all verify against their recorded digests. Corrupt or
// mismatched files are skipped — a truncated newest head (or one whose
// shard rotted) falls back to the one before it. Returns (nil, nil) when
// nothing usable exists.
func loadLatestCheckpoint(dir string, sc Scenario) (*checkpoint, error) {
	names, err := checkpointFiles(dir)
	if err != nil {
		return nil, fmt.Errorf("sim: scan checkpoints: %w", err)
	}
	fp := scenarioFingerprint(sc)
next:
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		cp := &checkpoint{}
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(cp); err != nil {
			continue
		}
		if cp.Version != checkpointVersion || cp.Fingerprint != fp {
			continue
		}
		for _, ref := range cp.SealedDays {
			shardData, err := os.ReadFile(filepath.Join(dir, ref.Name))
			if err != nil {
				continue next
			}
			sum := sha256.Sum256(shardData)
			if hex.EncodeToString(sum[:]) != ref.SHA256 {
				continue next
			}
		}
		return cp, nil
	}
	return nil, nil
}
