package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"github.com/ethpbs/pbslab/internal/dataset"
	"github.com/ethpbs/pbslab/internal/mev"
	"github.com/ethpbs/pbslab/internal/stats"
	"github.com/ethpbs/pbslab/internal/types"
)

// DaySource streams a corpus as the blocks-free common section, then its
// blocks in batches on demand. OpenDay must return the batches in chain
// order when called with ascending indexes. A chunked corpus on disk
// (dsio.Reader) serves one batch per day segment; New serves an in-memory
// dataset as one batch.
type DaySource interface {
	// Common returns the corpus shell (ds.Blocks is nil) and the builder
	// labels the corpus was saved with.
	Common() (*dataset.Dataset, map[types.Address]string, error)
	// Days returns the number of batches.
	Days() int
	// OpenDay returns batch i's blocks in chain order.
	OpenDay(day int) ([]*dataset.Block, error)
}

// memSource serves an in-memory dataset as one batch, which keeps
// classification sharded across the whole corpus.
type memSource struct{ ds *dataset.Dataset }

// Common shares ds's maps and slices in a fresh blocks-free shell (Dataset
// embeds a sync.Once, so a struct copy is off the table).
func (s memSource) Common() (*dataset.Dataset, map[types.Address]string, error) {
	return &dataset.Dataset{
		Start:       s.ds.Start,
		End:         s.ds.End,
		MEVLabels:   s.ds.MEVLabels,
		MEVBySource: s.ds.MEVBySource,
		Arrivals:    s.ds.Arrivals,
		Relays:      s.ds.Relays,
		Sanctions:   s.ds.Sanctions,
	}, nil, nil
}

func (s memSource) Days() int { return 1 }

func (s memSource) OpenDay(int) ([]*dataset.Block, error) { return s.ds.Blocks, nil }

// NewStreaming builds an Analysis from a streamed corpus without ever
// holding more than one batch of transaction-level data: each batch is
// classified, folded into the delay/count accumulators, and then stripped
// to its headers before the next batch loads. The per-batch pass visits
// blocks in chain order, so every accumulation associates the same way
// however the corpus is batched.
func NewStreaming(ctx context.Context, src DaySource, opts ...Option) (*Analysis, error) {
	common, srcLabels, err := src.Common()
	if err != nil {
		return nil, fmt.Errorf("core: common section: %w", err)
	}
	a := &Analysis{
		ds:       common,
		byNum:    map[uint64]*BlockStat{},
		byHash:   map[types.Hash]*BlockStat{},
		labels:   map[types.Address]string{},
		clusters: map[types.Address]*Cluster{},
		workers:  runtime.GOMAXPROCS(0),
	}
	for k, v := range srcLabels {
		a.labels[k] = v
	}
	for _, opt := range opts {
		opt(a)
	}

	claims := indexRelayClaims(common)
	mevByBlock := indexMEV(common)

	// Block-level tallies accumulate onto the label/arrival/relay/sanction
	// tallies of the common shell's own Count().
	a.counts = common.Count()
	var delayRegular, delaySanctioned []float64

	for day := 0; day < src.Days(); day++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		blocks, err := src.OpenDay(day)
		if err != nil {
			return nil, fmt.Errorf("core: day %d: %w", day, err)
		}
		dayStats := make([]*BlockStat, len(blocks))
		shards := shardRanges(len(blocks), a.workers)
		err = stats.ParallelDaysErr(ctx, len(shards), a.workers, func(s int) error {
			for i := shards[s][0]; i < shards[s][1]; i++ {
				b := blocks[i]
				dayStats[i] = a.classify(b, claims[b.Hash], mevByBlock[b.Number])
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: classify day %d: %w", day, err)
		}
		// The sequential tail of the batch: chain-order accumulation of
		// the inclusion delays (publicly observed transactions only;
		// private flow has no public waiting time), then the strip that
		// releases the batch's transaction payload.
		for _, st := range dayStats {
			b := st.Block
			a.counts.Blocks++
			a.counts.Transactions += len(b.Txs)
			a.counts.Logs += b.LogCount()
			a.counts.Traces += len(b.Traces)
			for _, tx := range b.Txs {
				obs, ok := common.Arrivals[tx.Hash()]
				if !ok {
					continue
				}
				first, seen := obs.FirstSeen()
				if !seen || first.After(b.Time) {
					continue
				}
				wait := b.Time.Sub(first).Seconds()
				if common.Sanctions.IsSanctioned(tx.From, b.Time) ||
					common.Sanctions.IsSanctioned(tx.To, b.Time) {
					delaySanctioned = append(delaySanctioned, wait)
				} else {
					delayRegular = append(delayRegular, wait)
				}
			}
			st.Block = stripBlock(b)
			a.stats = append(a.stats, st)
			a.byNum[st.Block.Number] = st
			a.byHash[st.Block.Hash] = st
		}
	}

	a.buildClusters()
	for _, st := range a.stats {
		if st.PBS {
			if c, ok := a.clusters[st.Block.FeeRecipient]; ok {
				st.BuilderCluster = c.Name
				c.Blocks++
			}
		}
	}

	idx, err := buildIndex(ctx, a)
	if err != nil {
		return nil, fmt.Errorf("core: index: %w", err)
	}
	idx.delay = DelayReport{
		Regular:    stats.BoxOf(delayRegular),
		Sanctioned: stats.BoxOf(delaySanctioned),
	}
	if idx.delay.Regular.Mean > 0 {
		idx.delay.MeanRatio = idx.delay.Sanctioned.Mean / idx.delay.Regular.Mean
	}
	a.idx = idx
	return a, nil
}

// stripBlock returns a header-only copy of b: every field the
// post-classification pipeline reads (index build, scan tables, identity
// clustering) survives, while the transaction-level payload (Txs,
// Receipts, Traces) is dropped so resident memory scales with block count
// rather than transaction volume.
func stripBlock(b *dataset.Block) *dataset.Block {
	return &dataset.Block{
		Number: b.Number, Hash: b.Hash, Slot: b.Slot, Time: b.Time,
		FeeRecipient: b.FeeRecipient, GasUsed: b.GasUsed, GasLimit: b.GasLimit,
		BaseFee: b.BaseFee, Burned: b.Burned, Tips: b.Tips,
	}
}

// ValidateStream checks the invariants of Validate over a streamed corpus,
// holding at most one day of blocks plus header-level maps. One report
// detail degrades: a mislabeled MEV transaction is reported as "not in
// block N" without naming the block that does contain it — the global
// transaction map Validate consults is exactly what out-of-core rules out.
func ValidateStream(src DaySource) (ValidationReport, error) {
	common, _, err := src.Common()
	if err != nil {
		return ValidationReport{}, fmt.Errorf("core: common section: %w", err)
	}
	var rep ValidationReport
	quarantine := map[uint64]bool{}
	flag := func(kind string, block uint64, format string, args ...any) {
		rep.Violations = append(rep.Violations, Violation{
			Kind: kind, Block: block, Detail: fmt.Sprintf(format, args...),
		})
		if block != 0 {
			quarantine[block] = true
		}
	}

	labelsByBlock := map[uint64][]mev.Label{}
	for _, l := range common.MEVLabels {
		labelsByBlock[l.Block] = append(labelsByBlock[l.Block], l)
	}

	byHash := make(map[types.Hash]uint64)
	var prev *dataset.Block
	for day := 0; day < src.Days(); day++ {
		blocks, err := src.OpenDay(day)
		if err != nil {
			return ValidationReport{}, fmt.Errorf("core: day %d: %w", day, err)
		}
		for _, b := range blocks {
			byHash[b.Hash] = b.Number

			if prev != nil {
				if b.Number != prev.Number+1 {
					flag(VioOrder, b.Number, "number %d follows %d (want %d)", b.Number, prev.Number, prev.Number+1)
				}
				if b.Slot <= prev.Slot {
					flag(VioOrder, b.Number, "slot %d not after %d", b.Slot, prev.Slot)
				}
				if !b.Time.After(prev.Time) {
					flag(VioOrder, b.Number, "timestamp %s not after %s", b.Time, prev.Time)
				}
			}
			if b.Time.Before(common.Start) || b.Time.After(common.End) {
				flag(VioWindow, b.Number, "timestamp %s outside window [%s, %s]",
					b.Time, common.Start, common.End)
			}
			validateConservation(b, flag)

			if ls := labelsByBlock[b.Number]; len(ls) > 0 {
				txs := make(map[types.Hash]bool, len(b.Txs))
				for _, tx := range b.Txs {
					txs[tx.Hash()] = true
				}
				for _, l := range ls {
					for _, h := range l.Txs {
						if !txs[h] {
							flag(VioLabel, l.Block, "%s label tx %s not in block %d", l.Kind, h, b.Number)
						}
					}
				}
				delete(labelsByBlock, b.Number)
			}

			prev = stripBlock(b)
		}
	}

	// Whatever labels were never claimed by a block reference blocks the
	// corpus does not contain; report them in block order for determinism.
	missing := make([]uint64, 0, len(labelsByBlock))
	for n := range labelsByBlock {
		missing = append(missing, n)
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	for _, n := range missing {
		for _, l := range labelsByBlock[n] {
			flag(VioLabel, l.Block, "%s label references unknown block", l.Kind)
		}
	}

	checkDelivered(&rep, common.Relays, byHash, flag)

	rep.Quarantined = make([]uint64, 0, len(quarantine))
	for n := range quarantine {
		rep.Quarantined = append(rep.Quarantined, n)
	}
	sort.Slice(rep.Quarantined, func(i, j int) bool { return rep.Quarantined[i] < rep.Quarantined[j] })
	return rep, nil
}
