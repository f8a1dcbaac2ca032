// Package core is the paper's primary contribution: the measurement
// pipeline that classifies blocks as PBS or locally built, clusters builder
// identities, audits relays against their promises, and computes every
// figure and table of the evaluation (Sections 4-6).
//
// The pipeline consumes only dataset.Dataset — blocks, receipts, traces,
// MEV labels, mempool observations, relay crawls and the sanctions list.
// It never reads simulator ground truth; classifier quality is itself a
// measured quantity (the paper's 99.6% / 92% coverage figures).
//
// Structurally the package is a parallel, single-pass analysis engine
// (DESIGN.md §6) with one build path, NewStreaming: it takes a DaySource
// (a chunked corpus on disk, or an in-memory dataset served as one batch
// by New), classifies each batch's blocks in parallel into chain-ordered
// BlockStats, folds the transaction-level tallies, strips the blocks to
// their headers, and finally fills a per-day Index (stats.DayAgg
// aggregates, per-cluster samples, coverage counters) in one sharded
// pass. Every public figure/table method answers from the index and
// memoizes its result, so the text report and the figure CSVs (DayFigures)
// compute each artifact exactly once. Output is byte-identical for any worker count and either
// corpus source — shards cut at day boundaries and merge in chain order,
// so every floating-point reduction associates exactly as a one-worker
// pass. The golden tests pin the rendered bytes to committed digests
// (testdata/digests.json); WithoutMemo/WithWorkers tune benchmarking and
// pool width.
package core

import (
	"context"
	"sort"
	"time"

	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/dataset"
	"github.com/ethpbs/pbslab/internal/mev"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

// BlockStat is the per-block result of the classification pass.
type BlockStat struct {
	Block *dataset.Block
	Day   int

	// PBS is the paper's classifier verdict: claimed by a relay OR showing
	// the builder→proposer payment convention.
	PBS bool
	// RelayClaims lists relays whose data API claims the block; the block
	// is attributed 1/len to each (Figure 5).
	RelayClaims []string
	// PaymentDetected reports the last-transaction payment convention.
	PaymentDetected bool
	// Payment is the on-chain proposer payment (zero when not detected).
	Payment types.Wei
	// PaymentTo is the recipient of the detected payment.
	PaymentTo types.Address

	// Value is the paper's block value: priority fees plus direct
	// transfers to the fee recipient.
	Value types.Wei
	// Burned is the base-fee total (Figure 3).
	Burned types.Wei
	// DirectTransfers is the direct-transfer component of Value.
	DirectTransfers types.Wei

	// BuilderPubkey is the winning builder per relay data (PBS only).
	BuilderPubkey types.PubKey
	// BuilderCluster is the fee-recipient-based identity cluster.
	BuilderCluster string
	// Promised is the relay-announced value (max across claiming relays).
	Promised types.Wei

	// PrivateTxs counts included transactions never seen by any mempool
	// observer before inclusion; TotalTxs excludes the payment transaction.
	PrivateTxs int
	TotalTxs   int

	// MEV counts per class (extractor transactions, Figures 15, 20-22).
	MEVTxs        int
	Sandwiches    int
	Arbitrages    int
	Liquidations  int
	MEVValueShare float64 // fraction of Value attributable to MEV txs

	// Sanctioned reports whether any transaction moves value from/to an
	// address sanctioned at block time (Figure 18).
	Sanctioned bool
}

// ProposerProfit returns what the proposer earned from the block: the
// payment for PBS blocks, the whole value for local blocks.
func (b *BlockStat) ProposerProfit() types.Wei {
	if b.PBS {
		return b.Payment
	}
	return b.Value
}

// BuilderProfitETH returns the builder's take in ETH (possibly negative for
// subsidized blocks). Meaningful for PBS blocks only.
func (b *BlockStat) BuilderProfitETH() float64 {
	return types.ToEther(b.Value) - types.ToEther(b.Payment)
}

// Cluster is one builder identity: all pubkeys paying out to the same fee
// recipient address (Table 5 / Appendix B).
type Cluster struct {
	// Name is the display label: a provided hint or a derived address tag.
	Name string
	// FeeRecipient is the clustering key.
	FeeRecipient types.Address
	// Pubkeys are the builder keys observed paying to the recipient.
	Pubkeys []types.PubKey
	// Blocks is the cluster's block count.
	Blocks int
}

// Analysis is the classified dataset with precomputed per-block statistics.
// All public figure/table methods are safe for concurrent use: they read the
// immutable classification and the single-pass Index built by NewStreaming,
// and results are memoized behind sync.Once (unless WithoutMemo is set).
type Analysis struct {
	// ds is the blocks-free corpus shell (relays, labels, arrivals,
	// sanctions); the blocks live on as stripped headers in stats.
	ds     *dataset.Dataset
	stats  []*BlockStat
	byNum  map[uint64]*BlockStat
	byHash map[types.Hash]*BlockStat
	labels map[types.Address]string

	clusters map[types.Address]*Cluster

	workers int
	noMemo  bool

	// counts is the Table 1 inventory; the build accumulated the
	// block-level tallies while the transactions were still resident.
	counts dataset.Counts

	idx  *Index
	memo figMemo
}

// Counts returns the corpus Table 1 inventory.
func (a *Analysis) Counts() dataset.Counts {
	c := a.counts
	c.MEVBySource = make(map[string]int, len(a.counts.MEVBySource))
	for name, n := range a.counts.MEVBySource {
		c.MEVBySource[name] = n
	}
	return c
}

// Option configures an Analysis.
type Option func(*Analysis)

// WithBuilderLabels supplies display names for builder fee recipients (the
// equivalent of Etherscan's public labels the paper used).
func WithBuilderLabels(labels map[types.Address]string) Option {
	return func(a *Analysis) {
		for k, v := range labels {
			a.labels[k] = v
		}
	}
}

// WithWorkers bounds the worker pool used for classification, the index
// build, and per-day reductions. Values below 1 are clamped to 1. The
// default is runtime.GOMAXPROCS(0).
func WithWorkers(n int) Option {
	return func(a *Analysis) {
		if n < 1 {
			n = 1
		}
		a.workers = n
	}
}

// WithoutMemo disables result memoization, so every figure/table call
// recomputes from scratch. Benchmarks use this to measure steady-state cost
// rather than a single cached lookup.
func WithoutMemo() Option {
	return func(a *Analysis) { a.noMemo = true }
}

// New runs the classification pass over an in-memory dataset and builds
// the single-pass Index: NewStreaming over the dataset served as one
// batch, so classification shards across the whole corpus.
//
// A worker panic surfaces as a panic on the caller's goroutine (wrapped in
// *stats.WorkerPanicError) rather than crashing the process from a pool
// goroutine; use NewWithContext to receive it as an error instead.
func New(ds *dataset.Dataset, opts ...Option) *Analysis {
	a, err := NewWithContext(context.Background(), ds, opts...)
	if err != nil {
		// Background contexts never cancel, so the only possible error is a
		// recovered worker panic: re-raise it to keep New's contract.
		panic(err)
	}
	return a
}

// NewWithContext is New under a context: the classification and index
// passes stop early when ctx is cancelled, and a panic inside a worker
// comes back as a *stats.WorkerPanicError instead of killing the process.
func NewWithContext(ctx context.Context, ds *dataset.Dataset, opts ...Option) (*Analysis, error) {
	return NewStreaming(ctx, memSource{ds}, opts...)
}

// Workers returns the analysis worker-pool size.
func (a *Analysis) Workers() int { return a.workers }

// shardRanges splits [0, n) into at most k contiguous half-open ranges.
func shardRanges(n, k int) [][2]int {
	if k > n {
		k = n
	}
	if k <= 1 {
		return [][2]int{{0, n}}
	}
	out := make([][2]int, 0, k)
	start := 0
	for s := 1; s <= k && start < n; s++ {
		end := s * n / k
		if end <= start {
			continue
		}
		out = append(out, [2]int{start, end})
		start = end
	}
	return out
}

// Blocks returns the per-block statistics in chain order.
func (a *Analysis) Blocks() []*BlockStat { return a.stats }

// ByNumber finds a block's statistics.
func (a *Analysis) ByNumber(n uint64) (*BlockStat, bool) {
	st, ok := a.byNum[n]
	return st, ok
}

// relayClaim is one relay's delivered record for a block.
type relayClaim struct {
	relay    string
	trace    relayTraceView
	promised types.Wei
}

type relayTraceView struct {
	builder types.PubKey
}

// indexRelayClaims joins delivered records to block hashes.
func indexRelayClaims(ds *dataset.Dataset) map[types.Hash][]relayClaim {
	out := map[types.Hash][]relayClaim{}
	for _, r := range ds.Relays {
		for _, tr := range r.Delivered {
			out[tr.BlockHash] = append(out[tr.BlockHash], relayClaim{
				relay:    r.Name,
				trace:    relayTraceView{builder: tr.BuilderPubkey},
				promised: tr.Value,
			})
		}
	}
	return out
}

// indexMEV groups union labels per block.
func indexMEV(ds *dataset.Dataset) map[uint64][]mev.Label {
	out := map[uint64][]mev.Label{}
	for _, l := range ds.MEVLabels {
		out[l.Block] = append(out[l.Block], l)
	}
	return out
}

// inclusionWaits collects a run of blocks' inclusion delays in chain
// order: the seconds each publicly observed transaction waited between
// its first sighting and its block, split by whether it touches an
// address sanctioned at block time. Private flow has no public waiting
// time.
type inclusionWaits struct{ regular, sanctioned []float64 }

// classify computes one block's statistics and appends the block's
// inclusion delays to waits.
func (a *Analysis) classify(b *dataset.Block, claims []relayClaim, labels []mev.Label, waits *inclusionWaits) *BlockStat {
	st := &BlockStat{Block: b, Day: a.ds.Day(b.Time)}

	// Relay claims (sorted for determinism).
	for _, c := range claims {
		st.RelayClaims = append(st.RelayClaims, c.relay)
		if c.promised.Gt(st.Promised) {
			st.Promised = c.promised
		}
		st.BuilderPubkey = c.trace.builder
	}
	sort.Strings(st.RelayClaims)

	// Payment convention: the final transaction, sent by the block's fee
	// recipient, transferring positive value.
	if n := len(b.Txs); n > 0 {
		last := b.Txs[n-1]
		if last.From == b.FeeRecipient && !last.Value.IsZero() && len(last.Data) == 0 {
			st.PaymentDetected = true
			st.Payment = last.Value
			st.PaymentTo = last.To
		}
	}
	st.PBS = len(st.RelayClaims) > 0 || st.PaymentDetected

	// Value decomposition (Figure 3): burned base fees, priority tips, and
	// internal transfers into the fee recipient. The proposer payment is
	// excluded from direct transfers — it is the value leaving the builder.
	st.Burned = b.Burned
	tips := b.Tips
	direct := u256.Zero
	for _, tr := range b.Traces {
		if tr.To != b.FeeRecipient {
			continue
		}
		direct = direct.Add(tr.Value)
	}
	st.DirectTransfers = direct
	st.Value = tips.Add(direct)

	// Private transactions: never observed by any vantage point before the
	// block's timestamp. The payment transaction is excluded from the
	// counts (it exists only inside the builder flow); every publicly
	// observed transaction, the payment included, has an inclusion delay.
	paymentIdx := -1
	if st.PaymentDetected {
		paymentIdx = len(b.Txs) - 1
	}
	for i, tx := range b.Txs {
		counted := i != paymentIdx
		if counted {
			st.TotalTxs++
		}
		obs, ok := a.ds.Arrivals[tx.Hash()]
		var first time.Time
		if ok {
			first, ok = obs.FirstSeen()
		}
		if !ok || first.After(b.Time) {
			if counted {
				st.PrivateTxs++
			}
			continue
		}
		wait := b.Time.Sub(first).Seconds()
		if a.ds.Sanctions.IsSanctioned(tx.From, b.Time) || a.ds.Sanctions.IsSanctioned(tx.To, b.Time) {
			waits.sanctioned = append(waits.sanctioned, wait)
		} else {
			waits.regular = append(waits.regular, wait)
		}
	}

	// MEV content.
	mevTxs := map[types.Hash]bool{}
	actors := map[types.Address]bool{}
	for _, l := range labels {
		switch l.Kind {
		case mev.KindSandwich:
			st.Sandwiches++
		case mev.KindArbitrage:
			st.Arbitrages++
		case mev.KindLiquidation:
			st.Liquidations++
		}
		for _, h := range l.Txs {
			mevTxs[h] = true
		}
		actors[l.Actor] = true
	}
	st.MEVTxs = len(mevTxs)
	if st.MEVTxs > 0 && !st.Value.IsZero() {
		st.MEVValueShare = mevValueShare(b, mevTxs, actors, st.Value)
	}

	// Sanctioned content: senders/recipients, traces and token transfers
	// checked against the list active at block time.
	st.Sanctioned = a.touchesSanctioned(b)

	return st
}

// mevValueShare computes the share of block value carried by MEV activity:
// the labeled transactions' tips and direct transfers, plus direct
// transfers from the extractor's other transactions in the block — bundles
// pay their coinbase bid through an adjacent transaction from the same
// actor, and that bid is MEV value (the paper attributes searcher payments
// to MEV the same way).
func mevValueShare(b *dataset.Block, mevTxs map[types.Hash]bool, actors map[types.Address]bool, value types.Wei) float64 {
	senderOf := map[types.Hash]types.Address{}
	for _, tx := range b.Txs {
		senderOf[tx.Hash()] = tx.From
	}
	isMEV := func(h types.Hash) bool {
		return mevTxs[h] || actors[senderOf[h]]
	}
	mevValue := u256.Zero
	for _, rcpt := range b.Receipts {
		if !isMEV(rcpt.TxHash) {
			continue
		}
		tip := rcpt.EffectiveGasPrice.SatSub(b.BaseFee).Mul64(rcpt.GasUsed)
		mevValue = mevValue.Add(tip)
	}
	for _, tr := range b.Traces {
		if tr.To == b.FeeRecipient && isMEV(tr.TxHash) {
			mevValue = mevValue.Add(tr.Value)
		}
	}
	share := types.ToEther(mevValue) / types.ToEther(value)
	if share > 1 {
		share = 1
	}
	return share
}

// touchesSanctioned mirrors the paper's scan: transaction endpoints, ETH
// traces, and token transfer logs against the active sanction set.
func (a *Analysis) touchesSanctioned(b *dataset.Block) bool {
	at := b.Time
	isBad := func(addr types.Address) bool {
		return a.ds.Sanctions.IsSanctioned(addr, at)
	}
	for _, tx := range b.Txs {
		if isBad(tx.From) || isBad(tx.To) {
			return true
		}
	}
	for _, tr := range b.Traces {
		if isBad(tr.From) || isBad(tr.To) {
			return true
		}
	}
	for _, rcpt := range b.Receipts {
		for _, lg := range rcpt.Logs {
			if len(lg.Topics) == 3 && lg.Topics[0] == transferTopic {
				if isBad(topicAddr(lg.Topics[1])) || isBad(topicAddr(lg.Topics[2])) {
					return true
				}
			}
		}
	}
	return false
}

// buildClusters groups builder pubkeys by the fee recipient of the blocks
// they delivered (Table 5's methodology).
func (a *Analysis) buildClusters() {
	seen := map[types.Address]map[types.PubKey]bool{}
	for _, st := range a.stats {
		if len(st.RelayClaims) == 0 {
			continue
		}
		fee := st.Block.FeeRecipient
		if seen[fee] == nil {
			seen[fee] = map[types.PubKey]bool{}
		}
		if st.BuilderPubkey != (types.PubKey{}) {
			seen[fee][st.BuilderPubkey] = true
		}
	}
	for fee, pubs := range seen {
		c := &Cluster{FeeRecipient: fee}
		if label, ok := a.labels[fee]; ok {
			c.Name = label
		} else {
			c.Name = "builder-" + fee.Hex()[:10]
		}
		for p := range pubs {
			c.Pubkeys = append(c.Pubkeys, p)
		}
		sort.Slice(c.Pubkeys, func(i, j int) bool {
			return c.Pubkeys[i].Hex() < c.Pubkeys[j].Hex()
		})
		a.clusters[fee] = c
	}
}

// sortedClusters orders the builder identity clusters, largest first.
func (a *Analysis) sortedClusters() []*Cluster {
	out := make([]*Cluster, 0, len(a.clusters))
	for _, c := range a.clusters {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Blocks != out[j].Blocks {
			return out[i].Blocks > out[j].Blocks
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Window returns the covered day span.
func (a *Analysis) Window() (start time.Time, days int) {
	return a.ds.Start, a.ds.Days()
}

// transferTopic is the public ERC-20 Transfer event signature; the analysis
// stands on the event ABI alone.
var transferTopic = crypto.Keccak256([]byte("Transfer(address,address,uint256)"))

// topicAddr recovers an address from a left-padded topic.
func topicAddr(h types.Hash) types.Address {
	var a types.Address
	copy(a[:], h[12:])
	return a
}
