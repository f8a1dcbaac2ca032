package core

import (
	"sync"

	"github.com/ethpbs/pbslab/internal/mev"
	"github.com/ethpbs/pbslab/internal/stats"
)

// This file is the public face of the analysis engine. Every figure/table
// method answers from the single-pass Index (or, for the relay tables, a
// scan of the stripped block stats) and memoizes the result behind a
// sync.Once so repeated renders — tables.txt recomputes most of what the
// CSV artifacts also need — pay for each computation exactly once.
//
// Determinism contract: for a given dataset, every worker count and corpus
// source returns bit-identical values (the golden tests pin the rendered
// bytes to committed digests). Returned slices and maps are shared between
// callers once memoized; treat them as read-only.

// memoOf caches a single computed value.
type memoOf[T any] struct {
	once sync.Once
	v    T
}

// memoized computes once per Analysis (or every time under WithoutMemo).
func memoized[T any](a *Analysis, m *memoOf[T], compute func() T) T {
	if a.noMemo {
		return compute()
	}
	m.once.Do(func() { m.v = compute() })
	return m.v
}

// keyedMemo caches computed values per key (parameterized methods).
type keyedMemo[K comparable, T any] struct {
	mu sync.Mutex
	m  map[K]T
}

// memoizedKey computes at most once per key. The compute runs outside the
// lock; a concurrent duplicate is discarded in favor of the first store
// (both are identical by the determinism contract).
func memoizedKey[K comparable, T any](a *Analysis, km *keyedMemo[K, T], k K, compute func() T) T {
	if a.noMemo {
		return compute()
	}
	km.mu.Lock()
	if v, ok := km.m[k]; ok {
		km.mu.Unlock()
		return v
	}
	km.mu.Unlock()
	v := compute()
	km.mu.Lock()
	defer km.mu.Unlock()
	if km.m == nil {
		km.m = map[K]T{}
	}
	if old, ok := km.m[k]; ok {
		return old
	}
	km.m[k] = v
	return v
}

// table4Result bundles Table 4's per-relay rows with the totals row.
type table4Result struct {
	rows  []RelayTrustRow
	total RelayTrustRow
}

// figMemo holds one slot per memoized analysis product.
type figMemo struct {
	fig3      memoOf[PaymentShares]
	fig4      memoOf[stats.Series]
	fig5      memoOf[map[string]stats.Series]
	fig6      memoOf[HHISeries]
	fig7      memoOf[map[string]stats.Series]
	fig8      memoOf[map[string]stats.Series]
	fig9      memoOf[ValueSplit]
	fig10     memoOf[ProfitBands]
	boxes     keyedMemo[int, []BuilderBox]
	fig13     memoOf[SizeBands]
	fig14     memoOf[ValueSplit]
	fig15     memoOf[ValueSplit]
	fig16     memoOf[ValueSplit]
	fig17     memoOf[stats.Series]
	fig18     memoOf[ValueSplit]
	fig19     memoOf[ProfitSplit]
	mevKind   keyedMemo[mev.Kind, ValueSplit]
	coverage  memoOf[CoverageReport]
	conc      memoOf[ConcentrationComparison]
	table4    memoOf[table4Result]
	tables23  memoOf[[]RelayPolicyRow]
	ethical   memoOf[map[string]int]
	ofacLag   keyedMemo[int, []LagGapRow]
	mevTotals memoOf[map[mev.Kind]int]
	delay     memoOf[DelayReport]
	clusters  memoOf[[]*Cluster]
}

// Figure3PaymentShares computes the daily payment decomposition (Figure 3).
func (a *Analysis) Figure3PaymentShares() PaymentShares {
	return memoized(a, &a.memo.fig3, a.idx.figure3)
}

// Figure4PBSShare computes the daily share of blocks classified as PBS.
func (a *Analysis) Figure4PBSShare() stats.Series {
	return memoized(a, &a.memo.fig4, func() stats.Series {
		return a.idx.pbs.Share("pbs")
	})
}

// Figure5RelayShares computes each relay's daily share of all blocks, with
// multi-relay blocks attributed fractionally.
func (a *Analysis) Figure5RelayShares() map[string]stats.Series {
	return memoized(a, &a.memo.fig5, a.idx.figure5)
}

// Figure6HHI computes the relay and builder concentration series.
func (a *Analysis) Figure6HHI() HHISeries {
	return memoized(a, &a.memo.fig6, func() HHISeries {
		return HHISeries{Relays: a.idx.relayHHI.HHI(), Builders: a.idx.builderHHI.HHI()}
	})
}

// Figure7BuildersPerRelay counts, per relay and day, the distinct builder
// pubkeys that submitted blocks (from builder_blocks_received).
func (a *Analysis) Figure7BuildersPerRelay() map[string]stats.Series {
	return memoized(a, &a.memo.fig7, a.idxFigure7)
}

// Figure8BuilderShares computes each builder cluster's daily share of all
// blocks.
func (a *Analysis) Figure8BuilderShares() map[string]stats.Series {
	return memoized(a, &a.memo.fig8, a.idx.figure8)
}

// Figure9BlockValue computes daily mean block value (ETH) for PBS and
// non-PBS blocks.
func (a *Analysis) Figure9BlockValue() ValueSplit {
	return memoized(a, &a.memo.fig9, func() ValueSplit {
		return ValueSplit{PBS: a.idx.value.SeriesMean("pbs"), Local: a.idx.value.SeriesMean("local")}
	})
}

// Figure10ProposerProfit computes the daily proposer-profit distribution.
func (a *Analysis) Figure10ProposerProfit() ProfitBands {
	return memoized(a, &a.memo.fig10, a.idx.figure10)
}

// Figures11And12BuilderBoxes computes per-cluster profit distributions for
// the top n builders by block count.
func (a *Analysis) Figures11And12BuilderBoxes(n int) []BuilderBox {
	return memoizedKey(a, &a.memo.boxes, n, func() []BuilderBox {
		return a.idx.figure11And12(n)
	})
}

// Figure13BlockSize computes the block-size series.
func (a *Analysis) Figure13BlockSize() SizeBands {
	return memoized(a, &a.memo.fig13, a.idxFigure13)
}

// Figure14PrivateTxShare computes the daily share of included transactions
// that never appeared in the public mempool, split by PBS class.
func (a *Analysis) Figure14PrivateTxShare() ValueSplit {
	return memoized(a, &a.memo.fig14, func() ValueSplit {
		return meanSplit(a.idx.priv)
	})
}

// Figure15MEVPerBlock computes the daily mean count of MEV transactions per
// block, split by PBS class.
func (a *Analysis) Figure15MEVPerBlock() ValueSplit {
	return memoized(a, &a.memo.fig15, func() ValueSplit {
		return meanSplit(a.idx.mevCount)
	})
}

// Figure16MEVValueShare computes the daily mean share of block value
// attributable to MEV transactions.
func (a *Analysis) Figure16MEVValueShare() ValueSplit {
	return memoized(a, &a.memo.fig16, func() ValueSplit {
		return meanSplit(a.idx.mevShare)
	})
}

// Figure17CensoringShare computes the daily share of PBS blocks delivered
// by relays that announce OFAC compliance.
func (a *Analysis) Figure17CensoringShare() stats.Series {
	return memoized(a, &a.memo.fig17, func() stats.Series {
		return a.idx.censor.Share("censoring")
	})
}

// Figure18SanctionedShare computes the daily share of blocks containing
// non-OFAC-compliant transactions, split by PBS class.
func (a *Analysis) Figure18SanctionedShare() ValueSplit {
	return memoized(a, &a.memo.fig18, func() ValueSplit {
		return meanSplit(a.idx.sanctioned)
	})
}

// Figure19ProfitSplit computes the daily builder/proposer split of PBS
// block value (Appendix C).
func (a *Analysis) Figure19ProfitSplit() ProfitSplit {
	return memoized(a, &a.memo.fig19, a.idx.figure19)
}

// Figure20To22MEVKind computes the per-kind daily mean counts (Appendix D).
func (a *Analysis) Figure20To22MEVKind(kind mev.Kind) ValueSplit {
	return memoizedKey(a, &a.memo.mevKind, kind, func() ValueSplit {
		switch kind {
		case mev.KindSandwich:
			return meanSplit(a.idx.sandwich)
		case mev.KindArbitrage:
			return meanSplit(a.idx.arbitrage)
		default:
			return meanSplit(a.idx.liquidation)
		}
	})
}

// ClassifierCoverage measures the classifier's own coverage (Section 4).
func (a *Analysis) ClassifierCoverage() CoverageReport {
	return memoized(a, &a.memo.coverage, a.idx.cov.report)
}

// RelayConcentration computes daily HHI and Gini over relay block counts.
func (a *Analysis) RelayConcentration() ConcentrationComparison {
	return memoized(a, &a.memo.conc, a.scanRelayConcentration)
}

// Table4RelayTrust audits every relay: promised vs delivered value and
// censorship gaps. Totals are returned as a synthetic "PBS" row.
func (a *Analysis) Table4RelayTrust() ([]RelayTrustRow, RelayTrustRow) {
	r := memoized(a, &a.memo.table4, func() table4Result {
		rows, total := a.scanTable4RelayTrust()
		return table4Result{rows: rows, total: total}
	})
	return r.rows, r.total
}

// Tables2And3Relays reproduces the relay registry and policy matrix.
func (a *Analysis) Tables2And3Relays() []RelayPolicyRow {
	return memoized(a, &a.memo.tables23, a.scanTables2And3Relays)
}

// EthicalFilterGap counts sandwich attacks that landed in blocks delivered
// by a relay that advertises front-running filtering (Section 5.4).
func (a *Analysis) EthicalFilterGap() map[string]int {
	return memoized(a, &a.memo.ethical, a.scanEthicalFilterGap)
}

// OFACUpdateLag measures whether compliant-relay censorship gaps
// concentrate after sanctions-list updates (Section 6).
func (a *Analysis) OFACUpdateLag(windowDays int) []LagGapRow {
	return memoizedKey(a, &a.memo.ofacLag, windowDays, func() []LagGapRow {
		return a.scanOFACUpdateLag(windowDays)
	})
}

// MEVTotals counts union labels per kind (the Appendix D headline totals).
func (a *Analysis) MEVTotals() map[mev.Kind]int {
	return memoized(a, &a.memo.mevTotals, a.scanMEVTotals)
}

// InclusionDelay measures mempool-to-inclusion waiting times for every
// publicly observed transaction, split regular vs sanctioned.
func (a *Analysis) InclusionDelay() DelayReport {
	return memoized(a, &a.memo.delay, func() DelayReport {
		return a.idx.delay // accumulated during the build
	})
}

// Clusters returns the builder identity clusters, largest first.
func (a *Analysis) Clusters() []*Cluster {
	return memoized(a, &a.memo.clusters, a.sortedClusters)
}
