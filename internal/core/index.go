package core

import (
	"context"
	"math"
	"sort"

	"github.com/ethpbs/pbslab/internal/stats"
	"github.com/ethpbs/pbslab/internal/types"
)

// Index is the single-pass analysis index: every per-day aggregate the
// figures and tables need, accumulated in ONE walk over the classified
// corpus instead of one walk per artifact. It is built by NewStreaming
// over day-aligned shards (each worker owns a contiguous day range) and
// merged in shard order, so every running float sum sees samples in
// exactly chain order — the foundation of the byte-identity guarantee
// across worker counts.
//
// After construction the index is read-only; all figure methods can run
// concurrently against it.
type Index struct {
	payment      *stats.DayAgg // Figure 3: "base", "direct", "priority"
	pbs          *stats.DayAgg // Figure 4: "local", "pbs" block counts
	relayFrac    *stats.DayAgg // Figure 5: relays + "(none)", fractional
	relayHHI     *stats.DayAgg // Figure 6: relays, claimed blocks only
	builderHHI   *stats.DayAgg // Figure 6: clusters, attributed PBS blocks
	builderShare *stats.DayAgg // Figure 8: clusters + "(local)", "(unattributed)"
	value        *stats.DayAgg // Figure 9: block value, ETH
	profit       *stats.DayAgg // Figure 10: proposer profit (samples kept)
	gas          *stats.DayAgg // Figure 13: gas used (samples kept)
	priv         *stats.DayAgg // Figure 14: private-tx share
	mevCount     *stats.DayAgg // Figure 15: MEV txs per block
	mevShare     *stats.DayAgg // Figure 16: MEV value share
	sandwich     *stats.DayAgg // Figures 20-22 per kind
	arbitrage    *stats.DayAgg
	liquidation  *stats.DayAgg
	censor       *stats.DayAgg // Figure 17: "censoring", "open", fractional
	sanctioned   *stats.DayAgg // Figure 18: 0/1 per block
	split        *stats.DayAgg // Figure 19: "payment", "value" sums over PBS

	// Figures 11/12: per-cluster profit samples in chain order.
	builderSamples  map[string][]float64
	proposerSamples map[string][]float64
	clusterBlocks   map[string]int

	cov coverageCounts

	// Inclusion-delay report, accumulated by NewStreaming while each
	// batch's transactions were still resident.
	delay DelayReport

	// Cached group slots, identical across all shards (same constructor
	// shape). All local/pbs aggregates share one numbering.
	sBase, sDirect, sPriority int
	sLocal, sPBS              int
	sCensor, sOpen            int
	sPay, sVal                int
	sNone                     int
}

// coverageCounts are the raw Section 4 coverage tallies; shares are derived
// at report time.
type coverageCounts struct {
	pbs, claimed, multi, paid, noPayment, selfBuilt int
}

func (c coverageCounts) report() CoverageReport {
	rep := CoverageReport{PBSBlocks: c.pbs}
	if c.pbs > 0 {
		rep.RelayClaimedShare = float64(c.claimed) / float64(c.pbs)
		rep.PaymentShare = float64(c.paid) / float64(c.pbs)
		rep.MultiRelayClaimsShare = float64(c.multi) / float64(c.pbs)
	}
	if c.noPayment > 0 {
		rep.NoPaymentSelfBuilt = float64(c.selfBuilt) / float64(c.noPayment)
	}
	return rep
}

// newIndexShell allocates one (empty) index covering days [lo, hi]. Every
// shard builds its own shell with identical shape, so partials merge
// slot-for-slot.
func newIndexShell(lo, hi int, relayNames, clusterNames []string) *Index {
	localPBS := []string{"local", "pbs"}
	withNone := append([]string{"(none)"}, relayNames...)
	shareGroups := append([]string{"(local)", "(unattributed)"}, clusterNames...)
	ix := &Index{
		payment:      stats.NewDayAgg(lo, hi, false, "base", "direct", "priority"),
		pbs:          stats.NewDayAgg(lo, hi, false, localPBS...),
		relayFrac:    stats.NewDayAgg(lo, hi, false, withNone...),
		relayHHI:     stats.NewDayAgg(lo, hi, false, relayNames...),
		builderHHI:   stats.NewDayAgg(lo, hi, false, clusterNames...),
		builderShare: stats.NewDayAgg(lo, hi, false, shareGroups...),
		value:        stats.NewDayAgg(lo, hi, false, localPBS...),
		profit:       stats.NewDayAgg(lo, hi, true, localPBS...),
		gas:          stats.NewDayAgg(lo, hi, true, localPBS...),
		priv:         stats.NewDayAgg(lo, hi, false, localPBS...),
		mevCount:     stats.NewDayAgg(lo, hi, false, localPBS...),
		mevShare:     stats.NewDayAgg(lo, hi, false, localPBS...),
		sandwich:     stats.NewDayAgg(lo, hi, false, localPBS...),
		arbitrage:    stats.NewDayAgg(lo, hi, false, localPBS...),
		liquidation:  stats.NewDayAgg(lo, hi, false, localPBS...),
		censor:       stats.NewDayAgg(lo, hi, false, "censoring", "open"),
		sanctioned:   stats.NewDayAgg(lo, hi, false, localPBS...),
		split:        stats.NewDayAgg(lo, hi, false, "payment", "value"),

		builderSamples:  map[string][]float64{},
		proposerSamples: map[string][]float64{},
		clusterBlocks:   map[string]int{},
	}
	ix.sBase = ix.payment.GroupIndex("base")
	ix.sDirect = ix.payment.GroupIndex("direct")
	ix.sPriority = ix.payment.GroupIndex("priority")
	ix.sLocal = ix.pbs.GroupIndex("local")
	ix.sPBS = ix.pbs.GroupIndex("pbs")
	ix.sCensor = ix.censor.GroupIndex("censoring")
	ix.sOpen = ix.censor.GroupIndex("open")
	ix.sPay = ix.split.GroupIndex("payment")
	ix.sVal = ix.split.GroupIndex("value")
	ix.sNone = ix.relayFrac.GroupIndex("(none)")
	return ix
}

// addBlock folds one classified block into every aggregate — the fused body
// of what would otherwise be one scan loop per figure.
func (ix *Index) addBlock(st *BlockStat, compliant map[string]bool) {
	d := st.Day

	// Figure 3: payment decomposition.
	ix.payment.Add(d, ix.sBase, types.ToEther(st.Burned))
	ix.payment.Add(d, ix.sPriority, types.ToEther(st.Value)-types.ToEther(st.DirectTransfers))
	ix.payment.Add(d, ix.sDirect, types.ToEther(st.DirectTransfers))

	cls := ix.sLocal
	if st.PBS {
		cls = ix.sPBS
	}
	// Figure 4: PBS share.
	ix.pbs.Add(d, cls, 1)

	// Figures 5 and 6 (relays): fractional attribution.
	if len(st.RelayClaims) == 0 {
		ix.relayFrac.Add(d, ix.sNone, 1)
	} else {
		frac := 1.0 / float64(len(st.RelayClaims))
		for _, r := range st.RelayClaims {
			ix.relayFrac.Add(d, ix.relayFrac.GroupIndex(r), frac)
			ix.relayHHI.Add(d, ix.relayHHI.GroupIndex(r), frac)
		}
	}

	// Figures 6 (builders), 8, 11/12: cluster attribution.
	if st.PBS && st.BuilderCluster != "" {
		c := st.BuilderCluster
		ix.builderHHI.Add(d, ix.builderHHI.GroupIndex(c), 1)
		ix.builderSamples[c] = append(ix.builderSamples[c], st.BuilderProfitETH())
		ix.proposerSamples[c] = append(ix.proposerSamples[c], types.ToEther(st.Payment))
		ix.clusterBlocks[c]++
	}
	label := "(local)"
	if st.PBS {
		label = st.BuilderCluster
		if label == "" {
			label = "(unattributed)"
		}
	}
	ix.builderShare.Add(d, ix.builderShare.GroupIndex(label), 1)

	// Figures 9, 10, 13.
	ix.value.Add(d, cls, types.ToEther(st.Value))
	ix.profit.Add(d, cls, types.ToEther(st.ProposerProfit()))
	ix.gas.Add(d, cls, float64(st.Block.GasUsed))

	// Figure 14 (blocks with transactions only).
	if st.TotalTxs > 0 {
		ix.priv.Add(d, cls, float64(st.PrivateTxs)/float64(st.TotalTxs))
	}

	// Figures 15, 16, 20-22.
	ix.mevCount.Add(d, cls, float64(st.MEVTxs))
	ix.mevShare.Add(d, cls, st.MEVValueShare)
	ix.sandwich.Add(d, cls, float64(st.Sandwiches))
	ix.arbitrage.Add(d, cls, float64(st.Arbitrages))
	ix.liquidation.Add(d, cls, float64(st.Liquidations))

	// Figure 17: censoring-relay share among claimed PBS blocks.
	if st.PBS && len(st.RelayClaims) > 0 {
		frac := 1.0 / float64(len(st.RelayClaims))
		for _, r := range st.RelayClaims {
			g := ix.sOpen
			if compliant[r] {
				g = ix.sCensor
			}
			ix.censor.Add(d, g, frac)
		}
	}

	// Figure 18.
	v := 0.0
	if st.Sanctioned {
		v = 1
	}
	ix.sanctioned.Add(d, cls, v)

	// Figure 19: per-day PBS value and payment totals.
	if st.PBS {
		ix.split.Add(d, ix.sVal, types.ToEther(st.Value))
		ix.split.Add(d, ix.sPay, types.ToEther(st.Payment))
	}

	// Section 4 coverage.
	if st.PBS {
		ix.cov.pbs++
		if len(st.RelayClaims) > 0 {
			ix.cov.claimed++
		}
		if len(st.RelayClaims) > 1 {
			ix.cov.multi++
		}
		if st.PaymentDetected {
			ix.cov.paid++
		} else {
			ix.cov.noPayment++
			ix.cov.selfBuilt++
		}
	}
}

// merge folds a shard's partial index (covering a disjoint, later day
// range) into ix. Shards merge in day order, so per-cluster sample slices
// concatenate back into chain order.
func (ix *Index) merge(o *Index) {
	ix.payment.Merge(o.payment)
	ix.pbs.Merge(o.pbs)
	ix.relayFrac.Merge(o.relayFrac)
	ix.relayHHI.Merge(o.relayHHI)
	ix.builderHHI.Merge(o.builderHHI)
	ix.builderShare.Merge(o.builderShare)
	ix.value.Merge(o.value)
	ix.profit.Merge(o.profit)
	ix.gas.Merge(o.gas)
	ix.priv.Merge(o.priv)
	ix.mevCount.Merge(o.mevCount)
	ix.mevShare.Merge(o.mevShare)
	ix.sandwich.Merge(o.sandwich)
	ix.arbitrage.Merge(o.arbitrage)
	ix.liquidation.Merge(o.liquidation)
	ix.censor.Merge(o.censor)
	ix.sanctioned.Merge(o.sanctioned)
	ix.split.Merge(o.split)

	for c, s := range o.builderSamples {
		ix.builderSamples[c] = append(ix.builderSamples[c], s...)
	}
	for c, s := range o.proposerSamples {
		ix.proposerSamples[c] = append(ix.proposerSamples[c], s...)
	}
	for c, n := range o.clusterBlocks {
		ix.clusterBlocks[c] += n
	}
	ix.cov.pbs += o.cov.pbs
	ix.cov.claimed += o.cov.claimed
	ix.cov.multi += o.cov.multi
	ix.cov.paid += o.cov.paid
	ix.cov.noPayment += o.cov.noPayment
	ix.cov.selfBuilt += o.cov.selfBuilt
}

// buildIndex runs the sharded single pass. Shards are cut at day boundaries
// so each partial owns its days exclusively; if block days are ever
// non-monotonic (they are not, in chain order), it falls back to one shard
// rather than risk interleaving float additions.
func buildIndex(ctx context.Context, a *Analysis) (*Index, error) {
	lo, hi := 0, 0
	monotonic := true
	if len(a.stats) > 0 {
		lo, hi = a.stats[0].Day, a.stats[0].Day
		prev := lo
		for _, st := range a.stats[1:] {
			if st.Day < prev {
				monotonic = false
			}
			if st.Day < lo {
				lo = st.Day
			}
			if st.Day > hi {
				hi = st.Day
			}
			prev = st.Day
		}
	}
	relayNames := make([]string, 0, len(a.ds.Relays))
	compliant := make(map[string]bool, len(a.ds.Relays))
	for _, r := range a.ds.Relays {
		relayNames = append(relayNames, r.Name)
		compliant[r.Name] = r.OFACCompliant
	}
	clusterNames := make([]string, 0, len(a.clusters))
	for _, c := range a.clusters {
		clusterNames = append(clusterNames, c.Name)
	}

	shards := shardRangesByDay(a.stats, a.workers)
	if !monotonic {
		shards = [][2]int{{0, len(a.stats)}}
	}
	parts := make([]*Index, len(shards))
	err := stats.ParallelDaysErr(ctx, len(shards), a.workers, func(s int) error {
		ix := newIndexShell(lo, hi, relayNames, clusterNames)
		for i := shards[s][0]; i < shards[s][1]; i++ {
			ix.addBlock(a.stats[i], compliant)
		}
		parts[s] = ix
		return nil
	})
	if err != nil {
		return nil, err
	}
	dst := parts[0]
	for _, p := range parts[1:] {
		dst.merge(p)
	}
	dst.profit.Workers = a.workers
	dst.gas.Workers = a.workers
	return dst, nil
}

// shardRangesByDay splits the corpus into at most k contiguous ranges whose
// boundaries never split a day.
func shardRangesByDay(sts []*BlockStat, k int) [][2]int {
	n := len(sts)
	if k > n {
		k = n
	}
	if k <= 1 {
		return [][2]int{{0, n}}
	}
	out := make([][2]int, 0, k)
	start := 0
	for s := 1; s < k && start < n; s++ {
		cut := s * n / k
		if cut <= start {
			continue
		}
		day := sts[cut-1].Day
		for cut < n && sts[cut].Day == day {
			cut++
		}
		if cut >= n {
			break
		}
		out = append(out, [2]int{start, cut})
		start = cut
	}
	return append(out, [2]int{start, n})
}

// meanSplit renders the PBS/local daily means of a local/pbs aggregate.
func meanSplit(d *stats.DayAgg) ValueSplit {
	return ValueSplit{PBS: d.SeriesMean("pbs"), Local: d.SeriesMean("local")}
}

func (ix *Index) figure3() PaymentShares {
	return PaymentShares{
		BaseFee:  ix.payment.Share("base"),
		Priority: ix.payment.Share("priority"),
		Direct:   ix.payment.Share("direct"),
	}
}

func (ix *Index) figure5() map[string]stats.Series {
	out := map[string]stats.Series{}
	for _, name := range ix.relayFrac.Groups() {
		if name == "(none)" || !ix.relayFrac.Observed(name) {
			continue
		}
		out[name] = ix.relayFrac.Share(name)
	}
	return out
}

func (ix *Index) figure8() map[string]stats.Series {
	out := map[string]stats.Series{}
	for _, name := range ix.builderShare.Groups() {
		if name == "(local)" || !ix.builderShare.Observed(name) {
			continue
		}
		out[name] = ix.builderShare.Share(name)
	}
	return out
}

func (ix *Index) figure10() ProfitBands {
	q := func(p float64) func([]float64) float64 {
		return func(v []float64) float64 { return stats.Quantile(v, p) }
	}
	return ProfitBands{
		PBSMedian: ix.profit.SeriesReduce("pbs", stats.Median),
		PBSQ1:     ix.profit.SeriesReduce("pbs", q(0.25)),
		PBSQ3:     ix.profit.SeriesReduce("pbs", q(0.75)),

		LocalMedian: ix.profit.SeriesReduce("local", stats.Median),
		LocalQ1:     ix.profit.SeriesReduce("local", q(0.25)),
		LocalQ3:     ix.profit.SeriesReduce("local", q(0.75)),
	}
}

func (ix *Index) figure11And12(n int) []BuilderBox {
	names := make([]string, 0, len(ix.clusterBlocks))
	for c := range ix.clusterBlocks {
		names = append(names, c)
	}
	sort.Slice(names, func(i, j int) bool {
		bi, bj := ix.clusterBlocks[names[i]], ix.clusterBlocks[names[j]]
		if bi != bj {
			return bi > bj
		}
		return names[i] < names[j]
	})
	if n > 0 && len(names) > n {
		names = names[:n]
	}
	out := make([]BuilderBox, 0, len(names))
	for _, c := range names {
		out = append(out, BuilderBox{
			Cluster:  c,
			Blocks:   ix.clusterBlocks[c],
			Builder:  stats.BoxOf(ix.builderSamples[c]),
			Proposer: stats.BoxOf(ix.proposerSamples[c]),
		})
	}
	return out
}

func (ix *Index) figure19() ProfitSplit {
	val := ix.split.SeriesSum("value")
	if val.Len() == 0 {
		return ProfitSplit{}
	}
	pay := ix.split.SeriesSum("payment")
	builder := stats.Series{Start: val.Start, Values: make([]float64, val.Len())}
	proposer := stats.Series{Start: val.Start, Values: make([]float64, val.Len())}
	for i := range val.Values {
		v := val.Values[i]
		if math.IsNaN(v) || v == 0 {
			builder.Values[i] = math.NaN()
			proposer.Values[i] = math.NaN()
			continue
		}
		p := pay.Values[i]
		proposer.Values[i] = p / v
		builder.Values[i] = 1 - p/v
	}
	return ProfitSplit{BuilderShare: builder, ProposerShare: proposer}
}

// idxFigure13 reads the gas aggregate; the gas target is the last block's
// limit over two.
func (a *Analysis) idxFigure13() SizeBands {
	var target float64
	if n := len(a.stats); n > 0 {
		target = float64(a.stats[n-1].Block.GasLimit) / 2
	}
	ix := a.idx
	return SizeBands{
		PBSMean:   ix.gas.SeriesMean("pbs"),
		PBSStd:    ix.gas.SeriesReduce("pbs", stats.Std),
		LocalMean: ix.gas.SeriesMean("local"),
		LocalStd:  ix.gas.SeriesReduce("local", stats.Std),
		Target:    target,
	}
}

// idxFigure7 computes the per-relay distinct-builder counts with one worker
// per relay; each relay's series is independent, so parallel order cannot
// affect the result.
func (a *Analysis) idxFigure7() map[string]stats.Series {
	slotDays := a.slotDayIndex()
	results := make([]stats.Series, len(a.ds.Relays))
	stats.ParallelDays(len(a.ds.Relays), a.workers, func(i int) {
		r := a.ds.Relays[i]
		perDay := map[int]map[types.PubKey]bool{}
		for _, tr := range r.Received {
			day, ok := slotDays[tr.Slot]
			if !ok {
				continue
			}
			if perDay[day] == nil {
				perDay[day] = map[types.PubKey]bool{}
			}
			perDay[day][tr.BuilderPubkey] = true
		}
		g := stats.NewGrouped()
		for day, pubs := range perDay {
			g.Add(day, "n", float64(len(pubs)))
		}
		results[i] = g.Reduce("n", stats.Sum)
	})
	out := map[string]stats.Series{}
	for i, r := range a.ds.Relays {
		out[r.Name] = results[i]
	}
	return out
}
