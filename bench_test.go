// Benchmarks regenerating every table and figure of the paper's evaluation.
//
// Each benchmark target named in DESIGN.md's per-experiment index runs the
// corresponding analysis over a shared simulated corpus and reports the
// headline metrics the paper's artifact shows, via b.ReportMetric. The
// expensive part — simulating the full measurement window — runs once and
// is shared; the measured body is the analysis computation itself. The
// reported values are the paper's claims; perfbench (perfbench/README.md)
// times the pipeline end to end, and the two Engine benchmarks at the end
// are the render-only timing it does not split out.
//
// Environment knobs:
//
//	PBSLAB_BENCH_DAYS            window length (default 0 = full window)
//	PBSLAB_BENCH_BLOCKS_PER_DAY  slot density  (default 6)
package pbslab_test

import (
	"context"
	"math"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/core"
	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/epbs"
	"github.com/ethpbs/pbslab/internal/mev"
	artifacts "github.com/ethpbs/pbslab/internal/report"
	"github.com/ethpbs/pbslab/internal/sim"
	"github.com/ethpbs/pbslab/internal/types"
)

var (
	fixtureOnce sync.Once
	fixtureA    *core.Analysis
	fixtureRes  *sim.Result
	fixtureErr  error
)

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// fixture simulates the full measurement window once, at bench density.
func fixture(b *testing.B) (*core.Analysis, *sim.Result) {
	b.Helper()
	fixtureOnce.Do(func() {
		sc := sim.DefaultScenario()
		sc.BlocksPerDay = envInt("PBSLAB_BENCH_BLOCKS_PER_DAY", 6)
		if days := envInt("PBSLAB_BENCH_DAYS", 0); days > 0 {
			sc.End = sc.Start.Add(time.Duration(days) * 24 * time.Hour)
		}
		fixtureRes, fixtureErr = sim.Run(context.Background(), sc)
		if fixtureErr != nil {
			return
		}
		// WithoutMemo: per-figure benchmarks loop b.N times and must
		// measure the computation, not a cached-result lookup.
		fixtureA = core.New(fixtureRes.Dataset,
			core.WithBuilderLabels(fixtureRes.World.BuilderLabels()),
			core.WithoutMemo())
	})
	if fixtureErr != nil {
		b.Fatal(fixtureErr)
	}
	return fixtureA, fixtureRes
}

func report(b *testing.B, name string, v float64) {
	b.Helper()
	if math.IsNaN(v) {
		v = -1
	}
	b.ReportMetric(v, name)
}

// --- Tables -----------------------------------------------------------

func BenchmarkTable1Datasets(b *testing.B) {
	a, _ := fixture(b)
	var last int
	for i := 0; i < b.N; i++ {
		c := a.Counts()
		last = c.Transactions
	}
	c := a.Counts()
	report(b, "blocks", float64(c.Blocks))
	report(b, "txs", float64(last))
	report(b, "mev_labels", float64(c.MEVLabelsUnion))
	report(b, "ofac_addrs", float64(c.OFACAddresses))
}

func BenchmarkTable2Relays(b *testing.B) {
	a, _ := fixture(b)
	var rows []core.RelayPolicyRow
	for i := 0; i < b.N; i++ {
		rows = a.Tables2And3Relays()
	}
	report(b, "relays", float64(len(rows)))
}

func BenchmarkTable3Policies(b *testing.B) {
	a, _ := fixture(b)
	censoring, filtering := 0, 0
	for i := 0; i < b.N; i++ {
		censoring, filtering = 0, 0
		for _, r := range a.Tables2And3Relays() {
			if r.OFACCompliant {
				censoring++
			}
			if r.MEVFilter {
				filtering++
			}
		}
	}
	report(b, "censoring", float64(censoring)) // paper: 4
	report(b, "filtering", float64(filtering)) // paper: 1
}

func BenchmarkTable4RelayTrust(b *testing.B) {
	a, _ := fixture(b)
	var total core.RelayTrustRow
	for i := 0; i < b.N; i++ {
		_, total = a.Table4RelayTrust()
	}
	// Paper: 98.7% of promised value delivered, 0.855% over-promised.
	report(b, "share_delivered", total.ShareDelivered)
	report(b, "overpromised", total.OverPromisedBlockShare)
	report(b, "sanctioned", float64(total.SanctionedBlocks))
}

func BenchmarkTable5BuilderIdentities(b *testing.B) {
	a, _ := fixture(b)
	var clusters []*core.Cluster
	for i := 0; i < b.N; i++ {
		clusters = a.Clusters()
	}
	multiKey := 0
	for _, c := range clusters {
		if len(c.Pubkeys) > 1 {
			multiKey++
		}
	}
	report(b, "clusters", float64(len(clusters)))
	report(b, "multi_key", float64(multiKey)) // pubkey rotation recovered
}

// --- Figures ----------------------------------------------------------

func BenchmarkFigure3PaymentShares(b *testing.B) {
	a, _ := fixture(b)
	var ps core.PaymentShares
	for i := 0; i < b.N; i++ {
		ps = a.Figure3PaymentShares()
	}
	// Paper: 72.3% burned, 18.4% priority fee on average.
	report(b, "base_share", ps.BaseFee.MeanValue())
	report(b, "priority_share", ps.Priority.MeanValue())
	report(b, "direct_share", ps.Direct.MeanValue())
}

func BenchmarkFigure4PBSAdoption(b *testing.B) {
	a, _ := fixture(b)
	var share float64
	for i := 0; i < b.N; i++ {
		s := a.Figure4PBSShare()
		share = s.MeanValue()
	}
	s := a.Figure4PBSShare()
	// Paper: ~20% on day 0 rising to 85-94%.
	report(b, "first_day", s.Day(s.Start))
	report(b, "last_day", s.Day(s.Start+s.Len()-1))
	report(b, "mean", share)
}

func BenchmarkFigure5RelayShares(b *testing.B) {
	a, _ := fixture(b)
	var shares map[string]float64
	for i := 0; i < b.N; i++ {
		shares = map[string]float64{}
		for name, s := range a.Figure5RelayShares() {
			shares[name] = s.MeanValue()
		}
	}
	// Paper: Flashbots dominant (declining to 23%), bloXroute (M) ~20%.
	report(b, "flashbots", shares["Flashbots"])
	report(b, "bloxroute_m", shares["bloXroute (MaxProfit)"])
	report(b, "ultrasound", shares["UltraSound"])
}

func BenchmarkFigure6HHI(b *testing.B) {
	a, _ := fixture(b)
	var h core.HHISeries
	for i := 0; i < b.N; i++ {
		h = a.Figure6HHI()
	}
	// Paper: relay HHI 0.19-0.80 (declining); builder HHI mean 0.21.
	rMin, rMax := h.Relays.MinMax()
	report(b, "relay_min", rMin)
	report(b, "relay_max", rMax)
	report(b, "builder_mean", h.Builders.MeanValue())
}

func BenchmarkFigure7BuildersPerRelay(b *testing.B) {
	a, _ := fixture(b)
	var per map[string]float64
	for i := 0; i < b.N; i++ {
		per = map[string]float64{}
		for name, s := range a.Figure7BuildersPerRelay() {
			per[name] = s.MeanValue()
		}
	}
	// Paper: permissionless relays host the most builders (~30 Flashbots).
	report(b, "flashbots", per["Flashbots"])
	report(b, "eden_internal", per["Eden"])
}

func BenchmarkFigure8BuilderShares(b *testing.B) {
	a, _ := fixture(b)
	var top3 float64
	for i := 0; i < b.N; i++ {
		shares := a.Figure8BuilderShares()
		top3 = shares["Flashbots"].MeanValue() +
			shares["builder0x69"].MeanValue() +
			shares["beaverbuild"].MeanValue()
	}
	// Paper: the top three builders together exceed half of all blocks.
	report(b, "top3_share", top3)
}

func BenchmarkFigure9BlockValue(b *testing.B) {
	a, _ := fixture(b)
	var v core.ValueSplit
	for i := 0; i < b.N; i++ {
		v = a.Figure9BlockValue()
	}
	// Paper: PBS block value consistently above non-PBS.
	report(b, "pbs_eth", v.PBS.MeanValue())
	report(b, "local_eth", v.Local.MeanValue())
	report(b, "ratio", v.PBS.MeanValue()/v.Local.MeanValue())
}

func BenchmarkFigure10ProposerProfit(b *testing.B) {
	a, _ := fixture(b)
	var p core.ProfitBands
	for i := 0; i < b.N; i++ {
		p = a.Figure10ProposerProfit()
	}
	// Paper: PBS 25th percentile generally above the non-PBS 75th.
	report(b, "pbs_median", p.PBSMedian.MeanValue())
	report(b, "local_median", p.LocalMedian.MeanValue())
	report(b, "pbs_q1", p.PBSQ1.MeanValue())
	report(b, "local_q3", p.LocalQ3.MeanValue())
}

func BenchmarkFigure11BuilderProfit(b *testing.B) {
	a, _ := fixture(b)
	var boxes []core.BuilderBox
	for i := 0; i < b.N; i++ {
		boxes = a.Figures11And12BuilderBoxes(11)
	}
	// Paper: some builders' mean profit is negative (subsidies).
	subsidizers := 0
	for _, bx := range boxes {
		if bx.Builder.Mean < 0 {
			subsidizers++
		}
	}
	report(b, "builders", float64(len(boxes)))
	report(b, "subsidizing", float64(subsidizers))
}

func BenchmarkFigure12ProposerProfitByBuilder(b *testing.B) {
	a, _ := fixture(b)
	var boxes []core.BuilderBox
	for i := 0; i < b.N; i++ {
		boxes = a.Figures11And12BuilderBoxes(11)
	}
	// Paper: proposer profits are ~10x builder profits and right-skewed.
	var propMean, buildMean float64
	for _, bx := range boxes {
		propMean += bx.Proposer.Mean
		buildMean += math.Abs(bx.Builder.Mean)
	}
	if buildMean > 0 {
		report(b, "proposer_to_builder", propMean/buildMean)
	}
}

func BenchmarkFigure13BlockSize(b *testing.B) {
	a, _ := fixture(b)
	var s core.SizeBands
	for i := 0; i < b.N; i++ {
		s = a.Figure13BlockSize()
	}
	// Paper: PBS hovers above the 15M target; non-PBS sits below it.
	report(b, "pbs_gas", s.PBSMean.MeanValue())
	report(b, "local_gas", s.LocalMean.MeanValue())
	report(b, "target", s.Target)
}

func BenchmarkFigure14PrivateTxs(b *testing.B) {
	a, res := fixture(b)
	var v core.ValueSplit
	for i := 0; i < b.N; i++ {
		v = a.Figure14PrivateTxShare()
	}
	// Paper: private flow is a PBS phenomenon, except the December
	// Binance→AnkrPool episode in non-PBS blocks.
	report(b, "pbs_share", v.PBS.MeanValue())
	report(b, "local_share", v.Local.MeanValue())
	// Peak over the whole episode window: individual days depend on which
	// slots AnkrPool happened to propose.
	peak := 0.0
	for d := res.Dataset.Day(sim.BinanceFlowStart); d <= res.Dataset.Day(sim.BinanceFlowEnd); d++ {
		if x := v.Local.Day(d); !math.IsNaN(x) && x > peak {
			peak = x
		}
	}
	report(b, "local_dec_peak", peak)
}

func BenchmarkFigure15MEVCount(b *testing.B) {
	a, _ := fixture(b)
	var v core.ValueSplit
	for i := 0; i < b.N; i++ {
		v = a.Figure15MEVPerBlock()
	}
	report(b, "pbs_per_block", v.PBS.MeanValue())
	report(b, "local_per_block", v.Local.MeanValue())
}

func BenchmarkFigure16MEVShare(b *testing.B) {
	a, _ := fixture(b)
	var v core.ValueSplit
	for i := 0; i < b.N; i++ {
		v = a.Figure16MEVValueShare()
	}
	// Paper: 14.4% of PBS block value is MEV; almost none for non-PBS.
	report(b, "pbs_share", v.PBS.MeanValue())
	report(b, "local_share", v.Local.MeanValue())
}

func BenchmarkFigure17CensoringShare(b *testing.B) {
	a, _ := fixture(b)
	var s float64
	var first, last float64
	for i := 0; i < b.N; i++ {
		series := a.Figure17CensoringShare()
		s = series.MeanValue()
		first = series.Day(series.Start)
		last = series.Day(series.Start + series.Len() - 1)
	}
	// Paper: >80% early, declining toward ~45%.
	report(b, "mean", s)
	report(b, "first_day", first)
	report(b, "last_day", last)
}

func BenchmarkFigure18SanctionedBlocks(b *testing.B) {
	a, _ := fixture(b)
	var v core.ValueSplit
	for i := 0; i < b.N; i++ {
		v = a.Figure18SanctionedShare()
	}
	// Paper: non-PBS blocks ~2x as likely to carry sanctioned txs.
	report(b, "pbs_share", v.PBS.MeanValue())
	report(b, "local_share", v.Local.MeanValue())
	if v.PBS.MeanValue() > 0 {
		report(b, "local_to_pbs", v.Local.MeanValue()/v.PBS.MeanValue())
	}
}

func BenchmarkFigure19ProfitShares(b *testing.B) {
	a, _ := fixture(b)
	var p core.ProfitSplit
	for i := 0; i < b.N; i++ {
		p = a.Figure19ProfitSplit()
	}
	// Paper (App. C): proposers take the large majority of PBS value.
	report(b, "proposer_share", p.ProposerShare.MeanValue())
	report(b, "builder_share", p.BuilderShare.MeanValue())
}

func BenchmarkFigure20Sandwiches(b *testing.B) {
	benchMEVKind(b, mev.KindSandwich)
}

func BenchmarkFigure21Arbitrage(b *testing.B) {
	benchMEVKind(b, mev.KindArbitrage)
}

func BenchmarkFigure22Liquidations(b *testing.B) {
	benchMEVKind(b, mev.KindLiquidation)
}

func benchMEVKind(b *testing.B, kind mev.Kind) {
	a, _ := fixture(b)
	var v core.ValueSplit
	for i := 0; i < b.N; i++ {
		v = a.Figure20To22MEVKind(kind)
	}
	report(b, "pbs_per_block", v.PBS.MeanValue())
	report(b, "local_per_block", v.Local.MeanValue())
	report(b, "total", float64(a.MEVTotals()[kind]))
}

// --- Section-text measurements ----------------------------------------

func BenchmarkClassifierCoverage(b *testing.B) {
	a, res := fixture(b)
	var rep core.CoverageReport
	for i := 0; i < b.N; i++ {
		rep = a.ClassifierCoverage()
	}
	// Paper: 99.6% relay-claimed, 92% payment convention, ~5% multi-relay.
	report(b, "relay_claimed", rep.RelayClaimedShare)
	report(b, "payment", rep.PaymentShare)
	report(b, "multi_relay", rep.MultiRelayClaimsShare)

	// Against ground truth (the simulator's private knowledge).
	agree, total := 0, 0
	for _, st := range a.Blocks() {
		total++
		if st.PBS == res.Truth.PBS[st.Block.Number] {
			agree++
		}
	}
	report(b, "accuracy", float64(agree)/float64(total))
}

func BenchmarkEthicalFilterGap(b *testing.B) {
	a, _ := fixture(b)
	var gaps map[string]int
	for i := 0; i < b.N; i++ {
		gaps = a.EthicalFilterGap()
	}
	// Paper: 2,002 sandwiches through bloXroute (Ethical).
	report(b, "slipped", float64(gaps["bloXroute (Ethical)"]))
}

func BenchmarkOFACUpdateLag(b *testing.B) {
	a, _ := fixture(b)
	var rows []core.LagGapRow
	for i := 0; i < b.N; i++ {
		rows = a.OFACUpdateLag(7)
	}
	// Paper: gaps concentrate after list updates.
	var window, baseline float64
	for _, r := range rows {
		window += r.WindowPerDay
		baseline += r.BaselinePerDay
	}
	report(b, "window_per_day", window)
	report(b, "baseline_per_day", baseline)
}

// --- Ablations (design-choice benchmarks; short windows) ---------------

func ablationScenario(days int) sim.Scenario {
	sc := sim.DefaultScenario()
	sc.End = sc.Start.Add(time.Duration(days) * 24 * time.Hour)
	sc.BlocksPerDay = 12
	sc.Demand.Users = 150
	sc.SmallBuilderCount = 20
	return sc
}

func runAblation(b *testing.B, mutate func(*sim.Scenario)) *core.Analysis {
	b.Helper()
	sc := ablationScenario(14)
	if mutate != nil {
		mutate(&sc)
	}
	res, err := sim.Run(context.Background(), sc)
	if err != nil {
		b.Fatal(err)
	}
	return core.New(res.Dataset, core.WithBuilderLabels(res.World.BuilderLabels()))
}

// BenchmarkAblationNoSubsidy removes builder subsidies: Figure 11's
// negative-profit tail disappears.
func BenchmarkAblationNoSubsidy(b *testing.B) {
	var subsidizing float64
	for i := 0; i < b.N; i++ {
		a := runAblation(b, func(sc *sim.Scenario) {
			for j := range sc.Builders {
				sc.Builders[j].Profile.SubsidyProb = 0
				sc.Builders[j].SubsidyOverride = sim.Curve{}
				// Zero the margin spread too: a noisy margin draw can dip
				// negative, which is itself a subsidy.
				sc.Builders[j].Profile.MarginSigmaETH = 0
				if sc.Builders[j].Profile.MarginETH < 0 {
					sc.Builders[j].Profile.MarginETH = 0.0005
				}
			}
		})
		subsidizing = 0
		for _, bx := range a.Figures11And12BuilderBoxes(11) {
			if bx.Builder.Mean < 0 {
				subsidizing++
			}
		}
	}
	report(b, "subsidizing_builders", subsidizing) // expect 0
}

// BenchmarkAblationSingleRelay routes everything through one relay: the
// relay HHI pins at 1.
func BenchmarkAblationSingleRelay(b *testing.B) {
	var hhi float64
	for i := 0; i < b.N; i++ {
		a := runAblation(b, func(sc *sim.Scenario) {
			sc.RelayEras = []sim.RelayEra{{
				From:               sc.Start,
				RelaysPerValidator: 1,
				Weights:            map[string]float64{"Flashbots": 1},
			}}
		})
		hhi = a.Figure6HHI().Relays.MeanValue()
	}
	report(b, "relay_hhi", hhi) // expect 1.0
}

// BenchmarkAblationNoPrivateFlow pushes all user flow through the public
// mempool: the PBS private-tx signal collapses.
func BenchmarkAblationNoPrivateFlow(b *testing.B) {
	var pbsPrivate float64
	for i := 0; i < b.N; i++ {
		a := runAblation(b, func(sc *sim.Scenario) {
			sc.Demand.PrivateUserFraction = 0
		})
		pbsPrivate = a.Figure14PrivateTxShare().PBS.MeanValue()
	}
	report(b, "pbs_private_share", pbsPrivate) // only bundles remain
}

// BenchmarkAblationUniformBuilders levels builder skill: the PBS value
// advantage narrows to the MEV-access gap.
func BenchmarkAblationUniformBuilders(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		a := runAblation(b, func(sc *sim.Scenario) {
			for j := range sc.Builders {
				sc.Builders[j].Profile.MempoolCoverage = 0.7
				sc.Builders[j].Flow = sim.Flat(0.5)
				sc.Builders[j].ExclusiveSearcher = false
			}
		})
		v := a.Figure9BlockValue()
		ratio = v.PBS.MeanValue() / v.Local.MeanValue()
	}
	report(b, "value_ratio", ratio)
}

// --- Extensions (Section 8 / related-work analyses) ---------------------

// BenchmarkExtensionEnshrinedPBS replays every relay-delivered bid of the
// corpus through the enshrined-PBS settlement (internal/epbs): the same
// promises that relays under-delivered (Table 4) are protocol-enforced to
// 100%, the property the paper's concluding discussion says native PBS
// would guarantee — and nothing more.
func BenchmarkExtensionEnshrinedPBS(b *testing.B) {
	a, _ := fixture(b)
	var relayShare, epbsShare float64
	for i := 0; i < b.N; i++ {
		_, total := a.Table4RelayTrust()
		relayShare = total.ShareDelivered

		market := epbs.NewMarket()
		key := crypto.NewKey([]byte("epbs-bench-builder"))
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
				b.Fatal(err)
			}
			s, err := market.Settle(c, nil) // reveal irrelevant for payment
			if err != nil {
				b.Fatal(err)
			}
			settlements = append(settlements, s)
		}
		_, _, epbsShare = epbs.Audit(settlements)
	}
	report(b, "relay_delivered_share", relayShare)
	report(b, "epbs_delivered_share", epbsShare) // 1.0 by construction
}

// BenchmarkExtensionInclusionDelay measures mempool-to-inclusion waiting
// times for sanctioned vs regular transactions (the Yang et al. result the
// paper's related work cites: sanctioned transactions waited ~68% longer).
func BenchmarkExtensionInclusionDelay(b *testing.B) {
	a, _ := fixture(b)
	var rep core.DelayReport
	for i := 0; i < b.N; i++ {
		rep = a.InclusionDelay()
	}
	report(b, "regular_mean_s", rep.Regular.Mean)
	report(b, "sanctioned_mean_s", rep.Sanctioned.Mean)
	report(b, "ratio", rep.MeanRatio) // > 1: sanctioned txs wait longer
}

// --- Engine (DESIGN.md §6: parallel single-pass analysis) ---------------
//
// The engine splits analysis into a build stage (classify every block, then
// one fused index pass — EngineIndexBuild) and a render stage (regenerate
// all 19 artifacts from the built analysis — EngineRegenIndexed, with
// construction excluded from the timer). The build's share of a
// regeneration is the first's ns/op over the second's.

// BenchmarkEngineRegenIndexed renders every artifact (18 figure CSVs plus
// tables.txt) from the single-pass index through the bounded worker pool.
// WithoutMemo keeps the per-iteration work honest: every iteration recomputes each artifact from
// the index rather than returning a cached result.
func BenchmarkEngineRegenIndexed(b *testing.B) {
	_, res := fixture(b)
	a := core.New(res.Dataset,
		core.WithBuilderLabels(res.World.BuilderLabels()),
		core.WithoutMemo())
	b.ResetTimer()
	var arts []artifacts.Artifact
	for i := 0; i < b.N; i++ {
		arts = artifacts.RenderAll(context.Background(), a, a.Workers())
	}
	report(b, "artifacts", float64(len(arts)))
}

// BenchmarkEngineIndexBuild measures analysis construction — parallel
// block classification plus the fused single-pass index build (which now
// also absorbs the transaction-level inclusion-delay walk) — so the
// up-front cost the indexed render path amortizes is visible next to it.
func BenchmarkEngineIndexBuild(b *testing.B) {
	_, res := fixture(b)
	labels := res.World.BuilderLabels()
	b.ResetTimer()
	var a *core.Analysis
	for i := 0; i < b.N; i++ {
		a = core.New(res.Dataset, core.WithBuilderLabels(labels))
	}
	report(b, "blocks", float64(len(a.Blocks())))
}
