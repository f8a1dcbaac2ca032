package core

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"github.com/ethpbs/pbslab/internal/mev"
)

// RenderTable4 prints the relay trust audit in the paper's column order.
func RenderTable4(w io.Writer, rows []RelayTrustRow, total RelayTrustRow) {
	fmt.Fprintln(w, "# Table 4: delivered vs promised value and sanctioned blocks per relay")
	fmt.Fprintf(w, "%-24s %14s %14s %10s %12s %12s %10s\n",
		"relay", "delivered[ETH]", "promised[ETH]", "share[%]", "overprom[%]", "sanctioned", "share[%]")
	line := func(r RelayTrustRow) {
		name := r.Relay
		if r.OFACCompliant {
			name += " *"
		}
		fmt.Fprintf(w, "%-24s %14.4f %14.4f %10.4f %12.4f %12d %10.4f\n",
			name, r.DeliveredETH, r.PromisedETH, 100*r.ShareDelivered,
			100*r.OverPromisedBlockShare, r.SanctionedBlocks, 100*r.SanctionedShare)
	}
	for _, r := range rows {
		line(r)
	}
	fmt.Fprintln(w, strings.Repeat("-", 102))
	line(total)
	fmt.Fprintln(w, "(* announces OFAC compliance)")
}

// RenderTables2And3 prints the relay registry and policy matrix.
func RenderTables2And3(w io.Writer, rows []RelayPolicyRow) {
	fmt.Fprintln(w, "# Tables 2+3: relay registry and policies")
	fmt.Fprintf(w, "%-24s %-45s %-10s %-28s %-15s %-10s\n",
		"relay", "endpoint", "fork", "builders", "censorship", "mev-filter")
	for _, r := range rows {
		cens := "x"
		if r.OFACCompliant {
			cens = "OFAC-compliant"
		}
		filt := "x"
		if r.MEVFilter {
			filt = "front-running"
		}
		fmt.Fprintf(w, "%-24s %-45s %-10s %-28s %-15s %-10s\n",
			r.Relay, r.Endpoint, r.Fork, r.BuilderAccess, cens, filt)
	}
}

// RenderBuilderBoxes prints the Figure 11/12 box statistics.
func RenderBuilderBoxes(w io.Writer, boxes []BuilderBox) {
	fmt.Fprintln(w, "# Figures 11+12: builder and proposer profit per builder [ETH]")
	fmt.Fprintf(w, "%-28s %8s | %10s %10s %10s | %10s %10s %10s\n",
		"builder", "blocks", "b.q1", "b.median", "b.mean", "p.q1", "p.median", "p.mean")
	for _, b := range boxes {
		fmt.Fprintf(w, "%-28s %8d | %10.5f %10.5f %10.5f | %10.5f %10.5f %10.5f\n",
			b.Cluster, b.Blocks,
			b.Builder.Q1, b.Builder.Median, b.Builder.Mean,
			b.Proposer.Q1, b.Proposer.Median, b.Proposer.Mean)
	}
}

// RenderTable5 prints builder identity clusters.
func RenderTable5(w io.Writer, clusters []*Cluster, max int) {
	fmt.Fprintln(w, "# Table 5: builder fee recipients and public keys")
	for i, c := range clusters {
		if max > 0 && i >= max {
			break
		}
		fmt.Fprintf(w, "%-28s %s  blocks=%d\n", c.Name, c.FeeRecipient.Hex(), c.Blocks)
		for _, p := range c.Pubkeys {
			fmt.Fprintf(w, "    %s\n", p.Hex())
		}
	}
}

// RenderCoverage prints the classifier-coverage measurement.
func RenderCoverage(w io.Writer, rep CoverageReport) {
	fmt.Fprintf(w, "# Classifier coverage (Section 4)\n")
	fmt.Fprintf(w, "PBS blocks:             %d\n", rep.PBSBlocks)
	fmt.Fprintf(w, "relay-claimed share:    %.4f\n", rep.RelayClaimedShare)
	fmt.Fprintf(w, "payment-conv. share:    %.4f\n", rep.PaymentShare)
	fmt.Fprintf(w, "no-payment self-built:  %.4f\n", rep.NoPaymentSelfBuilt)
	fmt.Fprintf(w, "multi-relay share:      %.4f\n", rep.MultiRelayClaimsShare)
}

// Summary is the one-screen digest of every headline number; cmd/pbslab
// prints it after a run, and EXPERIMENTS.md quotes it.
func (a *Analysis) Summary(w io.Writer) {
	fmt.Fprintf(w, "=== pbslab analysis summary ===\n")
	counts := a.Counts()
	fmt.Fprintf(w, "blocks=%d txs=%d logs=%d traces=%d days=%d\n",
		counts.Blocks, counts.Transactions, counts.Logs, counts.Traces, a.ds.Days())

	share := a.Figure4PBSShare()
	fmt.Fprintf(w, "PBS share: first-day=%.2f last-day=%.2f mean=%.2f\n",
		share.Day(share.Start), share.Day(share.Start+share.Len()-1), share.MeanValue())

	hhi := a.Figure6HHI()
	rMin, rMax := hhi.Relays.MinMax()
	bMin, bMax := hhi.Builders.MinMax()
	fmt.Fprintf(w, "relay HHI: min=%.2f max=%.2f mean=%.2f | builder HHI: min=%.2f max=%.2f mean=%.2f\n",
		rMin, rMax, hhi.Relays.MeanValue(), bMin, bMax, hhi.Builders.MeanValue())

	val := a.Figure9BlockValue()
	fmt.Fprintf(w, "block value [ETH]: PBS mean=%.4f local mean=%.4f ratio=%.2f\n",
		val.PBS.MeanValue(), val.Local.MeanValue(), val.PBS.MeanValue()/val.Local.MeanValue())

	profit := a.Figure10ProposerProfit()
	fmt.Fprintf(w, "proposer profit [ETH]: PBS median=%.4f local median=%.4f\n",
		profit.PBSMedian.MeanValue(), profit.LocalMedian.MeanValue())

	mevSplit := a.Figure15MEVPerBlock()
	fmt.Fprintf(w, "MEV txs/block: PBS=%.2f local=%.2f\n",
		mevSplit.PBS.MeanValue(), mevSplit.Local.MeanValue())
	mevShare := a.Figure16MEVValueShare()
	fmt.Fprintf(w, "MEV value share: PBS=%.3f local=%.3f\n",
		mevShare.PBS.MeanValue(), mevShare.Local.MeanValue())

	sanc := a.Figure18SanctionedShare()
	fmt.Fprintf(w, "sanctioned-block share: PBS=%.4f local=%.4f (local/PBS=%.1fx)\n",
		sanc.PBS.MeanValue(), sanc.Local.MeanValue(),
		sanc.Local.MeanValue()/math.Max(sanc.PBS.MeanValue(), 1e-9))

	_, total := a.Table4RelayTrust()
	fmt.Fprintf(w, "relay trust: delivered %.2f of promised %.2f ETH (%.3f%%), over-promised blocks %.3f%%\n",
		total.DeliveredETH, total.PromisedETH, 100*total.ShareDelivered,
		100*total.OverPromisedBlockShare)

	cov := a.ClassifierCoverage()
	fmt.Fprintf(w, "classifier: relay-claimed=%.3f payment=%.3f multi-relay=%.3f\n",
		cov.RelayClaimedShare, cov.PaymentShare, cov.MultiRelayClaimsShare)

	totals := a.MEVTotals()
	fmt.Fprintf(w, "MEV totals: sandwich=%d arbitrage=%d liquidation=%d\n",
		totals[mev.KindSandwich], totals[mev.KindArbitrage], totals[mev.KindLiquidation])

	gaps := a.EthicalFilterGap()
	names := make([]string, 0, len(gaps))
	for name := range gaps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "MEV-filter gap: %d sandwiches through %s\n", gaps[name], name)
	}
}
