package core

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"github.com/ethpbs/pbslab/internal/mev"
	"github.com/ethpbs/pbslab/internal/stats"
)

// DayFigure declares one of the paper's day-indexed figures. It is the one
// place a figure's key, number, title and series names are written: the
// report renders each entry as the artifact Key+".csv" (WriteCSV), and
// pbslabd answers /api/v1/figure/{Key} from the same Series, so the two
// views of a figure cannot drift apart.
type DayFigure struct {
	// Key is both the artifact file stem and the query key.
	Key string
	// Number is the figure's number in the paper.
	Number int
	// Title is the short title; the CSV heads it "Figure <Number>: ".
	Title string

	// Exactly one of series and value is set: value for a figure of one
	// unnamed series, written as bare "day,value" rows.
	series func(a *Analysis) map[string]stats.Series
	value  func(a *Analysis) stats.Series
	// note, when set, is a comment line written above the title.
	note func(a *Analysis) string
}

// Series computes the figure's named day-indexed series. A single-series
// figure reports its series under the name "value".
func (f DayFigure) Series(a *Analysis) map[string]stats.Series {
	if f.value != nil {
		return map[string]stats.Series{"value": f.value(a)}
	}
	return f.series(a)
}

// WriteCSV renders the figure as its CSV artifact: a "# Figure N: title"
// comment, a "day,<series>" header row (omitted for a single-series
// figure), then one row per day with each value at %.6f and an undefined
// day left empty.
func (f DayFigure) WriteCSV(w io.Writer, a *Analysis) {
	if f.note != nil {
		fmt.Fprintf(w, "# %s\n", f.note(a))
	}
	title := fmt.Sprintf("Figure %d: %s", f.Number, f.Title)
	if f.value != nil {
		renderSeries(w, title, f.value(a))
		return
	}
	renderMultiSeries(w, title, f.series(a))
}

// split names a PBS/non-PBS pair "pbs" and "local".
func split(get func(a *Analysis) ValueSplit) func(a *Analysis) map[string]stats.Series {
	return func(a *Analysis) map[string]stats.Series {
		v := get(a)
		return map[string]stats.Series{"pbs": v.PBS, "local": v.Local}
	}
}

// mevKind is split over one MEV kind's per-block counts.
func mevKind(kind mev.Kind) func(a *Analysis) map[string]stats.Series {
	return split(func(a *Analysis) ValueSplit { return a.Figure20To22MEVKind(kind) })
}

// DayFigures lists the paper's day-indexed figures in artifact order.
// Figures 11 and 12 (per-builder box plots) and the tables are not
// day-indexed series and are not listed. The table is read-only.
var DayFigures = []DayFigure{
	{Key: "fig03_payment_shares", Number: 3, Title: "share of user payments",
		series: func(a *Analysis) map[string]stats.Series {
			ps := a.Figure3PaymentShares()
			return map[string]stats.Series{"base_fee": ps.BaseFee, "priority_fee": ps.Priority, "direct_transfers": ps.Direct}
		}},
	{Key: "fig04_pbs_share", Number: 4, Title: "daily PBS share",
		value: (*Analysis).Figure4PBSShare},
	{Key: "fig05_relay_shares", Number: 5, Title: "daily relay shares",
		series: (*Analysis).Figure5RelayShares},
	{Key: "fig06_hhi", Number: 6, Title: "relay and builder HHI",
		series: func(a *Analysis) map[string]stats.Series {
			h := a.Figure6HHI()
			return map[string]stats.Series{"relays": h.Relays, "builders": h.Builders}
		}},
	{Key: "fig07_builders_per_relay", Number: 7, Title: "builders per relay",
		series: (*Analysis).Figure7BuildersPerRelay},
	{Key: "fig08_builder_shares", Number: 8, Title: "daily builder shares",
		series: (*Analysis).Figure8BuilderShares},
	{Key: "fig09_block_value", Number: 9, Title: "mean daily block value [ETH]",
		series: split((*Analysis).Figure9BlockValue)},
	{Key: "fig10_proposer_profit", Number: 10, Title: "daily proposer profit [ETH]",
		series: func(a *Analysis) map[string]stats.Series {
			p := a.Figure10ProposerProfit()
			return map[string]stats.Series{
				"pbs_median": p.PBSMedian, "pbs_q1": p.PBSQ1, "pbs_q3": p.PBSQ3,
				"local_median": p.LocalMedian, "local_q1": p.LocalQ1, "local_q3": p.LocalQ3,
			}
		}},
	{Key: "fig13_block_size", Number: 13, Title: "mean daily gas used",
		series: func(a *Analysis) map[string]stats.Series {
			s := a.Figure13BlockSize()
			return map[string]stats.Series{
				"pbs_mean": s.PBSMean, "pbs_std": s.PBSStd,
				"local_mean": s.LocalMean, "local_std": s.LocalStd,
			}
		},
		note: func(a *Analysis) string { return fmt.Sprintf("target gas = %.0f", a.Figure13BlockSize().Target) }},
	{Key: "fig14_private_txs", Number: 14, Title: "daily private tx share",
		series: split((*Analysis).Figure14PrivateTxShare)},
	{Key: "fig15_mev_per_block", Number: 15, Title: "mean MEV txs per block",
		series: split((*Analysis).Figure15MEVPerBlock)},
	{Key: "fig16_mev_value_share", Number: 16, Title: "MEV share of block value",
		series: split((*Analysis).Figure16MEVValueShare)},
	{Key: "fig17_censoring_share", Number: 17, Title: "share of PBS blocks via OFAC-compliant relays",
		value: (*Analysis).Figure17CensoringShare},
	{Key: "fig18_sanctioned_share", Number: 18, Title: "share of blocks with sanctioned txs",
		series: split((*Analysis).Figure18SanctionedShare)},
	{Key: "fig19_profit_split", Number: 19, Title: "builder/proposer profit split",
		series: func(a *Analysis) map[string]stats.Series {
			p := a.Figure19ProfitSplit()
			return map[string]stats.Series{"builder": p.BuilderShare, "proposer": p.ProposerShare}
		}},
	{Key: "fig20_sandwiches", Number: 20, Title: "sandwiches per block",
		series: mevKind(mev.KindSandwich)},
	{Key: "fig21_arbitrage", Number: 21, Title: "cyclic arbitrage per block",
		series: mevKind(mev.KindArbitrage)},
	{Key: "fig22_liquidations", Number: 22, Title: "liquidations per block",
		series: mevKind(mev.KindLiquidation)},
}

// renderSeries writes a day-indexed series as "day,value" CSV rows.
func renderSeries(w io.Writer, name string, s stats.Series) {
	fmt.Fprintf(w, "# %s\n", name)
	for i, v := range s.Values {
		day := s.Start + i
		if math.IsNaN(v) {
			fmt.Fprintf(w, "%d,\n", day)
			continue
		}
		fmt.Fprintf(w, "%d,%.6f\n", day, v)
	}
}

// renderMultiSeries writes several named series side by side as CSV.
func renderMultiSeries(w io.Writer, title string, series map[string]stats.Series) {
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s\nday,%s\n", title, strings.Join(names, ","))

	lo, hi := math.MaxInt32, -1
	for _, s := range series {
		if s.Len() == 0 {
			continue
		}
		if s.Start < lo {
			lo = s.Start
		}
		if end := s.Start + s.Len() - 1; end > hi {
			hi = end
		}
	}
	if hi < 0 {
		return
	}
	for day := lo; day <= hi; day++ {
		row := []string{fmt.Sprintf("%d", day)}
		for _, n := range names {
			v := series[n].Day(day)
			if math.IsNaN(v) {
				row = append(row, "")
			} else {
				row = append(row, fmt.Sprintf("%.6f", v))
			}
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}
