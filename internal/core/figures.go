package core

import (
	"math"

	"github.com/ethpbs/pbslab/internal/stats"
)

// PaymentShares is Figure 3: the daily split of user payments between the
// burned base fee, priority fees and direct transfers.
type PaymentShares struct {
	BaseFee  stats.Series
	Priority stats.Series
	Direct   stats.Series
}

// HHISeries is Figure 6: daily concentration of relays and builders.
type HHISeries struct {
	Relays   stats.Series
	Builders stats.Series
}

// slotDayIndex maps slots to day indexes via the block corpus.
func (a *Analysis) slotDayIndex() map[uint64]int {
	out := map[uint64]int{}
	for _, st := range a.stats {
		out[st.Block.Slot] = st.Day
	}
	return out
}

// ValueSplit is a PBS/non-PBS pair of series.
type ValueSplit struct {
	PBS   stats.Series
	Local stats.Series
}

// ProfitBands is Figure 10: daily median proposer profit with quartiles.
type ProfitBands struct {
	PBSMedian, PBSQ1, PBSQ3       stats.Series
	LocalMedian, LocalQ1, LocalQ3 stats.Series
}

// BuilderBox is one builder's profit distribution (Figures 11/12).
type BuilderBox struct {
	Cluster  string
	Blocks   int
	Builder  stats.Box // builder profit per block, ETH (can be negative)
	Proposer stats.Box // proposer payment per block, ETH
}

// SizeBands is Figure 13: daily mean gas used with standard deviation.
type SizeBands struct {
	PBSMean, PBSStd     stats.Series
	LocalMean, LocalStd stats.Series
	Target              float64
}

// ProfitSplit is Appendix C's daily builder/proposer split of PBS block
// value. Shares are of the day's total PBS value; the builder share can be
// negative on subsidy-heavy days.
type ProfitSplit struct {
	BuilderShare  stats.Series
	ProposerShare stats.Series
}

// CoverageReport is the Section 4 classifier-coverage measurement: among
// PBS blocks, the share claimed by relays, the share showing the payment
// convention, and — for payment-less relay-claimed blocks — the share where
// builder and proposer fee recipients coincide.
type CoverageReport struct {
	PBSBlocks             int
	RelayClaimedShare     float64
	PaymentShare          float64
	NoPaymentSelfBuilt    float64
	MultiRelayClaimsShare float64
}

// ConcentrationComparison contrasts HHI with the Gini coefficient for the
// relay market, the methodological remark Section 4.1 makes: Gini measures
// inequality among incumbents, HHI also accounts for how many players there
// are, which is why the paper reports HHI.
type ConcentrationComparison struct {
	HHI  stats.Series
	Gini stats.Series
}

// scanRelayConcentration computes both daily measures over relay block
// counts. It is a chain-order scan rather than an index aggregate: the
// per-day relay map accumulation is the definition of the measure.
func (a *Analysis) scanRelayConcentration() ConcentrationComparison {
	perDay := map[int]map[string]float64{}
	minDay, maxDay := math.MaxInt32, -1
	for _, st := range a.stats {
		if len(st.RelayClaims) == 0 {
			continue
		}
		if perDay[st.Day] == nil {
			perDay[st.Day] = map[string]float64{}
		}
		frac := 1.0 / float64(len(st.RelayClaims))
		for _, r := range st.RelayClaims {
			perDay[st.Day][r] += frac
		}
		if st.Day < minDay {
			minDay = st.Day
		}
		if st.Day > maxDay {
			maxDay = st.Day
		}
	}
	if maxDay < 0 {
		return ConcentrationComparison{}
	}
	hhi := stats.Series{Start: minDay, Values: make([]float64, maxDay-minDay+1)}
	gini := stats.Series{Start: minDay, Values: make([]float64, maxDay-minDay+1)}
	for i := range hhi.Values {
		day := perDay[minDay+i]
		if len(day) == 0 {
			hhi.Values[i] = math.NaN()
			gini.Values[i] = math.NaN()
			continue
		}
		sizes := make([]float64, 0, len(day))
		for _, v := range day {
			sizes = append(sizes, v)
		}
		hhi.Values[i] = stats.HHI(sizes)
		gini.Values[i] = stats.Gini(sizes)
	}
	return ConcentrationComparison{HHI: hhi, Gini: gini}
}
