package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/sim"
)

// runAnalysis simulates a window and analyzes it with public builder labels.
func runAnalysis(t *testing.T, days int) (*Analysis, *sim.Result) {
	t.Helper()
	sc := sim.DefaultScenario()
	sc.End = sc.Start.Add(time.Duration(days) * 24 * time.Hour)
	sc.BlocksPerDay = 12
	sc.Validators = 200
	sc.Demand.Users = 120
	sc.Demand.TxPerBlock = sim.Flat(30)
	sc.SmallBuilderCount = 20
	res, err := sim.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	a := New(res.Dataset, WithBuilderLabels(res.World.BuilderLabels()))
	return a, res
}

func TestClassifierMatchesGroundTruth(t *testing.T) {
	a, res := runAnalysis(t, 6)
	agree, total := 0, 0
	falsePos, falseNeg := 0, 0
	for _, st := range a.Blocks() {
		truth := res.Truth.PBS[st.Block.Number]
		total++
		if st.PBS == truth {
			agree++
		} else if st.PBS {
			falsePos++
		} else {
			falseNeg++
		}
	}
	if total == 0 {
		t.Fatal("no blocks")
	}
	accuracy := float64(agree) / float64(total)
	if accuracy < 0.98 {
		t.Errorf("classifier accuracy = %.3f (fp=%d fn=%d of %d)",
			accuracy, falsePos, falseNeg, total)
	}
}

func TestBuilderAttributionMatchesGroundTruth(t *testing.T) {
	a, res := runAnalysis(t, 6)
	agree, total := 0, 0
	for _, st := range a.Blocks() {
		if !st.PBS || st.BuilderCluster == "" {
			continue
		}
		want := res.Truth.BuilderName[st.Block.Number]
		if want == "" {
			continue
		}
		total++
		if st.BuilderCluster == want {
			agree++
		}
	}
	if total == 0 {
		t.Fatal("no attributed PBS blocks")
	}
	if frac := float64(agree) / float64(total); frac < 0.95 {
		t.Errorf("builder attribution accuracy = %.3f over %d blocks", frac, total)
	}
}

func TestPromisedValueMatchesGroundTruth(t *testing.T) {
	a, res := runAnalysis(t, 5)
	for _, st := range a.Blocks() {
		if !st.PBS || len(st.RelayClaims) == 0 {
			continue
		}
		want, ok := res.Truth.Promised[st.Block.Number]
		if !ok {
			continue
		}
		// The analysis's max-claim must equal the winning announced value.
		if st.Promised != want {
			t.Fatalf("block %d: promised %s, truth %s",
				st.Block.Number, st.Promised, want)
		}
	}
}

func TestHeadlineFindings(t *testing.T) {
	a, _ := runAnalysis(t, 10)

	// Finding 1 (Figure 9/10): PBS blocks are worth more to proposers.
	val := a.Figure9BlockValue()
	if !(val.PBS.MeanValue() > val.Local.MeanValue()) {
		t.Errorf("PBS value %.5f <= local %.5f",
			val.PBS.MeanValue(), val.Local.MeanValue())
	}

	// Finding 2 (Figure 15): MEV concentrates in PBS blocks.
	mevSplit := a.Figure15MEVPerBlock()
	if !(mevSplit.PBS.MeanValue() >= mevSplit.Local.MeanValue()) {
		t.Errorf("MEV/block: PBS %.3f < local %.3f",
			mevSplit.PBS.MeanValue(), mevSplit.Local.MeanValue())
	}

	// Finding 3 (Figure 14): private flow lands in PBS blocks.
	priv := a.Figure14PrivateTxShare()
	if !(priv.PBS.MeanValue() > priv.Local.MeanValue()) {
		t.Errorf("private share: PBS %.4f <= local %.4f",
			priv.PBS.MeanValue(), priv.Local.MeanValue())
	}

	// Finding 4 (Figure 18): non-PBS blocks carry sanctioned txs more often.
	sanc := a.Figure18SanctionedShare()
	if !(sanc.Local.MeanValue() > sanc.PBS.MeanValue()) {
		t.Errorf("sanctioned share: local %.4f <= PBS %.4f",
			sanc.Local.MeanValue(), sanc.PBS.MeanValue())
	}
}

func TestRelayDataConsistency(t *testing.T) {
	a, _ := runAnalysis(t, 5)
	rows, total := a.Table4RelayTrust()
	if total.Blocks == 0 {
		t.Fatal("no PBS blocks in Table 4")
	}
	// Share delivered can never exceed 1 by more than float noise (relays
	// may under-promise never, over-promise sometimes).
	for _, r := range rows {
		if r.Blocks == 0 {
			continue
		}
		if r.ShareDelivered > 1+1e-9 {
			t.Errorf("%s delivered more than promised: %f", r.Relay, r.ShareDelivered)
		}
	}
	if total.ShareDelivered > 1+1e-9 {
		t.Errorf("total share = %f", total.ShareDelivered)
	}
}

func TestSummaryRenders(t *testing.T) {
	a, _ := runAnalysis(t, 4)
	var sb strings.Builder
	a.Summary(&sb)
	out := sb.String()
	for _, want := range []string{"PBS share", "relay HHI", "block value", "classifier"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	rows, totalRow := a.Table4RelayTrust()
	sb.Reset()
	RenderTable4(&sb, rows, totalRow)
	if !strings.Contains(sb.String(), "Table 4") {
		t.Error("Table 4 rendering empty")
	}
	sb.Reset()
	RenderTables2And3(&sb, a.Tables2And3Relays())
	if !strings.Contains(sb.String(), "Flashbots") {
		t.Error("Tables 2+3 missing relays")
	}
	sb.Reset()
	RenderBuilderBoxes(&sb, a.Figures11And12BuilderBoxes(11))
	RenderTable5(&sb, a.Clusters(), 17)
	RenderCoverage(&sb, a.ClassifierCoverage())
	for _, f := range DayFigures {
		f.WriteCSV(&sb, a)
	}
	if len(sb.String()) == 0 {
		t.Error("renders produced nothing")
	}
}

func TestInclusionDelayShowsCensorship(t *testing.T) {
	a, _ := runAnalysis(t, 10)
	rep := a.InclusionDelay()
	if rep.Regular.N == 0 || rep.Sanctioned.N == 0 {
		t.Skipf("not enough samples: regular=%d sanctioned=%d", rep.Regular.N, rep.Sanctioned.N)
	}
	// Sanctioned transactions must wait at least as long on average: most
	// builders and half the relays filter them, so they queue for a
	// non-filtering block.
	if rep.MeanRatio < 1 {
		t.Errorf("sanctioned txs waited LESS: ratio=%.2f (reg %.0fs, sanc %.0fs)",
			rep.MeanRatio, rep.Regular.Mean, rep.Sanctioned.Mean)
	}
}
