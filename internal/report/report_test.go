package report

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/core"
	"github.com/ethpbs/pbslab/internal/sim"
)

func smallAnalysis(t *testing.T) *core.Analysis {
	t.Helper()
	sc := sim.DefaultScenario()
	sc.End = sc.Start.Add(4 * 24 * time.Hour)
	sc.BlocksPerDay = 12
	sc.Demand.Users = 100
	sc.Demand.TxPerBlock = sim.Flat(25)
	sc.SmallBuilderCount = 10
	res, err := sim.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return core.New(res.Dataset, core.WithBuilderLabels(res.World.BuilderLabels()))
}

func TestPrintAllSections(t *testing.T) {
	a := smallAnalysis(t)
	var sb strings.Builder
	PrintAll(&sb, a)
	out := sb.String()
	for _, want := range []string{
		"analysis summary", "Tables 2+3", "Table 4", "Figures 11+12",
		"Table 5", "Classifier coverage", "Inclusion delay",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing section %q", want)
		}
	}
}

func TestWriteAllProducesEveryFigure(t *testing.T) {
	a := smallAnalysis(t)
	dir := t.TempDir()
	if err := WriteAllExtraContext(context.Background(), a, dir); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fig03_payment_shares.csv", "fig04_pbs_share.csv", "fig05_relay_shares.csv",
		"fig06_hhi.csv", "fig07_builders_per_relay.csv", "fig08_builder_shares.csv",
		"fig09_block_value.csv", "fig10_proposer_profit.csv", "fig13_block_size.csv",
		"fig14_private_txs.csv", "fig15_mev_per_block.csv", "fig16_mev_value_share.csv",
		"fig17_censoring_share.csv", "fig18_sanctioned_share.csv", "fig19_profit_split.csv",
		"fig20_sandwiches.csv", "fig21_arbitrage.csv", "fig22_liquidations.csv",
		"tables.txt",
	}
	for _, f := range want {
		info, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("missing %s: %v", f, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", f)
		}
	}
}

func TestWriteAllBadDir(t *testing.T) {
	a := smallAnalysis(t)
	if err := WriteAllExtraContext(context.Background(), a, "/proc/definitely/not/writable"); err == nil {
		t.Error("WriteAllExtraContext into unwritable path succeeded")
	}
}
