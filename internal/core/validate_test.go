package core

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/ethpbs/pbslab/internal/faults"
	"github.com/ethpbs/pbslab/internal/pbs"
	"github.com/ethpbs/pbslab/internal/sim"
	"github.com/ethpbs/pbslab/internal/types"
)

// validateDataset simulates a short window and returns its dataset.
func validateDataset(t *testing.T, seed uint64) *sim.Result {
	t.Helper()
	sc := sim.DefaultScenario()
	sc.Seed = seed
	sc.End = sc.Start.Add(2 * 24 * time.Hour)
	sc.BlocksPerDay = 12
	sc.Validators = 200
	sc.Demand.Users = 120
	sc.Demand.TxPerBlock = sim.Flat(30)
	sc.SmallBuilderCount = 20
	res, err := sim.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidateCleanDataset(t *testing.T) {
	res := validateDataset(t, 1)
	rep := Validate(res.Dataset)
	if !rep.OK() {
		for _, v := range rep.Violations {
			t.Errorf("unexpected violation: %s", v)
		}
	}
	if len(rep.Quarantined) != 0 {
		t.Errorf("clean dataset quarantined blocks %v", rep.Quarantined)
	}
	var sb strings.Builder
	rep.Render(&sb)
	if !strings.Contains(sb.String(), "all invariants hold") {
		t.Errorf("clean render = %q", sb.String())
	}
}

func TestValidateDetectsEveryInjectedCorruption(t *testing.T) {
	res := validateDataset(t, 2)
	injected := faults.CorruptDataset(7, res.Dataset)
	if len(injected) != 5 {
		t.Fatalf("injector planted %d corruptions, want 5", len(injected))
	}
	rep := Validate(res.Dataset)
	if rep.OK() {
		t.Fatal("validator passed a corrupted dataset")
	}
	found := map[string]bool{}
	for _, v := range rep.Violations {
		found[v.Kind+"@"+strconv.FormatUint(v.Block, 10)] = true
	}
	for _, c := range injected {
		if !found[c.Kind+"@"+c.Target] {
			t.Errorf("injected %s but no %s violation reported at block %s", c, c.Kind, c.Target)
		}
	}
	if len(rep.Quarantined) == 0 {
		t.Error("no blocks quarantined despite violations")
	}
	var sb strings.Builder
	rep.Render(&sb)
	if !strings.Contains(sb.String(), "quarantined") {
		t.Errorf("corrupt render = %q", sb.String())
	}
}

func TestValidateQuarantineSortedAndDeduplicated(t *testing.T) {
	res := validateDataset(t, 3)
	faults.CorruptDataset(11, res.Dataset)
	rep := Validate(res.Dataset)
	seen := map[uint64]bool{}
	for i, n := range rep.Quarantined {
		if seen[n] {
			t.Errorf("block %d quarantined twice", n)
		}
		seen[n] = true
		if i > 0 && rep.Quarantined[i-1] >= n {
			t.Errorf("quarantine list unsorted at %d: %v", i, rep.Quarantined)
		}
	}
}

// TestValidateUnlandedRelayPayload pins the delivered-trace rules in both
// validators: a payload that never landed, at a number whose canonical
// block came through no relay, is a finding; a second hash for a
// relay-delivered block, or a number outside the corpus, is a VioRelay.
func TestValidateUnlandedRelayPayload(t *testing.T) {
	res := validateDataset(t, 1)
	ds := res.Dataset
	delivered := map[types.Hash]bool{}
	for _, r := range ds.Relays {
		for _, tr := range r.Delivered {
			delivered[tr.BlockHash] = true
		}
	}
	var local, viaRelay uint64
	for _, b := range ds.Blocks {
		if delivered[b.Hash] {
			viaRelay = b.Number
		} else {
			local = b.Number
		}
	}
	if local == 0 || viaRelay == 0 {
		t.Fatalf("fixture needs a local and a relay-delivered block (local %d, relay %d)", local, viaRelay)
	}
	deliver := func(ghost byte, number uint64) {
		ds.Relays[0].Delivered = append(ds.Relays[0].Delivered, pbs.BidTrace{
			BlockHash: types.Hash{ghost}, BlockNumber: number,
		})
	}
	validateBoth := func() ValidationReport {
		t.Helper()
		rep := Validate(ds)
		streamed, err := ValidateStream(memSource{ds})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, streamed) {
			t.Fatalf("Validate and ValidateStream disagree:\n%+v\nvs\n%+v", rep, streamed)
		}
		return rep
	}

	deliver(1, local)
	rep := validateBoth()
	if !rep.OK() {
		t.Fatalf("unlanded payload flagged as a violation: %v", rep.Violations)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Kind != FindUnlanded || rep.Findings[0].Block != local {
		t.Fatalf("findings = %v, want one %s at block %d", rep.Findings, FindUnlanded, local)
	}
	var sb strings.Builder
	rep.Render(&sb)
	if !strings.Contains(sb.String(), "all invariants hold") || !strings.Contains(sb.String(), "1 finding(s)") {
		t.Errorf("render = %q", sb.String())
	}

	last := ds.Blocks[len(ds.Blocks)-1].Number
	deliver(2, viaRelay)
	deliver(3, last+1)
	rep = validateBoth()
	if len(rep.Findings) != 1 {
		t.Errorf("findings = %v, want the one unlanded payload", rep.Findings)
	}
	if len(rep.Violations) != 2 {
		t.Fatalf("violations = %v, want two %s", rep.Violations, VioRelay)
	}
	for i, want := range []uint64{viaRelay, last + 1} {
		if v := rep.Violations[i]; v.Kind != VioRelay || v.Block != want {
			t.Errorf("violation %d = %s, want %s at block %d", i, v, VioRelay, want)
		}
	}
}
