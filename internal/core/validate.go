package core

import (
	"fmt"
	"io"

	"github.com/ethpbs/pbslab/internal/dataset"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

// Violation kinds reported by Validate.
const (
	// VioOrder: block numbers, slots or timestamps are not strictly
	// increasing and contiguous in chain order.
	VioOrder = "order"
	// VioWindow: a block's timestamp falls outside the dataset's declared
	// [Start, End] window (day-boundary misalignment).
	VioWindow = "window"
	// VioConservation: a block's fee accounting disagrees with its
	// receipts — recomputed tips, burn, or gas do not match the stored
	// values, or a receipt's effective price is below the base fee.
	VioConservation = "conservation"
	// VioLabel: an MEV label points at a block or transaction the corpus
	// does not contain.
	VioLabel = "label"
	// VioRelay: a relay's delivered trace disagrees with the canonical
	// chain: it names a known block under another number, or an unknown
	// block at a number outside the corpus or one whose canonical block a
	// relay delivered.
	VioRelay = "relay"
)

// FindUnlanded is the finding kind for a relay delivery of a payload that
// never landed: an unknown block at a number whose canonical block came
// through no relay (the proposer signed a relay header, then published a
// local block). Real relay data APIs list such payloads too.
const FindUnlanded = "unlanded"

// Violation is one dataset invariant failure.
type Violation struct {
	Kind string
	// Block is the implicated block number (0 when the violation is not
	// attributable to one block).
	Block  uint64
	Detail string
}

func (v Violation) String() string {
	if v.Block != 0 {
		return fmt.Sprintf("[%s] block %d: %s", v.Kind, v.Block, v.Detail)
	}
	return fmt.Sprintf("[%s] %s", v.Kind, v.Detail)
}

// ValidationReport is the outcome of Validate: every violation found, and
// the quarantine set — block numbers implicated in at least one violation,
// which a cautious pipeline should exclude before analysis.
type ValidationReport struct {
	Violations []Violation
	// Quarantined lists implicated block numbers, sorted ascending.
	Quarantined []uint64
	// Findings lists observations that break no invariant (FindUnlanded);
	// they neither fail OK nor quarantine a block.
	Findings []Violation
}

// OK reports whether the dataset passed every invariant.
func (r ValidationReport) OK() bool { return len(r.Violations) == 0 }

// Render writes the human-readable quarantine report.
func (r ValidationReport) Render(w io.Writer) {
	if r.OK() {
		fmt.Fprintln(w, "# dataset validation: all invariants hold")
	} else {
		fmt.Fprintf(w, "# dataset validation: %d violation(s), %d block(s) quarantined\n",
			len(r.Violations), len(r.Quarantined))
		for _, v := range r.Violations {
			fmt.Fprintln(w, v)
		}
	}
	if len(r.Findings) > 0 {
		fmt.Fprintf(w, "# %d finding(s), not violations\n", len(r.Findings))
		for _, f := range r.Findings {
			fmt.Fprintln(w, f)
		}
	}
}

// Validate checks the corpus invariants the analysis relies on: chain
// order, window alignment, per-block fee conservation against receipts,
// MEV-label referential integrity, and relay delivered-trace consistency.
// It reads only dataset types — like the rest of the pipeline it never
// sees simulator ground truth — so it applies equally to a crawled corpus.
// It is ValidateStream over the in-memory dataset served as one batch.
func Validate(ds *dataset.Dataset) ValidationReport {
	rep, _ := ValidateStream(memSource{ds}) // memSource never fails
	return rep
}

// checkDelivered checks every relay delivered trace against the canonical
// chain, given as block hash → number. A known block must carry its own
// number. An unknown block is an unlanded payload (a finding) when the
// canonical block at its number came through no relay; at a number a relay
// delivered, or outside the corpus, it is a VioRelay.
func checkDelivered(rep *ValidationReport, relays []dataset.RelayData, byHash map[types.Hash]uint64,
	flag func(kind string, block uint64, format string, args ...any)) {
	inCorpus := make(map[uint64]bool, len(byHash))
	for _, num := range byHash {
		inCorpus[num] = true
	}
	viaRelay := map[uint64]bool{}
	for _, r := range relays {
		for _, tr := range r.Delivered {
			if num, ok := byHash[tr.BlockHash]; ok {
				viaRelay[num] = true
			}
		}
	}
	for _, r := range relays {
		for _, tr := range r.Delivered {
			num, ok := byHash[tr.BlockHash]
			switch {
			case !ok && inCorpus[tr.BlockNumber] && !viaRelay[tr.BlockNumber]:
				rep.Findings = append(rep.Findings, Violation{
					Kind: FindUnlanded, Block: tr.BlockNumber,
					Detail: fmt.Sprintf("relay %s delivered block %s, which never landed", r.Name, tr.BlockHash),
				})
			case !ok:
				flag(VioRelay, tr.BlockNumber, "relay %s delivered unknown block %s", r.Name, tr.BlockHash)
			case tr.BlockNumber != 0 && tr.BlockNumber != num:
				flag(VioRelay, num, "relay %s trace says number %d", r.Name, tr.BlockNumber)
			}
		}
	}
}

// validateConservation recomputes a block's fee totals from its receipts
// and checks them against the stored values.
func validateConservation(b *dataset.Block, flag func(kind string, block uint64, format string, args ...any)) {
	if len(b.Receipts) != len(b.Txs) {
		flag(VioConservation, b.Number, "%d receipts for %d txs", len(b.Receipts), len(b.Txs))
		return
	}
	gas := uint64(0)
	burned, tips := u256.Zero, u256.Zero
	for i, rcpt := range b.Receipts {
		if rcpt.TxHash != b.Txs[i].Hash() {
			flag(VioConservation, b.Number, "receipt %d hash %s, tx hash %s", i, rcpt.TxHash, b.Txs[i].Hash())
			return
		}
		if rcpt.EffectiveGasPrice.Lt(b.BaseFee) {
			flag(VioConservation, b.Number, "receipt %d effective price %s below base fee %s",
				i, rcpt.EffectiveGasPrice, b.BaseFee)
			return
		}
		gas += rcpt.GasUsed
		burned = burned.Add(b.BaseFee.Mul64(rcpt.GasUsed))
		tips = tips.Add(rcpt.EffectiveGasPrice.SatSub(b.BaseFee).Mul64(rcpt.GasUsed))
	}
	if gas != b.GasUsed {
		flag(VioConservation, b.Number, "receipts burn %d gas, header says %d", gas, b.GasUsed)
	}
	if b.GasUsed > b.GasLimit {
		flag(VioConservation, b.Number, "gas used %d above limit %d", b.GasUsed, b.GasLimit)
	}
	if !burned.Eq(b.Burned) {
		flag(VioConservation, b.Number, "recomputed burn %s, stored %s", burned, b.Burned)
	}
	if !tips.Eq(b.Tips) {
		flag(VioConservation, b.Number, "recomputed tips %s, stored %s", tips, b.Tips)
	}
}
