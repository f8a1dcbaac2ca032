// Package builder implements block builders: the PBS actors that assemble
// execution payloads from searcher bundles and the public mempool, embed the
// proposer payment the paper's analysis detects (last transaction, builder →
// proposer fee recipient), and sign bid traces for relay submission. It also
// provides the vanilla local block production proposers fall back to when no
// relay bid is usable.
package builder

import (
	"strconv"

	"github.com/ethpbs/pbslab/internal/chain"
	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/evm"
	"github.com/ethpbs/pbslab/internal/pbs"
	"github.com/ethpbs/pbslab/internal/rng"
	"github.com/ethpbs/pbslab/internal/state"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

// paymentGas is the gas reserved for the proposer payment transaction (a
// plain transfer).
const paymentGas = 21_000

// Profile is the calibrated identity and economics of one builder.
type Profile struct {
	Name string
	// Keys is how many submission keys the builder rotates through (the
	// paper's builder clusters span multiple pubkeys per entity).
	Keys int
	// MarginETH / MarginSigmaETH parameterize the normal draw of the cut the
	// builder keeps per block. A negative mean models builders that on
	// average pay proposers more than the block earns (Figure 11).
	MarginETH      float64
	MarginSigmaETH float64
	// SubsidyProb is the chance the builder tops its bid up with SubsidyETH
	// of its own funds beyond the block's value (share-buying subsidies).
	SubsidyProb float64
	SubsidyETH  float64
	// MempoolCoverage is the fraction of public pending transactions the
	// builder's node has seen in time to include.
	MempoolCoverage float64
	// Relays names the relays this builder submits to.
	Relays []string
}

// Args carries everything one build needs.
type Args struct {
	Chain                *chain.Chain
	Slot                 uint64
	ProposerPubkey       types.PubKey
	ProposerFeeRecipient types.Address
	// Bundles is the private order flow reaching this builder.
	Bundles []*types.Bundle
	// Pending is the builder's view of the public mempool (already filtered
	// by the builder's own policy, e.g. OFAC).
	Pending []*types.Transaction
	// State, when non-nil, is the speculative state the build executes
	// against (the parallel slot engine passes each builder a copy-on-write
	// fork). When nil, Build takes a deep copy of the canonical state.
	State *state.State
}

// Result is a sealed block plus the payment the builder claims for it.
type Result struct {
	Block *types.Block
	// Payment is the claimed proposer value — equal to the embedded payment
	// transaction for honest builders; callers may overwrite it to model
	// value-misreporting before calling Submission.
	Payment types.Wei
	// Tips is the priority-fee revenue of the block.
	Tips types.Wei
	// Direct is the coinbase-transfer revenue (bundle payments).
	Direct types.Wei
	// Exec is the block's execution, recorded while it was packed, in
	// exactly the form chain.Process reports for the block's transactions
	// on the parent state: receipts with block-wide log indices, traces,
	// gas, burned fees and tips. A caller-supplied Args.State holds the
	// matching post-state.
	Exec *chain.ProcessResult
}

// Builder assembles and signs PBS block submissions.
type Builder struct {
	Profile Profile
	// Addr is the builder's on-chain identity: the fee recipient of its
	// blocks and the sender of proposer payments.
	Addr types.Address
	// SubsidyProb is mutable so scenarios can re-weight subsidies over time
	// (beaverbuild's loss window).
	SubsidyProb float64

	keys []*crypto.Key
	r    *rng.RNG
}

// New derives a builder's keys and address deterministically from its
// profile name, and forks a private randomness stream so its economic draws
// do not perturb other actors.
func New(p Profile, r *rng.RNG) *Builder {
	if p.Keys <= 0 {
		p.Keys = 1
	}
	b := &Builder{
		Profile:     p,
		Addr:        crypto.AddressFromSeed("builder/" + p.Name),
		SubsidyProb: p.SubsidyProb,
		r:           r.Fork("builder/" + p.Name),
	}
	for i := 0; i < p.Keys; i++ {
		b.keys = append(b.keys, crypto.NewKey([]byte("builder/"+p.Name+"/key/"+strconv.Itoa(i))))
	}
	return b
}

// PubKeys returns the builder's submission pubkeys, index-aligned with
// VerificationKeys.
func (b *Builder) PubKeys() []types.PubKey {
	out := make([]types.PubKey, len(b.keys))
	for i, k := range b.keys {
		out[i] = k.Pub()
	}
	return out
}

// VerificationKeys returns the published verification keys, index-aligned
// with PubKeys.
func (b *Builder) VerificationKeys() []crypto.Hash {
	out := make([]crypto.Hash, len(b.keys))
	for i, k := range b.keys {
		out[i] = k.VerificationKey()
	}
	return out
}

// RNGState returns the builder's private draw-stream position (coverage
// sampling, margin and subsidy draws) for checkpointing.
func (b *Builder) RNGState() uint64 { return b.r.State() }

// SetRNGState repositions the builder's draw stream (checkpoint restore).
func (b *Builder) SetRNGState(s uint64) { b.r.SetState(s) }

// keyFor selects the submission key for a slot (round-robin rotation).
func (b *Builder) keyFor(slot uint64) *crypto.Key {
	return b.keys[int(slot%uint64(len(b.keys)))]
}

// VerificationKey returns the verification key the builder signs the given
// slot with.
func (b *Builder) VerificationKey(slot uint64) crypto.Hash {
	return b.keyFor(slot).VerificationKey()
}

// Build assembles a block for the slot: bundles first (atomic, dropped if
// any leg fails or reverts), then coverage-sampled public transactions by
// tip order, then the proposer payment transaction. The block's execution
// is recorded in Result.Exec and its post-state left in args.State. It
// returns false only when no valid template exists.
func (b *Builder) Build(args Args) (*Result, bool) {
	if args.Chain == nil {
		return nil, false
	}
	header := args.Chain.HeaderTemplate(args.Slot, b.Addr)
	st := args.State
	if st == nil {
		st = args.Chain.StateCopy()
	}
	engine := args.Chain.Engine()
	ctx := evm.BlockContext{
		Number: header.Number, Timestamp: header.Timestamp,
		BaseFee: header.BaseFee, FeeRecipient: b.Addr, GasLimit: header.GasLimit,
	}
	budget := header.GasLimit - paymentGas

	x := newBlockExec()
	included := map[types.Hash]bool{}

	// Private order flow: each bundle is all-or-nothing and must not revert
	// (Flashbots semantics — a reverted leg voids the bundle).
	for _, bundle := range args.Bundles {
		if bundle == nil || len(bundle.Txs) == 0 {
			continue
		}
		if bundle.TargetBlock != 0 && bundle.TargetBlock != header.Number {
			continue
		}
		dup := false
		for _, tx := range bundle.Txs {
			if included[tx.Hash()] {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		// The record only grows by append, so a copy taken here still holds
		// it as it stands: restoring the copy rolls the record back.
		snap, mark := st.Snapshot(), *x
		ok := true
		for _, tx := range bundle.Txs {
			res, err := engine.ApplyTx(st, ctx, tx)
			if err != nil || !res.Receipt.Succeeded() || x.res.GasUsed+res.Receipt.GasUsed > budget {
				ok = false
				break
			}
			x.include(tx, res)
		}
		if !ok {
			st.RevertTo(snap)
			*x = mark
			continue
		}
		for _, tx := range bundle.Txs {
			included[tx.Hash()] = true
		}
	}

	// Public mempool, filtered by what the builder's node saw in time.
	for _, tx := range args.Pending {
		if included[tx.Hash()] {
			continue
		}
		if !b.r.Bool(b.Profile.MempoolCoverage) {
			continue
		}
		snap := st.Snapshot()
		res, err := engine.ApplyTx(st, ctx, tx)
		if err != nil || x.res.GasUsed+res.Receipt.GasUsed > budget {
			st.RevertTo(snap)
			continue
		}
		x.include(tx, res)
		included[tx.Hash()] = true
	}

	// Proposer payment: block value minus the builder's margin draw, plus
	// an occasional subsidy from the builder's own treasury.
	tips, direct := x.res.Tips, x.paidTo(b.Addr)
	value := tips.Add(direct)
	payment := value
	if margin := b.r.Normal(b.Profile.MarginETH, b.Profile.MarginSigmaETH); margin >= 0 {
		payment = payment.SatSub(types.Ether(margin))
	} else {
		payment = payment.Add(types.Ether(-margin))
	}
	if b.SubsidyProb > 0 && b.r.Bool(b.SubsidyProb) {
		payment = payment.Add(types.Ether(b.Profile.SubsidyETH))
	}
	if !payment.IsZero() {
		payTx := types.NewTransaction(st.Nonce(b.Addr), b.Addr,
			args.ProposerFeeRecipient, payment, paymentGas, header.BaseFee, u256.Zero, nil)
		snap := st.Snapshot()
		res, err := engine.ApplyTx(st, ctx, payTx)
		if err != nil {
			// Treasury can't cover the bid: keep the block, drop the payment.
			st.RevertTo(snap)
			payment = u256.Zero
		} else {
			x.include(payTx, res)
		}
	}

	block, exec := x.seal(header)
	return &Result{
		Block:   block,
		Payment: payment,
		Tips:    tips,
		Direct:  direct,
		Exec:    exec,
	}, true
}

// Submission signs a bid trace for the built block with the slot's key. The
// trace claims res.Payment, which honest callers leave as Build set it.
func (b *Builder) Submission(args Args, res *Result) *pbs.Submission {
	key := b.keyFor(args.Slot)
	h := res.Block.Header
	trace := pbs.BidTrace{
		Slot:                 args.Slot,
		ParentHash:           h.ParentHash,
		BlockHash:            res.Block.Hash(),
		BuilderPubkey:        key.Pub(),
		ProposerPubkey:       args.ProposerPubkey,
		ProposerFeeRecipient: args.ProposerFeeRecipient,
		GasLimit:             h.GasLimit,
		GasUsed:              h.GasUsed,
		Value:                res.Payment,
		NumTx:                len(res.Block.Txs),
		BlockNumber:          h.Number,
	}
	return &pbs.Submission{
		Trace:     trace,
		Block:     res.Block,
		Signature: pbs.SignSubmission(key, &trace),
	}
}

// BuildLocalExec is vanilla (non-PBS) block production: coverage-sampled
// public transactions in tip order, no bundles, no payment transaction —
// the proposer keeps tips directly as fee recipient. It packs against a
// caller-supplied state (typically a copy-on-write fork of the canonical
// state) and also returns the execution recorded while packing, which is
// what chain.Process would produce for the finished block — rejected
// transactions are fully reverted before the next candidate runs — so the
// caller can commit through AcceptValidated without executing the block a
// second time.
func BuildLocalExec(c *chain.Chain, st *state.State, slot uint64, feeRecipient types.Address,
	pending []*types.Transaction, coverage float64, r *rng.RNG) (*types.Block, *chain.ProcessResult) {

	header := c.HeaderTemplate(slot, feeRecipient)
	ctx := evm.BlockContext{
		Number: header.Number, Timestamp: header.Timestamp,
		BaseFee: header.BaseFee, FeeRecipient: feeRecipient, GasLimit: header.GasLimit,
	}

	x := newBlockExec()
	for _, tx := range pending {
		if !r.Bool(coverage) {
			continue
		}
		snap := st.Snapshot()
		out, err := c.Engine().ApplyTx(st, ctx, tx)
		if err != nil || x.res.GasUsed+out.Receipt.GasUsed > header.GasLimit {
			st.RevertTo(snap)
			continue
		}
		x.include(tx, out)
	}
	return x.seal(header)
}

// blockExec accumulates a block while a builder packs it: the included
// transactions and their execution, numbered and summed exactly as
// chain.Process reports the finished block.
type blockExec struct {
	txs  []*types.Transaction
	res  chain.ProcessResult
	logs uint // the next log's block-wide index
}

func newBlockExec() *blockExec {
	return &blockExec{res: chain.ProcessResult{Burned: u256.Zero, Tips: u256.Zero}}
}

// include records an applied transaction and its execution, numbering its
// logs after every log already in the block.
func (x *blockExec) include(tx *types.Transaction, out *evm.Result) {
	for j := range out.Receipt.Logs {
		out.Receipt.Logs[j].Index = x.logs
		x.logs++
	}
	x.txs = append(x.txs, tx)
	x.res.Receipts = append(x.res.Receipts, out.Receipt)
	x.res.Traces = append(x.res.Traces, out.Traces...)
	x.res.GasUsed += out.Receipt.GasUsed
	x.res.Burned = x.res.Burned.Add(out.Burned)
	x.res.Tips = x.res.Tips.Add(out.Tip)
}

// paidTo sums the traced transfers to addr: a builder's coinbase revenue.
func (x *blockExec) paidTo(addr types.Address) types.Wei {
	sum := u256.Zero
	for _, t := range x.res.Traces {
		if t.To == addr {
			sum = sum.Add(t.Value)
		}
	}
	return sum
}

// seal sets the header's gas and returns the block with its execution.
// chain.Process never reports an empty non-nil list, so a list a rollback
// emptied is dropped.
func (x *blockExec) seal(header *types.Header) (*types.Block, *chain.ProcessResult) {
	header.GasUsed = x.res.GasUsed
	res := x.res
	if len(res.Receipts) == 0 {
		res.Receipts = nil
	}
	if len(res.Traces) == 0 {
		res.Traces = nil
	}
	return types.NewBlock(header, x.txs), &res
}
