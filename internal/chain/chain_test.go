package chain

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/evm"
	"github.com/ethpbs/pbslab/internal/state"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

var (
	alice    = crypto.AddressFromSeed("alice")
	bob      = crypto.AddressFromSeed("bob")
	builderA = crypto.AddressFromSeed("builderA")
)

func newTestChain() *Chain {
	st := state.New()
	st.SetBalance(alice, types.Ether(1_000))
	st.SetBalance(bob, types.Ether(1_000))
	cfg := MainnetMergeConfig()
	return New(cfg, evm.NewEngine(), st)
}

func TestNextBaseFeeRules(t *testing.T) {
	base := types.Gwei(100)
	parent := &types.Header{GasLimit: 30_000_000, BaseFee: base}

	// At target: unchanged.
	parent.GasUsed = 15_000_000
	if got := NextBaseFee(parent); got != base {
		t.Errorf("at target: %s", got)
	}
	// Full block: +12.5%.
	parent.GasUsed = 30_000_000
	if got := NextBaseFee(parent); got != types.Gwei(112).Add(types.Gwei(1).Div64(2)) {
		t.Errorf("full block: %s, want 112.5 gwei", got)
	}
	// Empty block: -12.5%.
	parent.GasUsed = 0
	if got := NextBaseFee(parent); got != types.Gwei(87).Add(types.Gwei(1).Div64(2)) {
		t.Errorf("empty block: %s, want 87.5 gwei", got)
	}
	// Slightly above target with tiny base fee: moves by at least 1 wei.
	tiny := &types.Header{GasLimit: 30_000_000, BaseFee: u256.New(1), GasUsed: 15_000_001}
	if got := NextBaseFee(tiny); !got.Gt(u256.New(1)) {
		t.Errorf("tiny base fee did not increase: %s", got)
	}
}

func TestNextBaseFeeMonotonicity(t *testing.T) {
	f := func(usedFrac uint8) bool {
		used := uint64(usedFrac) * 30_000_000 / 255
		parent := &types.Header{GasLimit: 30_000_000, BaseFee: types.Gwei(50), GasUsed: used}
		next := NextBaseFee(parent)
		switch {
		case used == 15_000_000:
			return next == types.Gwei(50)
		case used > 15_000_000:
			return next.Gt(types.Gwei(50))
		default:
			return next.Lt(types.Gwei(50))
		}
	}
	vals := func(args []reflect.Value, r *rand.Rand) {
		args[0] = reflect.ValueOf(uint8(r.Intn(256)))
	}
	if err := quick.Check(f, &quick.Config{Values: vals}); err != nil {
		t.Error(err)
	}
}

func TestGenesis(t *testing.T) {
	c := newTestChain()
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	head := c.Head()
	if head.Block.Number() != MergeBlockNumber {
		t.Errorf("genesis number = %d", head.Block.Number())
	}
	if got := c.SlotTime(MergeSlot + 2); got != MergeTimestamp+24 {
		t.Errorf("SlotTime = %d", got)
	}
	if _, ok := c.ByHash(head.Block.Hash()); !ok {
		t.Error("genesis not indexed by hash")
	}
}

// seal builds a valid child block with the given txs via the chain template
// and a speculative execution pass, as builders do.
func seal(t *testing.T, c *Chain, slot uint64, feeRecipient types.Address, txs []*types.Transaction) *types.Block {
	t.Helper()
	header := c.HeaderTemplate(slot, feeRecipient)
	ctx := evm.BlockContext{
		Number: header.Number, Timestamp: header.Timestamp,
		BaseFee: header.BaseFee, FeeRecipient: feeRecipient, GasLimit: header.GasLimit,
	}
	st := c.StateCopy()
	res, err := Process(c.Engine(), st, ctx, txs)
	if err != nil {
		t.Fatalf("Process: %v", err)
	}
	header.GasUsed = res.GasUsed
	return types.NewBlock(header, txs)
}

func transferTx(nonce uint64, tip uint64) *types.Transaction {
	return types.NewTransaction(nonce, alice, bob, types.Ether(1), 21_000,
		types.Gwei(100), types.Gwei(tip), nil)
}

func TestAcceptValidBlock(t *testing.T) {
	c := newTestChain()
	blk := seal(t, c, MergeSlot+1, builderA, []*types.Transaction{transferTx(0, 2)})
	stored, err := c.Accept(blk)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || c.Head() != stored {
		t.Error("chain head not advanced")
	}
	if stored.Tips != types.Gwei(2).Mul64(21_000) {
		t.Errorf("tips = %s", stored.Tips)
	}
	if c.State().Balance(builderA) != stored.Tips {
		t.Errorf("fee recipient balance = %s", c.State().Balance(builderA))
	}
	if len(stored.Receipts) != 1 || len(stored.Traces) != 1 {
		t.Errorf("artifacts: %d receipts, %d traces", len(stored.Receipts), len(stored.Traces))
	}
}

func TestAcceptRejectsBadTimestamp(t *testing.T) {
	c := newTestChain()
	blk := seal(t, c, MergeSlot+1, builderA, nil)
	blk.Header.Timestamp++ // the 2022-11-10 incident in miniature
	// Re-seal hash changes with the header; rebuild the block object.
	bad := types.NewBlock(blk.Header, nil)
	if _, err := c.Accept(bad); !errors.Is(err, ErrBadTimestamp) {
		t.Errorf("err = %v, want ErrBadTimestamp", err)
	}
	if c.Len() != 1 {
		t.Error("invalid block extended the chain")
	}
}

func TestAcceptRejectsWrongFields(t *testing.T) {
	c := newTestChain()

	// Wrong base fee.
	blk := seal(t, c, MergeSlot+1, builderA, nil)
	blk.Header.BaseFee = blk.Header.BaseFee.Add(u256.One)
	if _, err := c.Accept(types.NewBlock(blk.Header, nil)); !errors.Is(err, ErrBadBaseFee) {
		t.Errorf("base fee: %v", err)
	}

	// Wrong number.
	blk = seal(t, c, MergeSlot+1, builderA, nil)
	blk.Header.Number += 5
	if _, err := c.Accept(types.NewBlock(blk.Header, nil)); !errors.Is(err, ErrBadNumber) {
		t.Errorf("number: %v", err)
	}

	// Stale slot.
	blk = seal(t, c, MergeSlot, builderA, nil)
	blk.Header.Slot = MergeSlot
	blk.Header.Timestamp = c.SlotTime(MergeSlot)
	if _, err := c.Accept(types.NewBlock(blk.Header, nil)); !errors.Is(err, ErrStaleSlot) {
		t.Errorf("slot: %v", err)
	}

	// Wrong parent.
	blk = seal(t, c, MergeSlot+1, builderA, nil)
	blk.Header.ParentHash = crypto.Keccak256([]byte("nope"))
	if _, err := c.Accept(types.NewBlock(blk.Header, nil)); !errors.Is(err, ErrUnknownParent) {
		t.Errorf("parent: %v", err)
	}

	// Wrong gas limit.
	blk = seal(t, c, MergeSlot+1, builderA, nil)
	blk.Header.GasLimit = 10
	if _, err := c.Accept(types.NewBlock(blk.Header, nil)); !errors.Is(err, ErrBadGasLimit) {
		t.Errorf("gas limit: %v", err)
	}

	// Declared gas used mismatch.
	blk = seal(t, c, MergeSlot+1, builderA, []*types.Transaction{transferTx(0, 1)})
	blk.Header.GasUsed++
	if _, err := c.Accept(types.NewBlock(blk.Header, blk.Txs)); !errors.Is(err, ErrBadGasUsed) {
		t.Errorf("gas used: %v", err)
	}

	// Tampered tx root.
	blk = seal(t, c, MergeSlot+1, builderA, []*types.Transaction{transferTx(0, 1)})
	blk.Header.TxRoot = crypto.Keccak256([]byte("tampered"))
	if _, err := c.Accept(&types.Block{Header: blk.Header, Txs: blk.Txs}); !errors.Is(err, ErrBadTxRoot) {
		t.Errorf("tx root: %v", err)
	}

	if c.Len() != 1 {
		t.Error("some invalid block extended the chain")
	}
}

// TestValidateExecuted checks a block against the execution it was packed
// with: Validate's header checks and the declared-gas check apply, and a
// checked block commits by absorbing the packing fork.
func TestValidateExecuted(t *testing.T) {
	c := newTestChain()
	blk := seal(t, c, MergeSlot+1, builderA, []*types.Transaction{transferTx(0, 2)})
	res, st, err := c.ValidateFork(blk)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ValidateExecuted(blk, res); err != nil {
		t.Fatalf("valid block: %v", err)
	}

	late := *blk.Header
	late.Timestamp++
	if err := c.ValidateExecuted(types.NewBlock(&late, blk.Txs), res); !errors.Is(err, ErrBadTimestamp) {
		t.Errorf("timestamp: %v", err)
	}
	short := *res
	short.GasUsed--
	if err := c.ValidateExecuted(blk, &short); !errors.Is(err, ErrBadGasUsed) {
		t.Errorf("gas used: %v", err)
	}

	stored, err := c.AcceptValidated(blk, res, st)
	if err != nil {
		t.Fatal(err)
	}
	if c.Head() != stored || c.State().Balance(builderA) != stored.Tips {
		t.Error("absorbed block not committed")
	}
}

func TestAcceptRejectsInvalidTx(t *testing.T) {
	c := newTestChain()
	// Nonce 5 is invalid for a fresh account.
	badTx := transferTx(5, 1)
	header := c.HeaderTemplate(MergeSlot+1, builderA)
	header.GasUsed = 21_000
	blk := types.NewBlock(header, []*types.Transaction{badTx})
	if _, err := c.Accept(blk); !errors.Is(err, ErrInvalidTx) {
		t.Errorf("err = %v, want ErrInvalidTx", err)
	}
}

func TestBaseFeeTracksDemandAcrossBlocks(t *testing.T) {
	c := newTestChain()
	fee0 := c.NextBaseFee()
	// Empty blocks: base fee decays.
	for i := 0; i < 3; i++ {
		blk := seal(t, c, c.Head().Block.Header.Slot+1, builderA, nil)
		if _, err := c.Accept(blk); err != nil {
			t.Fatal(err)
		}
	}
	if !c.NextBaseFee().Lt(fee0) {
		t.Errorf("base fee did not decay: %s -> %s", fee0, c.NextBaseFee())
	}
}

func TestMissedSlotAdvancesTimestamp(t *testing.T) {
	c := newTestChain()
	// Skip two slots: block lands at slot +3.
	blk := seal(t, c, MergeSlot+3, builderA, nil)
	stored, err := c.Accept(blk)
	if err != nil {
		t.Fatal(err)
	}
	if stored.Block.Header.Timestamp != MergeTimestamp+36 {
		t.Errorf("timestamp = %d", stored.Block.Header.Timestamp)
	}
	// Number is still +1: missed slots produce no blocks.
	if stored.Block.Number() != MergeBlockNumber+1 {
		t.Errorf("number = %d", stored.Block.Number())
	}
}

func TestProcessGasExceeded(t *testing.T) {
	engine := evm.NewEngine()
	st := state.New()
	st.SetBalance(alice, types.Ether(1_000))
	ctx := evm.BlockContext{
		Number: 1, BaseFee: types.Gwei(1), FeeRecipient: builderA, GasLimit: 30_000,
	}
	txs := []*types.Transaction{transferTx(0, 1), transferTx(1, 1)}
	if _, err := Process(engine, st, ctx, txs); !errors.Is(err, ErrGasExceeded) {
		t.Errorf("err = %v, want ErrGasExceeded", err)
	}
}

func TestLogIndexing(t *testing.T) {
	// Token-style logs get block-level indexes assigned in order.
	engine := evm.NewEngine()
	st := state.New()
	st.SetBalance(alice, types.Ether(1_000))
	ctx := evm.BlockContext{
		Number: 1, BaseFee: types.Gwei(1), FeeRecipient: builderA, GasLimit: 30_000_000,
	}
	tip1 := types.NewTransaction(0, alice, bob, u256.Zero, 28_000, types.Gwei(10), types.Gwei(1),
		evm.EncodeCall(evm.Call{Op: evm.OpCoinbaseTip, Amount: types.Ether(0.01)}))
	tip2 := types.NewTransaction(1, alice, bob, u256.Zero, 28_000, types.Gwei(10), types.Gwei(1),
		evm.EncodeCall(evm.Call{Op: evm.OpCoinbaseTip, Amount: types.Ether(0.01)}))
	res, err := Process(engine, st, ctx, []*types.Transaction{tip1, tip2})
	if err != nil {
		t.Fatal(err)
	}
	if res.GasUsed != 56_000 {
		t.Errorf("gas used = %d", res.GasUsed)
	}
	if len(res.Traces) != 2 {
		t.Errorf("traces = %d", len(res.Traces))
	}
}
