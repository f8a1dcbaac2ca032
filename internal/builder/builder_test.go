package builder

import (
	"reflect"
	"testing"

	"github.com/ethpbs/pbslab/internal/chain"
	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/defi"
	"github.com/ethpbs/pbslab/internal/evm"
	"github.com/ethpbs/pbslab/internal/rng"
	"github.com/ethpbs/pbslab/internal/state"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

var (
	alice       = crypto.AddressFromSeed("alice")
	bob         = crypto.AddressFromSeed("bob")
	carol       = crypto.AddressFromSeed("carol")
	proposerFee = crypto.AddressFromSeed("proposer-fee")
)

// fixture is a chain whose genesis funds alice, bob and carol with ETH and
// alice and carol with a registered token, plus a builder with the given
// treasury that sees every pending transaction.
type fixture struct {
	chain *chain.Chain
	tok   *defi.Token
	b     *Builder
}

func newFixture(t *testing.T, gasLimit uint64, marginETH float64, treasury types.Wei) *fixture {
	t.Helper()
	tok := defi.NewToken("USDC")
	engine := evm.NewEngine()
	engine.Register(tok.Addr, tok)
	st := state.New()
	for _, a := range []types.Address{alice, bob, carol} {
		st.SetBalance(a, types.Ether(1_000))
	}
	tok.Mint(st, alice, types.Ether(100))
	tok.Mint(st, carol, types.Ether(100))
	b := New(Profile{Name: "test", Keys: 1, MarginETH: marginETH, MempoolCoverage: 1}, rng.New(1))
	st.SetBalance(b.Addr, treasury)
	st.ClearJournal()
	cfg := chain.MainnetMergeConfig()
	cfg.GasLimit = gasLimit
	return &fixture{chain: chain.New(cfg, engine, st), tok: tok, b: b}
}

// tokenTx transfers amount of the fixture token from one holder to another;
// it reverts (status 0) when the sender holds less.
func (f *fixture) tokenTx(from types.Address, nonce uint64, to types.Address, amount float64) *types.Transaction {
	return types.NewTransaction(nonce, from, f.tok.Addr, u256.Zero, 60_000,
		types.Gwei(200), types.Gwei(2), defi.TokenTransferCalldata(to, types.Ether(amount)))
}

func transferTx(from types.Address, nonce uint64, to types.Address) *types.Transaction {
	return types.NewTransaction(nonce, from, to, types.Ether(1), 21_000,
		types.Gwei(200), types.Gwei(3), nil)
}

// tipTx pays the block's fee recipient directly (a traced transfer).
func tipTx(from types.Address, nonce uint64) *types.Transaction {
	return types.NewTransaction(nonce, from, proposerFee, u256.Zero, 30_000,
		types.Gwei(200), types.Gwei(1), defi.CoinbaseTipCalldata(types.Ether(0.5)))
}

// build runs Build on a fork of the head and checks the recorded
// execution against a re-execution.
func (f *fixture) build(t *testing.T, bundles []*types.Bundle, pending []*types.Transaction) *Result {
	t.Helper()
	st := f.chain.StateFork()
	res, ok := f.b.Build(Args{
		Chain: f.chain, Slot: chain.MergeSlot + 1,
		ProposerFeeRecipient: proposerFee,
		Bundles:              bundles,
		Pending:              pending,
		State:                st,
	})
	if !ok {
		t.Fatal("build failed")
	}
	checkExec(t, f.chain, res.Block, res.Exec, st)
	return res
}

// checkExec requires exec and post to be exactly what chain.Process
// reports for block's transactions on a fresh fork of the same parent,
// with log indices running from 0 to n-1 across the block, and the block
// to pass the chain's checks of an adopted execution.
func checkExec(t *testing.T, c *chain.Chain, block *types.Block, exec *chain.ProcessResult, post *state.State) {
	t.Helper()
	h := block.Header
	fresh := c.StateFork()
	want, err := chain.Process(c.Engine(), fresh, evm.BlockContext{
		Number: h.Number, Timestamp: h.Timestamp,
		BaseFee: h.BaseFee, FeeRecipient: h.FeeRecipient, GasLimit: h.GasLimit,
	}, block.Txs)
	if err != nil {
		t.Fatalf("re-execute: %v", err)
	}
	if !reflect.DeepEqual(exec, want) {
		t.Errorf("recorded execution differs from re-execution:\n got %+v\nwant %+v", exec, want)
	}
	if got, want := post.Writes(), fresh.Writes(); !reflect.DeepEqual(got, want) {
		t.Errorf("post-state writes differ from re-execution:\n got %v\nwant %v", got, want)
	}
	next := uint(0)
	for i, r := range exec.Receipts {
		for _, l := range r.Logs {
			if l.Index != next {
				t.Errorf("receipt %d: log index %d, want %d", i, l.Index, next)
			}
			next++
		}
	}
	if err := c.ValidateExecuted(block, exec); err != nil {
		t.Errorf("ValidateExecuted: %v", err)
	}
}

// has reports which of txs the block includes.
func has(block *types.Block, txs ...*types.Transaction) []bool {
	in := map[types.Hash]bool{}
	for _, tx := range block.Txs {
		in[tx.Hash()] = true
	}
	out := make([]bool, len(txs))
	for i, tx := range txs {
		out[i] = in[tx.Hash()]
	}
	return out
}

func logCount(exec *chain.ProcessResult) int {
	n := 0
	for _, r := range exec.Receipts {
		n += len(r.Logs)
	}
	return n
}

func TestBuildRollsBackRevertedBundle(t *testing.T) {
	f := newFixture(t, chain.DefaultGasLimit, 0, types.Ether(1_000))
	// The first leg lands and logs; bob then holds 5 tokens, so the second
	// leg's transfer of 50 reverts and the whole bundle goes, its log with
	// it.
	leg1, leg2 := f.tokenTx(alice, 0, bob, 5), f.tokenTx(bob, 0, carol, 50)
	lands := []*types.Transaction{f.tokenTx(carol, 0, bob, 2), tipTx(carol, 1)}
	res := f.build(t, []*types.Bundle{{Txs: []*types.Transaction{leg1, leg2}}, {Txs: lands}}, nil)
	if got := has(res.Block, leg1, leg2, lands[0], lands[1]); !reflect.DeepEqual(got, []bool{false, false, true, true}) {
		t.Errorf("included (leg1, leg2, landing bundle) = %v", got)
	}
	if n := logCount(res.Exec); n != 1 {
		t.Errorf("block logs = %d, want the landing bundle's 1", n)
	}
	if res.Direct != types.Ether(0.5) {
		t.Errorf("direct revenue = %s, want the landing bundle's tip", res.Direct)
	}
}

func TestBuildRollsBackOverflowingBundle(t *testing.T) {
	// 150k gas leaves a 129k budget before the payment: two 52k transfers
	// fit, a third overflows and voids its bundle.
	f := newFixture(t, 150_000, 0, types.Ether(1_000))
	big := []*types.Transaction{f.tokenTx(alice, 0, bob, 1), f.tokenTx(alice, 1, bob, 1), f.tokenTx(alice, 2, bob, 1)}
	fits := f.tokenTx(carol, 0, bob, 1)
	res := f.build(t, []*types.Bundle{{Txs: big}}, []*types.Transaction{fits})
	if got := has(res.Block, big[0], fits); !reflect.DeepEqual(got, []bool{false, true}) {
		t.Errorf("included (overflowing bundle, pending) = %v", got)
	}
}

func TestBuildSkipsNonceGap(t *testing.T) {
	f := newFixture(t, chain.DefaultGasLimit, 0, types.Ether(1_000))
	gap := transferTx(bob, 3, carol)
	ok := transferTx(bob, 0, carol)
	res := f.build(t, nil, []*types.Transaction{gap, ok})
	if got := has(res.Block, gap, ok); !reflect.DeepEqual(got, []bool{false, true}) {
		t.Errorf("included (nonce gap, next nonce) = %v", got)
	}
}

func TestBuildNumbersLogsAcrossBlock(t *testing.T) {
	f := newFixture(t, chain.DefaultGasLimit, 0, types.Ether(1_000))
	bundle := []*types.Transaction{f.tokenTx(alice, 0, bob, 1), f.tokenTx(alice, 1, carol, 1)}
	pending := []*types.Transaction{f.tokenTx(carol, 0, bob, 1), transferTx(bob, 0, alice), f.tokenTx(carol, 1, alice, 1)}
	res := f.build(t, []*types.Bundle{{Txs: bundle}}, pending)
	if n := logCount(res.Exec); n != 4 {
		t.Errorf("block logs = %d, want 4", n)
	}
}

func TestBuildDropsUnpayableBid(t *testing.T) {
	// A negative margin bids 10 ETH over the block's value from a treasury
	// of 1 ETH: the payment cannot run and leaves no record.
	f := newFixture(t, chain.DefaultGasLimit, -10, types.Ether(1))
	tx := f.tokenTx(alice, 0, bob, 1)
	res := f.build(t, nil, []*types.Transaction{tx})
	if len(res.Block.Txs) != 1 || len(res.Exec.Receipts) != 1 {
		t.Errorf("block holds %d txs and %d receipts, want the pending tx alone",
			len(res.Block.Txs), len(res.Exec.Receipts))
	}
	if !res.Payment.IsZero() {
		t.Errorf("payment = %s, want zero", res.Payment)
	}
}

func TestBuildPaysProposerLast(t *testing.T) {
	f := newFixture(t, chain.DefaultGasLimit, 0, types.Ether(1_000))
	res := f.build(t, nil, []*types.Transaction{transferTx(bob, 0, carol)})
	last := res.Block.Txs[len(res.Block.Txs)-1]
	if last.From != f.b.Addr || last.To != proposerFee || last.Value != res.Payment || res.Payment.IsZero() {
		t.Errorf("last tx %s -> %s value %s, want the payment %s", last.From, last.To, last.Value, res.Payment)
	}
}

func TestBuildLocalExecMatchesProcess(t *testing.T) {
	f := newFixture(t, 150_000, 0, types.Wei{})
	pending := []*types.Transaction{
		f.tokenTx(alice, 0, bob, 1),
		transferTx(bob, 3, carol), // nonce gap
		f.tokenTx(carol, 0, bob, 1),
		f.tokenTx(alice, 1, bob, 1), // over the 150k gas limit
		f.tokenTx(alice, 2, bob, 1), // nonce 2, but alice's stays at 1
		transferTx(bob, 0, carol),
	}
	st := f.chain.StateFork()
	block, exec := BuildLocalExec(f.chain, st, chain.MergeSlot+1, proposerFee, pending, 1, rng.New(2))
	checkExec(t, f.chain, block, exec, st)
	if got := has(block, pending...); !reflect.DeepEqual(got, []bool{true, false, true, false, false, true}) {
		t.Errorf("included = %v", got)
	}
	if n := logCount(exec); n != 2 {
		t.Errorf("block logs = %d, want 2", n)
	}
}
