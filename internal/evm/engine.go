package evm

import (
	"errors"
	"fmt"

	"github.com/ethpbs/pbslab/internal/state"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

// Execution-time validity errors. A transaction failing with one of these is
// not includable at all (builders skip it); contrast with reverts, which are
// included with Status 0 and still pay gas.
var (
	ErrNonce             = errors.New("evm: nonce mismatch")
	ErrFeeTooLow         = errors.New("evm: max fee below base fee")
	ErrInsufficientFunds = errors.New("evm: insufficient funds for gas * maxFee + value")
	ErrGasLimitTooLow    = errors.New("evm: transaction gas limit below operation cost")
	ErrUnknownContract   = errors.New("evm: call to unregistered contract")
)

// BlockContext is the block-level environment a transaction executes in.
type BlockContext struct {
	Number       uint64
	Timestamp    uint64
	BaseFee      types.Wei
	FeeRecipient types.Address
	GasLimit     uint64
}

// Contract is the interface simulation contracts implement. A Call must be
// all-or-nothing: on a non-nil error (a revert) the contract must leave the
// state untouched. The engine still charges gas for reverted calls.
type Contract interface {
	// Call executes one operation. from has already paid gas; value has NOT
	// been transferred — contracts that accept ETH move it via env.
	Call(env *Env, from types.Address, value types.Wei, call Call) error
}

// Env is the per-transaction execution environment handed to contracts.
type Env struct {
	State  *state.State
	Ctx    BlockContext
	TxHash types.Hash

	logs   []types.Log
	traces []types.Trace
}

// EmitLog records an event log against the emitting contract.
func (env *Env) EmitLog(contract types.Address, topics []types.Hash, data []byte) {
	env.logs = append(env.logs, types.Log{
		Address: contract,
		Topics:  topics,
		Data:    data,
		TxHash:  env.TxHash,
	})
}

// TransferETH moves native value and records the internal-transfer trace the
// measurement pipeline scans for direct payments.
func (env *Env) TransferETH(from, to types.Address, v types.Wei) error {
	if v.IsZero() {
		return nil
	}
	if err := env.State.Transfer(from, to, v); err != nil {
		return err
	}
	env.traces = append(env.traces, types.Trace{
		TxHash: env.TxHash, From: from, To: to, Value: v,
	})
	return nil
}

// Result is the outcome of applying one transaction.
type Result struct {
	Receipt *types.Receipt
	Traces  []types.Trace
	// Burned is the base-fee portion of the gas payment (destroyed).
	Burned types.Wei
	// Tip is the priority-fee portion credited to the fee recipient.
	Tip types.Wei
}

// Engine applies transactions against a state. Engines are stateless apart
// from the contract registry and safe for concurrent use once all contracts
// are registered.
type Engine struct {
	contracts map[types.Address]Contract
}

// NewEngine returns an engine with no contracts registered.
func NewEngine() *Engine {
	return &Engine{contracts: map[types.Address]Contract{}}
}

// Register installs a contract at an address. Registering twice replaces.
func (e *Engine) Register(addr types.Address, c Contract) {
	e.contracts[addr] = c
}

// IsContract reports whether addr hosts a registered contract.
func (e *Engine) IsContract(addr types.Address) bool {
	_, ok := e.contracts[addr]
	return ok
}

// GasEstimate returns the gas a transaction will consume if applied. The
// schedule is deterministic, so estimation is exact.
func (e *Engine) GasEstimate(tx *types.Transaction) (uint64, error) {
	call, err := DecodeCall(tx.Data)
	if err != nil {
		return 0, err
	}
	return GasFor(call.Op), nil
}

// ApplyTx executes tx against st in the given block context. On a validity
// error (nonce, fees, funds) the state is unchanged and no receipt is
// produced. On success or revert the state reflects the execution, gas has
// been charged, and a receipt is returned.
func (e *Engine) ApplyTx(st *state.State, ctx BlockContext, tx *types.Transaction) (*Result, error) {
	if st.Nonce(tx.From) != tx.Nonce {
		return nil, fmt.Errorf("%w: have %d, tx %d", ErrNonce, st.Nonce(tx.From), tx.Nonce)
	}
	price, ok := tx.EffectiveGasPrice(ctx.BaseFee)
	if !ok {
		return nil, ErrFeeTooLow
	}
	call, err := DecodeCall(tx.Data)
	if err != nil {
		return nil, err
	}
	gasUsed := GasFor(call.Op)
	if gasUsed > tx.Gas {
		return nil, fmt.Errorf("%w: need %d, limit %d", ErrGasLimitTooLow, gasUsed, tx.Gas)
	}
	// Upfront affordability: worst-case gas cost plus value, as on mainnet.
	worstCost := tx.MaxFee.Mul64(tx.Gas).Add(tx.Value)
	if st.Balance(tx.From).Lt(worstCost) {
		return nil, fmt.Errorf("%w: balance %s, need %s", ErrInsufficientFunds,
			st.Balance(tx.From), worstCost)
	}

	// Charge gas: the base-fee share is burned (debited, credited nowhere);
	// the tip share goes to the fee recipient.
	burned := ctx.BaseFee.Mul64(gasUsed)
	tipPerGas := price.Sub(ctx.BaseFee)
	tip := tipPerGas.Mul64(gasUsed)
	if err := st.Debit(tx.From, burned.Add(tip)); err != nil {
		return nil, fmt.Errorf("%w: gas charge: %v", ErrInsufficientFunds, err)
	}
	st.Credit(ctx.FeeRecipient, tip)
	st.IncNonce(tx.From)

	env := &Env{State: st, Ctx: ctx, TxHash: tx.Hash()}
	status := uint8(1)
	if execErr := e.execute(env, tx, call); execErr != nil {
		// Revert: gas stays charged, nonce stays advanced, but the operation
		// itself left no effects (contracts are all-or-nothing) and no logs
		// or traces are reported.
		status = 0
		env.logs = nil
		env.traces = nil
	}

	receipt := &types.Receipt{
		TxHash:            tx.Hash(),
		Status:            status,
		GasUsed:           gasUsed,
		EffectiveGasPrice: price,
		Logs:              env.logs,
	}
	return &Result{Receipt: receipt, Traces: env.traces, Burned: burned, Tip: tip}, nil
}

// execute runs the operation after gas has been charged.
func (e *Engine) execute(env *Env, tx *types.Transaction, call Call) error {
	if contract, ok := e.contracts[tx.To]; ok {
		return contract.Call(env, tx.From, tx.Value, call)
	}
	switch call.Op {
	case OpNone:
		// Plain transfer to an externally owned account.
		return env.TransferETH(tx.From, tx.To, tx.Value)
	case OpCoinbaseTip:
		// Coinbase tips may target any address; the funds go to the block's
		// fee recipient regardless of tx.To.
		return env.TransferETH(tx.From, env.Ctx.FeeRecipient, call.Amount)
	default:
		return fmt.Errorf("%w: %s at %s", ErrUnknownContract, call.Op, tx.To)
	}
}

// ZeroWei is a convenience for callers constructing contexts.
var ZeroWei = u256.Zero
