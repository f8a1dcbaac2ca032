package defi

import (
	"fmt"

	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/evm"
	"github.com/ethpbs/pbslab/internal/state"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

// Pair is a constant-product automated market maker over two tokens, with
// Uniswap-v2 semantics: x*y >= k invariant and a 0.3% input fee by default.
type Pair struct {
	Addr   types.Address
	Token0 *Token
	Token1 *Token
	// FeeBps is the swap fee in basis points taken from the input amount.
	FeeBps uint64
}

// reserveSlots are the pool's two reserve cells.
func (p *Pair) reserveSlots() (r0, r1 state.Slot) {
	return state.Slot{Contract: p.Addr, Kind: kindReserve0}, state.Slot{Contract: p.Addr, Kind: kindReserve1}
}

// NewPair creates an AMM pair with a deterministic address derived from the
// venue name and the token symbols, and the standard 30 bps fee.
func NewPair(venue string, t0, t1 *Token) *Pair {
	return &Pair{
		Addr:   crypto.AddressFromSeed("pair/" + venue + "/" + t0.Symbol + "/" + t1.Symbol),
		Token0: t0, Token1: t1, FeeBps: 30,
	}
}

// Reserves returns the current reserves (r0 for Token0, r1 for Token1).
func (p *Pair) Reserves(st *state.State) (u256.Int, u256.Int) {
	k0, k1 := p.reserveSlots()
	return st.Get(k0), st.Get(k1)
}

// InitLiquidity seeds the pool: mints the reserve amounts to the pair and
// records them. Genesis only.
func (p *Pair) InitLiquidity(st *state.State, r0, r1 u256.Int) {
	p.Token0.Mint(st, p.Addr, r0)
	p.Token1.Mint(st, p.Addr, r1)
	p.setReserves(st, r0, r1)
}

// setReserves writes both reserve cells.
func (p *Pair) setReserves(st *state.State, r0, r1 u256.Int) {
	k0, k1 := p.reserveSlots()
	st.Set(k0, r0)
	st.Set(k1, r1)
}

// tokens returns (in, out) token handles for a given input token address.
func (p *Pair) tokens(tokenIn types.Address) (in, out *Token, ok bool) {
	switch tokenIn {
	case p.Token0.Addr:
		return p.Token0, p.Token1, true
	case p.Token1.Addr:
		return p.Token1, p.Token0, true
	default:
		return nil, nil, false
	}
}

// QuoteOut returns the output amount a swap of amountIn of tokenIn would
// produce at current reserves, with the fee applied. ok is false for an
// unknown token or empty pool.
func (p *Pair) QuoteOut(st *state.State, tokenIn types.Address, amountIn u256.Int) (u256.Int, bool) {
	r0, r1 := p.Reserves(st)
	return p.QuoteOutAt(r0, r1, tokenIn, amountIn)
}

// QuoteOutAt is QuoteOut priced at the given reserves instead of the
// pool's state: searchers read the reserves once and run whole what-if
// searches as pure arithmetic.
func (p *Pair) QuoteOutAt(r0, r1 u256.Int, tokenIn types.Address, amountIn u256.Int) (u256.Int, bool) {
	in, _, ok := p.tokens(tokenIn)
	if !ok || amountIn.IsZero() {
		return u256.Zero, false
	}
	rIn, rOut := r0, r1
	if in == p.Token1 {
		rIn, rOut = rOut, rIn
	}
	if rIn.IsZero() || rOut.IsZero() {
		return u256.Zero, false
	}
	return amountOut(amountIn, rIn, rOut, p.FeeBps), true
}

// amountOut is the Uniswap-v2 formula:
// out = inWithFee*rOut / (rIn*10000 + inWithFee), inWithFee = in*(10000-fee).
func amountOut(amountIn, rIn, rOut u256.Int, feeBps uint64) u256.Int {
	inWithFee := amountIn.Mul64(10_000 - feeBps)
	numerator := inWithFee.Mul(rOut)
	denominator := rIn.Mul64(10_000).Add(inWithFee)
	return numerator.Div(denominator)
}

// SpotPrice returns the marginal price of Token0 denominated in Token1,
// scaled by 1e18, ignoring fees. Zero for an empty pool.
func (p *Pair) SpotPrice(st *state.State) u256.Int {
	r0, r1 := p.Reserves(st)
	if r0.IsZero() {
		return u256.Zero
	}
	return r1.MulDiv(u256.New(1_000_000_000_000_000_000), r0)
}

// Call implements evm.Contract. OpSwap trades call.Amount of token
// call.Addr for at least call.Amount2 of the counter token, crediting the
// sender. The call is all-or-nothing.
func (p *Pair) Call(env *evm.Env, from types.Address, value types.Wei, call evm.Call) error {
	if call.Op != evm.OpSwap {
		return fmt.Errorf("pair: unsupported op %s", call.Op)
	}
	if !value.IsZero() {
		return fmt.Errorf("pair: non-payable")
	}
	in, out, ok := p.tokens(call.Addr)
	if !ok {
		return fmt.Errorf("pair: token %s not in pair", call.Addr)
	}
	amountIn := call.Amount
	if amountIn.IsZero() {
		return fmt.Errorf("pair: zero input")
	}
	st := env.State
	quote, ok := p.QuoteOut(st, call.Addr, amountIn)
	if !ok || quote.IsZero() {
		return fmt.Errorf("pair: no liquidity")
	}
	if quote.Lt(call.Amount2) {
		return fmt.Errorf("pair: insufficient output: %s < min %s", quote, call.Amount2)
	}
	// Validate the sender's input balance before any mutation.
	if in.BalanceOf(st, from).Lt(amountIn) {
		return fmt.Errorf("pair: insufficient %s balance", in.Symbol)
	}

	// Move tokens with Transfer logs, then update reserves.
	if err := in.transferWithLog(env, from, p.Addr, amountIn); err != nil {
		return err
	}
	if err := out.transferWithLog(env, p.Addr, from, quote); err != nil {
		return err
	}
	r0, r1 := p.Reserves(st)
	if in == p.Token0 {
		p.setReserves(st, r0.Add(amountIn), r1.Sub(quote))
	} else {
		p.setReserves(st, r0.Sub(quote), r1.Add(amountIn))
	}

	w := &dataWriter{}
	w.addr(call.Addr).addr(out.Addr).amount(amountIn).amount(quote)
	env.EmitLog(p.Addr, []types.Hash{TopicSwap, AddrTopic(from)}, w.bytes())
	return nil
}

// ShiftReserves applies a swap's reserve movement to the pool's state
// without token transfers or logs.
func (p *Pair) ShiftReserves(st *state.State, tokenIn types.Address, in, out u256.Int) {
	r0, r1 := p.Reserves(st)
	r0, r1 = p.ShiftedReserves(r0, r1, tokenIn, in, out)
	p.setReserves(st, r0, r1)
}

// ShiftedReserves is ShiftReserves as pure arithmetic: the reserves
// (r0, r1) after a swap of in tokenIn for out of the counter token.
// Searchers chain it with QuoteOutAt to price front-runs without touching
// state.
func (p *Pair) ShiftedReserves(r0, r1 u256.Int, tokenIn types.Address, in, out u256.Int) (u256.Int, u256.Int) {
	if tokenIn == p.Token0.Addr {
		return r0.Add(in), r1.Sub(out)
	}
	return r0.Sub(out), r1.Add(in)
}

// SwapCalldata builds the calldata for a swap on this pair.
func SwapCalldata(tokenIn types.Address, amountIn, minOut u256.Int) []byte {
	return evm.EncodeCall(evm.Call{
		Op: evm.OpSwap, Addr: tokenIn, Amount: amountIn, Amount2: minOut,
	})
}
