// Package searcher implements the MEV bots of the PBS ecosystem: cyclic
// arbitrageurs, sandwich attackers and liquidation bots. Searchers watch the
// public mempool and chain state, construct atomic bundles, and bid for
// inclusion with direct coinbase transfers — the private order flow the
// paper identifies as the builders' decisive advantage (Section 5.3).
//
// Every bot validates its bundle by speculative execution against a state
// snapshot before submitting, exactly as production searchers simulate
// against a forked state.
package searcher

import (
	"github.com/ethpbs/pbslab/internal/defi"
	"github.com/ethpbs/pbslab/internal/evm"
	"github.com/ethpbs/pbslab/internal/state"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

// Context is the view a searcher gets when hunting for opportunities in the
// upcoming block.
type Context struct {
	// State is a view of the head state: in the simulator, a
	// copy-on-write fork taken for the slot. Searchers may simulate on it
	// using snapshots but must revert everything they apply.
	State *state.State
	// Engine executes speculative transactions.
	Engine *evm.Engine
	// BaseFee is the expected base fee of the target block.
	BaseFee types.Wei
	// TargetBlock is the height being built.
	TargetBlock uint64
	// BlockCtx is a template execution context for simulation.
	BlockCtx evm.BlockContext
	// Pending is the searcher's view of the public mempool (the victims).
	Pending []*types.Transaction

	// cycles memoises arbitrage searches for the context's lifetime (one
	// slot): every arbitrageur quoting the same cycle at the same reserves
	// and cap shares one search.
	cycles map[cycleKey]cycleQuote
}

// Searcher is one MEV bot.
type Searcher interface {
	// Name identifies the bot in reports.
	Name() string
	// Address is the bot's funded execution-layer account.
	Address() types.Address
	// FindBundles returns the bundles the bot wants included in the target
	// block. The context state is left unmodified.
	FindBundles(ctx *Context) []*types.Bundle
}

// gas headroom multiplier over the base fee for searcher transactions.
const feeHeadroom = 4

// searcherTxGasTip is the nominal priority fee searchers attach; the real
// bid rides in the coinbase transfer.
var searcherTxGasTip = types.Gwei(1)

// buildTx constructs a searcher transaction with standard fee settings.
func buildTx(st *state.State, nonceOffset *uint64, from, to types.Address, value types.Wei, baseFee types.Wei, data []byte) *types.Transaction {
	call, _ := evm.DecodeCall(data)
	gas := evm.GasFor(call.Op)
	nonce := st.Nonce(from) + *nonceOffset
	*nonceOffset++
	return types.NewTransaction(nonce, from, to, value, gas,
		baseFee.Mul64(feeHeadroom), searcherTxGasTip, data)
}

// simulateAll applies txs against a snapshot of ctx.State and reverts,
// reporting whether every transaction was valid AND succeeded.
func simulateAll(ctx *Context, txs []*types.Transaction) bool {
	snap := ctx.State.Snapshot()
	defer ctx.State.RevertTo(snap)
	for _, tx := range txs {
		res, err := ctx.Engine.ApplyTx(ctx.State, ctx.BlockCtx, tx)
		if err != nil || !res.Receipt.Succeeded() {
			return false
		}
	}
	return true
}

// Arbitrageur hunts two-pool cycles over the same token pair: buy on the
// cheap venue, sell on the expensive one, all within one bundle.
type Arbitrageur struct {
	name string
	addr types.Address
	// Router executes the cycle atomically in one transaction.
	Router *defi.Router
	// Venues are the pools to compare; all must share Token0/Token1.
	Venues []*defi.Pair
	// BidFraction is the share of expected profit paid to the block's fee
	// recipient via coinbase transfer.
	BidFraction float64
	// MinProfit filters dust opportunities (in Token0 wei).
	MinProfit types.Wei
	// MaxInput caps the cycle input (in Token0 wei).
	MaxInput types.Wei
}

// NewArbitrageur creates a bot trading across the given venues through the
// router.
func NewArbitrageur(name string, addr types.Address, router *defi.Router, venues []*defi.Pair, bidFraction float64) *Arbitrageur {
	return &Arbitrageur{
		name: name, addr: addr, Router: router, Venues: venues,
		BidFraction: bidFraction,
		MinProfit:   types.Ether(0.002),
		MaxInput:    types.Ether(200),
	}
}

// Name implements Searcher.
func (a *Arbitrageur) Name() string { return a.name }

// Address implements Searcher.
func (a *Arbitrageur) Address() types.Address { return a.addr }

// cycle is a two-pool round trip priced at fixed reserves: t0 -> t1 on
// buy, t1 -> t0 on sell.
type cycle struct {
	buy, sell *defi.Pair
	// reserves holds buy's (r0, r1) then sell's (r0, r1).
	reserves [4]u256.Int
}

// cycleKey identifies one search: reserves, fees and the input cap fully
// determine its result, whichever pools or bot ask.
type cycleKey struct {
	reserves [4]u256.Int
	fees     [2]uint64
	cap      u256.Int
}

// cycleQuote is a memoised search result.
type cycleQuote struct{ input, profit u256.Int }

// profit quotes the round trip for amountIn.
func (c *cycle) profit(amountIn u256.Int) u256.Int {
	mid, ok := c.buy.QuoteOutAt(c.reserves[0], c.reserves[1], c.buy.Token0.Addr, amountIn)
	if !ok || mid.IsZero() {
		return u256.Zero
	}
	out, ok := c.sell.QuoteOutAt(c.reserves[2], c.reserves[3], c.sell.Token1.Addr, mid)
	if !ok {
		return u256.Zero
	}
	return out.SatSub(amountIn)
}

// bestInput ternary-searches the profit-maximizing cycle input. Profit is
// unimodal in the input for constant-product pools.
func (c *cycle) bestInput(cap u256.Int) (u256.Int, u256.Int) {
	lo, hi := u256.Zero, cap
	for i := 0; i < 60 && hi.Gt(lo); i++ {
		third := hi.Sub(lo).Div64(3)
		m1 := lo.Add(third)
		m2 := hi.Sub(third)
		if c.profit(m1).Cmp(c.profit(m2)) < 0 {
			lo = m1.Add(u256.One)
		} else {
			hi = m2.Sub(u256.One)
		}
	}
	return lo, c.profit(lo)
}

// bestInput returns the cycle's search result, searching only on the
// context's first ask for these reserves, fees and cap.
func (ctx *Context) bestInput(c *cycle, cap u256.Int) (u256.Int, u256.Int) {
	k := cycleKey{reserves: c.reserves, fees: [2]uint64{c.buy.FeeBps, c.sell.FeeBps}, cap: cap}
	if q, ok := ctx.cycles[k]; ok {
		return q.input, q.profit
	}
	input, profit := c.bestInput(cap)
	if ctx.cycles == nil {
		ctx.cycles = map[cycleKey]cycleQuote{}
	}
	ctx.cycles[k] = cycleQuote{input, profit}
	return input, profit
}

// FindBundles implements Searcher.
func (a *Arbitrageur) FindBundles(ctx *Context) []*types.Bundle {
	var bundles []*types.Bundle
	for i := 0; i < len(a.Venues); i++ {
		for j := 0; j < len(a.Venues); j++ {
			if i == j {
				continue
			}
			buy, sell := a.Venues[i], a.Venues[j]
			// Only true venue pairs form a cycle: both pools must trade the
			// same two tokens.
			if buy.Token0.Addr != sell.Token0.Addr || buy.Token1.Addr != sell.Token1.Addr {
				continue
			}
			cap := a.MaxInput
			if bal := buy.Token0.BalanceOf(ctx.State, a.addr); bal.Lt(cap) {
				cap = bal
			}
			if cap.IsZero() {
				continue
			}
			c := cycle{buy: buy, sell: sell}
			c.reserves[0], c.reserves[1] = buy.Reserves(ctx.State)
			c.reserves[2], c.reserves[3] = sell.Reserves(ctx.State)
			input, profit := ctx.bestInput(&c, cap)
			if profit.Lt(a.MinProfit) || input.IsZero() {
				continue
			}
			tip := profit.Mul64(uint64(a.BidFraction * 1e6)).Div64(1e6)

			var off uint64
			txs := []*types.Transaction{
				buildTx(ctx.State, &off, a.addr, a.Router.Addr, u256.Zero, ctx.BaseFee,
					defi.MultiSwapCalldata(buy.Addr, sell.Addr, input, input)),
				buildTx(ctx.State, &off, a.addr, a.addr, u256.Zero, ctx.BaseFee,
					defi.CoinbaseTipCalldata(tip)),
			}
			if !simulateAll(ctx, txs) {
				continue
			}
			bundles = append(bundles, &types.Bundle{
				Txs: txs, Searcher: a.addr,
				TargetBlock: ctx.TargetBlock, DirectPayment: tip,
			})
			// One cycle per block keeps nonces conflict-free.
			return bundles
		}
	}
	return bundles
}

// Sandwicher front- and back-runs pending swaps whose slippage tolerance
// leaves room for profit.
type Sandwicher struct {
	name string
	addr types.Address
	// Pools maps pair contract addresses to their handles.
	Pools map[types.Address]*defi.Pair
	// BidFraction is the profit share bid via coinbase transfer.
	BidFraction float64
	// MinProfit filters dust (in input-token wei).
	MinProfit types.Wei
}

// NewSandwicher creates a bot attacking the given pools.
func NewSandwicher(name string, addr types.Address, pools []*defi.Pair, bidFraction float64) *Sandwicher {
	m := make(map[types.Address]*defi.Pair, len(pools))
	for _, p := range pools {
		m[p.Addr] = p
	}
	return &Sandwicher{
		name: name, addr: addr, Pools: m,
		BidFraction: bidFraction, MinProfit: types.Ether(0.002),
	}
}

// Name implements Searcher.
func (s *Sandwicher) Name() string { return s.name }

// Address implements Searcher.
func (s *Sandwicher) Address() types.Address { return s.addr }

// victimQuoteAfterFront computes what the victim would receive if the
// attacker front-runs with frontIn first, priced from the pool's reserves
// (r0, r1) without touching state.
func victimQuoteAfterFront(pool *defi.Pair, r0, r1 u256.Int, tokenIn types.Address, frontIn, victimIn u256.Int) u256.Int {
	out, ok := pool.QuoteOutAt(r0, r1, tokenIn, frontIn)
	if !ok {
		return u256.Zero
	}
	r0, r1 = pool.ShiftedReserves(r0, r1, tokenIn, frontIn, out)
	victimOut, ok := pool.QuoteOutAt(r0, r1, tokenIn, victimIn)
	if !ok {
		return u256.Zero
	}
	return victimOut
}

// sandwichOutcome prices the whole attack from the reserves (r0, r1): the
// front-run's output, then the back-run's output after the victim's swap.
func sandwichOutcome(pool *defi.Pair, r0, r1 u256.Int, tokenIn types.Address, frontIn, victimIn u256.Int) (frontOut, backOut u256.Int) {
	frontOut, _ = pool.QuoteOutAt(r0, r1, tokenIn, frontIn)
	r0, r1 = pool.ShiftedReserves(r0, r1, tokenIn, frontIn, frontOut)
	victimOut, _ := pool.QuoteOutAt(r0, r1, tokenIn, victimIn)
	r0, r1 = pool.ShiftedReserves(r0, r1, tokenIn, victimIn, victimOut)
	backOut, _ = pool.QuoteOutAt(r0, r1, otherOf(pool, tokenIn), frontOut)
	return frontOut, backOut
}

// FindBundles implements Searcher.
func (s *Sandwicher) FindBundles(ctx *Context) []*types.Bundle {
	var bundles []*types.Bundle
	for _, victim := range ctx.Pending {
		pool, ok := s.Pools[victim.To]
		if !ok {
			continue
		}
		call, err := evm.DecodeCall(victim.Data)
		if err != nil || call.Op != evm.OpSwap {
			continue
		}
		victimIn, minOut := call.Amount, call.Amount2
		tokenIn := call.Addr
		r0, r1 := pool.Reserves(ctx.State)
		quote, okQ := pool.QuoteOutAt(r0, r1, tokenIn, victimIn)
		if !okQ || !quote.Gt(minOut) || minOut.IsZero() {
			continue // no slippage room (or no protection to exploit)
		}

		// Largest front-run that still satisfies the victim's minOut.
		in, _, okT := poolTokens(pool, tokenIn)
		if !okT {
			continue
		}
		cap := in.BalanceOf(ctx.State, s.addr)
		if cap.IsZero() {
			continue
		}
		lo, hi := u256.Zero, cap
		for i := 0; i < 50 && hi.Gt(lo); i++ {
			mid := lo.Add(hi.Sub(lo).Div64(2)).Add(u256.One)
			if victimQuoteAfterFront(pool, r0, r1, tokenIn, mid, victimIn).Cmp(minOut) >= 0 {
				lo = mid
			} else {
				hi = mid.Sub(u256.One)
			}
		}
		frontIn := lo
		if frontIn.IsZero() {
			continue
		}

		// Expected profit: shift the reserves by the front-run and the
		// victim, then quote the back-run.
		frontOut, backOut := sandwichOutcome(pool, r0, r1, tokenIn, frontIn, victimIn)
		otherToken := otherOf(pool, tokenIn)

		// Profit is denominated in the input token; bids are paid in ETH, so
		// token1-side profits convert through the pool's spot price.
		profit := backOut.SatSub(frontIn)
		profitETH := profit
		if tokenIn != pool.Token0.Addr {
			spot := pool.SpotPrice(ctx.State) // token1 wei per 1e18 token0 wei
			if spot.IsZero() {
				continue
			}
			profitETH = profit.MulDiv(types.OneEther, spot)
		}
		if profitETH.Lt(s.MinProfit) {
			continue
		}
		tip := profitETH.Mul64(uint64(s.BidFraction * 1e6)).Div64(1e6)

		var off uint64
		front := buildTx(ctx.State, &off, s.addr, pool.Addr, u256.Zero, ctx.BaseFee,
			defi.SwapCalldata(tokenIn, frontIn, u256.Zero))
		back := buildTx(ctx.State, &off, s.addr, pool.Addr, u256.Zero, ctx.BaseFee,
			defi.SwapCalldata(otherToken, frontOut, u256.Zero))
		tipTx := buildTx(ctx.State, &off, s.addr, s.addr, u256.Zero, ctx.BaseFee,
			defi.CoinbaseTipCalldata(tip))

		txs := []*types.Transaction{front, victim, back, tipTx}
		if !simulateAll(ctx, txs) {
			continue
		}
		bundles = append(bundles, &types.Bundle{
			Txs: txs, Searcher: s.addr,
			TargetBlock: ctx.TargetBlock, DirectPayment: tip,
		})
		// One attack per block keeps the bot's nonces conflict-free.
		break
	}
	return bundles
}

func poolTokens(pool *defi.Pair, tokenIn types.Address) (in, out *defi.Token, ok bool) {
	switch tokenIn {
	case pool.Token0.Addr:
		return pool.Token0, pool.Token1, true
	case pool.Token1.Addr:
		return pool.Token1, pool.Token0, true
	}
	return nil, nil, false
}

func otherOf(pool *defi.Pair, tokenIn types.Address) types.Address {
	if tokenIn == pool.Token0.Addr {
		return pool.Token1.Addr
	}
	return pool.Token0.Addr
}

// Liquidator watches lending positions (learned from on-chain Borrow events)
// and fires when a pending oracle update, or the current price, makes one
// liquidatable.
type Liquidator struct {
	name string
	addr types.Address
	// Market is the lending market watched.
	Market *defi.Lending
	// BidFraction is the profit share bid via coinbase transfer.
	BidFraction float64

	borrowers map[types.Address]bool
	order     []types.Address // insertion-ordered, for deterministic scans
}

// NewLiquidator creates a liquidation bot for the market.
func NewLiquidator(name string, addr types.Address, market *defi.Lending, bidFraction float64) *Liquidator {
	return &Liquidator{
		name: name, addr: addr, Market: market,
		BidFraction: bidFraction, borrowers: map[types.Address]bool{},
	}
}

// Name implements Searcher.
func (l *Liquidator) Name() string { return l.name }

// Address implements Searcher.
func (l *Liquidator) Address() types.Address { return l.addr }

// ObserveLogs updates the borrower watchlist from a confirmed block's logs,
// the way production bots index Borrow events.
func (l *Liquidator) ObserveLogs(logs []types.Log) {
	for _, lg := range logs {
		if ev, ok := defi.ParseBorrow(lg); ok && ev.Market == l.Market.Addr {
			if !l.borrowers[ev.User] {
				l.borrowers[ev.User] = true
				l.order = append(l.order, ev.User)
			}
		}
	}
}

// Borrowers returns the number of positions watched.
func (l *Liquidator) Borrowers() int { return len(l.borrowers) }

// Watchlist returns the watched borrowers in observation order; checkpoints
// persist it so resumed runs scan positions in the original order.
func (l *Liquidator) Watchlist() []types.Address {
	return append([]types.Address(nil), l.order...)
}

// RestoreWatchlist replaces the watchlist, preserving the given order.
func (l *Liquidator) RestoreWatchlist(borrowers []types.Address) {
	l.borrowers = make(map[types.Address]bool, len(borrowers))
	l.order = append(l.order[:0:0], borrowers...)
	for _, b := range borrowers {
		l.borrowers[b] = true
	}
}

// FindBundles implements Searcher.
func (l *Liquidator) FindBundles(ctx *Context) []*types.Bundle {
	// Collect pending oracle updates targeting the market.
	var oracleTxs []*types.Transaction
	for _, tx := range ctx.Pending {
		if tx.To != l.Market.Addr {
			continue
		}
		if call, err := evm.DecodeCall(tx.Data); err == nil && call.Op == evm.OpOracleSet {
			oracleTxs = append(oracleTxs, tx)
		}
	}

	attempt := func(prelude []*types.Transaction) *types.Bundle {
		snap := ctx.State.Snapshot()
		defer ctx.State.RevertTo(snap)
		for _, tx := range prelude {
			res, err := ctx.Engine.ApplyTx(ctx.State, ctx.BlockCtx, tx)
			if err != nil || !res.Receipt.Succeeded() {
				return nil
			}
		}
		for _, borrower := range l.order {
			if !l.Market.Liquidatable(ctx.State, borrower) {
				continue
			}
			coll, debt := l.Market.Position(ctx.State, borrower)
			price := l.Market.Price(ctx.State)
			if price.IsZero() {
				continue
			}
			collNeeded := debt.MulDiv(types.OneEther, price)
			seized := collNeeded.Mul64(10_000 + l.Market.BonusBps).Div64(10_000)
			if seized.Gt(coll) {
				seized = coll
			}
			profit := seized.SatSub(collNeeded)
			if profit.IsZero() {
				continue
			}
			if l.Market.Debt.BalanceOf(ctx.State, l.addr).Lt(debt) {
				continue // cannot fund the repayment
			}
			tip := profit.Mul64(uint64(l.BidFraction * 1e6)).Div64(1e6)

			var off uint64
			liqTx := buildTx(ctx.State, &off, l.addr, l.Market.Addr, u256.Zero, ctx.BaseFee,
				defi.LiquidateCalldata(borrower))
			tipTx := buildTx(ctx.State, &off, l.addr, l.addr, u256.Zero, ctx.BaseFee,
				defi.CoinbaseTipCalldata(tip))
			txs := append(append([]*types.Transaction{}, prelude...), liqTx, tipTx)
			return &types.Bundle{
				Txs: txs, Searcher: l.addr,
				TargetBlock: ctx.TargetBlock, DirectPayment: tip,
			}
		}
		return nil
	}

	var bundles []*types.Bundle
	// Already-liquidatable positions need no prelude.
	if b := attempt(nil); b != nil {
		if simulateAll(ctx, b.Txs) {
			bundles = append(bundles, b)
			return bundles
		}
	}
	// Otherwise ride a pending oracle update.
	for _, otx := range oracleTxs {
		if b := attempt([]*types.Transaction{otx}); b != nil {
			if simulateAll(ctx, b.Txs) {
				bundles = append(bundles, b)
				return bundles
			}
		}
	}
	return bundles
}
