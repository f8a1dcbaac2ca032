package searcher

import (
	"math/rand"
	"testing"

	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/defi"
	"github.com/ethpbs/pbslab/internal/state"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

// slotFixture is the simulator's arbitrage setting in miniature: four
// venues over two token pairs, both pairs knocked off balance, and six
// arbitrageurs (a shared bot, a public one and four builders' exclusive
// bots) quoting them against one context per slot.
type slotFixture struct {
	*fixture
	pairs []*defi.Pair
	bots  []*Arbitrageur
}

func newSlotFixture(tb testing.TB) *slotFixture {
	tb.Helper()
	f := &slotFixture{fixture: newFixture()}
	dai := defi.NewToken("DAI")
	uniDai := defi.NewPair("uniswap", f.weth, dai)
	sushiDai := defi.NewPair("sushiswap", f.weth, dai)
	f.pairs = []*defi.Pair{f.uni, f.sushi, uniDai, sushiDai}
	router := defi.NewRouter("slot", f.pairs)
	f.engine.Register(dai.Addr, dai)
	f.engine.Register(uniDai.Addr, uniDai)
	f.engine.Register(sushiDai.Addr, sushiDai)
	f.engine.Register(router.Addr, router)
	uniDai.InitLiquidity(f.st, types.Ether(1000), types.Ether(1_500_000))
	sushiDai.InitLiquidity(f.st, types.Ether(1000), types.Ether(1_500_000))
	dai.Mint(f.st, trader, types.Ether(1_000_000))

	// WETH gets cheap on sushi (USDC pair) and dear on uniswap (DAI pair).
	swap := func(pair *defi.Pair, tokenIn types.Address, in u256.Int) {
		tx := types.NewTransaction(f.st.Nonce(trader), trader, pair.Addr, u256.Zero,
			200_000, types.Gwei(100), types.Gwei(1), defi.SwapCalldata(tokenIn, in, u256.Zero))
		res, err := f.engine.ApplyTx(f.st, f.ctx(nil).BlockCtx, tx)
		if err != nil || !res.Receipt.Succeeded() {
			tb.Fatalf("skew swap failed: %v", err)
		}
	}
	swap(f.sushi, f.weth.Addr, types.Ether(100))
	swap(uniDai, dai.Addr, types.Ether(60_000))
	f.st.ClearJournal()

	bot := func(name string, bid float64, weth float64) *Arbitrageur {
		addr := crypto.AddressFromSeed("searcher/" + name)
		f.st.SetBalance(addr, types.Ether(1_000))
		f.weth.Mint(f.st, addr, types.Ether(weth))
		return NewArbitrageur(name, addr, router, f.pairs, bid)
	}
	main := bot("arb-main", 0.88, 2_000)
	main.MinProfit = types.Ether(0.01)
	f.bots = []*Arbitrageur{
		main,
		bot("arb-public", 0, 2_000),
		bot("arb-a", 0.5, 2_000),
		bot("arb-b", 0.5, 2_000),
		bot("arb-c", 0.5, 40), // balance below MaxInput: its own cap
		bot("arb-d", 0.5, 2_000),
	}
	f.st.ClearJournal()
	return f
}

// stateBestInput is the search as it reads reserves from state on every
// probe: the reference the memoised value-based search must match.
func stateBestInput(st *state.State, buy, sell *defi.Pair, cap u256.Int) (u256.Int, u256.Int) {
	profit := func(amountIn u256.Int) u256.Int {
		mid, ok := buy.QuoteOut(st, buy.Token0.Addr, amountIn)
		if !ok || mid.IsZero() {
			return u256.Zero
		}
		out, ok := sell.QuoteOut(st, sell.Token1.Addr, mid)
		if !ok {
			return u256.Zero
		}
		return out.SatSub(amountIn)
	}
	lo, hi := u256.Zero, cap
	for i := 0; i < 60 && hi.Gt(lo); i++ {
		third := hi.Sub(lo).Div64(3)
		m1 := lo.Add(third)
		m2 := hi.Sub(third)
		if profit(m1).Cmp(profit(m2)) < 0 {
			lo = m1.Add(u256.One)
		} else {
			hi = m2.Sub(u256.One)
		}
	}
	return lo, profit(lo)
}

func sameBundles(t *testing.T, who string, got, want []*types.Bundle) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bundles, want %d", who, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Searcher != w.Searcher || g.TargetBlock != w.TargetBlock || g.DirectPayment != w.DirectPayment || len(g.Txs) != len(w.Txs) {
			t.Fatalf("%s: bundle %d differs: %+v vs %+v", who, i, g, w)
		}
		for j := range g.Txs {
			if g.Txs[j].Hash() != w.Txs[j].Hash() {
				t.Fatalf("%s: bundle %d tx %d differs", who, i, j)
			}
		}
	}
}

// TestArbitrageMemoMatchesFreshSearch runs six arbitrageurs against one
// shared context, as a slot does, and checks each gets exactly the bundles
// it finds alone on a fresh context, and that every memoised (input,
// profit) equals the state-reading reference search.
func TestArbitrageMemoMatchesFreshSearch(t *testing.T) {
	f := newSlotFixture(t)
	shared := f.ctx(nil)
	found := 0
	for _, bot := range f.bots {
		got := bot.FindBundles(shared)
		sameBundles(t, bot.Name(), got, bot.FindBundles(f.ctx(nil)))
		found += len(got)
	}
	if found == 0 {
		t.Fatal("no arbitrageur found a bundle: the fixture exercises nothing")
	}
	caps := map[u256.Int]bool{}
	for _, bot := range f.bots {
		for _, buy := range f.pairs {
			for _, sell := range f.pairs {
				if buy == sell || buy.Token1 != sell.Token1 {
					continue
				}
				cap := bot.MaxInput
				if bal := f.weth.BalanceOf(shared.State, bot.Address()); bal.Lt(cap) {
					cap = bal
				}
				caps[cap] = true
				c := cycle{buy: buy, sell: sell}
				c.reserves[0], c.reserves[1] = buy.Reserves(shared.State)
				c.reserves[2], c.reserves[3] = sell.Reserves(shared.State)
				in, profit := shared.bestInput(&c, cap)
				wantIn, wantProfit := stateBestInput(shared.State, buy, sell, cap)
				if in != wantIn || profit != wantProfit {
					t.Errorf("%s %s->%s: memoised (%s, %s), reference (%s, %s)",
						bot.Name(), buy.Addr, sell.Addr, in, profit, wantIn, wantProfit)
				}
			}
		}
	}
	if limit := 4 * len(caps); len(shared.cycles) > limit {
		t.Errorf("memo holds %d searches for 4 cycles x %d caps: not shared", len(shared.cycles), len(caps))
	}
}

// TestArbitrageMemoMissesAfterSwap moves a pool's reserves on the context
// state between two searches: the second must search afresh, not serve the
// memo's pre-swap answer.
func TestArbitrageMemoMissesAfterSwap(t *testing.T) {
	f := newSlotFixture(t)
	bot := f.bots[0]
	ctx := f.ctx(nil)
	bot.FindBundles(ctx)
	n := len(ctx.cycles)
	if n == 0 {
		t.Fatal("no search was memoised")
	}
	bot.FindBundles(ctx)
	if len(ctx.cycles) != n {
		t.Fatalf("an unchanged state searched again: %d memo entries, want %d", len(ctx.cycles), n)
	}

	tx := types.NewTransaction(ctx.State.Nonce(trader), trader, f.uni.Addr, u256.Zero,
		200_000, types.Gwei(100), types.Gwei(1), defi.SwapCalldata(f.weth.Addr, types.Ether(30), u256.Zero))
	if res, err := f.engine.ApplyTx(ctx.State, ctx.BlockCtx, tx); err != nil || !res.Receipt.Succeeded() {
		t.Fatalf("swap failed: %v", err)
	}
	got := bot.FindBundles(ctx)
	if len(ctx.cycles) == n {
		t.Fatal("a swap that moved reserves hit the memo")
	}
	fresh := *ctx
	fresh.State, fresh.cycles = ctx.State.Copy(), nil
	sameBundles(t, bot.Name(), got, bot.FindBundles(&fresh))
}

// stateVictimQuote is the front-run probe as ShiftReserves on a snapshot
// of state: the reference for the value-based victimQuoteAfterFront.
func stateVictimQuote(st *state.State, pool *defi.Pair, tokenIn types.Address, frontIn, victimIn u256.Int) u256.Int {
	snap := st.Snapshot()
	defer st.RevertTo(snap)
	out, ok := pool.QuoteOut(st, tokenIn, frontIn)
	if !ok {
		return u256.Zero
	}
	pool.ShiftReserves(st, tokenIn, frontIn, out)
	victimOut, ok := pool.QuoteOut(st, tokenIn, victimIn)
	if !ok {
		return u256.Zero
	}
	return victimOut
}

// stateSandwichOutcome is the attack's expected-profit pricing on state.
func stateSandwichOutcome(st *state.State, pool *defi.Pair, tokenIn types.Address, frontIn, victimIn u256.Int) (u256.Int, u256.Int) {
	snap := st.Snapshot()
	defer st.RevertTo(snap)
	frontOut, _ := pool.QuoteOut(st, tokenIn, frontIn)
	pool.ShiftReserves(st, tokenIn, frontIn, frontOut)
	victimOut, _ := pool.QuoteOut(st, tokenIn, victimIn)
	pool.ShiftReserves(st, tokenIn, victimIn, victimOut)
	backOut, _ := pool.QuoteOut(st, otherOf(pool, tokenIn), frontOut)
	return frontOut, backOut
}

// randAmount draws zero now and then, otherwise anything from one wei to
// about a million ether.
func randAmount(r *rand.Rand) u256.Int {
	if r.Intn(20) == 0 {
		return u256.Zero
	}
	v := u256.New(1 + r.Uint64()>>uint(r.Intn(64)))
	return v.Mul64(1 + uint64(r.Intn(1_000_000)))
}

// TestSandwichQuoteMatchesStateShift compares the value-based front-run
// and profit pricing with ShiftReserves on state over 10,000 random
// reserve, direction and amount draws, empty pools and unknown tokens
// included. On state the pool is a fork, as on the slot engine's path.
func TestSandwichQuoteMatchesStateShift(t *testing.T) {
	f := newFixture()
	r := rand.New(rand.NewSource(7))
	stranger := crypto.AddressFromSeed("token/unknown")
	for i := 0; i < 10_000; i++ {
		st := f.st.Fork()
		r0, r1 := randAmount(r), randAmount(r)
		f.uni.InitLiquidity(st, r0, r1)
		tokenIn := f.weth.Addr
		switch r.Intn(10) {
		case 0:
			tokenIn = stranger
		case 1, 2, 3, 4:
			tokenIn = f.usd.Addr
		}
		frontIn, victimIn := randAmount(r), randAmount(r)

		got := victimQuoteAfterFront(f.uni, r0, r1, tokenIn, frontIn, victimIn)
		if want := stateVictimQuote(st, f.uni, tokenIn, frontIn, victimIn); got != want {
			t.Fatalf("case %d: victim quote %s, state shift %s (r0=%s r1=%s front=%s victim=%s)",
				i, got, want, r0, r1, frontIn, victimIn)
		}
		gotFront, gotBack := sandwichOutcome(f.uni, r0, r1, tokenIn, frontIn, victimIn)
		wantFront, wantBack := stateSandwichOutcome(st, f.uni, tokenIn, frontIn, victimIn)
		if gotFront != wantFront || gotBack != wantBack {
			t.Fatalf("case %d: outcome (%s, %s), state shift (%s, %s)", i, gotFront, gotBack, wantFront, wantBack)
		}
		st.Release()
	}
}

// BenchmarkArbitrageurFindBundles is the slot's arbitrage round: six
// arbitrageurs search the same venues on one fresh context.
func BenchmarkArbitrageurFindBundles(b *testing.B) {
	f := newSlotFixture(b)
	tmpl := f.ctx(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := *tmpl
		for _, bot := range f.bots {
			bot.FindBundles(&ctx)
		}
	}
}
