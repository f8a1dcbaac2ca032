package sim

import (
	"fmt"

	"github.com/ethpbs/pbslab/internal/beacon"
	"github.com/ethpbs/pbslab/internal/builder"
	"github.com/ethpbs/pbslab/internal/chain"
	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/defi"
	"github.com/ethpbs/pbslab/internal/evm"
	"github.com/ethpbs/pbslab/internal/mempool"
	"github.com/ethpbs/pbslab/internal/ofac"
	"github.com/ethpbs/pbslab/internal/p2p"
	"github.com/ethpbs/pbslab/internal/relay"
	"github.com/ethpbs/pbslab/internal/rng"
	"github.com/ethpbs/pbslab/internal/searcher"
	"github.com/ethpbs/pbslab/internal/state"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/validator"
)

// World is the fully wired ecosystem a Run operates on.
type World struct {
	Scenario Scenario
	R        *rng.RNG

	Engine  *evm.Engine
	Chain   *chain.Chain
	Mempool *mempool.Pool
	Network *p2p.Network

	// DeFi substrate.
	WETH, USDC, DAI *defi.Token
	Pairs           []*defi.Pair
	Router          *defi.Router
	Lending         *defi.Lending
	OracleAddr      types.Address

	// Consensus.
	Registry   *beacon.Registry
	Schedule   *beacon.Schedule
	Population *validator.Population
	Ledger     *beacon.Ledger

	// PBS actors.
	Builders      []*builderEntry
	SmallBuilders []*builderEntry
	Relays        map[string]*relay.Relay
	RelayOrder    []string
	Sanctions     *ofac.Registry

	// Searchers shared across builders plus exclusives.
	SharedSearchers []searcher.Searcher
	Liquidator      *searcher.Liquidator
	// PublicArb broadcasts its arbitrage through the open mempool.
	PublicArb *searcher.Arbitrageur
	// Exploiter is the dishonest builder behind the value-misreporting
	// incidents.
	Exploiter *builder.Builder

	// User population for demand generation.
	Users []types.Address
	// SanctionedUsers are funded sanctioned senders.
	SanctionedUsers []types.Address
	// BinanceSender / BinanceReceiver are the December private-flow pair.
	BinanceSender   types.Address
	BinanceReceiver types.Address

	// namesByPub is the lazily built pubkey → builder-name index behind
	// builderNameOf.
	namesByPub map[types.PubKey]string
	// view is the validation cache every relay validates through.
	view *cachingView
}

// builderEntry pairs a builder with its scenario wiring.
type builderEntry struct {
	Spec      BuilderSpec
	B         *builder.Builder
	Exclusive []searcher.Searcher
}

// NewWorld constructs and funds the whole ecosystem.
func NewWorld(sc Scenario) (*World, error) {
	w := &World{
		Scenario: sc,
		R:        rng.New(sc.Seed),
		Engine:   evm.NewEngine(),
		Mempool:  mempool.New(),
		Relays:   map[string]*relay.Relay{},
	}

	// --- DeFi substrate -------------------------------------------------
	w.WETH = defi.NewToken("WETH")
	w.USDC = defi.NewToken("USDC")
	w.DAI = defi.NewToken("DAI")
	pairSpecs := []struct {
		venue string
		t1    *defi.Token
	}{
		{"uniswap", w.USDC}, {"sushiswap", w.USDC},
		{"uniswap", w.DAI}, {"sushiswap", w.DAI},
	}
	for _, ps := range pairSpecs {
		w.Pairs = append(w.Pairs, defi.NewPair(ps.venue, w.WETH, ps.t1))
	}
	w.Router = defi.NewRouter("main", w.Pairs)
	w.OracleAddr = crypto.AddressFromSeed("oracle/operator")
	w.Lending = defi.NewLending("aave", w.USDC, w.OracleAddr)

	for _, tok := range []*defi.Token{w.WETH, w.USDC, w.DAI} {
		w.Engine.Register(tok.Addr, tok)
	}
	for _, p := range w.Pairs {
		w.Engine.Register(p.Addr, p)
	}
	w.Engine.Register(w.Router.Addr, w.Router)
	w.Engine.Register(w.Lending.Addr, w.Lending)

	// --- Genesis state --------------------------------------------------
	st := state.New()
	genesis := w.R.Fork("genesis")
	// Users.
	for i := 0; i < sc.Demand.Users; i++ {
		addr := crypto.AddressFromSeed("user/" + itoa(i))
		w.Users = append(w.Users, addr)
		st.SetBalance(addr, types.Ether(200+genesis.Float64()*800))
		w.WETH.Mint(st, addr, types.Ether(50+genesis.Float64()*150))
		w.USDC.Mint(st, addr, types.Ether(100_000))
		w.DAI.Mint(st, addr, types.Ether(100_000))
	}
	// Sanctioned senders (funded so their txs are valid).
	for i := 0; i < 12; i++ {
		addr := crypto.AddressFromSeed("ofac/tornado/" + itoa(i))
		w.SanctionedUsers = append(w.SanctionedUsers, addr)
		st.SetBalance(addr, types.Ether(500))
	}
	// November-wave addresses become active too (they matter for lag gaps).
	for i := 0; i < 6; i++ {
		addr := crypto.AddressFromSeed("ofac/nov2022/" + itoa(i))
		w.SanctionedUsers = append(w.SanctionedUsers, addr)
		st.SetBalance(addr, types.Ether(500))
	}
	for i := 0; i < 4; i++ {
		addr := crypto.AddressFromSeed("ofac/feb2023/" + itoa(i))
		w.SanctionedUsers = append(w.SanctionedUsers, addr)
		st.SetBalance(addr, types.Ether(500))
	}
	// Binance episode pair: the real addresses from Section 5.3.
	w.BinanceSender = crypto.MustParseAddress("0x4d9ff50ef4da947364bb9650892b2554e7be5e2b")
	w.BinanceReceiver = crypto.MustParseAddress("0x0b95993a39a363d99280ac950f5e4536ab5c5566")
	st.SetBalance(w.BinanceSender, types.Ether(500_000))
	// Oracle operator pays gas for price updates.
	st.SetBalance(w.OracleAddr, types.Ether(10_000))

	// Pools: ~1500 USD/ETH and 1500 DAI/ETH across both venues. Depth is
	// calibrated so realistic victim trades (1-10 WETH) leave sandwich
	// profit above the two swap fees — the regime mainnet pools live in.
	for _, p := range w.Pairs {
		p.InitLiquidity(st, types.Ether(1_000), types.Ether(1_500_000))
	}
	w.Lending.SetPriceGenesis(st, types.Ether(1500))

	// Searcher accounts.
	fundSearcher := func(seed string) types.Address {
		addr := crypto.AddressFromSeed(seed)
		st.SetBalance(addr, types.Ether(20_000))
		w.WETH.Mint(st, addr, types.Ether(2_000))
		w.USDC.Mint(st, addr, types.Ether(3_000_000))
		w.DAI.Mint(st, addr, types.Ether(3_000_000))
		return addr
	}
	arbAddr := fundSearcher("searcher/arb")
	sandAddr := fundSearcher("searcher/sandwich")
	liqAddr := fundSearcher("searcher/liq")

	arbMain := searcher.NewArbitrageur("arb-main", arbAddr, w.Router, w.Pairs, 0.88)
	arbMain.MinProfit = types.Ether(0.01)
	w.SharedSearchers = []searcher.Searcher{
		arbMain,
		searcher.NewSandwicher("sandwich-main", sandAddr, w.Pairs, 0.9),
	}
	w.Liquidator = searcher.NewLiquidator("liq-main", liqAddr, w.Lending, 0.85)
	w.SharedSearchers = append(w.SharedSearchers, w.Liquidator)
	// A legacy public arbitrageur still competes through the open mempool
	// (pre-PBS style); its extraction is what lands MEV in non-PBS blocks.
	pubArbAddr := fundSearcher("searcher/arb-public")
	w.PublicArb = searcher.NewArbitrageur("arb-public", pubArbAddr, w.Router, w.Pairs, 0)

	// Builders (named + exclusive searchers + treasuries).
	for _, spec := range sc.Builders {
		b := builder.New(spec.Profile, w.R)
		st.SetBalance(b.Addr, types.Ether(500_000))
		entry := &builderEntry{Spec: spec, B: b}
		if spec.ExclusiveSearcher {
			exAddr := fundSearcher("searcher/exclusive/" + spec.Profile.Name)
			entry.Exclusive = []searcher.Searcher{
				searcher.NewArbitrageur("arb-"+spec.Profile.Name, exAddr, w.Router, w.Pairs, 0.5),
			}
		}
		w.Builders = append(w.Builders, entry)
	}
	// The dishonest builder: keeps every wei (payment clamps to zero) and
	// lies about the claim where a relay lets it.
	w.Exploiter = builder.New(builder.Profile{
		Name: "exploiter", Keys: 1, MarginETH: 1e6, MempoolCoverage: 0.9,
	}, w.R)
	st.SetBalance(w.Exploiter.Addr, types.Ether(10_000))

	for i := 0; i < sc.SmallBuilderCount; i++ {
		prof := builder.Profile{
			Name: "smallbuilder-" + itoa(i), Keys: 1,
			MarginETH: 0.001, MarginSigmaETH: 0.001,
			MempoolCoverage: 0.5 + 0.3*w.R.Float64(),
			Relays:          openRelayNames(),
		}
		b := builder.New(prof, w.R)
		st.SetBalance(b.Addr, types.Ether(50_000))
		w.SmallBuilders = append(w.SmallBuilders, &builderEntry{
			Spec: BuilderSpec{Profile: prof, Flow: Flat(0.02)}, B: b,
		})
	}

	// --- Chain ----------------------------------------------------------
	cfg := chain.MainnetMergeConfig()
	cfg.GenesisTime = uint64(sc.Start.Unix())
	cfg.SlotSeconds = uint64(86_400 / sc.BlocksPerDay)
	if sc.GasLimit > 0 {
		cfg.GasLimit = sc.GasLimit
	}
	w.Chain = chain.New(cfg, w.Engine, st)

	// --- Consensus + population -----------------------------------------
	w.Registry = beacon.NewRegistry("mainnet", sc.Validators)
	w.Schedule = beacon.NewSchedule(w.Registry, sc.Seed^0xbeac0)
	w.Ledger = beacon.NewLedger()
	pop, err := validator.Build(w.Registry, sc.Operators)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	w.Population = pop
	validator.AssignAdoption(pop.Operators, sc.AdoptionCurve, w.R)

	// --- Network --------------------------------------------------------
	net, err := p2p.NewNetwork(sc.Network, w.R)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	w.Network = net

	// --- Relays ----------------------------------------------------------
	// Every relay validates through the shared per-slot cache.
	w.Sanctions = ofac.DefaultList()
	w.view = &cachingView{c: w.Chain}
	w.view.reset()
	for _, pol := range sc.Relays {
		w.Relays[pol.Name] = relay.New(pol, w.view, w.Sanctions)
		w.RelayOrder = append(w.RelayOrder, pol.Name)
	}
	w.registerBuilders()

	return w, nil
}

// registerBuilders registers every builder key with the relays it may
// submit to: named builders are vetted everywhere they operate, small
// builders join permissionless relays only, and the exploiter is vetted
// wherever an exploit targets (the Eden case is the relay's own builder
// misreporting).
func (w *World) registerBuilders() {
	for _, e := range w.Builders {
		pubs, vks := e.B.PubKeys(), e.B.VerificationKeys()
		for _, name := range e.Spec.Profile.Relays {
			r, ok := w.Relays[name]
			if !ok {
				continue
			}
			for i := range pubs {
				if r.Access.Permissionless() {
					_ = r.RegisterBuilder(pubs[i], vks[i])
				} else {
					r.AllowBuilder(pubs[i], vks[i])
				}
			}
		}
	}
	for _, e := range w.SmallBuilders {
		pubs, vks := e.B.PubKeys(), e.B.VerificationKeys()
		for _, name := range e.Spec.Profile.Relays {
			r := w.Relays[name]
			if r == nil || !r.Access.Permissionless() {
				continue
			}
			for i := range pubs {
				_ = r.RegisterBuilder(pubs[i], vks[i])
			}
		}
	}
	for _, ex := range w.Scenario.Exploits {
		if r, ok := w.Relays[ex.Relay]; ok {
			r.AllowBuilder(w.Exploiter.PubKeys()[0], w.Exploiter.VerificationKeys()[0])
		}
	}
}

// BuilderLabels returns the public label map (fee recipient → builder
// name), the equivalent of Etherscan's label cloud the paper used to name
// builder clusters.
func (w *World) BuilderLabels() map[types.Address]string {
	out := map[types.Address]string{}
	for _, e := range w.Builders {
		out[e.B.Addr] = e.Spec.Profile.Name
	}
	for _, e := range w.SmallBuilders {
		out[e.B.Addr] = e.Spec.Profile.Name
	}
	return out
}
