package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/ethpbs/pbslab/internal/builder"
	"github.com/ethpbs/pbslab/internal/chain"
	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/dataset"
	"github.com/ethpbs/pbslab/internal/evm"
	"github.com/ethpbs/pbslab/internal/mempool"
	"github.com/ethpbs/pbslab/internal/mevboost"
	"github.com/ethpbs/pbslab/internal/p2p"
	"github.com/ethpbs/pbslab/internal/pbs"
	"github.com/ethpbs/pbslab/internal/rng"
	"github.com/ethpbs/pbslab/internal/searcher"
	"github.com/ethpbs/pbslab/internal/state"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/validator"
)

// GroundTruth records what the simulator knows but the analysis must
// re-derive from data; validation tests compare the two.
type GroundTruth struct {
	// PBS maps block number to whether the block came through a relay.
	PBS map[uint64]bool
	// BuilderName maps PBS block numbers to the winning builder.
	BuilderName map[uint64]string
	// Operator maps block numbers to the proposer's operator name.
	Operator map[uint64]string
	// Promised maps PBS block numbers to the relay-announced value.
	Promised map[uint64]types.Wei
	// Fallbacks counts PBS attempts that fell back to local building.
	Fallbacks int
	// FallbackNoBids counts fallbacks where no relay produced a bid
	// (outages, circuit-broken relays, or genuinely empty auctions).
	FallbackNoBids int
	// FallbackPayload counts fallbacks where a bid won but every payload
	// fetch failed.
	FallbackPayload int
	// FallbackCommit counts post-commitment failures (the LocalFallbackProb
	// draw: the 2022-11-10 timestamp-bug class).
	FallbackCommit int
	// MissedSlots counts slots with no block.
	MissedSlots int
	// Boost aggregates the MEV-Boost degradation counters across every
	// sidecar of the run.
	Boost mevboost.StatsSnapshot
}

// Result is a finished simulation.
type Result struct {
	Dataset *dataset.Dataset
	Truth   *GroundTruth
	World   *World
}

// cachingView is the relays' shared chain view: one validation per
// distinct block per slot round. The slot engine primes it with each
// build's own fork and recorded execution, so a relay check is a cache hit
// that reads the execution the builder ran. A miss (a block the engine did
// not build) validates on a copy-on-write fork and writes the map, so it
// must not happen while the relays validate concurrently; phase D only
// submits primed blocks. The cache is cleared every slot, so a fork never
// outlives its base.
type cachingView struct {
	c     *chain.Chain
	cache map[types.Hash]cachedValidation
}

type cachedValidation struct {
	res *chain.ProcessResult
	st  *state.State
	err error
}

func (v *cachingView) Validate(block *types.Block) (*chain.ProcessResult, *state.State, error) {
	if hit, ok := v.cache[block.Hash()]; ok {
		return hit.res, hit.st, hit.err
	}
	res, st, err := v.c.ValidateFork(block)
	v.cache[block.Hash()] = cachedValidation{res: res, st: st, err: err}
	return res, st, err
}

// prime installs a validation result (the slot engine's phase C adopting
// a build's execution) so later relay lookups are cache hits.
func (v *cachingView) prime(h types.Hash, cv cachedValidation) {
	v.cache[h] = cv
}

// reset clears the cache in place, reusing the map across slots.
func (v *cachingView) reset() {
	if v.cache == nil {
		v.cache = map[types.Hash]cachedValidation{}
		return
	}
	clear(v.cache)
}

// RunOptions configures durability features of a simulation run.
type RunOptions struct {
	// CheckpointDir, when non-empty, enables per-day checkpointing: a full
	// run snapshot is written atomically into the directory at every UTC
	// day boundary, and on context cancellation.
	CheckpointDir string
	// Resume loads the newest valid checkpoint from CheckpointDir and
	// continues from it instead of starting over. The continued run is
	// bit-identical to an uninterrupted one.
	Resume bool
	// Keep bounds retained checkpoint files (0 means a small default).
	Keep int
	// OnDay, when set, is called at every UTC day boundary — after that
	// boundary's checkpoint is written — with the zero-based day index
	// being entered. Tests use it to interrupt at exact positions.
	OnDay func(day int)
	// OnSlot, when set, is called after every slot iteration (processed or
	// missed) with the slot number just finished. The fleet worker uses it
	// for heartbeat pacing and process-fault injection; it runs on the
	// simulation goroutine and must not touch the scenario's RNG streams.
	OnSlot func(slot uint64)
	// Workers sets the slot engine's pool width: builder block construction
	// and the relays' commit fan out over that many workers. 0 means
	// GOMAXPROCS. Results are byte-identical at every setting (the digest
	// goldens enforce it).
	Workers int
}

// runState is the mutable loop state of a run: exactly what a checkpoint
// must capture beyond the chain and world accessors.
type runState struct {
	ds       *demandState
	truth    *GroundTruth
	arrivals map[types.Hash]p2p.Observation
	// boostStats and breaker outlive the per-slot sidecars: failure memory
	// has to persist across slots for circuits to ever open.
	boostStats *mevboost.Stats
	breaker    *mevboost.Breaker
	slotRng    *rng.RNG
	localRng   *rng.RNG
	flowRng    *rng.RNG
	slot       uint64
	// slotsSinceChurn counts slots since the last mempool churn sweep.
	slotsSinceChurn int
	// privatePool holds protected (never-broadcast) user transactions until
	// a builder lands them — protection services retry across slots.
	privatePool []*types.Transaction
	// sealed and sealedThrough mirror the last saved checkpoint's day
	// shards, so capture never re-converts blocks a shard already covers.
	sealed        []shardRef
	sealedThrough int
}

// Run executes the scenario and collects the Table 1 datasets. The context
// cancels the run between slots; a cancelled run returns ctx's error.
func Run(ctx context.Context, sc Scenario) (*Result, error) {
	return RunOpts(ctx, sc, RunOptions{})
}

// RunOpts is Run with durability options: checkpointing, resume, and the
// day-boundary hook.
func RunOpts(ctx context.Context, sc Scenario, opts RunOptions) (*Result, error) {
	w, err := NewWorld(sc)
	if err != nil {
		return nil, err
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eng := newSlotEngine(w, workers)

	rs := &runState{
		ds: newDemandState(w),
		truth: &GroundTruth{
			PBS:         map[uint64]bool{},
			BuilderName: map[uint64]string{},
			Operator:    map[uint64]string{},
			Promised:    map[uint64]types.Wei{},
		},
		arrivals:   map[types.Hash]p2p.Observation{},
		boostStats: &mevboost.Stats{},
		breaker:    mevboost.NewBreaker(3, 10*time.Minute),
		slotRng:    w.R.Fork("slots"),
		localRng:   w.R.Fork("local-build"),
		flowRng:    w.R.Fork("flow"),
		slot:       w.Chain.Config().GenesisSlot,
	}
	if opts.Resume && opts.CheckpointDir != "" {
		cp, err := loadLatestCheckpoint(opts.CheckpointDir, sc)
		if err != nil {
			return nil, err
		}
		if cp != nil {
			if err := restore(w, rs, cp, opts.CheckpointDir); err != nil {
				return nil, err
			}
		}
	}
	relayChoices := map[string][]string{} // operator+era -> relay names

	endUnix := uint64(sc.End.Unix())
	// curDay tracks the UTC day of the next slot to process, so a resumed
	// run does not re-fire the boundary it was checkpointed on.
	curDay := int(w.Chain.SlotTime(rs.slot+1) / 86_400)
	startDay := int(uint64(sc.Start.Unix()) / 86_400)

	for {
		rs.slot++
		ts := w.Chain.SlotTime(rs.slot)
		if ts > endUnix {
			break
		}
		if day := int(ts / 86_400); day != curDay {
			curDay = day
			if opts.CheckpointDir != "" {
				// rs.slot is not yet processed: the checkpoint records the
				// previous slot as the last completed one, and seals days
				// strictly before the day of the next slot to process.
				cp := capture(w, rs)
				cp.Slot = rs.slot - 1
				cp.Day = int(ts / 86_400)
				if err := saveCheckpoint(opts.CheckpointDir, cp, opts.Keep); err != nil {
					return nil, err
				}
				rs.sealed = cp.SealedDays
				rs.sealedThrough = cp.SealedThrough
			}
			if opts.OnDay != nil {
				opts.OnDay(day - startDay)
			}
		}
		if err := ctx.Err(); err != nil {
			if opts.CheckpointDir != "" {
				cp := capture(w, rs)
				cp.Slot = rs.slot - 1
				cp.Day = int(w.Chain.SlotTime(rs.slot) / 86_400)
				if saveErr := saveCheckpoint(opts.CheckpointDir, cp, opts.Keep); saveErr != nil {
					return nil, fmt.Errorf("sim: interrupted at slot %d and checkpoint failed: %v: %w", rs.slot, saveErr, err)
				}
				rs.sealed = cp.SealedDays
				rs.sealedThrough = cp.SealedThrough
			}
			return nil, fmt.Errorf("sim: interrupted at slot %d: %w", rs.slot, err)
		}
		now := time.Unix(int64(ts), 0).UTC()
		if rs.slotRng.Bool(sc.MissedSlotProb) {
			rs.truth.MissedSlots++
			if opts.OnSlot != nil {
				opts.OnSlot(rs.slot)
			}
			continue
		}
		w.view.reset()
		baseFee := w.Chain.NextBaseFee()
		headNumber := w.Chain.Head().Block.Number()

		// 1. Demand: generate, broadcast, pool.
		tr := w.generate(rs.ds, rs.slot, now, baseFee)
		for _, tx := range tr.public {
			// Broadcast happened sometime since the previous slot.
			sent := now.Add(-time.Duration(rs.slotRng.Range(1, float64(w.Chain.Config().SlotSeconds))) * time.Second)
			rs.arrivals[tx.Hash()] = w.Network.Broadcast(tx.Hash(), w.Network.RandomOrigin(), sent)
			_ = w.Mempool.Add(tx)
		}

		// 2. Proposer for the slot.
		proposer := w.Schedule.Proposer(rs.slot)
		op := w.Population.OperatorOf(proposer.Index)

		// 3. Candidate transactions and bundles: pending comes from the
		// pool's incrementally ordered index, and the searchers run against
		// an O(1) state fork.
		pending := w.Mempool.ExecutableOrdered(w.Chain.State(), baseFee, 400)
		sctx := &searcher.Context{
			State:       w.Chain.StateFork(),
			Engine:      w.Engine,
			BaseFee:     baseFee,
			TargetBlock: headNumber + 1,
			BlockCtx: evm.BlockContext{
				Number: headNumber + 1, Timestamp: ts, BaseFee: baseFee,
				FeeRecipient: simFeeRecipient, GasLimit: w.Chain.Config().GasLimit,
			},
			Pending: pending,
		}
		rs.privatePool = append(rs.privatePool, tr.protected...)
		rs.privatePool = pruneStale(rs.privatePool, w)

		var sharedBundles []*types.Bundle
		for _, s := range w.SharedSearchers {
			sharedBundles = append(sharedBundles, s.FindBundles(sctx)...)
		}
		// The public arbitrageur races through the mempool instead of
		// bundling: its router transaction is broadcast like any user tx
		// (dropping the coinbase-tip leg it never sends).
		for _, bundle := range w.PublicArb.FindBundles(sctx) {
			if len(bundle.Txs) == 0 {
				continue
			}
			tx := bundle.Txs[0]
			sent := now.Add(-time.Duration(rs.slotRng.Range(1, float64(w.Chain.Config().SlotSeconds))) * time.Second)
			rs.arrivals[tx.Hash()] = w.Network.Broadcast(tx.Hash(), w.Network.RandomOrigin(), sent)
			if err := w.Mempool.Add(tx); err == nil {
				pending = append(pending, tx)
			}
		}

		// 4. Propose: PBS when adopted, local otherwise or on failure.
		var newBlock *types.Block
		usePBS := op.UsesPBS(now)
		if usePBS {
			relays := w.relaysFor(op, now, relayChoices)
			sidecar := mevboost.New(proposer.Key, op.FeeRecipient, relays)
			sidecar.RedundancyProb = 0.05
			sidecar.Breaker = rs.breaker
			sidecar.Stats = rs.boostStats
			sidecar.Register(now)

			if err := eng.runSlot(now, rs.slot, proposer.Pub(), op.FeeRecipient,
				sharedBundles, rs.privatePool, pending, sctx, rs.flowRng); err != nil {
				return nil, err
			}

			prop, err := sidecar.Propose(now, rs.slot)
			if err == nil && !rs.slotRng.Bool(sc.LocalFallbackProb.At(now)) {
				newBlock = prop.Block
				rs.truth.PBS[newBlock.Number()] = true
				rs.truth.Promised[newBlock.Number()] = prop.PromisedValue
				rs.truth.BuilderName[newBlock.Number()] = w.builderNameOf(prop.BuilderPubkey)
			} else {
				rs.truth.Fallbacks++
				switch {
				case err == nil:
					rs.truth.FallbackCommit++
				case errors.Is(err, mevboost.ErrNoBids):
					rs.truth.FallbackNoBids++
				default:
					rs.truth.FallbackPayload++
				}
			}
		}
		var localArt cachedValidation
		if newBlock == nil {
			localPending := pending
			if op.Name == "AnkrPool" && len(tr.binance) > 0 {
				localPending = append(append([]*types.Transaction{}, tr.binance...), pending...)
			}
			// Pack on a fork and keep the execution artifacts, so the
			// commit below absorbs the fork instead of re-executing the
			// block.
			localArt.st = w.Chain.StateFork()
			newBlock, localArt.res = builder.BuildLocalExec(w.Chain, localArt.st, rs.slot,
				op.FeeRecipient, localPending, op.LocalCoverage, rs.localRng)
			rs.truth.PBS[newBlock.Number()] = false
		}
		rs.truth.Operator[newBlock.Number()] = op.Name

		stored, err := eng.accept(newBlock, localArt)
		if err != nil {
			return nil, fmt.Errorf("sim: slot %d: accept: %w", rs.slot, err)
		}
		w.Chain.State().ClearJournal()
		eng.release(sctx.State, localArt.st)
		w.Ledger.RecordProposal(proposer)

		// 5. Post-block housekeeping.
		w.Mempool.RemoveIncluded(stored.Block.Txs)
		w.Mempool.Prune(w.Chain.State())
		for _, rcpt := range stored.Receipts {
			w.Liquidator.ObserveLogs(rcpt.Logs)
		}
		for _, r := range w.Relays {
			r.PruneSlot(rs.slot - 2)
		}
		if opts.OnSlot != nil {
			opts.OnSlot(rs.slot)
		}
		rs.slotsSinceChurn++
		if rs.slotsSinceChurn >= 200 {
			// Mempool churn: expire stale flow and resync demand nonces, the
			// way real pools time out transactions; this prevents permanently
			// stalled sender chains from accumulating.
			w.Mempool = mempool.New()
			rs.privatePool = rs.privatePool[:0]
			for addr := range rs.ds.nonces {
				rs.ds.resyncNonce(addr)
			}
			rs.slotsSinceChurn = 0
		}
	}

	rs.truth.Boost = rs.boostStats.Snapshot()
	return &Result{
		Dataset: w.collect(rs.arrivals),
		Truth:   rs.truth,
		World:   w,
	}, nil
}

// pruneStale drops private-pool transactions whose nonce has been consumed
// on chain (included or replaced).
func pruneStale(pool []*types.Transaction, w *World) []*types.Transaction {
	st := w.Chain.State()
	keep := pool[:0]
	for _, tx := range pool {
		if tx.Nonce >= st.Nonce(tx.From) {
			keep = append(keep, tx)
		}
	}
	return keep
}

// simFeeRecipient is the placeholder coinbase searchers simulate against
// before the actual builder is known.
var simFeeRecipient = crypto.AddressFromSeed("sim/fee-recipient-placeholder")

// relaysFor picks (and caches) the operator's relay set for the current
// era, weighted by era popularity.
func (w *World) relaysFor(op *validator.Operator, now time.Time, cache map[string][]string) []mevboost.Endpoint {
	eraIdx := 0
	for i, era := range w.Scenario.RelayEras {
		if !now.Before(era.From) {
			eraIdx = i
		}
	}
	key := fmt.Sprintf("%s/%d", op.Name, eraIdx)
	names, ok := cache[key]
	if !ok {
		era := w.Scenario.RelayEras[eraIdx]
		names = sampleRelays(era, w.R.Fork("relay-choice/"+key))
		cache[key] = names
	}
	var eps []mevboost.Endpoint
	for _, n := range names {
		if r, ok := w.Relays[n]; ok {
			ep := mevboost.Endpoint(mevboost.Direct{R: r})
			if windows := w.outageWindows(n); len(windows) > 0 {
				ep = gatedEndpoint{Endpoint: ep, windows: windows}
			}
			eps = append(eps, ep)
		}
	}
	return eps
}

// outageWindows collects the declared downtime windows for one relay.
func (w *World) outageWindows(name string) []Window {
	var out []Window
	for _, o := range w.Scenario.RelayOutages {
		if o.Relay == name {
			out = append(out, o.Window)
		}
	}
	return out
}

// gatedEndpoint makes a relay unreachable during its declared outages: the
// sidecar's availability check skips it for headers, and payload fetches
// against it fail outright (a relay dying between commitment and delivery).
type gatedEndpoint struct {
	mevboost.Endpoint
	windows []Window
}

// Available implements mevboost.Availability.
func (g gatedEndpoint) Available(at time.Time) bool {
	for _, win := range g.windows {
		if win.From.IsZero() && win.To.IsZero() {
			continue
		}
		if win.Contains(at) {
			return false
		}
	}
	return true
}

func (g gatedEndpoint) GetPayload(at time.Time, signed *pbs.SignedBlindedHeader) (*types.Block, error) {
	if !g.Available(at) {
		return nil, fmt.Errorf("sim: relay %s: outage", g.Endpoint.RelayName())
	}
	return g.Endpoint.GetPayload(at, signed)
}

// sampleRelays draws k distinct relays by weight.
func sampleRelays(era RelayEra, r interface{ Pick([]float64) int }) []string {
	names := make([]string, 0, len(era.Weights))
	for n := range era.Weights {
		names = append(names, n)
	}
	sort.Strings(names)
	weights := make([]float64, len(names))
	for i, n := range names {
		weights[i] = era.Weights[n]
	}
	k := era.RelaysPerValidator
	if k > len(names) {
		k = len(names)
	}
	var out []string
	for len(out) < k {
		idx := r.Pick(weights)
		if weights[idx] <= 0 {
			break
		}
		out = append(out, names[idx])
		weights[idx] = 0
	}
	return out
}

// builderNameOf maps a winning pubkey back to a builder name (ground truth
// bookkeeping only; the analysis clusters from data). The lookup index is
// built once per run instead of re-concatenating the builder slices and
// re-deriving every pubkey per winning block.
func (w *World) builderNameOf(pub types.PubKey) string {
	if w.namesByPub == nil {
		w.namesByPub = map[types.PubKey]string{}
		for _, e := range w.Builders {
			for _, p := range e.B.PubKeys() {
				w.namesByPub[p] = e.Spec.Profile.Name
			}
		}
		for _, e := range w.SmallBuilders {
			for _, p := range e.B.PubKeys() {
				w.namesByPub[p] = e.Spec.Profile.Name
			}
		}
	}
	if name, ok := w.namesByPub[pub]; ok {
		return name
	}
	return "unknown"
}
