package sim

// The slot engine: every slot round (builders submit to relays, relays
// validate, the proposer's sidecar takes the best header) runs through it.
// Each round is split into four phases with a strict ownership rule per
// shared resource, so the output is byte-identical at every worker count:
//
//   A. Prepare (sequential): every draw from the shared flow RNG and every
//      FindBundles call against the shared searcher context happens here,
//      in builder order.
//   B. Build (parallel): each builder constructs its block against a private
//      copy-on-write fork of the canonical state, drawing only from its own
//      private RNG stream, so scheduling order cannot perturb any draw. The
//      build records the block's execution as it packs it, and the task
//      checks the block's header against the head, which no task mutates.
//   C. Validate (sequential): each distinct built block's own fork and
//      execution, or its header-check error, are primed into the shared
//      validation cache. The relays judge the block on that execution; no
//      block is executed a second time.
//   D. Commit (parallel per relay): each relay takes its own submissions
//      in builder order on one goroutine, so order-sensitive relay state
//      (best-bid replacement is strictly-greater) does not depend on the
//      worker count, and no relay state is shared between goroutines.
//
// Worker panics are isolated by the stats worker pool and surface as run
// errors instead of crashing sibling builds.

import (
	"context"
	"fmt"
	"time"

	"github.com/ethpbs/pbslab/internal/builder"
	"github.com/ethpbs/pbslab/internal/chain"
	"github.com/ethpbs/pbslab/internal/ofac"
	"github.com/ethpbs/pbslab/internal/pbs"
	"github.com/ethpbs/pbslab/internal/relay"
	"github.com/ethpbs/pbslab/internal/rng"
	"github.com/ethpbs/pbslab/internal/searcher"
	"github.com/ethpbs/pbslab/internal/state"
	"github.com/ethpbs/pbslab/internal/stats"
	"github.com/ethpbs/pbslab/internal/types"
)

// buildTask is one builder's work for the slot. The bundle and candidate
// buffers are pooled across slots; everything a relay retains (the
// submission and its block) is freshly allocated per build.
type buildTask struct {
	e        *builderEntry // nil for exploit tasks
	exploit  bool
	relayOne string    // exploit target relay
	claim    types.Wei // exploit claimed value

	args builder.Args
	res  *builder.Result
	sub  *pbs.Submission
	ok   bool
	// checkErr is chain.ValidateExecuted's verdict on a successful build,
	// taken in phase B.
	checkErr error

	bundles   []*types.Bundle
	candidate []*types.Transaction
}

// slotEngine holds the pooled per-slot scratch of the slot round.
type slotEngine struct {
	w       *World
	view    *cachingView
	workers int

	tasks []*buildTask // task pool, grown on demand
	used  int
	order []*buildTask // current slot's tasks in submit order
	par   []*buildTask // subset built in parallel (distinct builders)
	seq   []*buildTask // exploit subset (shared exploiter RNG: built in order)

	// relays and relayIdx resolve World.RelayOrder; subs[i] is relay i's
	// phase-D queue, reused across slots.
	relays   []*relay.Relay
	relayIdx map[string]int
	subs     [][]*pbs.Submission

	// sanctions is the registry's day-after-rule blacklist, shared by the
	// filtering builders that are not aligned with a relay.
	sanctions *ofac.Schedule
}

// adoptCheck, when set, is called for every build phase C adopts, with the
// validation primed for it; a non-nil error aborts the run. Only the
// package's tests set it: they re-execute each adopted block and hold the
// recorded execution to the result.
var adoptCheck func(c *chain.Chain, block *types.Block, adopted cachedValidation) error

// newSlotEngine builds a run's slot engine over the world's shared
// validation cache, with a pool of workers.
func newSlotEngine(w *World, workers int) *slotEngine {
	eng := &slotEngine{
		w:         w,
		view:      w.view,
		workers:   workers,
		relayIdx:  make(map[string]int, len(w.RelayOrder)),
		subs:      make([][]*pbs.Submission, len(w.RelayOrder)),
		sanctions: ofac.NewSchedule(w.Sanctions, nil),
	}
	for i, name := range w.RelayOrder {
		eng.relays = append(eng.relays, w.Relays[name])
		eng.relayIdx[name] = i
	}
	return eng
}

// queue appends sub to the phase-D queue of the named relay, if it runs.
func (eng *slotEngine) queue(name string, sub *pbs.Submission) {
	if i, ok := eng.relayIdx[name]; ok {
		eng.subs[i] = append(eng.subs[i], sub)
	}
}

// grabTask returns a recycled (or new) task with its buffers reset.
func (eng *slotEngine) grabTask() *buildTask {
	if eng.used == len(eng.tasks) {
		eng.tasks = append(eng.tasks, &buildTask{})
	}
	t := eng.tasks[eng.used]
	eng.used++
	t.e = nil
	t.exploit = false
	t.relayOne = ""
	t.claim = types.Wei{}
	t.res = nil
	t.sub = nil
	t.ok = false
	t.checkErr = nil
	t.bundles = t.bundles[:0]
	t.candidate = t.candidate[:0]
	return t
}

// blacklistFor returns the sanction set a filtering builder enforces at
// time at: a builder aligned with a relay follows that relay's wave lag,
// the rest follow the registry's day-after rule. The map is shared and
// read-only.
func (eng *slotEngine) blacklistFor(e *builderEntry, at time.Time) map[types.Address]bool {
	if !e.Spec.OFACFiltering {
		return nil
	}
	if r, ok := eng.w.Relays[e.Spec.AlignedRelay]; ok {
		return r.BlacklistAt(at)
	}
	return eng.sanctions.At(at)
}

// runSlot runs one slot round: every active builder (and every exploit
// task in its window) builds a block and submits it to its relays.
func (eng *slotEngine) runSlot(now time.Time, slot uint64, proposerPub types.PubKey,
	proposerFee types.Address, shared []*types.Bundle, protected []*types.Transaction,
	pending []*types.Transaction, sctx *searcher.Context, flowRng *rng.RNG) error {

	w := eng.w
	eng.used = 0
	eng.order = eng.order[:0]
	eng.par = eng.par[:0]
	eng.seq = eng.seq[:0]

	// Phase A: sequential prepare. Shared flow-RNG draws and exclusive
	// searcher runs against the shared context happen in builder order;
	// builder-private state is staged into the task.
	prep := func(e *builderEntry) {
		if !e.Spec.Active.Contains(now) {
			return
		}
		t := eng.grabTask()
		t.e = e
		flow := e.Spec.Flow.At(now)
		for _, b := range shared {
			if flowRng.Bool(flow) {
				t.bundles = append(t.bundles, b)
			}
		}
		for _, ex := range e.Exclusive {
			t.bundles = append(t.bundles, ex.FindBundles(sctx)...)
		}
		blacklist := eng.blacklistFor(e, now)
		for _, tx := range protected {
			if blacklist != nil && (blacklist[tx.From] || blacklist[tx.To]) {
				continue
			}
			t.candidate = append(t.candidate, tx)
		}
		for _, tx := range pending {
			if blacklist != nil && (blacklist[tx.From] || blacklist[tx.To]) {
				continue
			}
			t.candidate = append(t.candidate, tx)
		}
		if len(e.Spec.SubsidyOverride.Points) > 0 {
			e.B.SubsidyProb = e.Spec.SubsidyOverride.At(now)
		}
		t.args = builder.Args{
			Chain: w.Chain, Slot: slot,
			ProposerPubkey:       proposerPub,
			ProposerFeeRecipient: proposerFee,
			Bundles:              t.bundles,
			Pending:              t.candidate,
		}
		eng.order = append(eng.order, t)
		eng.par = append(eng.par, t)
	}
	for _, e := range w.Builders {
		prep(e)
	}
	for _, e := range w.SmallBuilders {
		if flowRng.Float64() < w.Scenario.SmallBuilderSampleProb {
			prep(e)
		}
	}
	for _, ex := range w.Scenario.Exploits {
		if !ex.Window.Contains(now) {
			continue
		}
		if _, ok := w.Relays[ex.Relay]; !ok {
			continue
		}
		t := eng.grabTask()
		t.exploit = true
		t.relayOne = ex.Relay
		t.claim = types.Ether(ex.ClaimETH)
		t.args = builder.Args{
			Chain: w.Chain, Slot: slot,
			ProposerPubkey:       proposerPub,
			ProposerFeeRecipient: proposerFee,
			Pending:              pending,
		}
		eng.order = append(eng.order, t)
		eng.seq = append(eng.seq, t)
	}

	// Phase B: parallel builds. Each task's builder is distinct and draws
	// only from its private RNG stream against a private state fork, so the
	// fan-out cannot change any byte of any block. Exploit tasks share the
	// exploiter's stream and run sequentially after the pool drains. Each
	// successful build's header check runs in its task: it reads only the
	// block, the head, the next base fee, the slot time and the chain
	// config, none of which a build changes.
	if n := len(eng.par); n > 0 {
		err := stats.ParallelDaysErr(context.Background(), n, eng.workers, func(i int) error {
			t := eng.par[i]
			t.args.State = w.Chain.StateFork()
			t.res, t.ok = t.e.B.Build(t.args)
			if t.ok {
				t.sub = t.e.B.Submission(t.args, t.res)
				t.checkErr = w.Chain.ValidateExecuted(t.res.Block, t.res.Exec)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("sim: slot %d: parallel build: %w", slot, err)
		}
	}
	for _, t := range eng.seq {
		t.args.State = w.Chain.StateFork()
		t.res, t.ok = w.Exploiter.Build(t.args)
		if !t.ok {
			continue
		}
		t.res.Payment = t.claim // the lie
		t.sub = w.Exploiter.Submission(t.args, t.res)
		t.checkErr = w.Chain.ValidateExecuted(t.res.Block, t.res.Exec)
	}

	// Phase C: adopt each distinct build's own execution as its
	// validation. The build's fork and result, or the header-check error
	// its task recorded, are primed into the shared cache, so every relay
	// check in phase D is a cache hit and runs on that real execution.
	for _, t := range eng.order {
		if !t.ok {
			continue
		}
		h := t.sub.Trace.BlockHash
		if _, seen := eng.view.cache[h]; seen {
			continue
		}
		cv := cachedValidation{res: t.res.Exec, st: t.args.State}
		if t.checkErr != nil {
			cv = cachedValidation{err: t.checkErr}
		}
		if adoptCheck != nil {
			if err := adoptCheck(w.Chain, t.res.Block, cv); err != nil {
				return fmt.Errorf("sim: slot %d: %w", slot, err)
			}
		}
		eng.view.prime(h, cv)
	}

	// Phase D: each relay takes its submissions in builder order, and the
	// relays run concurrently. A relay's state is touched only by the
	// goroutine that owns its index. The relays share the submissions and
	// the view; SubmitBlock only reads a submission, and every lookup it
	// makes in the view is a hit, because phase C primed every block queued
	// here. A miss would write the shared cache map, so this fan-out is
	// safe only while that holds; the -race goldens at several worker
	// counts check it.
	for i := range eng.subs {
		clear(eng.subs[i])
		eng.subs[i] = eng.subs[i][:0]
	}
	for _, t := range eng.order {
		if !t.ok {
			continue
		}
		if t.exploit {
			eng.queue(t.relayOne, t.sub)
			continue
		}
		for _, name := range t.e.Spec.Profile.Relays {
			eng.queue(name, t.sub)
		}
	}
	err := stats.ParallelDaysErr(context.Background(), len(eng.relays), eng.workers, func(i int) error {
		r := eng.relays[i]
		for _, sub := range eng.subs[i] {
			_ = r.SubmitBlock(now, sub)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("sim: slot %d: relay commit: %w", slot, err)
	}
	return nil
}

// accept commits the slot winner without executing it a second time. A PBS
// winner was executed exactly once this round, by its builder, and phase C
// put that fork post-state in the shared cache, whether or not a relay
// validated it; a local block carries the artifacts accumulated while
// packing. Either way the fork is absorbed into the canonical state in
// place. A cache miss (possible only for blocks the engine did not build)
// falls back to the re-executing Accept.
func (eng *slotEngine) accept(block *types.Block, local cachedValidation) (*chain.StoredBlock, error) {
	if local.res != nil {
		return eng.w.Chain.AcceptValidated(block, local.res, local.st)
	}
	if hit, ok := eng.view.cache[block.Hash()]; ok && hit.err == nil {
		return eng.w.Chain.AcceptValidated(block, hit.res, hit.st)
	}
	return eng.w.Chain.Accept(block)
}

// release hands every state fork of the slot round back to the journal
// pool once the winner is committed: the phase-B builds (the absorbed
// winner among them), any fork a cache miss validated on, and the extra
// forks the caller passes (the searcher context and the local build). All
// of them read through to the pre-commit state, so none is used again. A
// build primed into the cache is reached twice; the second Release is a
// no-op.
func (eng *slotEngine) release(extra ...*state.State) {
	for _, t := range eng.tasks[:eng.used] {
		if t.args.State != nil {
			t.args.State.Release()
			t.args.State = nil
		}
	}
	for _, hit := range eng.view.cache {
		if hit.st != nil {
			hit.st.Release()
		}
	}
	for _, st := range extra {
		if st != nil {
			st.Release()
		}
	}
}
