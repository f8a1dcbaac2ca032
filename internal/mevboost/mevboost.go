// Package mevboost implements the validator-side PBS sidecar: it registers
// the validator with its configured relays, collects blinded bids each
// slot, selects the most profitable one, signs the blinded header, and
// retrieves the full payload — the flow Section 2.2 describes. When no
// relay produces a usable bid (or the payload fails validation, as in the
// 2022-11-10 timestamp incident), the proposer falls back to local block
// production.
//
// The sidecar degrades gracefully when relays misbehave: declared outages
// are skipped, repeatedly-failing relays are circuit-broken for a cooldown,
// the per-slot header collection respects a wall-clock budget, and payload
// retrieval retries every winning relay before giving up. All of it is
// counted in Stats so simulations can surface how often PBS survived on its
// fallbacks.
package mevboost

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/pbs"
	"github.com/ethpbs/pbslab/internal/relay"
	"github.com/ethpbs/pbslab/internal/types"
)

// Endpoint is the sidecar's view of one relay. Direct, an in-process
// relay, is the only implementation the simulator wires in (sim wraps it
// to gate declared outages); the HTTP relay API has no adapter to it, as
// relayapi.Client.GetHeader takes a context and a parent hash and reports
// a missing bid separately.
type Endpoint interface {
	RelayName() string
	GetHeader(slot uint64, proposer types.PubKey) (*pbs.Bid, error)
	GetPayload(at time.Time, signed *pbs.SignedBlindedHeader) (*types.Block, error)
	RegisterValidator(reg pbs.Registration)
}

// Availability is an optional Endpoint extension: relays with declared
// outage windows report themselves down, and the sidecar skips them
// without burning a request (or a circuit-breaker failure).
type Availability interface {
	Available(at time.Time) bool
}

// Direct adapts an in-process relay.
type Direct struct{ R *relay.Relay }

// RelayName implements Endpoint.
func (d Direct) RelayName() string { return d.R.Name }

// GetHeader implements Endpoint. A relay with no bid for the slot is a
// normal auction outcome, not a fault: it maps to a nil bid so the
// sidecar's circuit breaker only sees real failures.
func (d Direct) GetHeader(slot uint64, proposer types.PubKey) (*pbs.Bid, error) {
	bid, err := d.R.GetHeader(slot, proposer)
	if errors.Is(err, relay.ErrNoBid) {
		return nil, nil
	}
	return bid, err
}

// GetPayload implements Endpoint.
func (d Direct) GetPayload(at time.Time, signed *pbs.SignedBlindedHeader) (*types.Block, error) {
	return d.R.GetPayload(at, signed)
}

// RegisterValidator implements Endpoint.
func (d Direct) RegisterValidator(reg pbs.Registration) { d.R.RegisterValidator(reg) }

// ErrNoBids is returned when no connected relay can serve a header.
var ErrNoBids = errors.New("mevboost: no bids available")

// Breaker is a per-relay circuit breaker. After Threshold consecutive
// failures a relay is skipped until Cooldown elapses; the first success
// after the cooldown probe closes the circuit again. One Breaker is meant
// to be shared across every sidecar instance of a run (sidecars are cheap
// per-slot objects; the failure memory must not be).
type Breaker struct {
	// Threshold is how many consecutive failures open the circuit.
	Threshold int
	// Cooldown is how long an open circuit rejects the relay.
	Cooldown time.Duration

	mu     sync.Mutex
	states map[string]*breakerState
}

type breakerState struct {
	fails     int
	openUntil time.Time
}

// NewBreaker builds a breaker.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{Threshold: threshold, Cooldown: cooldown}
}

// Allow reports whether the relay may be queried at the given time. A nil
// breaker allows everything. An open circuit whose cooldown has elapsed
// allows a single probe; the probe's outcome re-opens or closes it.
func (b *Breaker) Allow(relayName string, at time.Time) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.states[relayName]
	if !ok || st.fails < b.Threshold {
		return true
	}
	return !at.Before(st.openUntil)
}

// Failure records a failed call; at Threshold consecutive failures the
// circuit opens for Cooldown.
func (b *Breaker) Failure(relayName string, at time.Time) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.states == nil {
		b.states = map[string]*breakerState{}
	}
	st := b.states[relayName]
	if st == nil {
		st = &breakerState{}
		b.states[relayName] = st
	}
	st.fails++
	if st.fails >= b.Threshold {
		st.openUntil = at.Add(b.Cooldown)
	}
}

// Success closes the relay's circuit.
func (b *Breaker) Success(relayName string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if st, ok := b.states[relayName]; ok {
		st.fails = 0
	}
}

// BreakerState is one relay's serializable circuit state.
type BreakerState struct {
	Fails     int
	OpenUntil time.Time
}

// Export snapshots every relay's circuit state for checkpointing.
func (b *Breaker) Export() map[string]BreakerState {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]BreakerState, len(b.states))
	for name, st := range b.states {
		out[name] = BreakerState{Fails: st.fails, OpenUntil: st.openUntil}
	}
	return out
}

// Restore replaces the breaker's circuit states from a checkpoint.
func (b *Breaker) Restore(states map[string]BreakerState) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.states = make(map[string]*breakerState, len(states))
	for name, st := range states {
		b.states[name] = &breakerState{fails: st.Fails, openUntil: st.OpenUntil}
	}
}

// StatsSnapshot is a point-in-time copy of the sidecar fault counters.
type StatsSnapshot struct {
	// HeaderErrors counts failed GetHeader calls; PayloadErrors counts
	// failed GetPayload calls.
	HeaderErrors  int
	PayloadErrors int
	// PayloadRetries counts extra passes over the winning relays after the
	// first pass returned no payload.
	PayloadRetries int
	// CircuitSkips counts relays skipped on an open circuit, OutageSkips
	// relays skipped in a declared outage window, BudgetSkips relays never
	// queried because the per-slot header budget ran out.
	CircuitSkips int
	OutageSkips  int
	BudgetSkips  int
}

// Stats accumulates sidecar fault counters; share one instance across the
// per-slot sidecars of a run. All methods are safe on a nil receiver.
type Stats struct {
	mu sync.Mutex
	v  StatsSnapshot
}

func (s *Stats) add(f func(*StatsSnapshot)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f(&s.v)
}

// Restore overwrites the counters from a snapshot (checkpoint resume).
func (s *Stats) Restore(v StatsSnapshot) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.v = v
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	if s == nil {
		return StatsSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.v
}

// Sidecar is one validator's MEV-Boost instance.
type Sidecar struct {
	Key          *crypto.Key
	FeeRecipient types.Address
	Relays       []Endpoint
	// MinBid ignores bids below this value, making local building
	// preferable for dust blocks (a real MEV-Boost option).
	MinBid types.Wei
	// RedundancyProb is the chance the sidecar submits the signed header to
	// every winning relay instead of just the first — the behaviour behind
	// the paper's ~5% of blocks claimed by more than one relay. The draw is
	// deterministic per block hash.
	RedundancyProb float64
	// Breaker, when set, skips circuit-broken relays. Share one across
	// slots.
	Breaker *Breaker
	// Stats, when set, accumulates fault counters. Share one across slots.
	Stats *Stats
	// HeaderBudget bounds the wall-clock time spent collecting headers per
	// slot; relays beyond the budget are skipped (0 = unbounded). Real
	// sidecars must commit well before the slot's attestation deadline.
	HeaderBudget time.Duration
	// PayloadAttempts is how many passes over the winning relays payload
	// retrieval makes before giving up (default 2).
	PayloadAttempts int
	// Clock supplies wall time for the header budget; defaults to
	// time.Now. The simulator's virtual `at` time is not used here because
	// in-process calls are instant — the budget exists for real HTTP
	// relays.
	Clock func() time.Time
}

// New creates a sidecar for a validator key.
func New(key *crypto.Key, feeRecipient types.Address, relays []Endpoint) *Sidecar {
	return &Sidecar{Key: key, FeeRecipient: feeRecipient, Relays: relays}
}

func (s *Sidecar) now() time.Time {
	if s.Clock != nil {
		return s.Clock()
	}
	return time.Now()
}

// Register subscribes the validator to all configured relays.
func (s *Sidecar) Register(at time.Time) {
	reg := pbs.Registration{
		Pubkey:       s.Key.Pub(),
		FeeRecipient: s.FeeRecipient,
		GasLimit:     30_000_000,
		VerifyKey:    s.Key.VerificationKey(),
		Timestamp:    at,
	}
	for _, r := range s.Relays {
		if av, ok := r.(Availability); ok && !av.Available(at) {
			continue
		}
		r.RegisterValidator(reg)
	}
}

// Auction is the outcome of one slot's header auction.
type Auction struct {
	Best *pbs.Bid
	// Winners are every relay that offered the winning block hash; the
	// paper attributes multi-relay blocks fractionally to each.
	Winners []Endpoint
	// WinnerNames are the relay names of Winners.
	WinnerNames []string
}

// CollectBids queries every relay for the slot and selects the best bid by
// claimed value (ties broken by configuration order, as MEV-Boost does).
// Relays in a declared outage or with an open circuit are skipped, and the
// collection stops early once the header budget is exhausted.
func (s *Sidecar) CollectBids(at time.Time, slot uint64) (*Auction, error) {
	var auction Auction
	var deadline time.Time
	if s.HeaderBudget > 0 {
		deadline = s.now().Add(s.HeaderBudget)
	}
	for i, r := range s.Relays {
		if !deadline.IsZero() && s.now().After(deadline) {
			s.Stats.add(func(v *StatsSnapshot) { v.BudgetSkips += len(s.Relays) - i })
			break
		}
		if av, ok := r.(Availability); ok && !av.Available(at) {
			s.Stats.add(func(v *StatsSnapshot) { v.OutageSkips++ })
			continue
		}
		name := r.RelayName()
		if !s.Breaker.Allow(name, at) {
			s.Stats.add(func(v *StatsSnapshot) { v.CircuitSkips++ })
			continue
		}
		bid, err := r.GetHeader(slot, s.Key.Pub())
		if err != nil {
			s.Stats.add(func(v *StatsSnapshot) { v.HeaderErrors++ })
			s.Breaker.Failure(name, at)
			continue
		}
		s.Breaker.Success(name)
		if bid == nil {
			continue
		}
		if !s.MinBid.IsZero() && bid.Value.Lt(s.MinBid) {
			continue
		}
		if auction.Best == nil || bid.Value.Gt(auction.Best.Value) {
			auction.Best = bid
			auction.Winners = auction.Winners[:0]
			auction.WinnerNames = auction.WinnerNames[:0]
			auction.Winners = append(auction.Winners, r)
			auction.WinnerNames = append(auction.WinnerNames, name)
		} else if bid.BlockHash == auction.Best.BlockHash {
			auction.Winners = append(auction.Winners, r)
			auction.WinnerNames = append(auction.WinnerNames, name)
		}
	}
	if auction.Best == nil {
		return nil, ErrNoBids
	}
	return &auction, nil
}

// Proposal is the result of a PBS proposal attempt.
type Proposal struct {
	Block *types.Block
	// PromisedValue is what the winning relay claimed the proposer earns.
	PromisedValue types.Wei
	// Relays are the names of all relays that offered the winning block.
	Relays []string
	// BuilderPubkey identifies the winning builder.
	BuilderPubkey types.PubKey
}

// Propose runs the full blinded flow for the slot: best bid, signed header,
// payload retrieval with retry against every winning relay.
func (s *Sidecar) Propose(at time.Time, slot uint64) (*Proposal, error) {
	auction, err := s.CollectBids(at, slot)
	if err != nil {
		return nil, err
	}
	signed := &pbs.SignedBlindedHeader{
		Slot:           slot,
		BlockHash:      auction.Best.BlockHash,
		ProposerPubkey: s.Key.Pub(),
		Signature:      pbs.SignBlindedHeader(s.Key, slot, auction.Best.BlockHash),
	}
	// Usually the signed header goes to the first winning relay only; with
	// RedundancyProb it goes to every winner, which is the behaviour behind
	// the paper's ~5% of blocks claimed by more than one relay.
	winners := auction.Winners
	names := auction.WinnerNames
	if len(winners) > 1 && !s.redundantFetch(auction.Best.BlockHash) {
		winners = winners[:1]
		names = names[:1]
	}
	attempts := s.PayloadAttempts
	if attempts <= 0 {
		attempts = 2
	}
	var block *types.Block
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			s.Stats.add(func(v *StatsSnapshot) { v.PayloadRetries++ })
		}
		for _, r := range winners {
			b, err := r.GetPayload(at, signed)
			if err != nil {
				lastErr = err
				s.Stats.add(func(v *StatsSnapshot) { v.PayloadErrors++ })
				continue
			}
			if block == nil {
				block = b
			}
		}
		if block != nil {
			break
		}
	}
	if block == nil {
		return nil, fmt.Errorf("mevboost: payload retrieval failed: %w", lastErr)
	}
	return &Proposal{
		Block:         block,
		PromisedValue: auction.Best.Value,
		Relays:        names,
		BuilderPubkey: auction.Best.BuilderPubkey,
	}, nil
}

// redundantFetch draws deterministically from the block hash.
func (s *Sidecar) redundantFetch(h types.Hash) bool {
	if s.RedundancyProb <= 0 {
		return false
	}
	digest := crypto.Keccak256([]byte("mevboost-redundancy"), h[:])
	draw := float64(uint32(digest[0])<<8|uint32(digest[1])) / 65536
	return draw < s.RedundancyProb
}
