// Package state holds the execution-layer world state: native ETH balances,
// account nonces, and per-contract storage slots (token balances, AMM
// reserves, lending positions, oracle prices all live here).
//
// Keeping *all* mutable chain state in one copyable structure is what makes
// speculative execution work: builders simulate candidate blocks and bundles
// against a Copy of the canonical state and only the canonical chain applies
// the winner, exactly as real block builders run simulations against a
// forked StateDB.
package state

import (
	"fmt"
	"sync"

	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

// Slot identifies one storage cell: the contract, the kind of cell (the
// contract package declares its kinds: a token balance, an AMM reserve,
// ...), and the holder the cell belongs to, zero for contract-wide cells.
// The key is fixed-width and pointer-free, so hashing it is one pass over
// its bytes and the collector never scans the storage maps and undo
// journals that hold it.
type Slot struct {
	Contract types.Address
	Kind     uint8
	Holder   types.Address
}

// String renders the slot for error text: contract/kind, then the holder
// when the cell has one.
func (k Slot) String() string {
	if k.Holder == (types.Address{}) {
		return fmt.Sprintf("%s/%d", k.Contract, k.Kind)
	}
	return fmt.Sprintf("%s/%d/%s", k.Contract, k.Kind, k.Holder)
}

// State is the mutable world state. It is not safe for concurrent use; each
// goroutine works on its own Copy.
//
// State supports cheap speculative execution through an undo journal:
// Snapshot marks a point, RevertTo unwinds every mutation since. Builders
// lean on this when trying bundles — a failing bundle is rolled back in
// O(mutations) instead of re-copying the world.
type State struct {
	balances map[types.Address]types.Wei
	nonces   map[types.Address]uint64
	storage  map[Slot]u256.Int
	journal  []undo
	// base, when non-nil, makes this state a copy-on-write fork: reads fall
	// through to base for keys the fork has not written, and all mutations
	// land in the fork's own maps (zero storage writes become tombstones so
	// deletions shadow the base). The base must not be mutated while forks
	// of it are alive; concurrent forks may then read it safely.
	base *State
	// forkSize holds the entry counts of the last fork AbsorbFork folded
	// into this state. Fork sizes a new fork's maps to them: the forks of
	// one base (a slot round's builds) write about as many keys as the
	// block the previous round committed, so they skip regrowing their
	// maps from empty while they pack.
	forkSize mapSizes
}

// mapSizes counts a state's own balance, nonce and storage entries.
type mapSizes struct{ balances, nonces, storage int }

// undo is one reversible mutation.
type undo struct {
	kind    uint8 // 0 balance, 1 nonce, 2 storage
	addr    types.Address
	slot    Slot
	prevWei types.Wei
	prevN   uint64
	present bool // previous key existed
}

const (
	undoBalance = iota
	undoNonce
	undoStorage
)

// New returns an empty state.
func New() *State {
	return &State{
		balances: map[types.Address]types.Wei{},
		nonces:   map[types.Address]uint64{},
		storage:  map[Slot]u256.Int{},
	}
}

// Snapshot marks the current mutation point for RevertTo.
func (s *State) Snapshot() int { return len(s.journal) }

// RevertTo unwinds every mutation made after the given snapshot.
func (s *State) RevertTo(snap int) {
	for i := len(s.journal) - 1; i >= snap; i-- {
		u := s.journal[i]
		switch u.kind {
		case undoBalance:
			if u.present {
				s.balances[u.addr] = u.prevWei
			} else {
				delete(s.balances, u.addr)
			}
		case undoNonce:
			if u.present {
				s.nonces[u.addr] = u.prevN
			} else {
				delete(s.nonces, u.addr)
			}
		case undoStorage:
			if u.present {
				s.storage[u.slot] = u.prevWei
			} else {
				delete(s.storage, u.slot)
			}
		}
	}
	s.journal = s.journal[:snap]
}

// ClearJournal drops undo history (mutations become permanent). Callers do
// this after committing a block so journals do not grow without bound.
func (s *State) ClearJournal() { s.journal = s.journal[:0] }

func (s *State) noteBalance(addr types.Address) {
	prev, ok := s.balances[addr]
	s.journal = append(s.journal, undo{kind: undoBalance, addr: addr, prevWei: prev, present: ok})
}

func (s *State) noteNonce(addr types.Address) {
	prev, ok := s.nonces[addr]
	s.journal = append(s.journal, undo{kind: undoNonce, addr: addr, prevN: prev, present: ok})
}

func (s *State) noteStorage(sl Slot) {
	prev, ok := s.storage[sl]
	s.journal = append(s.journal, undo{kind: undoStorage, slot: sl, prevWei: prev, present: ok})
}

// Copy returns a deep copy sharing nothing with the receiver. Copying a
// fork flattens it: the result is a plain state holding the merged view.
func (s *State) Copy() *State {
	c := &State{
		balances: make(map[types.Address]types.Wei, len(s.balances)),
		nonces:   make(map[types.Address]uint64, len(s.nonces)),
		storage:  make(map[Slot]u256.Int, len(s.storage)),
	}
	s.flattenInto(c)
	return c
}

// flattenInto layers s (base first, then the fork's writes) into c.
func (s *State) flattenInto(c *State) {
	if s.base != nil {
		s.base.flattenInto(c)
	}
	for a, v := range s.balances {
		c.balances[a] = v
	}
	for a, v := range s.nonces {
		c.nonces[a] = v
	}
	for k, v := range s.storage {
		if v.IsZero() {
			delete(c.storage, k) // tombstone: the fork deleted a base slot
		} else {
			c.storage[k] = v
		}
	}
}

// AbsorbFork folds a fork's writes back into its base in place: the commit
// half of the fork workflow. A block is executed against an O(1) fork (a
// builder packing it, or chain.ValidateFork); absorbing the fork afterwards
// yields the post-block canonical state in O(touched keys) instead of the
// O(accounts) deep copy a Copy-based commit pays. f must be a direct fork
// of s. Absorbing invalidates every other live fork of s — their reads
// would now see post-block values — so callers only absorb at the end of a
// slot round, after all speculative forks are dead. The absorbed writes
// are not journalled; callers commit at block boundaries where the journal
// is cleared anyway.
func (s *State) AbsorbFork(f *State) error {
	if f.base != s {
		return fmt.Errorf("state: AbsorbFork of a state that is not a direct fork of the receiver")
	}
	s.forkSize = mapSizes{len(f.balances), len(f.nonces), len(f.storage)}
	for a, v := range f.balances {
		s.balances[a] = v
	}
	for a, v := range f.nonces {
		s.nonces[a] = v
	}
	for k, v := range f.storage {
		if v.IsZero() {
			delete(s.storage, k) // tombstone: the fork deleted a base slot
		} else {
			s.storage[k] = v
		}
	}
	return nil
}

// Fork returns a copy-on-write view of s in O(1): reads fall through to s
// until the fork writes a key, and every mutation stays in the fork. The
// slot engine hands each speculative execution (builder blocks, the local
// block, searcher probes) its own fork of the canonical state; s must stay
// unmutated while the fork is alive, which also makes several forks of one
// base safe to use from different goroutines. The fork's maps are sized
// to the last fork absorbed into s, and its undo journal reuses an array a
// Released fork gave back, when one is pooled.
func (s *State) Fork() *State {
	n := s.forkSize
	f := &State{
		balances: make(map[types.Address]types.Wei, n.balances),
		nonces:   make(map[types.Address]uint64, n.nonces),
		storage:  make(map[Slot]u256.Int, n.storage),
		base:     s,
	}
	if j, ok := journalPool.Get().(*[]undo); ok {
		f.journal = *j
	}
	return f
}

// journalPool holds undo-journal arrays of released forks, empty but with
// their capacity, so a slot round's forks stop regrowing journals from zero.
var journalPool sync.Pool

// maxPooledJournal caps the capacity (in entries) of a pooled journal. A
// block's execution journals a few hundred entries (at most about 550 in
// the calibrated scenarios); an outsized array is left to the collector
// rather than kept for reuse.
const maxPooledJournal = 1 << 12

// Release gives a fork's undo-journal array back for a later Fork to reuse.
// The fork stays readable, but its journal is dropped, so Snapshot/RevertTo
// history is gone and a stray later write starts a fresh array instead of
// touching the reused one. Call it once nothing will revert the fork again.
// Release on a non-fork, or a second time, is a no-op.
func (s *State) Release() {
	if s.base == nil || cap(s.journal) == 0 {
		return
	}
	j := s.journal[:0]
	s.journal = nil
	if cap(j) <= maxPooledJournal {
		journalPool.Put(&j)
	}
}

// Export returns a deep snapshot of the state for checkpointing. The
// journal is not captured: checkpoints are taken at block boundaries where
// it is empty (ClearJournal runs after every Accept). Forks are flattened.
func (s *State) Export() Snapshot {
	if s.base != nil {
		return s.Copy().Writes()
	}
	return s.Writes()
}

// Writes returns the state's own entries as a Snapshot, without reading
// through to a base: for a fork, exactly the writes it holds over its base
// (zero storage writes included, as the tombstones they are); for a plain
// state, all of it. Two forks of one base that hold equal Writes read
// identically.
func (s *State) Writes() Snapshot {
	sn := Snapshot{
		Balances: make(map[types.Address]types.Wei, len(s.balances)),
		Nonces:   make(map[types.Address]uint64, len(s.nonces)),
		Storage:  make(map[Slot]u256.Int, len(s.storage)),
	}
	for a, v := range s.balances {
		sn.Balances[a] = v
	}
	for a, v := range s.nonces {
		sn.Nonces[a] = v
	}
	for k, v := range s.storage {
		sn.Storage[k] = v
	}
	return sn
}

// FromSnapshot reconstructs a state from an exported snapshot.
func FromSnapshot(sn Snapshot) *State {
	s := New()
	for a, v := range sn.Balances {
		s.balances[a] = v
	}
	for a, v := range sn.Nonces {
		s.nonces[a] = v
	}
	for k, v := range sn.Storage {
		s.storage[k] = v
	}
	return s
}

// Snapshot is a serializable deep copy of a State, used by simulation
// checkpoints. All fields are exported so encoding/gob can round-trip it.
type Snapshot struct {
	Balances map[types.Address]types.Wei
	Nonces   map[types.Address]uint64
	Storage  map[Slot]u256.Int
}

// Balance returns the native balance of addr (zero for unknown accounts).
// The len guards skip hashing the key against empty fork maps: speculative
// probes revert their writes, so a fork's own maps are empty most of the
// time while its base holds the whole world.
func (s *State) Balance(addr types.Address) types.Wei {
	if len(s.balances) > 0 {
		if v, ok := s.balances[addr]; ok {
			return v
		}
	}
	if s.base != nil {
		return s.base.Balance(addr)
	}
	return types.Wei{}
}

// SetBalance overwrites the native balance of addr. Genesis funding only;
// transaction execution must use Credit/Transfer for conservation.
func (s *State) SetBalance(addr types.Address, v types.Wei) {
	s.noteBalance(addr)
	s.balances[addr] = v
}

// Credit adds v to addr's balance.
func (s *State) Credit(addr types.Address, v types.Wei) {
	cur := s.Balance(addr)
	s.noteBalance(addr)
	s.balances[addr] = cur.Add(v)
}

// Debit subtracts v from addr's balance, failing without mutation when the
// balance is insufficient.
func (s *State) Debit(addr types.Address, v types.Wei) error {
	bal := s.Balance(addr)
	if bal.Lt(v) {
		return fmt.Errorf("state: insufficient balance at %s: have %s, need %s", addr, bal, v)
	}
	s.noteBalance(addr)
	s.balances[addr] = bal.Sub(v)
	return nil
}

// Transfer moves v from one account to another atomically.
func (s *State) Transfer(from, to types.Address, v types.Wei) error {
	if err := s.Debit(from, v); err != nil {
		return err
	}
	s.Credit(to, v)
	return nil
}

// Nonce returns the next expected nonce for addr.
func (s *State) Nonce(addr types.Address) uint64 {
	if len(s.nonces) > 0 {
		if n, ok := s.nonces[addr]; ok {
			return n
		}
	}
	if s.base != nil {
		return s.base.Nonce(addr)
	}
	return 0
}

// SetNonce overwrites the nonce; for genesis/test setup.
func (s *State) SetNonce(addr types.Address, n uint64) {
	s.noteNonce(addr)
	s.nonces[addr] = n
}

// IncNonce advances addr's nonce by one.
func (s *State) IncNonce(addr types.Address) {
	cur := s.Nonce(addr)
	s.noteNonce(addr)
	s.nonces[addr] = cur + 1
}

// Get reads a storage slot (zero when unset).
func (s *State) Get(k Slot) u256.Int {
	if len(s.storage) > 0 {
		if v, ok := s.storage[k]; ok {
			return v
		}
	}
	if s.base != nil {
		return s.base.Get(k)
	}
	return u256.Int{}
}

// Set writes a storage slot. Writing zero deletes the slot, keeping Copy
// costs proportional to live state; in a fork the zero is stored as a
// tombstone instead so the deletion shadows the base.
func (s *State) Set(k Slot, v u256.Int) {
	s.noteStorage(k)
	if v.IsZero() && s.base == nil {
		delete(s.storage, k)
		return
	}
	s.storage[k] = v
}

// AddTo adds v to a storage slot interpreted as an amount.
func (s *State) AddTo(k Slot, v u256.Int) {
	s.Set(k, s.Get(k).Add(v))
}

// SubFrom subtracts v from a storage slot, failing without mutation when the
// stored amount is insufficient.
func (s *State) SubFrom(k Slot, v u256.Int) error {
	cur := s.Get(k)
	if cur.Lt(v) {
		return fmt.Errorf("state: slot %s underflow: have %s, need %s", k, cur, v)
	}
	s.Set(k, cur.Sub(v))
	return nil
}

// TotalSupply sums all native balances; conservation checks in tests use it.
func (s *State) TotalSupply() types.Wei {
	if s.base != nil {
		return s.Copy().TotalSupply()
	}
	total := u256.Zero
	for _, v := range s.balances {
		total = total.Add(v)
	}
	return total
}

// Accounts returns the number of accounts with non-zero balance or nonce.
func (s *State) Accounts() int {
	if s.base != nil {
		return s.Copy().Accounts()
	}
	seen := map[types.Address]bool{}
	for a, v := range s.balances {
		if !v.IsZero() {
			seen[a] = true
		}
	}
	for a, n := range s.nonces {
		if n > 0 {
			seen[a] = true
		}
	}
	return len(seen)
}
