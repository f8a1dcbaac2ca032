package state

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

var (
	alice = crypto.AddressFromSeed("alice")
	bob   = crypto.AddressFromSeed("bob")
	pool  = crypto.AddressFromSeed("pool")

	// Storage cells of the test contract: contract-wide r0, r1, r2 and
	// misc, and per-holder balX and balY.
	r0   = Slot{Contract: pool, Kind: 1}
	r1   = Slot{Contract: pool, Kind: 2}
	r2   = Slot{Contract: pool, Kind: 3}
	misc = Slot{Contract: pool, Kind: 9}
	balX = Slot{Contract: pool, Kind: 4, Holder: alice}
	balY = Slot{Contract: pool, Kind: 4, Holder: bob}
)

func TestBalances(t *testing.T) {
	s := New()
	if !s.Balance(alice).IsZero() {
		t.Error("fresh account has balance")
	}
	s.Credit(alice, types.Ether(2))
	if got := s.Balance(alice); got != types.Ether(2) {
		t.Errorf("balance = %s", got)
	}
	if err := s.Debit(alice, types.Ether(3)); err == nil {
		t.Error("overdraft allowed")
	}
	if got := s.Balance(alice); got != types.Ether(2) {
		t.Error("failed debit mutated balance")
	}
	if err := s.Debit(alice, types.Ether(1)); err != nil {
		t.Fatal(err)
	}
	if got := s.Balance(alice); got != types.Ether(1) {
		t.Errorf("after debit: %s", got)
	}
}

func TestTransferConservation(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(10))
	before := s.TotalSupply()
	if err := s.Transfer(alice, bob, types.Ether(4)); err != nil {
		t.Fatal(err)
	}
	if s.TotalSupply() != before {
		t.Error("transfer changed total supply")
	}
	if s.Balance(bob) != types.Ether(4) {
		t.Error("recipient not credited")
	}
	if err := s.Transfer(bob, alice, types.Ether(5)); err == nil {
		t.Error("transfer exceeding balance allowed")
	}
	if s.TotalSupply() != before {
		t.Error("failed transfer changed supply")
	}
}

func TestNonces(t *testing.T) {
	s := New()
	if s.Nonce(alice) != 0 {
		t.Error("fresh nonce not zero")
	}
	s.IncNonce(alice)
	s.IncNonce(alice)
	if s.Nonce(alice) != 2 {
		t.Errorf("nonce = %d", s.Nonce(alice))
	}
	s.SetNonce(alice, 10)
	if s.Nonce(alice) != 10 {
		t.Error("SetNonce ignored")
	}
}

func TestStorage(t *testing.T) {
	s := New()
	if !s.Get(r0).IsZero() {
		t.Error("unset slot not zero")
	}
	s.Set(r0, u256.New(1000))
	if got := s.Get(r0); got != u256.New(1000) {
		t.Errorf("slot = %s", got)
	}
	s.AddTo(r0, u256.New(500))
	if got := s.Get(r0); got != u256.New(1500) {
		t.Errorf("AddTo = %s", got)
	}
	if err := s.SubFrom(r0, u256.New(2000)); err == nil {
		t.Error("slot underflow allowed")
	}
	if err := s.SubFrom(r0, u256.New(1500)); err != nil {
		t.Fatal(err)
	}
	if !s.Get(r0).IsZero() {
		t.Error("slot not zeroed")
	}
}

func TestZeroSlotDeleted(t *testing.T) {
	s := New()
	s.Set(misc, u256.New(1))
	s.Set(misc, u256.Zero)
	if len(s.storage) != 0 {
		t.Error("zero write left a live slot")
	}
}

func TestCopyIsolation(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(1))
	s.SetNonce(alice, 5)
	s.Set(r0, u256.New(42))

	c := s.Copy()
	c.Credit(alice, types.Ether(1))
	c.IncNonce(alice)
	c.Set(r0, u256.New(99))
	c.Set(r1, u256.New(7))

	if s.Balance(alice) != types.Ether(1) {
		t.Error("copy mutation leaked into balance")
	}
	if s.Nonce(alice) != 5 {
		t.Error("copy mutation leaked into nonce")
	}
	if s.Get(r0) != u256.New(42) {
		t.Error("copy mutation leaked into storage")
	}
	if !s.Get(r1).IsZero() {
		t.Error("copy addition leaked into storage")
	}
	// And the original keeps serving the copy's pre-mutation values.
	if c.Balance(alice) != types.Ether(2) || c.Nonce(alice) != 6 {
		t.Error("copy lost its own mutations")
	}
}

func TestAccounts(t *testing.T) {
	s := New()
	if s.Accounts() != 0 {
		t.Error("fresh state has accounts")
	}
	s.SetBalance(alice, types.Ether(1))
	s.IncNonce(bob)
	if got := s.Accounts(); got != 2 {
		t.Errorf("Accounts = %d", got)
	}
	// An account that is both funded and used counts once.
	s.IncNonce(alice)
	if got := s.Accounts(); got != 2 {
		t.Errorf("Accounts after overlap = %d", got)
	}
}

func BenchmarkCopy(b *testing.B) {
	s := New()
	for i := 0; i < 1000; i++ {
		s.SetBalance(crypto.AddressFromSeed(string(rune(i))), types.Ether(1))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Copy()
	}
}

func TestSnapshotRevert(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(5))
	s.SetNonce(alice, 1)
	s.Set(r0, u256.New(100))
	s.ClearJournal()

	snap := s.Snapshot()
	s.Credit(alice, types.Ether(3))
	s.IncNonce(alice)
	s.Set(r0, u256.New(999))
	s.Set(r1, u256.New(7))
	s.SetBalance(bob, types.Ether(1))

	s.RevertTo(snap)
	if s.Balance(alice) != types.Ether(5) {
		t.Errorf("balance after revert = %s", s.Balance(alice))
	}
	if s.Nonce(alice) != 1 {
		t.Errorf("nonce after revert = %d", s.Nonce(alice))
	}
	if s.Get(r0) != u256.New(100) {
		t.Errorf("slot after revert = %s", s.Get(r0))
	}
	if !s.Get(r1).IsZero() {
		t.Error("new slot survived revert")
	}
	if !s.Balance(bob).IsZero() {
		t.Error("new account survived revert")
	}
}

func TestNestedSnapshots(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(1))
	snap1 := s.Snapshot()
	s.Credit(alice, types.Ether(1)) // 2
	snap2 := s.Snapshot()
	s.Credit(alice, types.Ether(1)) // 3

	s.RevertTo(snap2)
	if s.Balance(alice) != types.Ether(2) {
		t.Errorf("after inner revert: %s", s.Balance(alice))
	}
	s.RevertTo(snap1)
	if s.Balance(alice) != types.Ether(1) {
		t.Errorf("after outer revert: %s", s.Balance(alice))
	}
}

func TestRevertAfterDelete(t *testing.T) {
	s := New()
	s.Set(misc, u256.New(5))
	snap := s.Snapshot()
	s.Set(misc, u256.Zero) // deletes the slot
	s.RevertTo(snap)
	if s.Get(misc) != u256.New(5) {
		t.Error("deleted slot not restored")
	}
}

func TestCopyDropsJournal(t *testing.T) {
	s := New()
	snapBefore := s.Snapshot()
	s.SetBalance(alice, types.Ether(1))
	c := s.Copy()
	if c.Snapshot() != 0 {
		t.Error("copy inherited journal")
	}
	// Reverting the copy to 0 must not undo inherited state.
	c.Credit(alice, types.Ether(1))
	c.RevertTo(0)
	if c.Balance(alice) != types.Ether(1) {
		t.Errorf("copy revert corrupted inherited state: %s", c.Balance(alice))
	}
	_ = snapBefore
}

func TestForkReadsFallThrough(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(5))
	s.SetNonce(alice, 3)
	s.Set(r0, u256.New(100))

	f := s.Fork()
	if f.Balance(alice) != types.Ether(5) {
		t.Errorf("fork balance = %s", f.Balance(alice))
	}
	if f.Nonce(alice) != 3 {
		t.Errorf("fork nonce = %d", f.Nonce(alice))
	}
	if f.Get(r0) != u256.New(100) {
		t.Errorf("fork slot = %s", f.Get(r0))
	}
}

func TestForkWritesIsolated(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(5))
	s.SetNonce(alice, 1)
	s.Set(r0, u256.New(100))

	f := s.Fork()
	f.Credit(alice, types.Ether(1))
	f.IncNonce(alice)
	f.Set(r0, u256.New(999))
	f.Set(r1, u256.New(7))
	if err := f.Debit(bob, types.Ether(1)); err == nil {
		t.Error("fork overdraft allowed")
	}

	if s.Balance(alice) != types.Ether(5) || s.Nonce(alice) != 1 {
		t.Error("fork mutation leaked into base account")
	}
	if s.Get(r0) != u256.New(100) || !s.Get(r1).IsZero() {
		t.Error("fork mutation leaked into base storage")
	}
	if f.Balance(alice) != types.Ether(6) || f.Nonce(alice) != 2 {
		t.Error("fork lost its own mutations")
	}
}

func TestForkDeleteShadowsBase(t *testing.T) {
	s := New()
	s.Set(misc, u256.New(5))
	f := s.Fork()
	f.Set(misc, u256.Zero)
	if !f.Get(misc).IsZero() {
		t.Error("fork delete fell through to base")
	}
	if s.Get(misc) != u256.New(5) {
		t.Error("fork delete mutated base")
	}
	// Flattening honours the tombstone.
	if !f.Copy().Get(misc).IsZero() {
		t.Error("flattened copy resurrected deleted slot")
	}
}

func TestForkSnapshotRevert(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(5))
	s.Set(r0, u256.New(100))

	f := s.Fork()
	f.Credit(alice, types.Ether(1))
	snap := f.Snapshot()
	f.Credit(alice, types.Ether(1))
	f.Set(r0, u256.Zero)
	f.Set(r1, u256.New(9))
	f.IncNonce(bob)

	f.RevertTo(snap)
	if f.Balance(alice) != types.Ether(6) {
		t.Errorf("fork balance after revert = %s", f.Balance(alice))
	}
	if f.Get(r0) != u256.New(100) {
		t.Errorf("fork slot after revert = %s", f.Get(r0))
	}
	if !f.Get(r1).IsZero() || f.Nonce(bob) != 0 {
		t.Error("fork revert left stray writes")
	}
}

// TestForkWrites checks Writes lists a fork's own writes and nothing of
// its base: a deletion as its zero tombstone, a reverted write not at all.
func TestForkWrites(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(5))
	s.Set(r0, u256.New(100))
	s.Set(r1, u256.New(7))

	f := s.Fork()
	f.Credit(alice, types.Ether(1))
	f.Set(r0, u256.Zero)
	snap := f.Snapshot()
	f.IncNonce(bob)
	f.Set(r1, u256.New(8))
	f.RevertTo(snap)

	got := f.Writes()
	want := Snapshot{
		Balances: map[types.Address]types.Wei{alice: types.Ether(6)},
		Nonces:   map[types.Address]uint64{},
		Storage:  map[Slot]u256.Int{r0: u256.Zero},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fork writes = %v, want %v", got, want)
	}
	if n := len(s.Writes().Storage); n != 2 {
		t.Errorf("base writes hold %d slots, want its 2", n)
	}
}

// TestForkMatchesCopy drives an identical mutation sequence through a deep
// copy and a fork and checks the flattened views agree — the equivalence
// the parallel slot engine relies on.
func TestForkMatchesCopy(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(10))
	s.SetBalance(bob, types.Ether(3))
	s.Set(r0, u256.New(1000))
	s.Set(r1, u256.New(2000))

	mutate := func(st *State) {
		if err := st.Transfer(alice, bob, types.Ether(2)); err != nil {
			t.Fatal(err)
		}
		st.IncNonce(alice)
		st.AddTo(r0, u256.New(77))
		if err := st.SubFrom(r1, u256.New(2000)); err != nil {
			t.Fatal(err)
		}
		st.Set(r2, u256.New(5))
	}
	c, f := s.Copy(), s.Fork()
	mutate(c)
	mutate(f)

	ff := f.Copy() // flatten
	for _, a := range []types.Address{alice, bob, pool} {
		if c.Balance(a) != ff.Balance(a) {
			t.Errorf("balance %s: copy %s, fork %s", a, c.Balance(a), ff.Balance(a))
		}
		if c.Nonce(a) != ff.Nonce(a) {
			t.Errorf("nonce %s differs", a)
		}
	}
	for _, k := range []Slot{r0, r1, r2} {
		if c.Get(k) != ff.Get(k) {
			t.Errorf("slot %s: copy %s, fork %s", k, c.Get(k), ff.Get(k))
		}
	}
	if c.TotalSupply() != f.TotalSupply() {
		t.Error("supply differs between copy and fork")
	}
	if c.Accounts() != f.Accounts() {
		t.Error("accounts differ between copy and fork")
	}
}

// TestAbsorbFork proves the commit half of the fork workflow: absorbing a
// mutated fork into its base yields exactly the state a Copy-flatten of
// the fork would, including tombstoned deletions, and a fork of a
// different base is rejected.
func TestAbsorbFork(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(10))
	s.SetBalance(bob, types.Ether(3))
	s.Set(r0, u256.New(1000))
	s.Set(r1, u256.New(2000))

	f := s.Fork()
	if err := f.Transfer(alice, bob, types.Ether(2)); err != nil {
		t.Fatal(err)
	}
	f.IncNonce(alice)
	f.AddTo(r0, u256.New(77))
	if err := f.SubFrom(r1, u256.New(2000)); err != nil { // tombstone
		t.Fatal(err)
	}
	f.Set(r2, u256.New(5))

	want := f.Copy() // flatten before absorbing mutates the base
	if err := s.AbsorbFork(s.Fork()); err != nil {
		t.Fatalf("absorb of empty fork: %v", err)
	}
	if err := s.AbsorbFork(f); err != nil {
		t.Fatalf("absorb: %v", err)
	}
	for _, a := range []types.Address{alice, bob} {
		if s.Balance(a) != want.Balance(a) {
			t.Errorf("balance %s: absorbed %s, want %s", a, s.Balance(a), want.Balance(a))
		}
		if s.Nonce(a) != want.Nonce(a) {
			t.Errorf("nonce %s differs", a)
		}
	}
	for _, k := range []Slot{r0, r1, r2} {
		if s.Get(k) != want.Get(k) {
			t.Errorf("slot %s: absorbed %s, want %s", k, s.Get(k), want.Get(k))
		}
	}
	if _, ok := s.storage[r1]; ok {
		t.Error("tombstoned slot survived absorb as a live entry")
	}
	if err := New().AbsorbFork(s.Fork()); err == nil {
		t.Error("absorbing a fork of a different base must fail")
	}
}

// TestForkSizedFromLastAbsorb checks that Fork sizes a new fork from the
// entry counts of the last fork AbsorbFork folded into the same base.
func TestForkSizedFromLastAbsorb(t *testing.T) {
	s := New()
	if s.forkSize != (mapSizes{}) {
		t.Fatalf("fresh state carries fork sizes %+v", s.forkSize)
	}
	f := s.Fork()
	f.SetBalance(alice, types.Ether(1))
	f.SetBalance(bob, types.Ether(2))
	f.IncNonce(alice)
	f.Set(r0, u256.New(1))
	f.Set(r1, u256.New(2))
	f.Set(balX, u256.Zero) // a tombstone is an entry too
	if err := s.AbsorbFork(f); err != nil {
		t.Fatal(err)
	}
	if want := (mapSizes{balances: 2, nonces: 1, storage: 3}); s.forkSize != want {
		t.Errorf("fork sizes %+v, want %+v", s.forkSize, want)
	}
}

// TestSnapshotGobRoundTripTypedKeys sends an exported state through gob,
// as a checkpoint does, and rebuilds it: contract-wide and per-holder
// cells of several kinds must all read back, and a fork's tombstone must
// stay a deletion.
func TestSnapshotGobRoundTripTypedKeys(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(3))
	s.SetNonce(bob, 4)
	other := Slot{Contract: bob, Kind: 200, Holder: pool}
	cells := map[Slot]u256.Int{
		r0: u256.New(10), r1: u256.New(20), balX: u256.New(30), balY: u256.New(40), other: u256.New(50),
	}
	for k, v := range cells {
		s.Set(k, v)
	}
	f := s.Fork()
	f.Set(r0, u256.Zero)
	f.Set(misc, u256.New(60))
	want := f.Export()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(want); err != nil {
		t.Fatal(err)
	}
	var sn Snapshot
	if err := gob.NewDecoder(&buf).Decode(&sn); err != nil {
		t.Fatal(err)
	}
	got := FromSnapshot(sn)
	if !reflect.DeepEqual(got.Export(), want) {
		t.Fatalf("round trip changed the state:\n%+v\nwant\n%+v", got.Export(), want)
	}
	cells[r0] = u256.Zero
	cells[misc] = u256.New(60)
	for k, v := range cells {
		if got.Get(k) != v {
			t.Errorf("slot %s: %s after round trip, want %s", k, got.Get(k), v)
		}
	}
	if got.Balance(alice) != types.Ether(3) || got.Nonce(bob) != 4 {
		t.Error("accounts changed in the round trip")
	}
}

// TestConcurrentForksShareBase races several forks of one base under the
// race detector: reads fall through to shared maps, writes stay private.
func TestConcurrentForksShareBase(t *testing.T) {
	s := New()
	for i := 0; i < 64; i++ {
		s.SetBalance(crypto.AddressFromSeed("acct/"+string(rune('a'+i))), types.Ether(1))
	}
	s.Set(r0, u256.New(500))
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			f := s.Fork()
			for i := 0; i < 100; i++ {
				f.Credit(alice, types.Ether(1))
				f.AddTo(r0, u256.New(1))
				_ = f.Balance(crypto.AddressFromSeed("acct/b"))
			}
			if f.Get(r0) != u256.New(600) {
				done <- fmt.Errorf("goroutine %d: fork state corrupted", g)
				return
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	if s.Get(r0) != u256.New(500) {
		t.Error("base mutated by forks")
	}
}

func BenchmarkFork(b *testing.B) {
	s := New()
	for i := 0; i < 1000; i++ {
		s.SetBalance(crypto.AddressFromSeed(string(rune(i))), types.Ether(1))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := s.Fork()
		f.Credit(alice, types.Ether(1))
	}
}
