package state

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/types"
	"github.com/ethpbs/pbslab/internal/u256"
)

// journalOp is one step of a randomized mutation sequence.
type journalOp struct {
	kind int // 0 credit, 1 debit, 2 set, 3 inc nonce, 4 snapshot, 5 revert
	acct int
	key  int
	v    uint64 // 0 makes a set a deletion
}

var (
	opAccts = []types.Address{alice, bob, pool, crypto.AddressFromSeed("carol")}
	opKeys  = []Slot{r0, r1, balX, balY}
)

func randomOps(r *rand.Rand, n int) []journalOp {
	ops := make([]journalOp, n)
	for i := range ops {
		ops[i] = journalOp{kind: r.Intn(6), acct: r.Intn(len(opAccts)), key: r.Intn(len(opKeys)), v: uint64(r.Intn(4))}
	}
	return ops
}

// apply runs ops on s, keeping its open snapshots on a stack so reverts
// nest; a revert with no open snapshot is skipped.
func apply(s *State, ops []journalOp) {
	var snaps []int
	for _, o := range ops {
		a := opAccts[o.acct]
		switch o.kind {
		case 0:
			s.Credit(a, u256.New(o.v))
		case 1:
			_ = s.Debit(a, u256.New(o.v))
		case 2:
			s.Set(opKeys[o.key], u256.New(o.v))
		case 3:
			s.IncNonce(a)
		case 4:
			snaps = append(snaps, s.Snapshot())
		case 5:
			if n := len(snaps); n > 0 {
				s.RevertTo(snaps[n-1])
				snaps = snaps[:n-1]
			}
		}
	}
}

// opBase is a base state the randomized ops find partly populated, so
// reverts restore present keys as well as delete fresh ones.
func opBase() *State {
	s := New()
	s.SetBalance(alice, u256.New(5))
	s.SetBalance(bob, u256.New(2))
	s.SetNonce(alice, 3)
	s.Set(r0, u256.New(7))
	s.Set(balX, u256.New(1))
	s.ClearJournal()
	return s
}

// TestRecycledJournalMatchesFresh drives identical random mutation
// sequences (credits, debits, zero and non-zero sets, nonce bumps, nested
// snapshots and reverts) through a fresh fork and through a fork whose
// journal array came from a released fork with a longer history. Stale
// entries past the recycled journal's length must never leak into a
// revert: every read, the journal length and the flattened Copy agree.
func TestRecycledJournalMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	base := opBase()
	for round := 0; round < 300; round++ {
		donor := base.Fork()
		long := randomOps(r, 100+r.Intn(200))
		apply(donor, long)
		recycled := donor.journal
		donor.Release()

		fresh, reused := base.Fork(), base.Fork()
		fresh.journal = nil           // never pooled
		reused.journal = recycled[:0] // what Release and Fork hand on
		ops := randomOps(r, r.Intn(len(long)))
		apply(fresh, ops)
		apply(reused, ops)
		// Unwind everything still journalled, then replay: reverts to the
		// very start read the oldest (most likely stale) entries.
		if fresh.Snapshot() != reused.Snapshot() {
			t.Fatalf("round %d: journal length %d fresh, %d recycled", round, fresh.Snapshot(), reused.Snapshot())
		}
		if !reflect.DeepEqual(fresh.Copy().Export(), reused.Copy().Export()) {
			t.Fatalf("round %d: recycled fork diverged from fresh fork", round)
		}
		fresh.RevertTo(0)
		reused.RevertTo(0)
		for _, a := range opAccts {
			if fresh.Balance(a) != reused.Balance(a) || fresh.Nonce(a) != reused.Nonce(a) {
				t.Fatalf("round %d: account %s differs after full revert", round, a)
			}
			if reused.Balance(a) != base.Balance(a) || reused.Nonce(a) != base.Nonce(a) {
				t.Fatalf("round %d: full revert did not restore account %s", round, a)
			}
		}
		for _, k := range opKeys {
			if fresh.Get(k) != reused.Get(k) || reused.Get(k) != base.Get(k) {
				t.Fatalf("round %d: slot %s differs after full revert", round, k)
			}
		}
	}
}

func TestReleaseNonForkIsNoOp(t *testing.T) {
	s := New()
	s.SetBalance(alice, types.Ether(1))
	snap := s.Snapshot()
	s.Credit(alice, types.Ether(2))
	s.Release()
	if s.Snapshot() != snap+1 {
		t.Fatalf("Release dropped a non-fork's journal: length %d, want %d", s.Snapshot(), snap+1)
	}
	s.RevertTo(snap)
	if s.Balance(alice) != types.Ether(1) {
		t.Errorf("revert after Release on a non-fork: balance %s", s.Balance(alice))
	}
}

// TestReleasedForkStaysReadable checks a released fork still reads its own
// writes, and that writing to it afterwards cannot reach the fork that
// received its journal array.
func TestReleasedForkStaysReadable(t *testing.T) {
	base := opBase()
	f := base.Fork()
	f.Credit(alice, u256.New(10))
	f.Set(r1, u256.New(9))
	f.Set(r0, u256.Zero)
	recycled := f.journal
	f.Release()
	f.Release() // idempotent

	if f.Balance(alice) != u256.New(15) || f.Get(r1) != u256.New(9) || !f.Get(r0).IsZero() {
		t.Fatal("released fork lost its writes")
	}
	if f.Snapshot() != 0 {
		t.Errorf("released fork kept %d journal entries", f.Snapshot())
	}

	g := base.Fork()
	g.journal = recycled[:0]
	g.Credit(bob, u256.New(1))
	// A stray write to the released fork starts a fresh journal.
	f.Credit(bob, u256.New(100))
	f.IncNonce(bob)
	g.RevertTo(0)
	if g.Balance(bob) != base.Balance(bob) {
		t.Errorf("stray write to a released fork corrupted the recycled journal: bob %s", g.Balance(bob))
	}
	if f.Balance(bob) != u256.New(102) {
		t.Errorf("stray write lost: bob %s", f.Balance(bob))
	}
}

// TestReleasedJournalComesBackEmpty releases a fork with a long journal
// and checks the next forks, which may receive its array, start with an
// empty journal.
func TestReleasedJournalComesBackEmpty(t *testing.T) {
	base := opBase()
	for i := 0; i < 8; i++ {
		f := base.Fork()
		if f.Snapshot() != 0 {
			t.Fatalf("fork %d started with %d journal entries", i, f.Snapshot())
		}
		apply(f, randomOps(rand.New(rand.NewSource(int64(i))), 200))
		f.Release()
	}
}

// TestOutsizedJournalNotPooled releases a fork whose journal exceeds the
// pool cap and checks no later fork receives that array.
func TestOutsizedJournalNotPooled(t *testing.T) {
	f := New().Fork()
	f.journal = make([]undo, 1, maxPooledJournal+1)
	f.Release()
	for i := 0; i < 64; i++ {
		if cap(New().Fork().journal) == maxPooledJournal+1 {
			t.Fatal("an outsized journal was pooled")
		}
	}
}

// TestConcurrentForkRelease forks, mutates and releases from several
// goroutines at once, as the slot engine's build and validation workers
// do; run under -race it proves the shared pool hands each array to one
// fork at a time.
func TestConcurrentForkRelease(t *testing.T) {
	base := opBase()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				f := base.Fork()
				if f.Snapshot() != 0 {
					errs <- "a fork started with a non-empty pooled journal"
					return
				}
				ops := randomOps(r, 1+r.Intn(60))
				apply(f, ops)
				want := base.Copy()
				apply(want, ops)
				if !reflect.DeepEqual(f.Copy().Export(), want.Export()) {
					errs <- "fork with a pooled journal diverged from a copy"
					return
				}
				f.RevertTo(0)
				if f.Balance(alice) != base.Balance(alice) {
					errs <- "revert on a pooled journal did not restore the base view"
					return
				}
				apply(f, ops) // release with a non-empty journal
				f.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// BenchmarkForkApplyRelease is one speculative execution's state traffic:
// fork a populated state, apply a block-sized burst of writes with
// per-transaction snapshots, and hand the fork back.
func BenchmarkForkApplyRelease(b *testing.B) {
	s := New()
	accts := make([]types.Address, 1000)
	for i := range accts {
		accts[i] = crypto.AddressFromSeed(string(rune(i)))
		s.SetBalance(accts[i], types.Ether(1))
	}
	s.ClearJournal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := s.Fork()
		for tx := 0; tx < 100; tx++ {
			snap := f.Snapshot()
			from, to := accts[tx], accts[999-tx]
			f.IncNonce(from)
			_ = f.Debit(from, u256.New(3))
			f.Credit(to, u256.New(3))
			f.Set(r0, u256.New(uint64(tx)))
			if tx%10 == 9 {
				f.RevertTo(snap)
			}
		}
		f.Release()
	}
}
