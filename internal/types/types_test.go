package types

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/u256"
)

func addr(s string) Address { return crypto.AddressFromSeed(s) }

func TestUnitConversions(t *testing.T) {
	if got := Gwei(1); got != u256.New(1_000_000_000) {
		t.Errorf("Gwei(1) = %s", got)
	}
	if got := Ether(1); got != OneEther {
		t.Errorf("Ether(1) = %s", got)
	}
	if got := ToEther(Ether(2.5)); got != 2.5 {
		t.Errorf("ToEther(Ether(2.5)) = %g", got)
	}
	if got := ToEther(Ether(0.0004)); got != 0.0004 {
		t.Errorf("small amount: %g", got)
	}
	if got := ToGwei(Gwei(17)); got != 17 {
		t.Errorf("ToGwei = %g", got)
	}
	if !Ether(-1).IsZero() {
		t.Error("negative ether should clamp to zero")
	}
}

func TestEtherRoundTripQuick(t *testing.T) {
	// Exact below 2^53 wei-gwei boundaries is too strict for float64; the
	// analysis needs ~nano-ETH relative accuracy, so that is the property.
	f := func(milli uint32) bool {
		eth := float64(milli) / 1000.0
		back := ToEther(Ether(eth))
		if eth == 0 {
			return back == 0
		}
		rel := (back - eth) / eth
		return rel < 1e-9 && rel > -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func newTestTx(nonce uint64, tip uint64) *Transaction {
	return NewTransaction(nonce, addr("alice"), addr("bob"),
		Ether(1), 21_000, Gwei(100), Gwei(tip), nil)
}

func TestTransactionHashStable(t *testing.T) {
	a := newTestTx(1, 2)
	b := newTestTx(1, 2)
	if a.Hash() != b.Hash() {
		t.Error("equal transactions hashed differently")
	}
	c := newTestTx(2, 2)
	if a.Hash() == c.Hash() {
		t.Error("different nonces produced equal hashes")
	}
	d := newTestTx(1, 3)
	if a.Hash() == d.Hash() {
		t.Error("different tips produced equal hashes")
	}
}

func TestEffectiveGasPrice(t *testing.T) {
	tx := NewTransaction(0, addr("a"), addr("b"), u256.Zero, 21_000,
		Gwei(50), Gwei(2), nil)

	// Normal case: baseFee + tip below max fee.
	price, ok := tx.EffectiveGasPrice(Gwei(10))
	if !ok || price != Gwei(12) {
		t.Errorf("price = %s ok=%v, want 12 gwei", price, ok)
	}
	tip, ok := tx.EffectiveTip(Gwei(10))
	if !ok || tip != Gwei(2) {
		t.Errorf("tip = %s ok=%v, want 2 gwei", tip, ok)
	}

	// Capped case: baseFee + tip above max fee.
	price, ok = tx.EffectiveGasPrice(Gwei(49))
	if !ok || price != Gwei(50) {
		t.Errorf("capped price = %s ok=%v, want 50 gwei", price, ok)
	}
	tip, ok = tx.EffectiveTip(Gwei(49))
	if !ok || tip != Gwei(1) {
		t.Errorf("capped tip = %s, want 1 gwei", tip)
	}

	// Unincludable: baseFee above max fee.
	if _, ok = tx.EffectiveGasPrice(Gwei(51)); ok {
		t.Error("transaction includable above its max fee")
	}
	if _, ok = tx.EffectiveTip(Gwei(51)); ok {
		t.Error("tip computed above max fee")
	}
}

func TestEffectiveTipNeverNegative(t *testing.T) {
	f := func(maxFeeG, maxTipG, baseG uint32) bool {
		tx := NewTransaction(0, addr("a"), addr("b"), u256.Zero, 21_000,
			Gwei(uint64(maxFeeG)), Gwei(uint64(maxTipG)), nil)
		base := Gwei(uint64(baseG))
		tip, ok := tx.EffectiveTip(base)
		if !ok {
			return Gwei(uint64(maxFeeG)).Lt(base)
		}
		price := base.Add(tip)
		return !price.Gt(tx.MaxFee) && !tip.Gt(tx.MaxTip)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeaderSealHash(t *testing.T) {
	h := &Header{
		Number: 15_537_394, Slot: 4_700_013, Timestamp: 1_663_224_179,
		FeeRecipient: addr("builder"), GasLimit: 30_000_000, GasUsed: 15_000_000,
		BaseFee: Gwei(12),
	}
	h1 := h.SealHash()
	h.GasUsed++
	if h.SealHash() == h1 {
		t.Error("changing GasUsed did not change seal hash")
	}
}

func TestBlockAssembly(t *testing.T) {
	txs := []*Transaction{newTestTx(0, 1), newTestTx(1, 2)}
	header := &Header{Number: 100, FeeRecipient: addr("b"), BaseFee: Gwei(10)}
	blk := NewBlock(header, txs)
	if blk.Header.TxRoot.IsZero() {
		t.Error("TxRoot not set")
	}
	if blk.Hash() != header.SealHash() {
		t.Error("block hash != header seal hash")
	}
	if blk.Number() != 100 {
		t.Errorf("Number = %d", blk.Number())
	}

	// Reordering transactions must change the root.
	header2 := &Header{Number: 100, FeeRecipient: addr("b"), BaseFee: Gwei(10)}
	blk2 := NewBlock(header2, []*Transaction{txs[1], txs[0]})
	if blk.Header.TxRoot == blk2.Header.TxRoot {
		t.Error("reordered transactions share a TxRoot")
	}
}

func TestBundle(t *testing.T) {
	b := &Bundle{
		Txs:      []*Transaction{newTestTx(0, 5), newTestTx(1, 5)},
		Searcher: addr("searcher"),
	}
	if b.GasLimit() != 42_000 {
		t.Errorf("GasLimit = %d", b.GasLimit())
	}
	h := b.Hash()
	b2 := &Bundle{Txs: b.Txs, Searcher: addr("other")}
	if b2.Hash() == h {
		t.Error("bundles from different searchers share a hash")
	}
}

func TestBundleHashOrderSensitive(t *testing.T) {
	t1, t2 := newTestTx(0, 1), newTestTx(1, 1)
	a := &Bundle{Txs: []*Transaction{t1, t2}, Searcher: addr("s")}
	b := &Bundle{Txs: []*Transaction{t2, t1}, Searcher: addr("s")}
	if a.Hash() == b.Hash() {
		t.Error("bundle hash ignores transaction order")
	}
}

func TestComputeTxRootEmpty(t *testing.T) {
	if ComputeTxRoot(nil).IsZero() {
		t.Error("empty tx root should still be a defined digest")
	}
}

// TestComputeTxRootMatchesKeccakOfHashes holds the streamed root to the
// commitment it stands for: Keccak256 over the ordered transaction hashes.
func TestComputeTxRootMatchesKeccakOfHashes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 57} {
		txs := make([]*Transaction, n)
		parts := make([][]byte, n)
		for i := range txs {
			txs[i] = NewTransaction(uint64(i), addr("from"), addr("to"), Gwei(uint64(i)), 21_000, Gwei(30), Gwei(2), nil)
			h := txs[i].Hash()
			parts[i] = h[:]
		}
		if got, want := ComputeTxRoot(txs), crypto.Keccak256(parts...); got != want {
			t.Errorf("%d txs: root %s, want %s", n, got.Hex(), want.Hex())
		}
	}
}

func TestReceiptSucceeded(t *testing.T) {
	r := &Receipt{Status: 1}
	if !r.Succeeded() {
		t.Error("status 1 should succeed")
	}
	r.Status = 0
	if r.Succeeded() {
		t.Error("status 0 should not succeed")
	}
}

func TestTxHashUniqueQuick(t *testing.T) {
	seen := map[Hash]bool{}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		tx := NewTransaction(r.Uint64(), addr("a"), addr("b"),
			u256.New(r.Uint64()), 21_000, Gwei(100), Gwei(1), nil)
		if seen[tx.Hash()] {
			t.Fatal("hash collision across distinct transactions")
		}
		seen[tx.Hash()] = true
	}
}
