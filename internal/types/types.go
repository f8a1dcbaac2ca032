// Package types defines the execution-layer domain objects shared by every
// subsystem: amounts, transactions, headers, blocks, receipts, logs,
// internal-transfer traces and searcher bundles.
//
// Identity (hashes) is always derived from canonical RLP encodings so that
// two structurally equal objects hash equally regardless of how they were
// produced.
package types

import (
	"fmt"
	"math"

	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/rlp"
	"github.com/ethpbs/pbslab/internal/u256"
)

// Re-exported identity types. The rest of the repository imports types and
// never reaches into crypto for these.
type (
	// Address is an execution-layer account address.
	Address = crypto.Address
	// Hash is a 256-bit digest.
	Hash = crypto.Hash
	// PubKey is a consensus-layer public key.
	PubKey = crypto.PubKey
	// Signature is a consensus-layer signature.
	Signature = crypto.Signature
)

// Wei is an amount of ether denominated in wei (10^-18 ETH).
type Wei = u256.Int

// Unit constants.
var (
	// OneGwei is 10^9 wei.
	OneGwei = u256.New(1_000_000_000)
	// OneEther is 10^18 wei.
	OneEther = u256.New(1_000_000_000_000_000_000)
)

// Gwei returns n gwei as a Wei amount.
func Gwei(n uint64) Wei {
	return u256.New(n).Mul(OneGwei)
}

// Ether returns a float ETH amount as Wei, truncated to wei precision.
// It handles the amounts that occur in the simulation (well under 10^13 ETH)
// without overflow.
func Ether(eth float64) Wei {
	if eth <= 0 || math.IsNaN(eth) || math.IsInf(eth, 0) {
		return u256.Zero
	}
	// Split into integer ETH and fractional gwei to preserve precision for
	// small amounts (e.g. 0.0004 ETH builder margins).
	whole := math.Floor(eth)
	frac := eth - whole
	w := u256.New(uint64(whole)).Mul(OneEther)
	fracGwei := uint64(math.Round(frac * 1e9))
	return w.Add(u256.New(fracGwei).Mul(OneGwei))
}

// ToEther converts a Wei amount to float64 ETH for analysis output.
func ToEther(w Wei) float64 {
	return w.Float64() / 1e18
}

// ToGwei converts a Wei amount to float64 gwei.
func ToGwei(w Wei) float64 {
	return w.Float64() / 1e9
}

// Transaction is an EIP-1559 (type-2) transaction. The simulation does not
// carry ECDSA signatures; From is authoritative (see crypto package note on
// substituted primitives).
type Transaction struct {
	Nonce  uint64
	From   Address
	To     Address
	Value  Wei
	Gas    uint64 // gas limit
	MaxFee Wei    // max fee per gas
	MaxTip Wei    // max priority fee per gas
	Data   []byte // calldata, interpreted by internal/evm

	hash Hash // computed once at construction
}

// NewTransaction builds a transaction and computes its hash. All
// transactions must be created through this constructor (or SetHashed after
// mutation in tests) so the cached hash is always valid.
func NewTransaction(nonce uint64, from, to Address, value Wei, gas uint64, maxFee, maxTip Wei, data []byte) *Transaction {
	tx := &Transaction{
		Nonce: nonce, From: from, To: to, Value: value,
		Gas: gas, MaxFee: maxFee, MaxTip: maxTip, Data: data,
	}
	tx.hash = tx.computeHash()
	return tx
}

func (tx *Transaction) computeHash() Hash {
	v := tx.Value.Bytes32()
	mf := tx.MaxFee.Bytes32()
	mt := tx.MaxTip.Bytes32()
	enc := rlp.Encode(rlp.List(
		rlp.Uint(tx.Nonce),
		rlp.String(tx.From[:]),
		rlp.String(tx.To[:]),
		rlp.String(v[:]),
		rlp.Uint(tx.Gas),
		rlp.String(mf[:]),
		rlp.String(mt[:]),
		rlp.String(tx.Data),
	))
	return crypto.Keccak256(enc)
}

// Hash returns the transaction hash.
func (tx *Transaction) Hash() Hash { return tx.hash }

// EffectiveGasPrice returns the per-gas price actually paid under EIP-1559:
// min(MaxFee, baseFee+MaxTip). The ok result is false when MaxFee cannot
// cover the base fee, i.e. the transaction is not includable.
func (tx *Transaction) EffectiveGasPrice(baseFee Wei) (price Wei, ok bool) {
	if tx.MaxFee.Lt(baseFee) {
		return u256.Zero, false
	}
	price = baseFee.Add(tx.MaxTip)
	if price.Gt(tx.MaxFee) {
		price = tx.MaxFee
	}
	return price, true
}

// EffectiveTip returns the per-gas tip to the fee recipient at baseFee, and
// whether the transaction is includable.
func (tx *Transaction) EffectiveTip(baseFee Wei) (tip Wei, ok bool) {
	price, ok := tx.EffectiveGasPrice(baseFee)
	if !ok {
		return u256.Zero, false
	}
	return price.Sub(baseFee), true
}

// String implements fmt.Stringer.
func (tx *Transaction) String() string {
	return fmt.Sprintf("tx(%s from=%s nonce=%d)", tx.hash, tx.From, tx.Nonce)
}

// Log is an event emitted during transaction execution, mirroring
// execution-layer receipts' log entries. MEV detection (internal/mev) works
// from these exactly as the paper's scripts work from mainnet logs.
type Log struct {
	Address Address // emitting contract
	Topics  []Hash
	Data    []byte
	TxHash  Hash
	Index   uint // position within the block's flattened log list
}

// Trace records one internal ETH transfer observed while executing a
// transaction, mirroring the paper's use of Erigon traces to find direct
// payments to the fee recipient.
type Trace struct {
	TxHash Hash
	From   Address
	To     Address
	Value  Wei
}

// Receipt summarizes the execution of one transaction.
type Receipt struct {
	TxHash            Hash
	Status            uint8 // 1 success, 0 reverted
	GasUsed           uint64
	EffectiveGasPrice Wei
	Logs              []Log
}

// Succeeded reports whether the transaction executed without reverting.
func (r *Receipt) Succeeded() bool { return r.Status == 1 }

// Header is an execution-layer block header, restricted to the fields the
// measurement pipeline uses.
type Header struct {
	ParentHash   Hash
	Number       uint64
	Slot         uint64 // consensus-layer slot carrying this block
	Timestamp    uint64 // unix seconds
	FeeRecipient Address
	GasLimit     uint64
	GasUsed      uint64
	BaseFee      Wei
	TxRoot       Hash
	Extra        []byte // builder graffiti
}

// SealHash returns the header's identity hash.
func (h *Header) SealHash() Hash {
	bf := h.BaseFee.Bytes32()
	enc := rlp.Encode(rlp.List(
		rlp.String(h.ParentHash[:]),
		rlp.Uint(h.Number),
		rlp.Uint(h.Slot),
		rlp.Uint(h.Timestamp),
		rlp.String(h.FeeRecipient[:]),
		rlp.Uint(h.GasLimit),
		rlp.Uint(h.GasUsed),
		rlp.String(bf[:]),
		rlp.String(h.TxRoot[:]),
		rlp.String(h.Extra),
	))
	return crypto.Keccak256(enc)
}

// Block is a sealed execution payload.
type Block struct {
	Header *Header
	Txs    []*Transaction

	hash Hash
}

// NewBlock assembles a block, computing the transaction root and the block
// hash. The header is mutated to carry the computed TxRoot.
func NewBlock(header *Header, txs []*Transaction) *Block {
	header.TxRoot = ComputeTxRoot(txs)
	return &Block{Header: header, Txs: txs, hash: header.SealHash()}
}

// ComputeTxRoot derives a commitment to the ordered transaction list.
// Mainnet uses a Merkle-Patricia trie; a flat hash over the ordered
// transaction hashes provides the same binding property for the simulation.
// The hashes stream into one hasher, so the root equals
// crypto.Keccak256 over them without copying any of them.
func ComputeTxRoot(txs []*Transaction) Hash {
	h := crypto.NewHasher()
	for _, tx := range txs {
		h.Add(tx.hash[:])
	}
	return h.Sum()
}

// Hash returns the block's identity hash.
func (b *Block) Hash() Hash { return b.hash }

// Number returns the block height.
func (b *Block) Number() uint64 { return b.Header.Number }

// Bundle is a searcher's atomic transaction sequence, submitted to builders
// through private order flow. Builders must include the transactions
// contiguously and in order, or not at all.
type Bundle struct {
	Txs []*Transaction
	// Searcher identifies the submitting searcher (its payment address).
	Searcher Address
	// TargetBlock restricts inclusion to one height; zero means any.
	TargetBlock uint64
	// DirectPayment is the amount the bundle transfers to the block's fee
	// recipient via coinbase-style internal transfer, on top of gas tips.
	DirectPayment Wei
}

// Hash returns a stable identity for the bundle.
func (b *Bundle) Hash() Hash {
	parts := make([][]byte, 0, len(b.Txs)+1)
	for _, tx := range b.Txs {
		h := tx.Hash()
		parts = append(parts, h[:])
	}
	parts = append(parts, b.Searcher[:])
	return crypto.Keccak256(parts...)
}

// GasLimit returns the total gas limit of the bundle's transactions.
func (b *Bundle) GasLimit() uint64 {
	var sum uint64
	for _, tx := range b.Txs {
		sum += tx.Gas
	}
	return sum
}
