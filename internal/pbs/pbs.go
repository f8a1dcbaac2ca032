// Package pbs defines the wire objects the Proposer-Builder Separation
// protocol exchanges between builders, relays and proposers, following the
// Flashbots builder/relay specification's shapes: block submissions with
// bid traces, blinded builder bids, signed blinded headers, and validator
// registrations.
package pbs

import (
	"time"

	"github.com/ethpbs/pbslab/internal/crypto"
	"github.com/ethpbs/pbslab/internal/rlp"
	"github.com/ethpbs/pbslab/internal/types"
)

// BidTrace summarizes one builder block submission; relays persist these and
// expose them through the data API the paper crawls.
type BidTrace struct {
	Slot                 uint64
	ParentHash           types.Hash
	BlockHash            types.Hash
	BuilderPubkey        types.PubKey
	ProposerPubkey       types.PubKey
	ProposerFeeRecipient types.Address
	GasLimit             uint64
	GasUsed              uint64
	// Value is the amount the builder claims the proposer will receive.
	// The paper's Table 4 measures how often this claim is honest.
	Value       types.Wei
	NumTx       int
	BlockNumber uint64
}

// SigningBytes returns the canonical byte encoding of the trace for
// signing and verification.
func (bt *BidTrace) SigningBytes() []byte {
	v := bt.Value.Bytes32()
	return rlp.Encode(rlp.List(
		rlp.Uint(bt.Slot),
		rlp.String(bt.ParentHash[:]),
		rlp.String(bt.BlockHash[:]),
		rlp.String(bt.BuilderPubkey[:]),
		rlp.String(bt.ProposerPubkey[:]),
		rlp.String(bt.ProposerFeeRecipient[:]),
		rlp.Uint(bt.GasLimit),
		rlp.Uint(bt.GasUsed),
		rlp.String(v[:]),
		rlp.Uint(uint64(bt.NumTx)),
		rlp.Uint(bt.BlockNumber),
	))
}

// Submission is a full block submission from a builder to a relay.
type Submission struct {
	Trace BidTrace
	// Block is the full execution payload; the relay keeps it in escrow
	// until the proposer commits.
	Block *types.Block
	// Signature is the builder's signature over the trace.
	Signature types.Signature
}

// SignSubmission signs the trace with the builder key.
func SignSubmission(key *crypto.Key, trace *BidTrace) types.Signature {
	return key.Sign(trace.SigningBytes())
}

// VerifySubmission checks the builder's signature given the builder's
// published verification key.
func VerifySubmission(vk crypto.Hash, sub *Submission) bool {
	return crypto.Verify(vk, sub.Trace.SigningBytes(), sub.Signature)
}

// Bid is the blinded builder bid a relay serves to a proposer's MEV-Boost:
// the execution header plus the claimed value — never the transactions.
type Bid struct {
	Relay         string
	Slot          uint64
	Header        *types.Header
	Value         types.Wei
	BlockHash     types.Hash
	BuilderPubkey types.PubKey
}

// HeaderSigningBytes is the message a proposer signs to commit to a blinded
// header.
func HeaderSigningBytes(slot uint64, blockHash types.Hash) []byte {
	return rlp.Encode(rlp.List(
		rlp.Text("blinded-header"),
		rlp.Uint(slot),
		rlp.String(blockHash[:]),
	))
}

// SignedBlindedHeader is the proposer's commitment returned to the relay in
// exchange for the full payload.
type SignedBlindedHeader struct {
	Slot           uint64
	BlockHash      types.Hash
	ProposerPubkey types.PubKey
	Signature      types.Signature
}

// SignBlindedHeader produces the proposer's commitment.
func SignBlindedHeader(key *crypto.Key, slot uint64, blockHash types.Hash) types.Signature {
	return key.Sign(HeaderSigningBytes(slot, blockHash))
}

// VerifyBlindedHeader checks a proposer commitment given the proposer's
// published verification key.
func VerifyBlindedHeader(vk crypto.Hash, h *SignedBlindedHeader) bool {
	return crypto.Verify(vk, HeaderSigningBytes(h.Slot, h.BlockHash), h.Signature)
}

// Registration is a validator's subscription to a relay: where to pay the
// proposer and the verification key relays use to check header signatures.
type Registration struct {
	Pubkey       types.PubKey
	FeeRecipient types.Address
	GasLimit     uint64
	VerifyKey    crypto.Hash
	Timestamp    time.Time
}
