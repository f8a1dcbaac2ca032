package crypto

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestKeccak256Deterministic(t *testing.T) {
	a := Keccak256([]byte("hello"))
	b := Keccak256([]byte("hello"))
	if a != b {
		t.Error("same input hashed to different digests")
	}
	if a == Keccak256([]byte("world")) {
		t.Error("different inputs collided")
	}
}

func TestKeccak256LengthFraming(t *testing.T) {
	// The multi-argument form must not be concatenation-ambiguous:
	// H("ab","c") != H("a","bc").
	if Keccak256([]byte("ab"), []byte("c")) == Keccak256([]byte("a"), []byte("bc")) {
		t.Error("length framing missing: split point does not affect digest")
	}
}

// TestKeccak256Framing spells the framing out against SHA-256 directly:
// the domain tag, then each part behind its 8-byte big-endian length. A
// Hasher fed the same parts must agree.
func TestKeccak256Framing(t *testing.T) {
	for _, parts := range [][][]byte{nil, {nil}, {[]byte("a"), []byte("bc"), make([]byte, 300)}} {
		ref := sha256.New()
		ref.Write([]byte("pbslab/keccak"))
		for _, p := range parts {
			var n [8]byte
			binary.BigEndian.PutUint64(n[:], uint64(len(p)))
			ref.Write(n[:])
			ref.Write(p)
		}
		var want Hash
		copy(want[:], ref.Sum(nil))
		if got := Keccak256(parts...); got != want {
			t.Errorf("%d parts: Keccak256 %s, want %s", len(parts), got.Hex(), want.Hex())
		}
		h := NewHasher()
		for _, p := range parts {
			h.Add(p)
		}
		if got := h.Sum(); got != want {
			t.Errorf("%d parts: Hasher %s, want %s", len(parts), got.Hex(), want.Hex())
		}
	}
}

func TestSignVerify(t *testing.T) {
	k := NewKey([]byte("validator-1"))
	msg := []byte("block header bytes")
	sig := k.Sign(msg)
	if !Verify(k.VerificationKey(), msg, sig) {
		t.Error("valid signature rejected")
	}
	if Verify(k.VerificationKey(), []byte("tampered"), sig) {
		t.Error("signature verified for different message")
	}
	other := NewKey([]byte("validator-2"))
	if Verify(other.VerificationKey(), msg, sig) {
		t.Error("signature verified under another key")
	}
	var zero Signature
	if Verify(k.VerificationKey(), msg, zero) {
		t.Error("zero signature verified")
	}
}

func TestSignVerifyQuick(t *testing.T) {
	f := func(seed, msg []byte) bool {
		k := NewKey(seed)
		return Verify(k.VerificationKey(), msg, k.Sign(msg))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistinctSeedsDistinctKeys(t *testing.T) {
	seen := map[PubKey]bool{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		seed := make([]byte, 16)
		r.Read(seed)
		k := NewKey(seed)
		if seen[k.Pub()] {
			t.Fatal("duplicate public key from distinct seed")
		}
		seen[k.Pub()] = true
	}
}

func TestZeroKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sign on zero Key did not panic")
		}
	}()
	var k Key
	k.Sign([]byte("x"))
}

func TestAddressDerivation(t *testing.T) {
	k := NewKey([]byte("builder"))
	a1 := AddressFromPub(k.Pub())
	a2 := AddressFromPub(k.Pub())
	if a1 != a2 {
		t.Error("address derivation not deterministic")
	}
	if a1.IsZero() {
		t.Error("derived address is zero")
	}
	if AddressFromSeed("x") == AddressFromSeed("y") {
		t.Error("seed addresses collided")
	}
}

func TestAddressHexRoundTrip(t *testing.T) {
	f := func(seedBytes []byte) bool {
		a := AddressFromSeed(string(seedBytes))
		parsed, err := ParseAddress(a.Hex())
		return err == nil && parsed == a
	}
	vals := func(args []reflect.Value, r *rand.Rand) {
		b := make([]byte, r.Intn(20))
		r.Read(b)
		args[0] = reflect.ValueOf(b)
	}
	if err := quick.Check(f, &quick.Config{Values: vals}); err != nil {
		t.Error(err)
	}
}

func TestParseAddressErrors(t *testing.T) {
	for _, s := range []string{"", "0x12", "0x" + strings.Repeat("zz", 20), strings.Repeat("ab", 21)} {
		if _, err := ParseAddress(s); err == nil {
			t.Errorf("ParseAddress(%q) succeeded, want error", s)
		}
	}
	want := "0x0b95993a39a363d99280ac950f5e4536ab5c5566"
	a, err := ParseAddress(want)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hex() != want {
		t.Errorf("Hex round trip: %s != %s", a.Hex(), want)
	}
}

func TestParseHashAndPubKey(t *testing.T) {
	h := Keccak256([]byte("x"))
	back, err := ParseHash(h.Hex())
	if err != nil || back != h {
		t.Errorf("hash round trip failed: %v", err)
	}
	if _, err := ParseHash("0x1234"); err == nil {
		t.Error("short hash accepted")
	}
	k := NewKey([]byte("p"))
	pub, err := ParsePubKey(k.Pub().Hex())
	if err != nil || pub != k.Pub() {
		t.Errorf("pubkey round trip failed: %v", err)
	}
	if _, err := ParsePubKey("0xab"); err == nil {
		t.Error("short pubkey accepted")
	}
}

func TestStringShortForms(t *testing.T) {
	h := Keccak256([]byte("x"))
	if len(h.String()) >= len(h.Hex()) {
		t.Error("Hash.String should be shorter than Hex")
	}
	a := AddressFromSeed("x")
	if len(a.String()) >= len(a.Hex()) {
		t.Error("Address.String should be shorter than Hex")
	}
}

func BenchmarkKeccak256(b *testing.B) {
	data := make([]byte, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Keccak256(data)
	}
}

func BenchmarkSign(b *testing.B) {
	k := NewKey([]byte("bench"))
	msg := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Sign(msg)
	}
}
