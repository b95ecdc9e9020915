// Package ihash implements the incremental memory-state hashing scheme at
// the heart of InstantCheck (Nistor, Marinov, Torrellas — MICRO 2010).
//
// A program memory state S with values v1..vm at addresses a1..am is
// summarized by its State Hash
//
//	SH(S) = h(a1,v1) ⊕ h(a2,v2) ⊕ ... ⊕ h(am,vm)
//
// where h is a conventional hash of one (address, value) pair and ⊕ is
// addition modulo 2^64. Because modulo addition is commutative and
// associative, and modulo subtraction cancels it, the hash can be maintained
// incrementally as the program writes memory:
//
//	SH(S') = SH(S) ⊖ h(a, v_old) ⊕ h(a, v_new)
//
// This is the incremental-hashing construction of Bellare and Micciancio
// (Eurocrypt 1997), which has the same collision resistance as conventional
// hashing: false positives are impossible and the false-negative probability
// for a 64-bit hash is 2^-64 per comparison.
//
// The package provides the location hash h, the ⊕/⊖ group operations, and
// the Digest type that represents a Thread Hash (TH) or State Hash (SH)
// value. Digests from different threads combine with Digest.Combine exactly
// as the paper combines per-core TH registers into SH.
package ihash

import (
	"fmt"
	"hash/crc64"
)

// Digest is a 64-bit incremental hash value: a Thread Hash (TH) accumulated
// by one thread, or a State Hash (SH) obtained by combining Thread Hashes.
// The zero Digest is the hash of the empty (all-untracked) state.
//
// Digest forms an abelian group under Combine (⊕, modulo-2^64 addition),
// with Negate producing inverses. Two memory states hash to equal Digests
// whenever they contain the same multiset of (address, value) pairs.
type Digest uint64

// Zero is the Digest of the empty state.
const Zero Digest = 0

// Combine returns d ⊕ o: the digest of the union of the two underlying
// (address, value) multisets. It is commutative and associative.
func (d Digest) Combine(o Digest) Digest { return d + o }

// Subtract returns d ⊖ o, cancelling a previous Combine with o.
func (d Digest) Subtract(o Digest) Digest { return d - o }

// Negate returns the inverse of d under Combine: d.Combine(d.Negate()) == Zero.
func (d Digest) Negate() Digest { return -d }

// String formats the digest the way the paper's prototype prints hashes.
func (d Digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }

// Hasher computes the location hash h(addr, value) for one memory word.
// Implementations must be deterministic pure functions. InstantCheck's
// correctness requires only that h behave like a good conventional hash;
// the incremental structure comes from the ⊕ group, not from h.
type Hasher interface {
	// HashWord returns h(addr, value) for an 8-byte word.
	HashWord(addr, value uint64) Digest
	// Name identifies the hash function (for reports and debugging).
	Name() string
}

// Mix64 is the default Hasher: a double application of the SplitMix64/
// Murmur3 finalizer over the (address, value) pair. It is fast (a handful of
// multiplies and shifts — the role the paper assigns to the MHM hash unit)
// and passes avalanche tests: flipping any input bit flips each output bit
// with probability ≈ 1/2, which keeps the ⊕-accumulated state hash
// collision-resistant.
type Mix64 struct{}

// HashWord implements Hasher.
func (Mix64) HashWord(addr, value uint64) Digest {
	// Inject the address, mix, inject the value, mix again. The odd
	// constants are the SplitMix64 increments/multipliers.
	x := addr ^ 0x9e3779b97f4a7c15
	x = mix64(x)
	x ^= value
	x = mix64(x)
	return Digest(x | 1) // never zero: h(a,v) == 0 would make a word invisible
}

// Name implements Hasher.
func (Mix64) Name() string { return "mix64" }

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CRC64 is an alternative Hasher built on the ECMA CRC-64 polynomial — the
// paper repeatedly gives CRC as its example of the conventional hash h fed
// into the incremental scheme. It is slower than Mix64 and exists for
// cross-validation: any Hasher must yield the same determinism verdicts.
type CRC64 struct{}

var crcTable = crc64.MakeTable(crc64.ECMA)

// HashWord implements Hasher.
func (CRC64) HashWord(addr, value uint64) Digest {
	var buf [16]byte
	putUint64(buf[0:8], addr)
	putUint64(buf[8:16], value)
	c := crc64.Checksum(buf[:], crcTable)
	// Post-mix: raw CRC is linear over GF(2), which interacts poorly with
	// the ⊕ (mod 2^64) group for adversarial inputs; one finalizer round
	// restores avalanche without losing the "CRC in front" structure.
	return Digest(mix64(c) | 1)
}

// Name implements Hasher.
func (CRC64) Name() string { return "crc64-ecma" }

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// CombineAll folds a set of per-thread digests into a State Hash, as
// InstantCheck's software does at barriers: SH = TH_0 ⊕ TH_1 ⊕ ... .
func CombineAll(ths ...Digest) Digest {
	var sh Digest
	for _, th := range ths {
		sh = sh.Combine(th)
	}
	return sh
}
