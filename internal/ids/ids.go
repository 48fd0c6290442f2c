// Package ids implements the 160-bit circular identifier space shared by
// Corona nodes and channels.
//
// Identifiers are SHA-1 hashes (of a node's address or a channel's URL)
// interpreted as unsigned 160-bit integers on a ring. The overlay treats an
// identifier as a sequence of base-b digits, where b is a power of two; the
// prefix digits shared between a node ID and a channel ID determine wedge
// membership for cooperative polling (paper §3.1).
package ids

import (
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
)

// Bits is the width of an identifier in bits.
const Bits = 160

// Bytes is the width of an identifier in bytes.
const Bytes = Bits / 8

// ID is a 160-bit identifier on the circular numeric space. IDs order as
// big-endian unsigned integers; the ring wraps at 2^160.
type ID [Bytes]byte

// Zero is the all-zero identifier.
var Zero ID

// HashString derives an identifier from an arbitrary string, such as a
// channel URL or a node's network address, using SHA-1 as in the prototype
// (paper §4).
func HashString(s string) ID {
	return ID(sha1.Sum([]byte(s)))
}

// FromHex parses a 40-character hexadecimal string into an ID.
func FromHex(s string) (ID, error) {
	var id ID
	if len(s) != Bytes*2 {
		return id, fmt.Errorf("ids: hex string has length %d, want %d", len(s), Bytes*2)
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("ids: invalid hex: %w", err)
	}
	copy(id[:], b)
	return id, nil
}

// MustFromHex is FromHex for tests and literals; it panics on error.
func MustFromHex(s string) ID {
	id, err := FromHex(s)
	if err != nil {
		panic(err)
	}
	return id
}

// Random returns a uniformly random identifier drawn from rng.
func Random(rng *rand.Rand) ID {
	var id ID
	for i := 0; i < Bytes; {
		v := rng.Uint64()
		for j := 0; j < 8 && i < Bytes; j++ {
			id[i] = byte(v >> (56 - 8*j))
			i++
		}
	}
	return id
}

// String renders the identifier as lowercase hex.
func (id ID) String() string {
	return hex.EncodeToString(id[:])
}

// Short renders the first 8 hex digits, for logs.
func (id ID) Short() string {
	return hex.EncodeToString(id[:4])
}

// Cmp compares two identifiers as big-endian unsigned integers, returning
// -1, 0, or +1.
func (id ID) Cmp(other ID) int {
	for i := 0; i < Bytes; i++ {
		switch {
		case id[i] < other[i]:
			return -1
		case id[i] > other[i]:
			return 1
		}
	}
	return 0
}

// IsZero reports whether the identifier is all zeros.
func (id ID) IsZero() bool {
	return id == Zero
}

// Add returns id + other mod 2^160.
func (id ID) Add(other ID) ID {
	var out ID
	var carry uint16
	for i := Bytes - 1; i >= 0; i-- {
		sum := uint16(id[i]) + uint16(other[i]) + carry
		out[i] = byte(sum)
		carry = sum >> 8
	}
	return out
}

// Sub returns id - other mod 2^160 (the clockwise distance from other to id).
func (id ID) Sub(other ID) ID {
	var out ID
	var borrow int16
	for i := Bytes - 1; i >= 0; i-- {
		d := int16(id[i]) - int16(other[i]) - borrow
		if d < 0 {
			d += 256
			borrow = 1
		} else {
			borrow = 0
		}
		out[i] = byte(d)
	}
	return out
}

// Distance returns the shorter arc length between two identifiers on the
// ring, i.e. min(a-b, b-a) mod 2^160.
func (id ID) Distance(other ID) ID {
	d1 := id.Sub(other)
	d2 := other.Sub(id)
	if d1.Cmp(d2) <= 0 {
		return d1
	}
	return d2
}

// Between reports whether id lies in the half-open clockwise arc (from, to].
// If from == to the arc covers the whole ring.
func (id ID) Between(from, to ID) bool {
	if from == to {
		return true
	}
	if from.Cmp(to) < 0 {
		return id.Cmp(from) > 0 && id.Cmp(to) <= 0
	}
	// The arc wraps around zero.
	return id.Cmp(from) > 0 || id.Cmp(to) <= 0
}

// Base describes the digit radix used by the overlay. The paper's prototype
// uses base 16 (§4); bases must be powers of two so digits align to bits.
type Base struct {
	bits int // bits per digit: 1, 2, or 4
}

// NewBase constructs a Base for radix b, which must be 2, 4, or 16.
func NewBase(b int) (Base, error) {
	switch b {
	case 2:
		return Base{bits: 1}, nil
	case 4:
		return Base{bits: 2}, nil
	case 16:
		return Base{bits: 4}, nil
	}
	return Base{}, errors.New("ids: base must be 2, 4, or 16")
}

// MustBase is NewBase for configuration literals; it panics on error.
func MustBase(b int) Base {
	base, err := NewBase(b)
	if err != nil {
		panic(err)
	}
	return base
}

// Radix returns the numeric radix (2, 4, or 16).
func (b Base) Radix() int {
	return 1 << b.bits
}

// NumDigits returns how many base-b digits an identifier has.
func (b Base) NumDigits() int {
	return Bits / b.bits
}

// Digit returns the i-th most significant base-b digit of id, in [0,Radix).
func (b Base) Digit(id ID, i int) int {
	bitOff := i * b.bits
	byteOff := bitOff / 8
	shift := 8 - b.bits - (bitOff % 8)
	return int(id[byteOff]>>shift) & (b.Radix() - 1)
}

// CommonPrefix returns the number of leading base-b digits shared by a and b.
func (b Base) CommonPrefix(x, y ID) int {
	n := 0
	for i := 0; i < b.NumDigits(); i++ {
		if b.Digit(x, i) != b.Digit(y, i) {
			break
		}
		n++
	}
	return n
}

// InWedge reports whether node belongs to the level-l wedge of channel:
// the set of nodes sharing at least l prefix digits with the channel ID.
// Level 0 is the whole ring (paper §3.1).
func (b Base) InWedge(node, channel ID, level int) bool {
	if level <= 0 {
		return true
	}
	return b.CommonPrefix(node, channel) >= level
}

// WithDigit returns a copy of id whose i-th digit is set to d. It is used
// when constructing routing-table probe targets.
func (b Base) WithDigit(id ID, i, d int) ID {
	bitOff := i * b.bits
	byteOff := bitOff / 8
	shift := 8 - b.bits - (bitOff % 8)
	mask := byte((b.Radix() - 1) << shift)
	id[byteOff] = (id[byteOff] &^ mask) | byte(d<<shift)&mask
	return id
}

// MaxLevel returns ceil(log_b n), the base polling level K at which, in
// expectation, a single node (the owner) shares K prefix digits with a
// channel (paper §3.3: "initially, only the owner nodes at level
// K = ceil(log N) poll for the channels").
func (b Base) MaxLevel(n int) int {
	if n <= 1 {
		return 0
	}
	level := 0
	total := 1
	for total < n {
		total *= b.Radix()
		level++
	}
	return level
}

// WedgeSize returns the expected number of nodes in a level-l wedge of an
// n-node overlay: n / b^l, with a floor of 1 (the owner always polls).
func (b Base) WedgeSize(n, level int) float64 {
	size := float64(n)
	for i := 0; i < level; i++ {
		size /= float64(b.Radix())
	}
	if size < 1 {
		return 1
	}
	return size
}
